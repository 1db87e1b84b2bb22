import functools
import math
import random

import pytest

from frobpow.groebner import buchberger, monomials_of_degree, standard_monomials
from frobpow.polynomials import Polynomial, monomial_degree, monomial_lcm, poly_parse
from frobpow.rings import AssumptionMissing, RingPresentation

from conftest import fermat_cubic_ring, fermat_quartic_ring

XY = ("x", "y")
XYZ = ("x", "y", "z")


def poly_ring(p, names, flags=("cohen_macaulay",)):
    return RingPresentation(p, names, flags=flags)


# -- hilbert function ------------------------------------------------------

def test_hilbert_cubic_hypersurface():
    ring = fermat_cubic_ring()
    assert ring.hilbert_dim(2) == 6
    assert [ring.hilbert_dim(m) for m in range(6)] == [1, 3, 6, 9, 12, 15]


def test_hilbert_degree_zero():
    assert fermat_cubic_ring().hilbert_dim(0) == 1
    assert poly_ring(5, XY).hilbert_dim(0) == 1


def test_hilbert_polynomial_ring_two_vars():
    ring = poly_ring(5, XY)
    assert ring.hilbert_dim(5) == 6
    assert all(ring.hilbert_dim(m) == m + 1 for m in range(10))


def test_hilbert_negative_degree_is_zero():
    assert fermat_cubic_ring().hilbert_dim(-3) == 0
    # and the basis is empty: in one variable the last variable must not take
    # the negative remaining degree
    assert fermat_cubic_ring().graded_basis(-3) == ()
    assert poly_ring(2, ("x",)).graded_basis(-1) == ()


def test_hilbert_matches_standard_monomial_count():
    rings = [
        fermat_cubic_ring(),
        fermat_quartic_ring(),
        poly_ring(2, XY),
    ]
    for ring in rings:
        for m in range(31):
            assert len(ring.graded_basis(m)) == ring.hilbert_dim(m)


def test_hilbert_eventually_polynomial():
    # (dim R)-th finite differences vanish on [20, 30]
    for ring in (fermat_cubic_ring(), fermat_quartic_ring(), poly_ring(3, XYZ)):
        vals = [ring.hilbert_dim(m) for m in range(20, 31)]
        for _ in range(ring.dim - 1):  # Hilbert polynomial degree is dim - 1
            vals = [b - a for a, b in zip(vals, vals[1:])]
        assert all(v == vals[0] for v in vals) and vals[0] != 0
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(v == 0 for v in diffs)


# -- graded bases ----------------------------------------------------------

def test_graded_basis_degree_one(cubic):
    basis = cubic.graded_basis(1)
    assert set(basis) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_graded_basis_degree_three_excludes_lead(cubic):
    basis = cubic.graded_basis(3)
    assert len(basis) == 9
    assert (3, 0, 0) not in basis


def test_graded_basis_degree_zero(cubic):
    assert cubic.graded_basis(0) == ((0, 0, 0),)


# -- numeric invariants ----------------------------------------------------

def test_ring_degree():
    assert fermat_cubic_ring().ring_degree() == 3
    assert poly_ring(5, XY).ring_degree() == 1
    assert fermat_quartic_ring().ring_degree() == 4


def test_a_invariant():
    assert fermat_cubic_ring().a_invariant() == 0
    assert fermat_quartic_ring().a_invariant() == 0
    assert poly_ring(5, XY).a_invariant() == -2
    assert sum(fermat_cubic_ring().relation_degrees) == (
        fermat_cubic_ring().a_invariant() + 3
    )


def test_regularity():
    assert fermat_cubic_ring().regularity() == 2
    assert poly_ring(5, XY).regularity() == 0
    assert fermat_quartic_ring().regularity() == 3


def test_regularity_refuses_without_cm_flag():
    ring = fermat_cubic_ring(flags=("normal_domain",))
    with pytest.raises(AssumptionMissing) as err:
        ring.regularity()
    assert "cohen_macaulay" in str(err.value)


def test_dimension_convention():
    assert fermat_cubic_ring().dim == 2
    assert fermat_quartic_ring().dim == 3
    assert poly_ring(5, XY).dim == 2


# -- validation ------------------------------------------------------------

def test_rejects_inhomogeneous_relation():
    with pytest.raises(ValueError):
        RingPresentation(5, XY, [poly_parse("x^2+y", XY, 5)])


def test_rejects_unknown_flag():
    with pytest.raises(ValueError):
        RingPresentation(5, XY, flags=("definitely_not_a_flag",))


def test_rejects_composite_characteristic():
    from frobpow.polynomials import PolyError

    with pytest.raises(PolyError):
        RingPresentation(6, XY)


def _complete_intersection_hilbert(num_vars, degrees, top):
    """Coefficients of t^0..t^top in prod (1 - t^d) / (1 - t)^num_vars."""
    series = [math.comb(m + num_vars - 1, num_vars - 1) for m in range(top + 1)]
    for d in degrees:
        series = [c - (series[m - d] if m >= d else 0) for m, c in enumerate(series)]
    return series


def _random_relation(rng, p, num_vars):
    """A monomial, or a binomial of two distinct monomials, of degree 1..3."""
    monos = list(monomials_of_degree(num_vars, rng.randint(1, 3)))
    chosen = rng.sample(monos, rng.choice([1, 2]))
    return Polynomial(p, num_vars, {m: rng.randint(1, p - 1) for m in chosen})


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("num_vars", [3, 4])
def test_complete_intersection_check_matches_hilbert_counts(p, num_vars):
    # Oracle: the relations form a complete intersection exactly when the
    # standard monomials of their Groebner basis are counted by the
    # complete-intersection Hilbert function up to max(sum of degrees, degree
    # of the lcm of the leading monomials), the largest degree in which the
    # two Hilbert-series numerators can have a term.
    rng = random.Random(10 * p + num_vars)
    names = ("x", "y", "z", "w")[:num_vars]
    verdicts = []
    for _ in range(40):
        rels = [_random_relation(rng, p, num_vars)
                for _ in range(rng.randint(1, num_vars - 1))]
        gb = buchberger(rels)
        top = max(sum(h.degree() for h in rels),
                  monomial_degree(functools.reduce(monomial_lcm, gb.leading_monomials)))
        hilbert = _complete_intersection_hilbert(
            num_vars, [h.degree() for h in rels], top
        )
        is_ci = all(
            len(standard_monomials(gb, m)) == hilbert[m] for m in range(top + 1)
        )
        if is_ci:
            RingPresentation(p, names, rels)
        else:
            with pytest.raises(ValueError, match="not a complete intersection"):
                RingPresentation(p, names, rels)
        verdicts.append(is_ci)
    assert 5 <= sum(verdicts) <= 35  # both answers are exercised


# -- normal forms ----------------------------------------------------------

def test_ring_normal_form_consistent_with_division(cubic):
    from frobpow.groebner import normal_form

    for text in ("x^5+x*y*z", "x^3", "x^4*y^2*z", "x^9+y^9+z^9"):
        f = cubic.parse(text)
        assert cubic.normal_form(f) == normal_form(f, cubic.groebner_basis())


def test_ring_normal_form_is_linear(cubic):
    f = cubic.parse("x^4+2*y^4")
    g = cubic.parse("x^3*y")
    lhs = cubic.normal_form(f + g)
    rhs = cubic.normal_form(f) + cubic.normal_form(g)
    assert lhs == rhs


def test_deep_reduction_chain_does_not_overflow_stack():
    # p is above every exponent, so the Frobenius rule never applies and
    # x^3001 = x * (x^2)^1500 reduces one step at a time: a chain 1500 deep,
    # above the interpreter's recursion limit
    ring = RingPresentation(65537, XY, [poly_parse("x^2+y^2", XY, 65537)])
    nf = ring.normal_form(ring.parse("x^3001"))
    assert nf == ring.parse("x*y^3000")
    assert len(ring._nf_cache) > 1500


def _quadrics_ring():
    """The first complete intersection of two random quadrics in F_3[x,y,z,w]
    drawn from seed 0; its Groebner basis has a cubic."""
    rng = random.Random(0)
    quads = list(monomials_of_degree(4, 2))
    while True:
        rels = [
            Polynomial(3, 4, {m: rng.randint(1, 2) for m in rng.sample(quads, 5)})
            for _ in range(2)
        ]
        try:
            return RingPresentation(3, ("x", "y", "z", "w"), rels)
        except ValueError:
            continue


NF_RINGS = {
    "cubic_p2": lambda: fermat_cubic_ring(2),
    "cubic_p7": lambda: fermat_cubic_ring(7),
    "quartic_p3": lambda: fermat_quartic_ring(3),
    "quadrics_p3": _quadrics_ring,
}


@pytest.mark.parametrize("name", sorted(NF_RINGS))
def test_normal_form_matches_plain_division(name):
    # Differential test of the Frobenius rule against groebner.normal_form,
    # which divides step by step.  The monomials are x^(p^2 * lm) times a
    # monomial of degree up to p^2, lm a leading monomial, so x^(a // p^2)
    # is not standard and the rule nests at least twice.
    from frobpow.groebner import normal_form

    ring = NF_RINGS[name]()
    p, n, gb = ring.p, ring.num_vars, ring.groebner_basis()
    rng = random.Random(p)
    for lm in gb.leading_monomials:
        for extra in (0, 1, p, p * p):
            s = rng.choice(list(monomials_of_degree(n, extra)))
            a = tuple(p * p * x + y for x, y in zip(lm, s))
            f = Polynomial(p, n, {a: 1})
            assert ring.normal_form(f) == normal_form(f, gb), a
            assert tuple(e // (p * p) for e in a) in ring._nf_cache
    # Frobenius powers of random linear forms up to q = p^3, of quadrics up to
    # p^2 (plain division of a quadric's 343rd power takes seconds)
    for d, top in ((1, p**3), (2, p * p)):
        f = Polynomial(
            p, n, {m: rng.randint(1, p - 1) for m in monomials_of_degree(n, d)}
        )
        q = p
        while q <= top:
            fq = f.frobenius_power(q)
            assert ring.normal_form(fq) == normal_form(fq, gb), (d, q)
            q *= p


def test_frobenius_rule_keeps_the_cache_small():
    # reduced one leading-monomial step at a time, NF(x^686) would leave
    # 26,335 cache entries holding 798,035 terms
    ring = fermat_cubic_ring(7)
    ring.monomial_normal_form((686, 0, 0))
    assert len(ring._nf_cache) < 1000
