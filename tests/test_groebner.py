import itertools
import random

import pytest

from frobpow import groebner
from frobpow.groebner import (
    DegreeCapExceeded,
    GroebnerBasis,
    buchberger,
    monomials_of_degree,
    normal_form,
    _reversed,
    s_polynomial,
    standard_monomials,
)
from frobpow.polynomials import (
    Polynomial,
    grevlex_key,
    monomial_divides,
    poly_parse,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def gb_of(texts, names, p):
    return buchberger([poly_parse(t, names, p) for t in texts])


def test_principal_ideal_is_its_own_basis():
    gb = gb_of(["x^3+y^3+z^3"], XYZ, 7)
    assert len(gb) == 1
    assert gb.generators[0] == poly_parse("x^3+y^3+z^3", XYZ, 7)


def test_buchberger_adds_y_cubed():
    gb = gb_of(["x^2", "x*y+y^2"], XY, 5)
    polys = set(gb.generators)
    assert polys == {
        poly_parse("x^2", XY, 5),
        poly_parse("x*y+y^2", XY, 5),
        poly_parse("y^3", XY, 5),
    }


def test_buchberger_linear_ideal():
    gb = gb_of(["x", "y"], XY, 3)
    assert set(gb.generators) == {poly_parse("x", XY, 3), poly_parse("y", XY, 3)}


def test_all_s_polynomials_reduce_to_zero():
    # independent confirmation of the Groebner property
    for texts, names, p in [
        (["x^2", "x*y+y^2"], XY, 5),
        (["x^3+y^3+z^3"], XYZ, 7),
        (["x^2+y*z", "y^2+x*z", "z^2+x*y"], XYZ, 3),
    ]:
        gb = gb_of(texts, names, p)
        for f, g in itertools.combinations(gb.generators, 2):
            s = s_polynomial(f, g)
            assert normal_form(s, gb).is_zero()


def test_buchberger_rejects_all_zero():
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero(5, 2)])


def test_degree_cap_aborts_with_diagnostic(monkeypatch):
    monkeypatch.setattr(groebner, "DEGREE_CAP", 2)
    with pytest.raises(DegreeCapExceeded, match=(
        "^Groebner basis needs an S-pair of lcm degree 3, above the fixed "
        "degree cap 2; relations this hard are not supported$"
    )):
        gb_of(["x^2+y^2", "x*y"], XY, 5)


def test_degree_cap_applies_only_to_pairs_the_coprime_criterion_keeps():
    # the one S-pair has lcm degree 600, but its leads are coprime
    gb = gb_of(["x^300", "y^300"], XYZ, 5)
    assert [g.leading_monomial() for g in gb] == [(0, 300, 0), (300, 0, 0)]


def test_basis_is_reduced():
    gb = gb_of(["x^2+y^2", "x*y", "y^3"], XY, 7)
    leads = [g.leading_monomial() for g in gb.generators]
    for i, g in enumerate(gb.generators):
        assert g.leading_coefficient() == 1
        for mono in g.terms:
            for j, lm in enumerate(leads):
                if j != i:
                    assert not monomial_divides(lm, mono)


# -- normal form -----------------------------------------------------------

def test_normal_form_single_step():
    gb = gb_of(["x^3+y^3+z^3"], XYZ, 7)
    nf = normal_form(poly_parse("x^3", XYZ, 7), gb)
    assert nf == poly_parse("6*y^3+6*z^3", XYZ, 7)


def test_normal_form_idempotent():
    gb = gb_of(["x^3+y^3+z^3"], XYZ, 7)
    f = poly_parse("x^2*y + 3*z^2", XYZ, 7)
    assert normal_form(f, gb) == f
    g = poly_parse("x^5 + x*y*z", XYZ, 7)
    assert normal_form(normal_form(g, gb), gb) == normal_form(g, gb)


def test_normal_form_detects_membership():
    gb = gb_of(["x^2", "x*y+y^2"], XY, 5)
    assert normal_form(poly_parse("x^2*y", XY, 5), gb).is_zero()


def test_normal_form_linearity_and_stability():
    rng = random.Random(7)
    gb = gb_of(["x^2", "x*y+y^2"], XY, 5)

    def rand_poly():
        return Polynomial(
            5, 2,
            {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(0, 4)
             for _ in range(4)},
        )

    for _ in range(40):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        lhs = normal_form(f * g + h, gb)
        rhs = normal_form(normal_form(f * g, gb) + normal_form(h, gb), gb)
        assert lhs == rhs


# -- membership vs exhaustive span oracle over F_2 -------------------------

def span_oracle_membership(f, gens, max_dim=12):
    """Enumerate the homogeneous slice of the ideal over F_2 by brute force:
    all 0/1 combinations of monomial multiples of the generators."""
    assert f.p == 2
    m = f.degree()
    products = []
    for g in gens:
        shift = m - g.degree()
        if shift < 0:
            continue
        for mono in monomials_of_degree(f.num_vars, shift):
            products.append(g.term_mul(mono))
    assert len(products) <= max_dim, "oracle instance too large"
    for bits in itertools.product((0, 1), repeat=len(products)):
        acc = Polynomial.zero(2, f.num_vars)
        for b, q in zip(bits, products):
            if b:
                acc = acc + q
        if acc == f:
            return True
    return False


def test_membership_matches_span_oracle():
    rng = random.Random(11)
    gens = [poly_parse("x^2", XY, 2), poly_parse("x*y+y^2", XY, 2)]
    gb = buchberger(gens)
    for _ in range(25):
        m = rng.randint(2, 4)
        f = Polynomial(
            2, 2,
            {mono: rng.randint(0, 1) for mono in monomials_of_degree(2, m)},
        )
        if f.is_zero():
            continue
        expected = span_oracle_membership(f, gens)
        assert normal_form(f, gb).is_zero() == expected


# -- standard monomials ----------------------------------------------------

def test_standard_monomials_cubic_degree_two():
    gb = gb_of(["x^3+y^3+z^3"], XYZ, 7)
    assert len(standard_monomials(gb, 2)) == 6


def test_standard_monomials_degree_zero():
    gb = gb_of(["x^3+y^3+z^3"], XYZ, 7)
    assert standard_monomials(gb, 0) == [(0, 0, 0)]


def test_standard_monomials_empty_for_irrelevant_ideal():
    gb = gb_of(["x", "y"], XY, 3)
    assert standard_monomials(gb, 1) == []


def test_standard_monomials_exclude_leading_monomial():
    gb = gb_of(["x^3+y^3+z^3"], XYZ, 7)
    monos = standard_monomials(gb, 3)
    assert len(monos) == 9
    assert (3, 0, 0) not in monos


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4, 5])
def test_reversed_exponents_ascending_is_grevlex_descending_in_one_degree(num_vars):
    # standard_monomials sorts one degree by mono[::-1], not by grevlex_key
    for m in range(7):
        monos = list(monomials_of_degree(num_vars, m))
        random.Random(m).shuffle(monos)
        expected = sorted(monos, key=grevlex_key, reverse=True)
        assert [mono[::-1] for mono in monos] == [_reversed(mono) for mono in monos]
        assert sorted(monos, key=_reversed) == expected


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4, 5])
def test_standard_monomials_match_filtering_every_monomial(num_vars):
    # leading monomials of random monomial ideals (a set of monomials is its
    # own Groebner basis), the unit monomial included now and then; degree -1
    # has no monomials at all
    assert list(monomials_of_degree(num_vars, -1)) == []
    rng = random.Random(num_vars)
    for _ in range(60):
        leads = {
            tuple(rng.randint(0, 4) for _ in range(num_vars))
            for _ in range(rng.randint(0, 4))
        }
        gb = GroebnerBasis(
            [Polynomial(5, num_vars, {lm: 1}) for lm in leads], num_vars
        )
        for m in range(-1, 10):
            expected = sorted(
                (
                    mono
                    for mono in monomials_of_degree(num_vars, m)
                    if not any(monomial_divides(lm, mono) for lm in leads)
                ),
                key=grevlex_key,
                reverse=True,
            )
            assert standard_monomials(gb, m) == expected
