import itertools
import random
from fractions import Fraction

import pytest

from frobpow import engine, linalg, rings
from frobpow.engine import (
    IdealSpec,
    MatrixTooLarge,
    MembershipEngine,
    NotFoundWithinCap,
    containment_table,
    frobenius_closure_test,
    tight_closure_witness_test,
)
from frobpow.groebner import monomials_of_degree
from frobpow.polynomials import Polynomial, monomial_divides, poly_parse
from frobpow.rings import RingPresentation

from conftest import (
    ALL_FLAGS,
    fermat_cubic_ring,
    fermat_quartic_ring,
    off_by_one,
)

XY = ("x", "y")


def poly_ring(p, names=XY):
    return RingPresentation(p, names, flags=("cohen_macaulay",))


def engine_for(ring, gen_texts):
    return MembershipEngine(ring, IdealSpec.from_strings(ring, gen_texts))


# -- membership ------------------------------------------------------------

def test_generator_power_is_trivially_member():
    ring = poly_ring(5)
    eng = engine_for(ring, ["x^2", "y^3"])
    for q in (1, 5, 25):
        f = ring.parse("x^2").frobenius_power(q)
        cert = eng.membership(q, f)
        assert cert.member
        assert cert.coefficients is not None


def test_certificate_identity_checked_independently(cubic_squares):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    h = ring.parse("x^8*y^8*z^6")  # degree 22 = k(7), so membership holds
    cert = eng.membership(7, h)
    assert cert.member
    total = Polynomial.zero(ring.p, ring.num_vars)
    for hi, g in zip(cert.coefficients, ideal.generators):
        total = total + hi * g.frobenius_power(7)
    assert ring.normal_form(h - total).is_zero()


def test_wrong_certificate_fails_the_re_check(cubic_squares, monkeypatch):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    monkeypatch.setattr(linalg, "solve_mod", off_by_one(linalg.solve_mod))
    with pytest.raises(AssertionError, match="certificate identity failed"):
        eng.membership(7, ring.parse("x^8*y^8*z^6"))


def test_xy_not_in_square_ideal_over_f2():
    ring = poly_ring(2)
    eng = engine_for(ring, ["x^2", "y^2"])
    cert = eng.membership(1, ring.parse("x*y"))
    assert not cert.member and cert.coefficients is None
    assert eng.membership(1, ring.parse("x^2+y^2")).member


def test_z14_outside_frobenius_power_of_parameters(cubic):
    eng = engine_for(cubic, ["x", "y"])
    assert not eng.membership(7, cubic.parse("z^14")).member
    # but z^21 = (z^3)^7 = (-x^3-y^3)^7 lands inside
    assert eng.membership(7, cubic.parse("z^21")).member


def test_membership_rejects_bad_inputs():
    ring = poly_ring(5)
    eng = engine_for(ring, ["x^2", "y^2"])
    with pytest.raises(ValueError):
        eng.membership(10, ring.parse("x^2"))  # not a power of p
    with pytest.raises(ValueError):
        eng.membership(5, ring.parse("x^2+y"))  # inhomogeneous


def test_zero_element_is_member():
    ring = poly_ring(3)
    eng = engine_for(ring, ["x", "y"])
    cert = eng.membership(3, Polynomial.zero(3, 2))
    assert cert.member and all(c.is_zero() for c in cert.coefficients)


def test_zero_normal_form_is_a_verified_member(cubic_squares, monkeypatch):
    # x * (x^3 + y^3 + z^3) is zero in R: it touches no class, so no class
    # is walked, and its zero certificate is still re-verified
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    verified, verify = [], MembershipEngine._verify_certificate

    def recorded(self, q, h, coeffs):
        verified.append(coeffs)
        return verify(self, q, h, coeffs)

    def no_class(self, q, m, key):
        raise AssertionError(f"class {key} walked in degree {m} for q={q}")

    monkeypatch.setattr(MembershipEngine, "_verify_certificate", recorded)
    monkeypatch.setattr(MembershipEngine, "_piece", no_class)
    h = ring.parse("x") * ring.parse("x^3+y^3+z^3")
    assert not h.is_zero() and ring.normal_form(h).is_zero()
    cert = eng.membership(7, h)
    assert cert.member
    assert len(cert.coefficients) == 3
    assert all(c.is_zero() for c in cert.coefficients)
    assert verified == [cert.coefficients]


def test_class_without_columns_is_decided_by_the_solve(cubic_squares, monkeypatch):
    # x^3 in degree 3 < 7 * 2: every class has rows and no columns, and the
    # negative verdict is the solve's answer on the 2 x 0 system of the
    # class of NF(x^3) = -y^3 - z^3
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    solved, solve_mod = [], linalg.solve_mod

    def recorded(A, b, p):
        x = solve_mod(A, b, p)
        solved.append((A.shape, x))
        return x

    monkeypatch.setattr(linalg, "solve_mod", recorded)
    assert eng.membership(7, ring.parse("x^3")) == (False, ring.parse("x^3"), 7, None)
    assert solved == [((2, 0), None)]


def test_membership_matches_span_oracle_over_f2():
    """Exhaustive 0/1-combination oracle against the linear-algebra path."""
    ring = poly_ring(2)
    gens = [ring.parse("x^2"), ring.parse("x*y+y^2")]
    eng = MembershipEngine(ring, IdealSpec(tuple(gens)))
    rng = random.Random(13)
    for q in (1, 2):
        for _ in range(20):
            m = rng.randint(2 * q, 2 * q + 2)
            f = Polynomial(
                2, 2,
                {mono: rng.randint(0, 1) for mono in monomials_of_degree(2, m)},
            )
            if f.is_zero():
                continue
            products = []
            for g in gens:
                shift = m - q * g.degree()
                if shift < 0:
                    continue
                gq = g.frobenius_power(q)
                for mono in monomials_of_degree(2, shift):
                    products.append(gq.term_mul(mono))
            expected = False
            for bits in itertools.product((0, 1), repeat=len(products)):
                acc = Polynomial.zero(2, 2)
                for b, t in zip(bits, products):
                    if b:
                        acc = acc + t
                if acc == f:
                    expected = True
                    break
            assert eng.membership(q, f).member == expected


# -- degree containment ----------------------------------------------------

def test_degree_containment_around_k7(cubic_squares):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    assert not eng.degree_containment(7, 21)
    assert eng.degree_containment(7, 22)
    assert eng.degree_containment(7, 23)  # monotone above the cutoff
    assert eng.degree_containment(7, 25)


def test_degree_containment_q1_trivial():
    ring = poly_ring(3)
    eng = engine_for(ring, ["x", "y"])
    assert not eng.degree_containment(1, 0)  # 1 is not in (x, y)
    assert eng.degree_containment(1, 1)
    assert eng.degree_containment(1, 2)


def test_min_containment_degree_parameter_closed_form():
    # k(q) = 2q - 1 for I = (x, y) in two variables
    for p in (2, 3):
        ring = poly_ring(p)
        eng = engine_for(ring, ["x", "y"])
        for e in (1, 2, 3):
            q = p**e
            cap = eng.default_cap(q)
            assert eng.min_containment_degree(q, cap=cap) == 2 * q - 1


def test_min_containment_degree_fermat_cubic(cubic_squares):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    assert eng.min_containment_degree(7, cap=eng.default_cap(7)) == 22


def test_cap_too_small_raises(cubic_squares):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    with pytest.raises(NotFoundWithinCap):
        eng.min_containment_degree(7, cap=20)


def _oracle_k(eng, q, cap):
    # ascending scan of every degree up to the cap: the first containing one
    return next((k for k in range(cap + 1) if eng.degree_containment(q, k)), None)


def _assert_search_matches_oracle(eng, q, cap):
    expected = _oracle_k(eng, q, cap)
    if expected is None:
        with pytest.raises(NotFoundWithinCap):
            eng.min_containment_degree(q, cap=cap)
    else:
        assert eng.min_containment_degree(q, cap=cap) == expected
    return expected


def _random_primary_monomial_ideal(ring, rng, max_exp):
    # a pure power of every variable keeps the ideal R_+-primary
    n = ring.num_vars
    gens = [ring.parse(f"{v}^{rng.randint(1, max_exp)}") for v in ring.var_names]
    for _ in range(rng.randint(0, 2)):
        mono = [0] * n
        for _ in range(rng.randint(1, max_exp)):
            mono[rng.randrange(n)] += 1
        gens.append(Polynomial(ring.p, n, {tuple(mono): 1}))
    return MembershipEngine(ring, IdealSpec(tuple(gens)))


XYZ = ("x", "y", "z")
# (variables, relation, largest pure-power exponent, primes); q = 9 in
# F_3[x,y,z] would put k(q) in the forties and take seconds per ideal
ORACLE_RINGS = (
    (XY, None, 3, (2, 3)),
    (XYZ, None, 2, (2,)),
    (XYZ, "x^3+y^3+z^3", 2, (2, 3)),
    (XYZ, "x^2+y*z", 2, (2, 3)),
)


@pytest.mark.parametrize("names, relation, max_exp, primes", ORACLE_RINGS)
def test_min_containment_degree_matches_ascending_scan(
    names, relation, max_exp, primes
):
    rng = random.Random(len(names) * 7 + max_exp + len(relation or ""))
    for p in primes:
        rels = [poly_parse(relation, names, p)] if relation else []
        ring = RingPresentation(p, names, rels)
        for _ in range(3):
            eng = _random_primary_monomial_ideal(ring, rng, max_exp)
            for q in (1, p, p * p):
                k = _assert_search_matches_oracle(eng, q, eng.default_cap(q))
                if k is not None:
                    _assert_search_matches_oracle(eng, q, k)  # exact cap
                    _assert_search_matches_oracle(eng, q, k - 1)  # too small


def test_search_starts_above_the_last_hilbert_deficit(cubic_squares, monkeypatch):
    # degree 20 is the last one with fewer columns than rows, so k(7) = 22
    # is searched in two degrees only (21 fails, 22 holds), and rank tests,
    # one per class, are made in no other degree; 21 already fails on a
    # class with fewer columns than rows
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    split, ranked = [], []
    pieces, rank_mod = MembershipEngine._pieces, linalg.rank_mod

    def recorded(self, q, m):
        split.append(m)
        return pieces(self, q, m)

    def counted(A, p, **kw):
        ranked.append(split[-1])
        return rank_mod(A, p, **kw)

    monkeypatch.setattr(MembershipEngine, "_pieces", recorded)
    monkeypatch.setattr(linalg, "rank_mod", counted)
    assert eng.min_containment_degree(7, cap=eng.default_cap(7)) == 22
    assert split == [21, 22]
    assert set(ranked) == {22}


def test_fermat_cubic_squares_at_p5_rank_each_class_once(monkeypatch):
    # k(q) = 3q + 1 up to q = 125; the degree below fails on its shape and
    # the degree k(q) takes one rank test for each of its 9 classes
    ring = fermat_cubic_ring(5)
    eng = MembershipEngine(ring, IdealSpec.from_strings(ring, ["x^2", "y^2", "z^2"]))
    ranks = []
    rank_mod = linalg.rank_mod

    def counted(A, p):
        ranks.append(A.shape)
        return rank_mod(A, p)

    monkeypatch.setattr(linalg, "rank_mod", counted)
    for q in (5, 25, 125):
        del ranks[:]
        assert eng.min_containment_degree(q, cap=eng.default_cap(q)) == 3 * q + 1
        assert len(ranks) == 9


@pytest.mark.parametrize("p", [5, 7])
def test_dense_containment_stacks_hold_every_column(monkeypatch, p):
    # a budget of 0 sends every containment class that fills in to the
    # dense finish, which stacks it at its full width.  Over R' =
    # R/(y^(2q), z^(2q)) no stacked class leaves a column empty: a unit
    # column back in a class would be peeled and then stacked empty
    monkeypatch.setattr(linalg, "_BUDGET", 0)
    full, echelon = [], linalg.row_echelon_mod

    def spy(M, p):
        full.append(bool(M.any(axis=0).all()))
        return echelon(M, p)

    monkeypatch.setattr(linalg, "row_echelon_mod", spy)
    ring = fermat_cubic_ring(p)
    eng = MembershipEngine(ring, IdealSpec.from_strings(ring, ["x^2", "y^2", "z^2"]))
    for q in (p, p * p):
        assert eng.min_containment_degree(q, cap=eng.default_cap(q)) == 3 * q + 1
    assert full and all(full)


def test_pieces_enumerate_each_degree_once_and_keep_none(cubic_squares, monkeypatch):
    # one call enumerates degree 22 once; the columns, in source degree
    # 22 - 2*7 = 8, are walked class by class, not enumerated.  A second
    # call enumerates degree 22 again, as nothing is kept between calls
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    seen = []
    standard_monomials = rings.standard_monomials

    def spied(gb, m):
        seen.append(m)
        return standard_monomials(gb, m)

    monkeypatch.setattr(rings, "standard_monomials", spied)
    first = eng._pieces(7, 22)
    assert seen == [22]
    assert eng._pieces(7, 22) == first
    assert seen == [22, 22]


def test_pieces_key_only_their_degree(cubic_squares, monkeypatch):
    # containment runs in R' = R/(y^14, z^14), where x^2 is the one kept
    # generator: degree 22 (18 monomials of R''s, of R's 66) is keyed once,
    # and the columns of each of its classes are walked from its key
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    sizes = []
    class_keys = engine.class_keys

    def spied(echelon, vectors):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return class_keys(echelon, vectors)

    monkeypatch.setattr(engine, "class_keys", spied)
    eng._pieces(7, 22)
    assert eng._quotient(7)[1] == [0]
    assert sizes == [18]


def test_non_primary_ideal_never_contains():
    # (x^2) misses every power of y, so no degree works; cap stops the scan
    ring = poly_ring(3)
    eng = engine_for(ring, ["x^2"])
    with pytest.raises(NotFoundWithinCap):
        eng.min_containment_degree(3, cap=30)


# -- the slope constant nu, derived from the flags -------------------------

def test_nu_of_a_parameter_ideal_is_the_degree_sum_without_flags():
    eng = engine_for(fermat_cubic_ring(flags=()), ["x^2", "y^3"])
    assert eng.nu == 5


def test_nu_under_strong_semistability_is_an_exact_fraction():
    # (dim R - 1) * sum(d) / (n - 1) with n > dim R: 1 * 5 / 2, then 2 * 12 / 3
    eng = engine_for(fermat_cubic_ring(), ["x^2", "y^2", "z"])
    assert isinstance(eng.nu, Fraction) and eng.nu == Fraction(5, 2)
    eng = engine_for(fermat_quartic_ring(), ["x^3", "y^3", "z^3", "w^3"])
    assert eng.nu == 8


@pytest.mark.parametrize("flags, gens", [
    (ALL_FLAGS[:3], ["x^2", "y^2", "z^2"]),  # n > dim R, no strongly_semistable
    (ALL_FLAGS, ["x^2"]),  # n < dim R
])
def test_nu_is_none_when_the_flags_do_not_establish_it(flags, gens):
    eng = engine_for(fermat_cubic_ring(flags=flags), gens)
    assert eng.nu is None and eng.threshold(7) is None
    assert eng.default_cap(7) == 7 * sum(eng.ideal.degrees) + 3


@pytest.mark.parametrize("flags", [ALL_FLAGS, ALL_FLAGS[:3]])
def test_threshold_guarantee_and_prediction_follow_the_flags(flags):
    # the same queries with and without strongly_semistable: only the parts
    # that rest on nu = 3 change
    ring = fermat_cubic_ring(flags=flags)
    eng = engine_for(ring, ["x^2", "y^2", "z^2"])
    derived = "strongly_semistable" in flags
    assert eng.nu == (3 if derived else None)
    (row,) = containment_table(eng, 1)
    assert row.k_empirical == 22
    assert (row.k_threshold, row.tight) == ((22, True) if derived else (None, None))
    rep = tight_closure_witness_test(eng, ring.parse("x*y*z"), ring.parse("x"), 1)
    assert [r.member for r in rep.rows] == [True]
    assert any("guarantee" in n for n in rep.notes) == derived
    rep = frobenius_closure_test(eng, ring.parse("x*y*z^2"), 0)
    assert rep.found_e == 0
    assert rep.predicted_sufficient_q == (1 if derived else None)


# -- containment tables ----------------------------------------------------

def test_containment_table_fermat_cubic(cubic_squares):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    table = containment_table(eng, 1)
    (row,) = table
    assert (row.e, row.q) == (1, 7)
    assert row.k_empirical == 22 and row.k_threshold == 22 and row.tight
    assert row.cap_exceeded is None


def test_containment_table_fermat_quartic():
    # I = (x^3, y^3, z^3, w^3) on the Fermat quartic at p = 3: containment
    # runs in R' = R/(y^(3q), z^(3q), w^(3q)), keeping x^3, whose columns in
    # each of up to 64 classes per degree are walked from the class's key
    eng = engine_for(fermat_quartic_ring(3), ["x^3", "y^3", "z^3", "w^3"])
    assert eng._quotient(3)[1] == eng._quotient(9)[1] == [0]
    table = containment_table(eng, 2)
    assert [(row.q, row.k_empirical, row.k_threshold) for row in table] == [
        (3, 25, 25), (9, 73, 73)]
    assert all(row.k_empirical == 8 * row.q + 1 and row.tight for row in table)


def test_containment_table_reports_cap_overflow():
    ring = poly_ring(3)
    eng = engine_for(ring, ["x^2"])
    table = containment_table(eng, 1, cap=12)
    (row,) = table
    assert row.k_empirical is None and row.cap_exceeded == 12


def test_reverse_containment_of_frobenius_powers():
    # q | q' forces I^[q'] subset of I^[q]: check on all generators
    ring = fermat_cubic_ring(p=3)
    eng = engine_for(ring, ["x^2", "y^2", "x*y+z^2"])
    for g in eng.ideal.generators:
        for q, qp in ((1, 3), (3, 9), (1, 9)):
            assert eng.membership(q, g.frobenius_power(qp)).member


# -- closure experiments ---------------------------------------------------

def test_tight_closure_witness_classic_curve_example(cubic):
    # z^2 lies in the tight closure of (x, y): deg = nu = 2 and deg(c) > a = 0
    eng = engine_for(cubic, ["x", "y"])
    rep = tight_closure_witness_test(eng, cubic.parse("z^2"), cubic.parse("x"), 2)
    assert [r.member for r in rep.rows] == [True, True]
    assert [r.q for r in rep.rows] == [7, 49]
    assert any("guarantee" in n for n in rep.notes)
    assert any("finite evidence" in n for n in rep.notes)


def test_quartic_witness_at_q27_is_a_verified_member():
    # tight --emax 3 on the Fermat quartic at p = 3 reaches q = 27: degree 217
    # with dim R_217 = 94,180, a whole-degree matrix of about 1.4e10 entries;
    # the class of c * f^27 alone is 1431 x 2244
    ring = fermat_quartic_ring(p=3)
    eng = engine_for(ring, ["x^3", "y^3", "z^3", "w^3"])
    c, f = ring.parse("x"), ring.parse("x^2*y^2*z^2*w^2")
    h = c * f.frobenius_power(27)
    cert = eng.membership(27, h)
    assert cert.member
    total = Polynomial.zero(ring.p, ring.num_vars)
    for hi, g in zip(cert.coefficients, eng.ideal.generators):
        total = total + hi * g.frobenius_power(27)
    assert ring.normal_form(h - total).is_zero()


def test_tight_closure_no_guarantee_note_below_slope(cubic):
    eng = engine_for(cubic, ["x", "y"])
    rep = tight_closure_witness_test(eng, cubic.parse("z"), cubic.parse("x"), 1)
    assert not any("guarantee" in n for n in rep.notes)


def test_tight_closure_rejects_zero_multiplier(cubic):
    eng = engine_for(cubic, ["x", "y"])
    with pytest.raises(ValueError):
        tight_closure_witness_test(eng, cubic.parse("z^2"), Polynomial.zero(7, 3), 1)


def test_frobenius_closure_z2_stays_outside(cubic):
    eng = engine_for(cubic, ["x", "y"])
    rep = frobenius_closure_test(eng, cubic.parse("z^2"), 2)
    assert rep.found_e is None
    assert [r.member for r in rep.rows] == [False, False, False]
    assert rep.predicted_sufficient_q is None  # deg f = nu, no strict excess


def test_frobenius_closure_finds_immediate_member(cubic):
    # z^3 = -x^3 - y^3 is already in (x, y); excess over nu predicts q = 1
    eng = engine_for(cubic, ["x", "y"])
    rep = frobenius_closure_test(eng, cubic.parse("z^3"), 2)
    assert rep.found_e == 0
    assert rep.predicted_sufficient_q == 1
    assert len(rep.rows) == 1  # scan stops at the first success


@pytest.mark.parametrize("p, predicted", [(2, 4), (3, 3)])
def test_frobenius_closure_predicts_the_first_q_past_the_a_invariant(p, predicted):
    # on x^5 + y^5 + z^5, a = 2 and the parameter ideal (x, y) has nu = 2, so
    # xyz needs q * (3 - 2) > 2: the smallest power of p above 2
    xyz = ("x", "y", "z")
    ring = RingPresentation(p, xyz, [poly_parse("x^5+y^5+z^5", xyz, p)])
    eng = engine_for(ring, ["x", "y"])
    assert (eng.nu, ring.a_invariant()) == (2, 2)
    rep = frobenius_closure_test(eng, ring.parse("x*y*z"), 2)
    assert rep.predicted_sufficient_q == predicted
    assert rep.found_e == 0


def test_containment_and_closure_tests_reject_bad_inputs(cubic_squares):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        eng.degree_containment(7, -1)
    f, c = ring.parse("z^2+x"), ring.parse("x")
    with pytest.raises(ValueError, match="must be homogeneous"):
        tight_closure_witness_test(eng, f, c, 1)
    with pytest.raises(ValueError, match="must be homogeneous"):
        tight_closure_witness_test(eng, c, f, 1)
    with pytest.raises(ValueError, match="must be homogeneous"):
        frobenius_closure_test(eng, f, 1)


# -- IdealSpec validation --------------------------------------------------

def test_ideal_spec_rejects_bad_generators():
    ring = poly_ring(5)
    with pytest.raises(ValueError, match="gens is empty"):
        IdealSpec(())
    with pytest.raises(ValueError, match=r"generator not homogeneous \(or zero\)"):
        IdealSpec((ring.parse("x^2+y"),))
    with pytest.raises(ValueError, match=r"generator not homogeneous \(or zero\)"):
        IdealSpec((Polynomial.zero(5, 2),))
    ideal = IdealSpec((ring.parse("x^2"),))
    with pytest.raises(AttributeError):
        ideal.degrees = (3,)


def test_engine_rejects_mismatched_ring():
    ring5 = poly_ring(5)
    ring7 = poly_ring(7)
    ideal = IdealSpec.from_strings(ring7, ["x^2"])
    with pytest.raises(ValueError):
        MembershipEngine(ring5, ideal)


def test_degrees_cached_and_sorted():
    ring = poly_ring(5)
    ideal = IdealSpec.from_strings(ring, ["y^3", "x^2"])
    assert ideal.degrees == (3, 2)


# -- size guard ------------------------------------------------------------

@pytest.fixture
def no_assembly(monkeypatch):
    def fail(self, q, m):
        raise AssertionError(f"assembled degree {m} for q={q}")

    monkeypatch.setattr(MembershipEngine, "_assemble", fail)


def test_size_guard_refuses_each_operation_before_assembly(
    cubic_squares, no_assembly
):
    ring, ideal = cubic_squares
    # degree 22 for q = 7 is 66 x 72: above a cap of 1000 entries
    eng = MembershipEngine(ring, ideal, max_entries=1000)
    with pytest.raises(MatrixTooLarge, match="66x72 = 4752 entries"):
        eng.membership(7, ring.parse("x^8*y^8*z^6"))
    with pytest.raises(MatrixTooLarge):
        eng.degree_containment(7, 22)
    with pytest.raises(MatrixTooLarge):
        containment_table(eng, 1)
    with pytest.raises(MatrixTooLarge):
        tight_closure_witness_test(eng, ring.parse("x^3"), ring.parse("x"), 1)
    with pytest.raises(MatrixTooLarge):
        frobenius_closure_test(eng, ring.parse("x^3"), 1)


def test_search_refuses_at_its_cap_before_assembly(cubic_squares, no_assembly):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal, max_entries=1000)
    with pytest.raises(MatrixTooLarge, match="degree 30 for q=7"):
        eng.min_containment_degree(7, cap=30)


@pytest.fixture
def built(monkeypatch):
    """The q of every query a closure test or a k(q) table builds."""
    qs = []
    power, cap = Polynomial.frobenius_power, MembershipEngine.default_cap

    def counted_power(self, q):
        qs.append(q)
        return power(self, q)

    def counted_cap(self, q):
        qs.append(q)
        return cap(self, q)

    monkeypatch.setattr(Polynomial, "frobenius_power", counted_power)
    monkeypatch.setattr(MembershipEngine, "default_cap", counted_cap)
    return qs


def test_planning_stops_building_at_the_first_refused_query(
    cubic_squares, no_assembly, built
):
    # with emax = 50, no query past the first one over the cap is built
    ring, ideal = cubic_squares
    f, c = ring.parse("z^2"), ring.parse("x")
    eng = MembershipEngine(ring, ideal, max_entries=1000)
    with pytest.raises(MatrixTooLarge, match="degree 99 for q=49"):
        tight_closure_witness_test(eng, f, c, 50)
    assert built == [7, 49]
    built.clear()
    with pytest.raises(MatrixTooLarge, match="degree 686 for q=343"):
        frobenius_closure_test(eng, f, 50)
    assert built == [1, 7, 49, 343]
    built.clear()
    eng = MembershipEngine(ring, ideal, max_entries=20_000)
    with pytest.raises(MatrixTooLarge, match="degree 156 for q=49"):
        containment_table(eng, 50)
    assert built == [7, 49]


def test_size_guard_checks_every_piece_first():
    # f^11 already lies in I^[11] (found_e = 1), so a scan that stopped there
    # would never build the q = 121 piece; the guard still refuses it
    ring = fermat_cubic_ring(p=11)
    f = ring.parse("z^2")
    uncapped = engine_for(ring, ["x", "y"])
    assert frobenius_closure_test(uncapped, f, 2).found_e == 1
    capped = MembershipEngine(ring, uncapped.ideal, max_entries=10_000)
    with pytest.raises(MatrixTooLarge, match="degree 242 for q=121"):
        frobenius_closure_test(capped, f, 2)


def test_size_guard_passes_pieces_within_the_cap(cubic_squares):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal, max_entries=66 * 72)
    assert eng.membership(7, ring.parse("x^8*y^8*z^6")).member
    assert eng.degree_containment(7, 22)


# -- one sizing: the Hilbert shape is the assembled shape -------------------

def test_deficit_degree_is_decided_before_assembly(cubic_squares, no_assembly):
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    # dim R_15 = 45 rows, but only 3 * dim R_1 = 9 columns: no rank test needed
    assert eng.check_matrix_size(7, 15) == (45, 9)
    assert eng.degree_containment(7, 15) is False


def _quotient_classes(eng, q, m):
    """The classes of the degree-m matrix over R' = _quotient(q)[0], {key:
    (rows, cols)}, built from R's standard monomials that no unit divides
    and keyed one at a time: a row by its own key, a column (i, mono) of a
    kept generator by that of mono * x^(q*t), for a term x^t of f_i."""
    ring, kept = eng._quotient(q)
    units = getattr(ring, "units", ())

    def basis(s):
        return [mono for mono in eng.ring.graded_basis(s)
                if not any(monomial_divides(u, mono) for u in units)]

    def key(mono):
        return engine.class_keys(eng._echelon, [mono])[0]

    classes = {}
    for mono in basis(m):
        classes.setdefault(key(mono), ([], []))[0].append(mono)
    for i in kept:
        g = eng.ideal.generators[i]
        t = next(iter(g.terms))
        for mono in basis(m - q * g.degree()):
            shifted = tuple(a + q * b for a, b in zip(mono, t))
            classes.setdefault(key(shifted), ([], []))[1].append((i, mono))
    return classes


def _check_class_map(eng, q, m):
    """The class map over R' against _quotient_classes: the same classes
    that have rows, with the same rows and columns, assembled at that
    shape; returns the reference's classes that have no rows."""
    reference = _quotient_classes(eng, q, m)
    for key, piece in eng._pieces(q, m).items():
        rows, cols = reference.pop(key)
        assert (piece.rows, piece.cols) == (rows, cols)
        assert eng._assemble(q, piece)[2].shape == (len(rows), len(cols))
    assert not any(rows for rows, _ in reference.values())
    return reference


def test_zero_generator_power_gives_zero_columns():
    # x^5 = 0 in F_5[x,y]/(x^2): R's whole-degree shape counts its zero
    # columns.  In R' = R/(y^5), where x is the one kept generator, they lie
    # only in classes with no rows, which the class map leaves out
    ring = RingPresentation(5, XY, [poly_parse("x^2", XY, 5)])
    eng = engine_for(ring, ["x", "y"])
    assert eng.check_matrix_size(5, 7) == (2, 4)
    assert eng._generator_power(0, 5, ring).is_zero()
    assert eng._quotient(5)[1] == [0]
    for m, columns in ((5, [(0, (0, 0))]), (7, [(0, (1, 1)), (0, (0, 2))])):
        rowless = _check_class_map(eng, 5, m)
        assert [col for _, cols in rowless.values() for col in cols] == columns
    assert list(eng._pieces(5, 5).values()) == [([(1, 4)], [], eng._quotient(5)[0])]
    assert eng._pieces(5, 7) == {}
    assert not eng.degree_containment(5, 5)
    h = ring.parse("x*y^6")
    cert = eng.membership(5, h)
    assert cert.member
    hx, hy = cert.coefficients
    assert hx.is_zero() and hy == ring.parse("x*y")
    total = hx * ring.parse("x^5") + hy * ring.parse("y^5")
    assert ring.normal_form(h - total).is_zero()


def test_assembled_shape_is_the_hilbert_shape(cubic_squares):
    # the class map's rows are all of R'_m, as R''s Hilbert function counts
    # them, and each class holds the columns keyed into it one at a time
    ring, ideal = cubic_squares
    eng = MembershipEngine(ring, ideal)
    for q, m in ((1, 0), (1, 1), (1, 5), (7, 13), (7, 14), (7, 22)):
        _check_class_map(eng, q, m)
        rows = sum(len(piece.rows) for piece in eng._pieces(q, m).values())
        assert rows == eng._quotient(q)[0].hilbert_dim(m)
