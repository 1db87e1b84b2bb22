"""The fine grading by Z^N/L: canonical class keys, the class-split
membership matrices against a whole-degree reference built here, over R and
over containment's quotient R', and the walk of one class against the
filtered whole-degree basis."""

import itertools
import random

import numpy as np
import pytest

from frobpow import engine, linalg
from frobpow.engine import (
    IdealSpec,
    MembershipEngine,
    Piece,
    class_keys,
    lattice_echelon,
)
from frobpow.groebner import GroebnerBasis, coset_monomials, monomials_of_degree
from frobpow.polynomials import Polynomial, monomial_divides, monomial_mul, poly_parse
from frobpow.rings import RingPresentation

from conftest import fermat_cubic_ring, fermat_quartic_ring

# -- class keys --------------------------------------------------------------


def _keys(gens, vectors):
    vectors = np.array(vectors).reshape(len(vectors), -1)
    return class_keys(lattice_echelon(gens), vectors)


def _random_vector(rng, n, bound):
    return [rng.randint(-bound, bound) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lattice_echelon_has_increasing_positive_pivots(n):
    rng = random.Random(n)
    for _ in range(50):
        gens = [_random_vector(rng, n, 6) for _ in range(rng.randint(0, 5))]
        echelon = lattice_echelon(gens)
        pivots = [c for c, _ in echelon]
        assert pivots == sorted(set(pivots))
        for c, row in echelon:
            assert row[c] > 0 and not any(row[:c])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_key_ignores_lattice_vectors(n):
    # rank-deficient and full-rank lattices alike
    rng = random.Random(100 + n)
    for _ in range(40):
        gens = [_random_vector(rng, n, 5) for _ in range(rng.randint(0, n + 1))]
        for _ in range(10):
            v = _random_vector(rng, n, 30)
            w = list(v)
            for g in gens:
                c = rng.randint(-4, 4)
                w = [a + c * b for a, b in zip(w, g)]
            key_v, key_w = _keys(gens, [v, w])
            assert key_v == key_w


def _subgroup_mod(gens, d, n):
    """The subgroup of (Z/d)^n the vectors generate, by brute-force closure."""
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                s = tuple((a + b) % d for a, b in zip(u, g))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


@pytest.mark.parametrize("n, d, sum_zero", [
    (2, 4, False), (2, 6, False), (3, 2, False), (3, 4, False),
    (3, 6, True), (4, 3, True), (4, 4, True),
])
def test_class_key_separates_exactly_the_cosets(n, d, sum_zero):
    # L contains d*Z^n (or d times the sum-zero lattice S, with every vector
    # in S), so v - w lies in L exactly when it does mod d: membership is
    # decided by brute force in (Z/d)^n
    rng = random.Random(10 * n + d)
    if sum_zero:
        scale = [[d if j == i else -d if j == n - 1 else 0 for j in range(n)]
                 for i in range(n - 1)]
    else:
        scale = [[d if j == i else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(0, 3)):
            g = _random_vector(rng, n, d)
            if sum_zero:
                g[-1] -= sum(g)
            gens.append(g)
        lattice = gens + scale
        group = _subgroup_mod(lattice, d, n)
        box = [v for v in itertools.product(range(-d, 2 * d), repeat=n)
               if not sum_zero or sum(v) == d]
        classes = {}
        for key, v in zip(_keys(lattice, box), box):
            classes.setdefault(key, []).append(v)

        def congruent(v, w):
            return tuple((a - b) % d for a, b in zip(v, w)) in group

        reps = [members[0] for members in classes.values()]
        for members in classes.values():
            assert all(congruent(v, members[0]) for v in members)
        for v, w in itertools.combinations(reps, 2):
            assert not congruent(v, w)


# -- class-split matrices against the whole-degree matrix --------------------

PRIMES = (2, 3, 7, 65537, 2**31 - 1)


def _random_monomial(rng, n, degree):
    mono = [0] * n
    for _ in range(degree):
        mono[rng.randrange(n)] += 1
    return tuple(mono)


def _random_binomial(rng, p, n, degree):
    a = _random_monomial(rng, n, degree)
    b = _random_monomial(rng, n, degree)
    while b == a:
        b = _random_monomial(rng, n, degree)
    return Polynomial(p, n, {a: 1, b: -rng.randrange(1, p)})


def _random_problem(rng, p, primary):
    """An L-homogeneous problem: binomial relations (a complete
    intersection), and monomial and binomial generators; a primary one has
    a pure power of every variable among them."""
    n = rng.choice((3, 4))
    names = ("x", "y", "z", "w")[:n]
    while True:
        relations = [_random_binomial(rng, p, n, rng.randint(2, 3))
                     for _ in range(rng.randint(0, n - 2))]
        try:
            ring = RingPresentation(p, names, relations)
        except ValueError:
            continue
        break
    gens = []
    if primary:
        for j in range(n):
            power = tuple(rng.randint(1, 2) if k == j else 0 for k in range(n))
            gens.append(Polynomial(p, n, {power: 1}))
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(1, 2)
        if rng.random() < 0.5:
            gens.append(Polynomial(p, n, {_random_monomial(rng, n, degree): 1}))
        else:
            gens.append(_random_binomial(rng, p, n, degree))
    return MembershipEngine(ring, IdealSpec(tuple(gens)))


def _over_r(eng):
    """(R, every generator index): the ring and columns of membership, as
    _quotient(q) gives those of containment."""
    return eng.ring, range(len(eng.ideal.generators))


def _r_classes(eng, q, m):
    """The classes over R of the degree-m matrix that have rows, {key:
    Piece}, each walked by membership's _piece."""
    keys = dict.fromkeys(class_keys(eng._echelon, eng.ring.graded_basis(m)))
    return {key: eng._piece(q, m, key) for key in keys}


def _whole_degree(eng, q, m, ring, kept):
    """The degree-m membership matrix over ring (R, or R' of _quotient(q))
    in one piece: rows ring_m's standard monomials, columns (i, mono) for
    the generators i in kept, in generator then basis order."""
    target = ring.graded_basis(m)
    index = {mono: r for r, mono in enumerate(target)}
    col_meta, rows = [], [{} for _ in target]
    for i in kept:
        g = eng.ideal.generators[i]
        if m < q * g.degree():
            continue
        gq = ring.normal_form(g.frobenius_power(q)).terms.items()
        for mono in ring.graded_basis(m - q * g.degree()):
            coords = ring.reduce((monomial_mul(mono, t), c) for t, c in gq)
            for r, c in coords.items():
                rows[index[r]][len(col_meta)] = c
            col_meta.append((i, mono))
    return target, col_meta, linalg.SparseMatrix((len(target), len(col_meta)), rows)


def _reference_membership(eng, q, h, whole):
    """Certificate coefficients of the whole-degree solve, or None."""
    ring = eng.ring
    target, col_meta, A = whole
    index = {mono: r for r, mono in enumerate(target)}
    hn = ring.normal_form(h)
    b = [0] * len(target)
    for mono, c in hn.terms.items():
        b[index[mono]] = c
    x = linalg.solve_mod(A, b, ring.p)
    if x is None:
        return None
    terms = [dict() for _ in eng.ideal.generators]
    for (i, mono), v in zip(col_meta, x):
        if int(v):
            terms[i][mono] = int(v)
    return tuple(Polynomial(ring.p, ring.num_vars, t) for t in terms)


def _elements(eng, rng, q, m):
    """Elements of degree m: random spans of several monomials, members
    built from the generators, and ones with a component in a class that
    has no columns."""
    ring = eng.ring
    p, n = ring.p, ring.num_vars
    monos = list(monomials_of_degree(n, m))
    out = []
    for _ in range(3):
        picks = rng.sample(monos, min(len(monos), rng.randint(2, 5)))
        out.append(Polynomial(p, n, {mono: rng.randrange(1, p) for mono in picks}))
    member = Polynomial.zero(p, n)
    for g in eng.ideal.generators:
        if m >= q * g.degree():
            r = Polynomial(p, n, {_random_monomial(rng, n, m - q * g.degree()):
                                  rng.randrange(1, p)})
            member = member + r * g.frobenius_power(q)
    out.append(member)
    empty = [piece.rows[0] for piece in _r_classes(eng, q, m).values()
             if not piece.cols]
    if empty:
        out.append(Polynomial(p, n, {empty[0]: 1}))
        out.append(member + Polynomial(p, n, {empty[-1]: 1}))
    return out, bool(empty)


@pytest.mark.parametrize("p", PRIMES)
def test_class_split_matches_the_whole_degree_matrix(p):
    rng = random.Random(p)
    seen_empty_class = seen_member = seen_split = seen_contained = 0
    for primary in (False, True) * 2:
        eng = _random_problem(rng, p, primary)
        qs = (1, p, p * p) if p == 2 else (1, p) if p < 10 else (1,)
        # around k(q) when the ideal is primary, else the lowest degrees; k(q)
        # grows like q, so primary ideals take q = p only for p <= 3
        for q in qs[: 2 if p <= 3 else 1] if primary else qs:
            low = eng.min_containment_degree(q) - 1 if primary else q * min(
                eng.ideal.degrees)
            for m in range(low, low + 3):
                whole = _whole_degree(eng, q, m, *_over_r(eng))
                quotient = _whole_degree(eng, q, m, *eng._quotient(q))
                pieces = eng._pieces(q, m).values()
                seen_split += len(pieces) > 1
                # rank: the class ranks add up to the whole rank over R', and
                # R' leaves as many rows unspanned as R does
                rank = linalg.rank_mod(quotient[2], p)
                assert sum(
                    linalg.rank_mod(eng._assemble(q, piece)[2], p) for piece in pieces
                ) == rank
                deficit = len(whole[0]) - linalg.rank_mod(whole[2], p)
                assert len(quotient[0]) - rank == deficit
                contained = deficit == 0
                seen_contained += contained
                assert eng.degree_containment(q, m) == contained
                # membership: the verdict and the certificate itself
                elements, empty = _elements(eng, rng, q, m)
                seen_empty_class += empty
                for h in elements:
                    expected = _reference_membership(eng, q, h, whole)
                    cert = eng.membership(q, h)
                    assert cert.member == (expected is not None)
                    if expected is not None and not eng.ring.normal_form(h).is_zero():
                        seen_member += 1
                        assert cert.coefficients == expected
    assert seen_split and seen_member and seen_empty_class and seen_contained


# -- packed assembly against the tuple path ----------------------------------


def _tuple_class(eng, q, piece):
    """The entry dicts of one class as _whole_degree builds its columns:
    NF(mono * f_i^q) over piece.ring reduced term by term on exponent
    tuples."""
    ring = piece.ring
    index = {mono: r for r, mono in enumerate(piece.rows)}
    rows, products = [{} for _ in piece.rows], set()
    for j, (i, mono) in enumerate(piece.cols):
        gq = ring.normal_form(eng.ideal.generators[i].frobenius_power(q)).terms
        products.update(monomial_mul(mono, t) for t in gq)
        coords = ring.reduce((monomial_mul(mono, t), c) for t, c in gq.items())
        for r, c in coords.items():
            rows[index[r]][j] = c
    return rows, products - set(index)


def _power_problem(p, n, degrees):
    """F_p[x_0..x_{n-1}] with the pure powers x_k^d as generators: the
    product x_0^(m-d) * x_0^d is the row x_0^m, an exponent equal to m."""
    ring = RingPresentation(p, ("x", "y", "z", "w")[:n])
    gens = [Polynomial(p, n, {tuple(d if k == j else 0 for k in range(n)): 1})
            for j, d in enumerate(degrees)]
    return MembershipEngine(ring, IdealSpec(tuple(gens)))


@pytest.mark.parametrize("p", PRIMES + (4294967291,))
def test_packed_assembly_matches_the_tuple_path(p):
    rng = random.Random(7 * p + 1)
    qs = (1, p) if p < 10 else (1,)
    # (engine, q, degrees): pure powers, random binomial problems, and the
    # Fermat cubic from the first source degree up past k(q) = 3q + 1
    cases = [(_power_problem(p, n, degrees), q, range(q, q + 8))
             for n, degrees in ((1, (3,)), (2, (1, 2)), (3, (2, 3, 1))) for q in qs]
    for primary in (False, True) * 2:
        eng = _random_problem(rng, p, primary)
        low = min(eng.ideal.degrees)
        cases += [(eng, q, range(q * low, q * low + 3)) for q in qs[: 2 - primary]]
    ring = fermat_cubic_ring(p)
    squares = MembershipEngine(
        ring, IdealSpec.from_strings(ring, ["x^2", "y^2", "z^2"]))
    cases += [(squares, q, range(2 * q, 3 * q + 3)) for q in qs]
    seen_at_m = seen_table = 0
    for eng, q, degrees in cases:
        for m in degrees:
            # containment's classes over R', and membership's over R
            pieces = [*eng._pieces(q, m).values(), *_r_classes(eng, q, m).values()]
            for piece in pieces:
                rows, cols, A = eng._assemble(q, piece)
                assert (rows, cols) == (piece.rows, piece.cols)
                assert A.shape == (len(rows), len(cols))
                expected, off_rows = _tuple_class(eng, q, piece)
                assert A.rows == expected
                seen_table += bool(off_rows)
                seen_at_m += any(m in mono for mono in rows)
    assert seen_at_m and seen_table


# -- the length of every degree against a parameter ideal's Hilbert series ---


def _parameter_series(degrees, n, top):
    """Coefficients of t^0..t^top in prod_d (1 - t^d) / (1 - t)^n."""
    series = [1] + [0] * top
    for d in degrees:
        for k in range(top, d - 1, -1):
            series[k] -= series[k - d]
    for _ in range(n):
        for k in range(1, top + 1):
            series[k] += series[k - 1]
    return series


def _parameter_problem(rng, p, n):
    """A complete intersection R with a parameter ideal I, primary by
    construction: (x^a, y^b) on x^3 + c1*y^3 + c2*z^3 (n = 3), or (x^a, y^b,
    z^c) on a random quartic in x, y, z, w with a c*w^4 term (n = 4), c2 and
    c nonzero, so that x = y (= z) = 0 forces every variable to 0."""
    names = ("x", "y", "z", "w")[:n]
    top = {tuple(3 if k == j else 0 for k in range(3)): 1 for j in range(3)}
    if n == 3:
        relation = {mono: c for mono, c in zip(top, (1, rng.randrange(p),
                                                      rng.randrange(1, p)))}
    else:
        relation = {mono: rng.randrange(p) for mono in monomials_of_degree(4, 4)
                    if rng.random() < 0.5}
        relation[(0, 0, 0, 4)] = rng.randrange(1, p)
    ring = RingPresentation(p, names, [Polynomial(p, n, relation)])
    gens = [Polynomial(p, n, {tuple(rng.randint(1, 2) if k == j else 0
                                    for k in range(n)): 1}) for j in range(n - 1)]
    return MembershipEngine(ring, IdealSpec(tuple(gens)))


def _deficit(eng, q, piece):
    """Rows of one class that its columns leave unspanned: rows minus rank."""
    return len(piece.rows) - linalg.rank_mod(eng._assemble(q, piece)[2], eng.ring.p)


def _length(eng, q, k):
    """dim (R/I^[q])_k as the class map counts it: the deficits of the
    classes of the degree-k matrix, summed."""
    return sum(_deficit(eng, q, piece)
               for piece in eng._pieces(q, k).values() if piece.rows)


@pytest.mark.parametrize("p, qs", [
    (2, (1, 2, 4)), (3, (1, 3, 9)), (5, (1, 5, 25)), (7, (1, 7, 49)),
    (65537, (1,)), (2**31 - 1, (1,)), (4294967291, (1,)),
])
def test_every_degree_has_the_length_of_a_parameter_ideal(p, qs):
    # I = (f_1..f_d) is R_+-primary with d = dim R, and R is Cohen-Macaulay,
    # so f_1^q..f_d^q is a regular sequence: the Hilbert series of R/I^[q] is
    # prod_j (1 - t^delta_j) * prod_i (1 - t^(q*d_i)) / (1 - t)^N, a number
    # no elimination produced, at every degree up to past the socle
    rng = random.Random(13 * p)
    for n in (3, 4):
        eng = _parameter_problem(rng, p, n)
        ring = eng.ring
        for q in qs if n == 3 else qs[:1]:
            degrees = ring.relation_degrees + tuple(q * d for d in eng.ideal.degrees)
            top = sum(degrees) - n + 1
            series = _parameter_series(degrees, n, top)
            assert series[top] == 0 and series[top - 1] > 0
            for k in range(top + 1):
                assert _length(eng, q, k) == series[k], (n, q, k)
                assert eng.degree_containment(q, k) == (series[k] == 0)


# -- containment over R' against membership's classes over R ----------------


def _check_quotient_ranks(eng, q, m):
    """The deficit of each class over R of the degree-m matrix that has rows
    (_piece) against that of the same class over R' (_pieces; 0 when R'
    leaves it no rows): R/I^[q] = R'/J^[q]R' class by class.  Returns the
    number of those classes that R' leaves fewer rows, and no rows."""
    quotient = eng._pieces(q, m)
    r_classes = _r_classes(eng, q, m)
    assert {key for key, piece in quotient.items() if piece.rows} <= set(r_classes)
    some = every = 0
    for key, piece in r_classes.items():
        small = quotient.get(key)
        rows = small.rows if small else []
        assert set(rows) <= set(piece.rows)
        assert _deficit(eng, q, piece) == (_deficit(eng, q, small) if rows else 0)
        some += len(rows) < len(piece.rows)
        every += not rows
    return some, every


@pytest.mark.parametrize("p", (2, 3, 5, 7, 2**31 - 1))
def test_unit_column_rank_matches_the_whole_class(p):
    rng = random.Random(11 * p)
    qs = (1, p) if p < 10 else (1,)
    seen_some = seen_every = 0
    for primary in (False, True) * 4:
        eng = _random_problem(rng, p, primary)
        for q in qs:
            low = q * min(eng.ideal.degrees)
            for m in range(low, low + 4):
                some, every = _check_quotient_ranks(eng, q, m)
                seen_some += some
                seen_every += every
    assert seen_some and seen_every


@pytest.fixture
def reduced(monkeypatch):
    """Every monomial passed to RingPresentation.monomial_normal_form."""
    calls, normal_form = [], RingPresentation.monomial_normal_form

    def recorded(self, mono):
        calls.append(mono)
        return normal_form(self, mono)

    monkeypatch.setattr(RingPresentation, "monomial_normal_form", recorded)
    return calls


def _plane_conic(p):
    # F_p[x,y,z]/(xy - z^2): the lead xy shares x with the generator x
    names = ("x", "y", "z")
    ring = RingPresentation(p, names, [poly_parse("x*y - z^2", names, p)])
    return MembershipEngine(ring, IdealSpec.from_strings(ring, ["x", "y^2 - z^2"]))


def test_one_term_power_whose_product_is_not_a_row_stays_a_column():
    # x * y = z^2: x shares x with the lead xy, so it is no free unit, R' = R,
    # and its columns stay: (x, y) in the class of z^2, and (x, x) on its
    # row x^2
    eng = _plane_conic(5)
    assert eng._quotient(1) == (eng.ring, [0, 1])
    piece = eng._pieces(1, 2)[class_keys(eng._echelon, [(0, 0, 2)])[0]]
    assert (0, (0, 1, 0)) in piece.cols and (0, (1, 0, 0)) in piece.cols
    assert (2, 0, 0) in piece.rows
    _check_quotient_ranks(eng, 1, 2)


def test_two_unit_columns_on_one_row_cover_it_once():
    # y^(2q), (yz)^q and z^(2q) are free units, and y^(2q) * z^q is divided
    # by two of them: R' drops it once, and its Hilbert function, an
    # inclusion-exclusion over their lcms, counts R's standard monomials
    # that no unit divides
    for p in (2, 3, 5):
        ring = fermat_cubic_ring(p)
        eng = MembershipEngine(ring, IdealSpec.from_strings(
            ring, ["x^2", "y^2", "y*z", "z^2"]))
        for q in (1, p):
            quotient, kept = eng._quotient(q)
            assert kept == [0]
            assert quotient.units == ((0, 2 * q, 0), (0, q, q), (0, 0, 2 * q))
            assert (0, 2 * q, q) not in quotient.graded_basis(3 * q)
            for m in range(2 * q, 3 * q + 2):
                standard = tuple(mono for mono in ring.graded_basis(m) if not any(
                    monomial_divides(u, mono) for u in quotient.units))
                assert quotient.graded_basis(m) == standard
                assert quotient.hilbert_dim(m) == len(standard)
                some, _ = _check_quotient_ranks(eng, q, m)
                assert some


def test_skip_does_not_fire_on_a_unit_sharing_a_lead_variable(reduced):
    # x^q * y = x^(q-1) * z^2: x^q shares x with the lead xy, so containment
    # stays in R, and a product that x^q divides is still reduced
    for p in (2, 3, 5, 7):
        eng = _plane_conic(p)
        for q in (1, p):
            assert eng._quotient(q)[0] is eng.ring
            for m in range(q, q + 6):
                _check_quotient_ranks(eng, q, m)
        del reduced[:]
        for piece in eng._pieces(1, 3).values():
            eng._assemble(1, piece)
        assert any(monomial_divides((1, 0, 0), mono) for mono in reduced)


def test_free_unit_monomials_skip_the_normal_form(reduced):
    # on the Fermat cubic the lead x^3 leaves y and z free: in R' = R/(y^(2q),
    # z^(2q)) no product that y^(2q) or z^(2q) divides is reduced, while
    # membership's classes over R reduce some (at p = 3, NF(x^6) is free of
    # x and no product is reduced at all)
    for p in (2, 5, 7):
        ring = fermat_cubic_ring(p)
        eng = MembershipEngine(
            ring, IdealSpec.from_strings(ring, ["x^2", "y^2", "z^2"]))
        q = p
        quotient, kept = eng._quotient(q)
        assert quotient.units == ((0, 2 * q, 0), (0, 0, 2 * q)) and kept == [0]
        for over in (ring, quotient):
            for i in range(3):
                eng._generator_power(i, q, over)
        r_classes = _r_classes(eng, q, 3 * q + 1).values()
        del reduced[:]
        for piece in r_classes:
            eng._assemble(q, piece)
        assert [mono for mono in reduced if mono[1] >= 2 * q or mono[2] >= 2 * q]
        del reduced[:]
        for piece in eng._pieces(q, 3 * q + 1).values():
            eng._assemble(q, piece)
        assert not [mono for mono in reduced if mono[1] >= 2 * q or mono[2] >= 2 * q]
        # every class of degree k(q) = 3q + 1 has rows R' drops
        assert _check_quotient_ranks(eng, q, 3 * q + 1)[0] == 9


def test_relation_free_monomial_ideal_covers_every_row(monkeypatch):
    # F_5[x,y,z] with I = (x^2, y^2, z^2): every column is a unit column, so
    # no class is assembled or ranked, and k(q) = 6q - 2
    def refused(*args):
        raise AssertionError("a class was assembled or ranked")

    monkeypatch.setattr(MembershipEngine, "_assemble", refused)
    monkeypatch.setattr(linalg, "rank_mod", refused)
    ring = RingPresentation(5, ("x", "y", "z"))
    eng = MembershipEngine(ring, IdealSpec.from_strings(ring, ["x^2", "y^2", "z^2"]))
    for q in (5, 25):
        assert eng._quotient(q)[1] == []
        assert eng.min_containment_degree(q) == 6 * q - 2
        assert not eng.degree_containment(q, 6 * q - 3)


# -- the class map against one monomial at a time ----------------------------


def _reference_pieces(eng, rng, q, m, ring, kept):
    """The class map of the degree-m matrix over ring (R, or R' of
    _quotient(q)), with the generators in kept, keyed one monomial at a
    time: each row by its own class key, each column (i, mono) by the key
    of mono * x^(q*t), for a term x^t of f_i drawn at random."""

    def key(mono):
        return class_keys(eng._echelon, [mono])[0]

    rows, cols = {}, {}
    for mono in ring.graded_basis(m):
        rows.setdefault(key(mono), []).append(mono)
    for i in kept:
        g = eng.ideal.generators[i]
        shift = tuple(q * a for a in rng.choice(list(g.terms)))
        for mono in ring.graded_basis(m - q * g.degree()):
            cols.setdefault(key(monomial_mul(mono, shift)), []).append((i, mono))
    return [(k, Piece(rows.get(k, []), cols.get(k, []), ring))
            for k in {**rows, **cols}]


@pytest.mark.parametrize("p", PRIMES + (4294967291,))
def test_class_map_matches_keying_each_monomial(p):
    rng = random.Random(11 * p + 3)
    qs = (1, p) if p < 10 else (1,)
    # the cases of the packed assembly test: pure powers in three distinct
    # source degrees, random binomial problems, and the Fermat cubic with
    # squares from the first source degree up past k(q) = 3q + 1
    cases = [(_power_problem(p, 3, (2, 3, 1)), q, range(q, q + 8)) for q in qs]
    for primary in (False, True) * 2:
        eng = _random_problem(rng, p, primary)
        low = min(eng.ideal.degrees)
        cases += [(eng, q, range(q * low, q * low + 3)) for q in qs[: 2 - primary]]
    ring = fermat_cubic_ring(p)
    squares = MembershipEngine(
        ring, IdealSpec.from_strings(ring, ["x^2", "y^2", "z^2"]))
    cases += [(squares, q, range(2 * q, 3 * q + 3)) for q in qs]
    seen_split = seen_shared = 0
    for eng, q, degrees in cases:
        for m in degrees:
            pieces = list(eng._pieces(q, m).items())
            assert pieces == _reference_pieces(eng, rng, q, m, *eng._quotient(q))
            seen_split += len(pieces) > 1
            # a class whose columns come from more than one generator
            seen_shared += any(len({i for i, _ in piece.cols}) > 1
                               for _, piece in pieces)
    assert seen_split and seen_shared


# -- the walk of one class against the filtered whole degree -----------------


def _quadrics_problem(rng, p):
    """Two random quadrics in four variables, a complete intersection, with
    the squares as generators: L is the whole sum-zero lattice."""
    n = 4
    monos = list(monomials_of_degree(n, 2))
    while True:
        relations = [Polynomial(p, n, {mono: rng.randrange(p) for mono in monos})
                     for _ in range(2)]
        try:
            ring = RingPresentation(p, ("x", "y", "z", "w"), relations)
        except ValueError:
            continue
        break
    return MembershipEngine(ring, IdealSpec.from_strings(
        ring, ["x^2", "y^2", "z^2", "w^2"]))


def _binomials_problem(rng, p):
    """Random binomial relations of degrees 2 and 3 (a complete
    intersection) in four variables, with one monomial and one binomial
    generator: echelon rows with negative entries after their pivot."""
    n = 4
    while True:
        relations = [_random_binomial(rng, p, n, d) for d in (2, 3)]
        try:
            ring = RingPresentation(p, ("x", "y", "z", "w"), relations)
        except ValueError:
            continue
        break
    gens = (Polynomial(p, n, {_random_monomial(rng, n, 2): 1}),
            _random_binomial(rng, p, n, 1))
    return MembershipEngine(ring, IdealSpec(gens))


def _walk_cases(rng, p):
    """(name, engine, q, degrees) over the lattices the walk must cover."""
    quartic = fermat_quartic_ring(p)
    # no relations and a monomial ideal: L = 0, each class one monomial
    polynomial = RingPresentation(p, ("x", "y", "z"))
    # a monomial relation: the class of x*y^2 holds no standard monomial
    monomial_relation = RingPresentation(
        p, ("x", "y", "z"), [Polynomial(p, 3, {(1, 2, 0): 1})])
    return [
        ("fermat quartic", MembershipEngine(quartic, IdealSpec.from_strings(
            quartic, ["x^3", "y^3", "z^3", "w^3"])), p, range(3 * p - 2, 3 * p + 9)),
        ("binomials", _binomials_problem(rng, p), 1, range(0, 9)),
        ("binomials", _binomials_problem(rng, p), p, range(p, p + 6)),
        ("L = 0", MembershipEngine(polynomial, IdealSpec.from_strings(
            polynomial, ["x^2", "y*z", "z^3"])), p, range(0, 2 * p + 4)),
        ("quadrics", _quadrics_problem(rng, p), p, range(2 * p - 1, 2 * p + 4)),
        ("empty class", MembershipEngine(monomial_relation, IdealSpec.from_strings(
            monomial_relation, ["x*y", "z^2"])), 1, range(0, 7)),
    ]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_coset_walk_matches_the_filtered_graded_basis(p):
    rng = random.Random(1000 + p)
    seen = dict.fromkeys(("pivot 4", "negative", "L = 0", "one class",
                          "no standard monomial", "negative source"), 0)
    for name, eng, q, degrees in _walk_cases(rng, p):
        ring, echelon = eng.ring, eng._echelon
        gb = ring.groebner_basis()
        seen["pivot 4"] += any(row[c] == 4 for c, row in echelon)
        seen["negative"] += any(a < 0 for c, row in echelon for a in row[c + 1:])
        seen["L = 0"] += not echelon
        seen["one class"] += len(echelon) == ring.num_vars - 1
        for m in degrees:
            basis = ring.graded_basis(m)
            split = {}
            for key, mono in zip(class_keys(echelon, basis), basis):
                split.setdefault(key, []).append(mono)
            for key, monos in split.items():
                assert coset_monomials(gb, echelon, key, m) == monos, (name, m, key)
            # a coset of degree m has no monomial of another degree
            for key in list(split)[:2]:
                assert coset_monomials(gb, echelon, key, m + 1) == []
                assert coset_monomials(gb, echelon, key, m - 1) == []
            # classes of random monomials, with or without standard ones,
            # walked from a random member rather than the key
            monos = list(monomials_of_degree(ring.num_vars, m))
            for mono in rng.sample(monos, min(len(monos), 8)):
                key = class_keys(echelon, [mono])[0]
                expected = split.get(key, [])
                seen["no standard monomial"] += not expected
                assert coset_monomials(gb, echelon, mono, m) == expected, (name, m)
            # membership's class against the class map over R, at every class
            # with rows; a source degree below 0 gives that generator no columns
            pieces = _reference_pieces(eng, rng, q, m, *_over_r(eng))
            seen["negative source"] += m < q * max(eng.ideal.degrees)
            for key, piece in pieces:
                if piece.rows:
                    assert eng._piece(q, m, key) == piece, (name, m, key)
        assert coset_monomials(gb, echelon, (0,) * ring.num_vars, -1) == []
    assert all(seen.values()), seen


def test_coset_walk_matches_a_brute_force_oracle():
    # random lattices and lead sets, not only those of real rings: pivots
    # with gaps, negative entries off the pivots, and starts that are not
    # keys, some negative, walked in degrees from -1 up
    rng = random.Random(28)
    seen = dict.fromkeys(("gap", "negative entry", "negative start"), 0)
    nonempty = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        # a zero entry in half the coordinates leaves gaps between pivots
        echelon = lattice_echelon(
            [[a * rng.randint(0, 1) for a in _random_vector(rng, n, 4)]
             for _ in range(rng.randint(0, n))])
        leads = [lm for lm in (tuple(rng.randint(0, 3) for _ in range(n))
                               for _ in range(rng.randint(0, 3))) if any(lm)]
        gb = GroebnerBasis([Polynomial(2, n, {lm: 1}) for lm in leads], n)
        pivots = [c for c, _ in echelon]
        seen["gap"] += pivots != list(range(len(pivots)))
        seen["negative entry"] += any(a < 0 for c, row in echelon for a in row[c + 1:])
        for m in range(-1, 6):
            standard = [mono for mono in monomials_of_degree(n, m)
                        if not any(monomial_divides(lm, mono) for lm in leads)]
            keys = class_keys(echelon, standard)
            for _ in range(2):
                # a standard monomial moved by lattice vectors, or any vector
                start = (list(rng.choice(standard)) if standard and rng.random() < 0.7
                         else _random_vector(rng, n, 6))
                for _, row in echelon:
                    t = rng.randint(-3, 3)
                    start = [a + t * b for a, b in zip(start, row)]
                seen["negative start"] += min(start) < 0
                key = class_keys(echelon, [start])[0]
                expected = sorted((mono for mono, k in zip(standard, keys) if k == key),
                                  key=lambda mono: mono[::-1])
                assert coset_monomials(gb, echelon, start, m) == expected, (
                    echelon, leads, start, m)
                nonempty += bool(expected)
    assert nonempty >= 200 and all(seen.values()), (nonempty, seen)


def _assembled(monkeypatch):
    """The pieces membership hands to _assemble, recorded in order."""
    pieces, assemble = [], MembershipEngine._assemble

    def recorded(self, q, piece):
        pieces.append(piece)
        return assemble(self, q, piece)

    monkeypatch.setattr(MembershipEngine, "_assemble", recorded)
    return pieces


def test_membership_solves_the_classes_of_the_class_map(monkeypatch):
    # every piece membership assembles is the class map's piece of its key,
    # taken in the order of NF(h)'s terms up to the first unsolvable one
    rng = random.Random(5)
    pieces = _assembled(monkeypatch)
    seen_member = seen_split = 0
    for _, eng, q, degrees in _walk_cases(rng, 3):
        for m in degrees[-2:]:
            elements, _ = _elements(eng, rng, q, m)
            for h in elements:
                del pieces[:]
                member = eng.membership(q, h).member
                touched = list(dict.fromkeys(class_keys(
                    eng._echelon, eng.ring.normal_form(h).terms)))
                keys = [class_keys(eng._echelon, [piece.rows[0]])[0]
                        for piece in pieces]
                assert keys == (touched if member else touched[: len(keys)])
                class_map = dict(_reference_pieces(eng, rng, q, m, *_over_r(eng)))
                assert pieces == [class_map[key] for key in keys]
                seen_member += member
                seen_split += len(pieces) > 1
    assert seen_member and seen_split


def test_membership_refuses_a_term_outside_its_class_rows(monkeypatch):
    # a walk that drops one row holding a term of NF(h) must end in the
    # assertion, not in member = false
    ring = fermat_quartic_ring(3)
    eng = MembershipEngine(ring, IdealSpec.from_strings(
        ring, ["x^3", "y^3", "z^3", "w^3"]))
    h = ring.parse("x") * ring.parse("x^2*y^2*z^2*w^2").frobenius_power(9)
    mono = next(iter(ring.normal_form(h).terms))
    walk = engine.coset_monomials

    def dropped(gb, echelon, start, m):
        return [v for v in walk(gb, echelon, start, m) if v != mono]

    monkeypatch.setattr(engine, "coset_monomials", dropped)
    with pytest.raises(AssertionError, match="not a standard monomial of its class"):
        eng.membership(9, h)


def test_membership_builds_no_whole_degree_basis(monkeypatch):
    # the q = 9 witness on the Fermat quartic walks its one class; only the
    # containment test, which needs every class, builds whole degrees
    ring = fermat_quartic_ring(3)
    eng = MembershipEngine(ring, IdealSpec.from_strings(
        ring, ["x^3", "y^3", "z^3", "w^3"]))
    calls, graded_basis = [], RingPresentation.graded_basis

    def refused(self, m):
        raise AssertionError(f"whole-degree basis built in degree {m}")

    monkeypatch.setattr(RingPresentation, "graded_basis", refused)
    h = ring.parse("x") * ring.parse("x^2*y^2*z^2*w^2").frobenius_power(9)
    assert eng.membership(9, h).member

    def counted(self, m):
        calls.append(m)
        return graded_basis(self, m)

    monkeypatch.setattr(RingPresentation, "graded_basis", counted)
    # degree 18 is the first whose Hilbert shape leaves the q = 3 test to
    # the classes; its source degree is 18 - 3 * 3
    assert eng._shape_verdict(3, 18) is None
    eng.degree_containment(3, 18)
    assert sorted(calls) == [9, 18]
