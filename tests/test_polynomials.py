import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobpow.polynomials import (
    ParseError,
    PolyError,
    Polynomial,
    check_p_power,
    grevlex_key,
    is_prime,
    poly_format,
    poly_parse,
)

XYZ = ("x", "y", "z")


# -- strategies ------------------------------------------------------------

def polynomials(max_vars=4, max_terms=6, max_exp=4, primes=(2, 3, 5, 7)):
    @st.composite
    def build(draw):
        p = draw(st.sampled_from(primes))
        n = draw(st.integers(1, max_vars))
        nterms = draw(st.integers(0, max_terms))
        terms = {}
        for _ in range(nterms):
            mono = tuple(
                draw(st.integers(0, max_exp)) for _ in range(n)
            )
            terms[mono] = draw(st.integers(0, p - 1))
        return Polynomial(p, n, terms)
    return build()


def poly_triples():
    @st.composite
    def build(draw):
        p = draw(st.sampled_from((2, 3, 5, 7)))
        n = draw(st.integers(1, 3))
        def one():
            return Polynomial(
                p, n,
                {
                    tuple(draw(st.integers(0, 3)) for _ in range(n)):
                        draw(st.integers(0, p - 1))
                    for _ in range(draw(st.integers(0, 4)))
                },
            )
        return one(), one(), one()
    return build()


# -- parsing ---------------------------------------------------------------

def test_parse_fermat_cubic():
    f = poly_parse("x^3+y^3+z^3", XYZ, 7)
    assert len(f.terms) == 3
    assert all(c == 1 for c in f.terms.values())
    assert f.is_homogeneous() and f.degree() == 3


def test_parse_zero():
    assert poly_parse("0", XYZ, 5).is_zero()


def test_parse_coefficient_reduction():
    f = poly_parse("7*x + y", ("x", "y"), 7)
    assert f == poly_parse("y", ("x", "y"), 7)


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as err:
        poly_parse("x + t^2", ("x", "y"), 5)
    assert "unknown variable" in str(err.value)
    assert err.value.offset == 4


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        poly_parse("x^3 + + y", XYZ, 5)
    assert err.value.offset == 6


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("", "empty polynomial", 0),
        ("   ", "empty polynomial", 3),
        ("-", "expected term", 1),
        ("x^", "expected integer", 2),
        # points just past the exponent's digits
        ("x^0", "exponent must be positive", 3),
        ("x*", "expected variable after '*'", 2),
        ("x*2", "expected variable after '*'", 2),
        ("x +", "expected term", 3),
        ("x $", "unexpected character '$'", 2),
        ("x 2", "unexpected character '2'", 2),
        ("x 23", "unexpected character '2'", 2),
        # a digit to str.isdigit() but not a decimal digit
        ("\u00b2x", "expected integer", 0),
        # offsets count characters: the UTF-8 byte offset of the last one is 5
        ("x + \u00b2", "expected integer", 4),
        ("q", "unknown variable 'q'", 0),
    ],
)
def test_parse_error_message_and_offset(text, message, offset):
    with pytest.raises(ParseError) as err:
        poly_parse(text, ("x", "y"), 5)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text, terms",
    [
        # a non-breaking space is whitespace
        ("x\u00a0+ y", {(1, 0): 1, (0, 1): 1}),
        # a Unicode decimal digit is a coefficient
        ("\u0663x", {(1, 0): 3}),
        ("- *x  y\t^2\n+2 x", {(1, 2): 4, (1, 0): 2}),
    ],
)
def test_parse_accepts_unicode_whitespace_and_digits(text, terms):
    assert poly_parse(text, ("x", "y"), 5).terms == terms


def test_parse_requires_prime():
    with pytest.raises(PolyError):
        poly_parse("x", ("x",), 6)


def test_parse_negative_terms():
    f = poly_parse("x - y", ("x", "y"), 5)
    assert f.terms == {(1, 0): 1, (0, 1): 4}


@given(polynomials())
@settings(max_examples=150)
def test_format_parse_roundtrip(f):
    names = XYZ + ("w",)
    text = poly_format(f, names[: f.num_vars])
    assert poly_parse(text, names[: f.num_vars], f.p) == f


# -- arithmetic ------------------------------------------------------------

def test_mul_char2_cross_term_vanishes():
    f = poly_parse("x+y", ("x", "y"), 2)
    assert f * f == poly_parse("x^2+y^2", ("x", "y"), 2)


def test_mul_identity():
    f = poly_parse("x^2+3*y*z", XYZ, 5)
    one = Polynomial.constant(5, 3, 1)
    assert f * one == f


def test_mul_difference_of_squares_mod5():
    a = poly_parse("x+y", ("x", "y"), 5)
    b = poly_parse("x-y", ("x", "y"), 5)
    assert a * b == poly_parse("x^2+4*y^2", ("x", "y"), 5)


def test_modulus_mismatch_rejected():
    with pytest.raises(PolyError):
        poly_parse("x", ("x",), 5) * poly_parse("x", ("x",), 7)
    with pytest.raises(PolyError):
        poly_parse("x", ("x",), 5) + poly_parse("x", ("x", "y"), 5)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Polynomial(5, 2, {(1, 2, 3): 1}), PolyError,
     "monomial (1, 2, 3) has wrong arity for 2 vars"),
    (lambda: Polynomial(5, 2, {(1, -1): 1}), PolyError,
     "negative exponent in (1, -1)"),
    (lambda: setattr(Polynomial(5, 2, {(1, 0): 1}), "p", 7), AttributeError,
     "Polynomial is immutable"),
    (lambda: Polynomial.zero(5, 2).leading_monomial(), PolyError,
     "zero polynomial has no leading monomial"),
    (lambda: Polynomial(5, 2, {(1, 0): 1}) ** -1, PolyError,
     "negative exponent"),
])
def test_library_input_errors_name_their_cause(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_equal_polynomials_hash_equal_by_every_route():
    # one polynomial parsed in two term orders and built by arithmetic:
    # (x+2)(x+3) = x^2 + 1 over F_5
    parsed = poly_parse("x^2+3*y*z+4", XYZ, 5)
    reordered = poly_parse("4+3*y*z+x^2", XYZ, 5)
    built = (
        poly_parse("x+2", XYZ, 5) * poly_parse("x+3", XYZ, 5)
        + poly_parse("3*y*z+3", XYZ, 5)
    )
    assert list(parsed.terms) != list(reordered.terms)
    assert parsed == reordered == built
    assert hash(parsed) == hash(reordered) == hash(built)
    assert {parsed: "a", reordered: "b", built: "c"} == {built: "c"}
    assert len({parsed, reordered, built}) == 1
    assert built in {parsed} and parsed + parsed not in {parsed}


@given(poly_triples())
@settings(max_examples=150)
def test_ring_axioms(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f


# -- Frobenius powers ------------------------------------------------------

def test_frobenius_freshman_dream():
    f = poly_parse("x+y", ("x", "y"), 2)
    assert f.frobenius_power(2) == poly_parse("x^2+y^2", ("x", "y"), 2)


def test_frobenius_q_one_is_identity():
    f = poly_parse("2*x^2+3*y", ("x", "y"), 5)
    assert f.frobenius_power(1) == f


def test_frobenius_termwise_matches_repeated_squaring():
    f = poly_parse("2*x+y", ("x", "y"), 5)
    assert f.frobenius_power(5) == poly_parse("2*x^5+y^5", ("x", "y"), 5)
    assert f.frobenius_power(5) == f**5


def test_frobenius_rejects_non_p_power():
    f = poly_parse("x", ("x",), 5)
    with pytest.raises(PolyError):
        f.frobenius_power(10)
    with pytest.raises(PolyError):
        f.frobenius_power(0)


def trial_division(n):
    """Primality by trial division up to sqrt(n): the oracle for is_prime."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    # the unmemoized function, so the sweep leaves the cache as it was
    for n in range(200_000):
        assert is_prime.__wrapped__(n) == trial_division(n), n
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; and 2, 3, 5, 7
    for n in (2047, 1373653, 25326001, 3215031751):
        assert not trial_division(n) and not is_prime(n), n
    # 4294967311 is prime, though check_prime refuses it for the 2**32 ceiling
    for n in (2**31 - 1, 4294967291, 4294967311):
        assert trial_division(n) and is_prime(n), n


def test_check_p_power():
    for q in (1, 3, 9, 243):
        check_p_power(q, 3)
    for q in (0, -3, 2, 6, 10, 3**5 * 2):
        with pytest.raises(PolyError, match="not a power of the characteristic 3"):
            check_p_power(q, 3)


@given(polynomials(), st.integers(1, 2))
@settings(max_examples=120, deadline=None)
def test_frobenius_oracle_equivalence(f, e):
    q = f.p**e
    via_termwise = f.frobenius_power(q)
    # f**q as e successive p-th powers, (f^p)^p = f^(p^2): each power is of a
    # polynomial with few terms, where f**49 at once multiplies dense ones
    oracle = f
    for _ in range(e):
        oracle = oracle**f.p
    assert via_termwise == oracle
    iterated = f
    for _ in range(e):
        iterated = iterated.frobenius_power(f.p)
    assert via_termwise == iterated


@given(polynomials(max_terms=4, max_exp=3), st.integers(1, 2))
@settings(max_examples=80, deadline=None)
def test_homogeneity_and_degree_scaling(f, e):
    q = f.p**e
    # force homogeneous: keep only max-degree terms
    if not f.is_zero():
        d = f.degree()
        f = Polynomial(f.p, f.num_vars,
                       {m: c for m, c in f.terms.items() if sum(m) == d})
    assert f.is_homogeneous()
    fq = f.frobenius_power(q)
    assert fq.is_homogeneous()
    if not f.is_zero():
        assert fq.degree() == q * f.degree()
        g = f * f
        assert g.is_homogeneous() and g.degree() == 2 * f.degree()


# -- monomial orders -------------------------------------------------------

def test_grevlex_orders_degree_three():
    monos = [(3, 0, 0), (0, 3, 0), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    ranked = sorted(monos, key=grevlex_key, reverse=True)
    assert ranked[0] == (3, 0, 0)
    assert ranked.index((2, 1, 0)) < ranked.index((2, 0, 1))
    assert ranked.index((2, 1, 0)) < ranked.index((1, 2, 0))


def test_orders_are_multiplicative():
    a, b, m = (1, 2), (2, 0), (3, 1)
    if grevlex_key(a) < grevlex_key(b):
        lo, hi = a, b
    else:
        lo, hi = b, a
    shifted_lo = tuple(x + y for x, y in zip(lo, m))
    shifted_hi = tuple(x + y for x, y in zip(hi, m))
    assert grevlex_key(shifted_lo) < grevlex_key(shifted_hi)
