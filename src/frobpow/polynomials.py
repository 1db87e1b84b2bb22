"""Sparse multivariate polynomials over a prime field F_p.

Monomials are exponent tuples; a polynomial is a dict mapping monomials to
nonzero residues in [0, p).  All values are immutable after construction and
every operation returns a fully normalized polynomial (coefficients reduced,
zero terms dropped), so equality is structural.

The one monomial order is grevlex (``grevlex_key``).  No degree bound, k(q)
or membership verdict depends on the order; it fixes leading monomials, and
with them which of the valid membership certificates is reported, and the
order of terms in ``poly_format``.
"""

import functools
import re
from operator import add, le, sub


class PolyError(ValueError):
    pass


class ParseError(PolyError):
    """Syntax error in a polynomial string, with the character offset of the
    problem (an index into the str, not into its UTF-8 bytes)."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_WITNESSES = (2, 7, 61)


@functools.cache
def is_prime(n):
    """Deterministic Miller-Rabin to bases 2, 7 and 61, exact for every n
    below 4,759,123,141 (Jaeschke 1993), so for every characteristic below
    the 2**32 ceiling; memoized, since every Polynomial construction checks
    its characteristic."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    # the dense finish of linalg keeps its products exact by splitting
    # operands into two 16-bit halves, which covers every p below 2**32
    if p >= 2**32:
        raise PolyError(f"characteristic must be below 2**32, got {p}")
    if not is_prime(p):
        raise PolyError(f"characteristic must be prime, got {p}")


def check_p_power(q, p):
    """Raise PolyError unless q = p^e for some e >= 0."""
    v = q
    while v > 1 and v % p == 0:
        v //= p
    if v != 1:
        raise PolyError(f"{q} is not a power of the characteristic {p}")


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def monomial_quotient(b, a):
    """b / a, assuming a divides b."""
    return tuple(map(sub, b, a))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomial_degree(m):
    return sum(m)


def grevlex_key(mono):
    """Sort key of the graded reverse-lexicographic order, the package's one
    monomial order: larger key = larger monomial.  Compares total degree,
    then the negated exponents from the last variable back."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


class Polynomial:
    """Immutable sparse polynomial over F_p."""

    __slots__ = ("p", "num_vars", "terms")

    def __init__(self, p, num_vars, terms=None):
        check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num_vars", num_vars)
        clean = {}
        for mono, c in (terms or {}).items():
            if len(mono) != num_vars:
                raise PolyError(f"monomial {mono} has wrong arity for {num_vars} vars")
            if any(e < 0 for e in mono):
                raise PolyError(f"negative exponent in {mono}")
            c %= p
            if c:
                clean[tuple(mono)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, num_vars):
        return cls(p, num_vars, {})

    @classmethod
    def constant(cls, p, num_vars, c):
        return cls(p, num_vars, {(0,) * num_vars: c})

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self):
        """Largest monomial in grevlex."""
        if not self.terms:
            raise PolyError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.p != other.p or self.num_vars != other.num_vars:
            raise PolyError(
                f"incompatible polynomials: F_{self.p} in {self.num_vars} vars"
                f" vs F_{other.p} in {other.num_vars} vars"
            )

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.p, self.num_vars, terms)

    def __neg__(self):
        return Polynomial(
            self.p, self.num_vars, {m: self.p - c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        p = self.p
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                terms[m] = (terms.get(m, 0) + c1 * c2) % p
        return Polynomial(p, self.num_vars, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c %= self.p
        return Polynomial(
            self.p, self.num_vars, {m: c * v for m, v in self.terms.items()}
        )

    def monic(self):
        inv = pow(self.leading_coefficient(), -1, self.p)
        return self.scale(inv)

    def term_mul(self, mono, c=1):
        """Multiply by a single term c * x^mono."""
        return Polynomial(
            self.p,
            self.num_vars,
            {monomial_mul(m, mono): v * c for m, v in self.terms.items()},
        )

    def __pow__(self, n):
        """Binary exponentiation via poly_mul; the Frobenius oracle."""
        if n < 0:
            raise PolyError("negative exponent")
        result = Polynomial.constant(self.p, self.num_vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius_power(self, q):
        """f^q for q = p^e, computed termwise: c * m  ->  c * m^q.

        Valid because c^q = c in F_p and the Frobenius endomorphism is
        additive in characteristic p.
        """
        check_p_power(q, self.p)
        return Polynomial(
            self.p,
            self.num_vars,
            {tuple(e * q for e in m): c for m, c in self.terms.items()},
        )

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.p == other.p
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.num_vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial(p={self.p}, {self.terms!r})"


# -- parsing / formatting --------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# optional whitespace, then one token: an integer, an identifier, any other
# character, or the end of the text (the empty token)
_TOKEN = re.compile(rf"\s*((\d+)|({_IDENT.pattern})|\S|\Z)")


def poly_parse(text, var_names, p):
    """Parse ``text`` into a Polynomial in the given variables over F_p.

    Grammar: polynomial ::= ['-'] term (('+'|'-') term)*
             term       ::= [integer] ['*'] factor ('*'? factor)*
             factor     ::= var ['^' positiveint]
    Whitespace is insignificant.  Variable names are case-sensitive.
    """
    if not text.strip():
        raise ParseError("empty polynomial", len(text))
    n = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    terms = {}
    # state says what the token before was: "start" (none), "term" (a sign),
    # "factor" ('*'), "caret" (a variable, which '^' may follow), "exp"
    # ('^'), or "more" (a coefficient or exponent)
    state, sign, coeff, exps = "start", 1, 1, [0] * n
    for m in _TOKEN.finditer(text):
        tok, num, name = m.groups()
        pos = m.start(1)
        if state == "exp":
            if num is None:
                raise ParseError("expected integer", pos)
            e = int(num)
            if e < 1:
                raise ParseError("exponent must be positive", m.end())
            exps[var] += e - 1
            state = "more"
        elif state == "caret" and tok == "^":
            state = "exp"
        elif state == "start" and tok == "-":
            sign, state = -1, "term"
        elif tok == "*" and state != "factor":
            state = "factor"
        elif name is not None:
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", pos)
            var = index[name]
            exps[var] += 1
            state = "caret"
        elif state in ("start", "term"):
            if num is None:
                # a character str.isdigit() accepts but \d does not, like '²'
                raise ParseError(
                    "expected integer" if tok.isdigit() else "expected term", pos
                )
            coeff, state = int(num), "more"
        elif state == "factor":
            raise ParseError("expected variable after '*'", pos)
        else:
            # the term ends, at '+', '-', an error or the end of the text,
            # which always comes as a last, empty token
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + sign * coeff
            if not tok:
                return Polynomial(p, n, terms)
            if tok not in ("+", "-"):
                raise ParseError(f"unexpected character {tok[0]!r}", pos)
            sign, state, coeff, exps = (1 if tok == "+" else -1), "term", 1, [0] * n


def poly_format(f, var_names):
    """Deterministic string form, terms in descending grevlex order;
    round-trips through poly_parse."""
    if f.is_zero():
        return "0"
    parts = []
    for mono in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[mono]
        factors = []
        for name, e in zip(var_names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)
