"""Standard-graded complete-intersection presentations R = K[x_1..x_N]/(H_1..H_r).

The constructor computes the Groebner basis and refuses relations that are
not a complete intersection, the one place that rule is decided.  Carries the
Hilbert function (by exact power series), graded bases of standard monomials
(by Groebner data), the a-invariant and the regularity; the two routes to
dim R_m are deliberately redundant and cross-asserted.  A graded basis is
enumerated, and cross-checked, on every call: the ring keeps none, as no
query asks twice for a degree an earlier query enumerated.  Normal forms are
memoized per monomial and use that Frobenius is a ring endomorphism of R:
NF(x^(p*b + r)) is reduced from NF(x^b)^p, so a q-th power costs log_p(q)
short reduction chains.  A ``QuotientRing`` R/(monomials free of every
leading variable) reads its Hilbert function and normal forms off R's.

Geometric hypotheses (normality, Cohen-Macaulayness, invertibility of the
dualizing sheaf, smoothness) are user-asserted flags carried as metadata;
nothing here verifies them.
"""

import itertools
import math

from .groebner import GroebnerBasis, buchberger, standard_monomials
from .polynomials import (
    Polynomial,
    check_prime,
    monomial_divides,
    monomial_mul,
    monomial_quotient,
    poly_parse,
)

KNOWN_FLAGS = frozenset(
    {"normal_domain", "cohen_macaulay", "omega_invertible", "smooth_proj",
     "strongly_semistable"}
)


class AssumptionMissing(RuntimeError):
    """A computation was requested whose formula needs an unasserted flag."""

    def __init__(self, flag, why):
        super().__init__(
            f"refusing: assumption flag {flag!r} is not set. {why}"
        )
        self.flag = flag


class RingPresentation:
    """K[x_1..x_N]/(H_1..H_r) with char(K) = p, complete-intersection convention
    dim R = N - r."""

    def __init__(self, p, var_names, relations=(), flags=()):
        check_prime(p)
        self.p = p
        self.var_names = tuple(var_names)
        self.num_vars = len(self.var_names)
        self.relations = tuple(relations)
        self.flags = frozenset(flags)
        unknown = self.flags - KNOWN_FLAGS
        if unknown:
            raise ValueError(f"unknown assumption flags: {sorted(unknown)}")
        for h in self.relations:
            if h.p != p or h.num_vars != self.num_vars:
                raise ValueError("relation not defined over this ring's variables")
            if h.is_zero() or not h.is_homogeneous():
                raise ValueError("relation not homogeneous (or zero)")
        self.relation_degrees = tuple(h.degree() for h in self.relations)
        if any(d < 1 for d in self.relation_degrees):
            raise ValueError("relation degrees must be >= 1")
        if len(self.relations) >= self.num_vars:
            raise ValueError("need dim R = N - r >= 1")
        self._gb = (
            buchberger(list(self.relations)) if self.relations
            else GroebnerBasis([], self.num_vars)
        )
        # dim K[x]/J = dim K[x]/in(J): the size of the largest set of
        # variables that supports no leading monomial.  It is never below
        # N - r, and r forms are a regular sequence exactly when it is N - r.
        n = self.num_vars
        for free in itertools.combinations(range(n), self.dim + 1):
            if all(any(lm[i] for i in range(n) if i not in free)
                   for lm in self._gb.leading_monomials):
                names = ", ".join(self.var_names[i] for i in free)
                raise ValueError(
                    "relations are not a complete intersection: "
                    f"{names} are algebraically independent modulo them"
                )
        # prod_j (1 - t^{delta_j}), each factor multiplied in from the top down
        num = self._hilbert_numerator = [1]
        for d in self.relation_degrees:
            num += [0] * d
            for i in range(len(num) - 1, d - 1, -1):
                num[i] -= num[i - d]
        self._leads = tuple(
            zip(self._gb.leading_monomials, self._gb.generators)
        )
        self._nf_cache = {}

    # -- structural numbers ------------------------------------------------

    @property
    def dim(self):
        """Krull dimension, N - r by the complete-intersection convention."""
        return self.num_vars - len(self.relations)

    def ring_degree(self):
        """Product of the relation degrees (Bezout); 1 for a polynomial ring."""
        return math.prod(self.relation_degrees)

    def a_invariant(self):
        """sum of relation degrees minus the number of variables."""
        return sum(self.relation_degrees) - self.num_vars

    def regularity(self):
        """a-invariant + dim R; valid for Cohen-Macaulay rings only."""
        if "cohen_macaulay" not in self.flags:
            raise AssumptionMissing(
                "cohen_macaulay",
                "the formula reg(R) = a + dim(R) is only valid for "
                "Cohen-Macaulay rings",
            )
        return self.a_invariant() + self.dim

    # -- Hilbert function --------------------------------------------------

    def hilbert_dim(self, m):
        """Coefficient of t^m in prod_j (1 - t^{delta_j}) / (1 - t)^N,
        by exact integer power-series truncation."""
        n = self.num_vars
        return sum(c * math.comb(m - k + n - 1, n - 1)
                   for k, c in enumerate(self._hilbert_numerator) if k <= m)

    # -- Groebner-backed graded bases --------------------------------------

    def groebner_basis(self):
        return self._gb

    def graded_basis(self, m):
        """Standard monomials of degree m, as a tuple in grevlex order, built
        afresh on each call.  Their count is asserted to be hilbert_dim(m),
        on each call: __init__ refuses every presentation for which it is
        not, so a mismatch is a Groebner-basis or standard-monomial bug."""
        basis = tuple(standard_monomials(self._gb, m))
        expected = self.hilbert_dim(m)
        if len(basis) != expected:
            raise AssertionError(
                f"standard-monomial count {len(basis)} != Hilbert dimension "
                f"{expected} in degree {m} of a complete intersection"
            )
        return basis

    # -- normal forms ------------------------------------------------------

    def _reducer(self, mono):
        """The first (leading monomial, generator) of the Groebner basis whose
        leading monomial divides mono, or None when mono is standard."""
        for lm, g in self._leads:
            if monomial_divides(lm, mono):
                return lm, g
        return None

    def monomial_normal_form(self, mono):
        """Normal form of a single monomial modulo the relations, memoized.

        Returns a dict monomial -> coefficient.  Write x^a = x^r * (x^b)^p,
        b = a // p and r = a mod p componentwise.  When x^b is not standard,
        NF(x^a) is the normal form of the sum of c x^(r + p*t) over the terms
        c x^t of NF(x^b), as Frobenius is a ring endomorphism of R and
        c^p = c in F_p; each t lies below x^b in grevlex, so each x^(r + p*t)
        lies below x^a.  Otherwise x^a is reduced one leading-monomial step.
        A post-order walk on an explicit stack, so that long chains cannot
        blow the interpreter's stack: a monomial is popped in one place, then
        cached or pushed back under the monomials it still misses."""
        cache = self._nf_cache
        if (hit := cache.get(mono)) is not None:
            return hit
        p = self.p
        stack = [mono]
        while stack:
            cur = stack.pop()
            if cur in cache:
                continue
            reducer = self._reducer(cur)
            if reducer is None:
                cache[cur] = {cur: 1}
                continue
            # the guard: were x^base standard, the rule would give x^cur back
            elif self._reducer(base := tuple(e // p for e in cur)) is None:
                lm, g = reducer
                shift = monomial_quotient(cur, lm)
                # cur = x^shift * lm(g) and g is monic: in R, cur is the sum
                # of the negated tail of x^shift * g
                terms = [
                    (monomial_mul(m2, shift), -c2)
                    for m2, c2 in g.terms.items()
                    if m2 != lm
                ]
            elif base in cache:
                rem = tuple(e % p for e in cur)
                terms = [
                    (tuple(r + p * e for r, e in zip(rem, t)), c)
                    for t, c in cache[base].items()
                ]
            else:
                # NF(x^base) first; cur comes back to this test after it
                stack += [cur, base]
                continue
            missing = [m2 for m2, _ in terms if m2 not in cache]
            if missing:
                stack += [cur, *missing]
                continue
            cache[cur] = self.reduce(terms)
        return cache[mono]

    def reduce(self, terms):
        """Normal form of sum c * mono over the (mono, c) pairs in terms, as a
        dict monomial -> nonzero coefficient mod p."""
        p = self.p
        acc = {}
        for mono, c in terms:
            for mr, cr in self.monomial_normal_form(mono).items():
                v = (acc.get(mr, 0) + c * cr) % p
                if v:
                    acc[mr] = v
                else:
                    acc.pop(mr, None)
        return acc

    def normal_form(self, f):
        """Normal form of a polynomial modulo the relations."""
        if f.p != self.p or f.num_vars != self.num_vars:
            raise ValueError("polynomial not defined over this ring")
        if not self._gb.generators:
            return f
        return Polynomial(self.p, self.num_vars, self.reduce(f.terms.items()))

    # -- convenience -------------------------------------------------------

    def parse(self, text):
        return poly_parse(text, self.var_names, self.p)

    def __repr__(self):
        rels = ", ".join(str(d) for d in self.relation_degrees)
        return (
            f"RingPresentation(F_{self.p}[{', '.join(self.var_names)}]"
            f" / relations of degrees ({rels}))"
        )


def _lcm_sum(monos):
    """sum over the subsets S of monos of (-1)^|S| t^deg(lcm S), as {degree:
    coefficient}.  lcm(u, S) = u * lcm(S : u), with v : u = lcm(u, v) / u; a
    v : u that another divides drops out, toggling the divisor in pairs."""
    if not monos:
        return {0: 1}
    u, *rest = monos
    out = _lcm_sum(rest)
    colon = {tuple(max(a - b, 0) for a, b in zip(v, u)) for v in rest}
    colon = [v for v in colon
             if not any(w != v and monomial_divides(w, v) for w in colon)]
    for k, c in _lcm_sum(colon).items():
        out[k + sum(u)] = out.get(k + sum(u), 0) - c
    return out


class QuotientRing(RingPresentation):
    """R' = R/(x^t for t in units), each x^t coprime to R's leading monomials,
    so the units and R's Groebner basis are one of R' (Buchberger's first
    criterion): its standard monomials are R's that no unit divides, and its
    NF is R's, from R's memo, less the terms a unit divides.  A product of
    units maps R's standard monomials one to one onto those it divides, so
    dim R'_m = sum c * dim R_(m-d) over c t^d in _lcm_sum(units).  The
    presentation data (relations, flags, dim) stays R's."""

    def __init__(self, ring, units):
        vars(self).update(vars(ring))
        self.ring, self.units = ring, tuple(units)
        gens = [Polynomial(ring.p, ring.num_vars, {t: 1}) for t in self.units]
        self._gb = GroebnerBasis(gens + ring._gb.generators, ring.num_vars)
        self._shifts = _lcm_sum(self.units).items()

    def hilbert_dim(self, m):
        return sum(c * self.ring.hilbert_dim(m - d) for d, c in self._shifts)

    def _divided(self, mono):
        return any(map(monomial_divides, self.units, itertools.repeat(mono)))

    def monomial_normal_form(self, mono):
        nf = {} if self._divided(mono) else self.ring.monomial_normal_form(mono)
        return {m: c for m, c in nf.items() if not self._divided(m)}
