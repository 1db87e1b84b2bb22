"""Buchberger's algorithm, normal forms and the standard monomials of each
degree (one recursion pruned by leading monomials), all in grevlex, the
package's one monomial order.

Desk-scale inputs only: pair pruning uses just the coprime-lead criterion,
pair selection is the normal strategy (smallest lcm in grevlex, ties by
index), and a degree cap guards against runaway computations.
"""

from .polynomials import (
    Polynomial,
    grevlex_key,
    monomial_degree,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
)


class DegreeCapExceeded(RuntimeError):
    pass


class GroebnerBasis:
    """A reduced Groebner basis: monic generators, no leading monomial of one
    dividing any monomial of another."""

    def __init__(self, generators, num_vars):
        self.generators = list(generators)
        self.num_vars = num_vars
        self.leading_monomials = tuple(g.leading_monomial() for g in self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def normal_form(f, gb):
    """Remainder of f under multivariate division by gb, a GroebnerBasis or
    a plain list of polynomials.

    No monomial of the result is divisible by a leading monomial of gb; the
    map f -> normal_form(f, gb) is F_p-linear and idempotent.
    """
    gens = list(gb)
    if not gens:
        return f
    p = f.p
    leads = [(g.leading_monomial(), g) for g in gens]
    work = dict(f.terms)
    remainder = {}
    while work:
        mono = max(work, key=grevlex_key)
        c = work.pop(mono)
        for lm, g in leads:
            if monomial_divides(lm, mono):
                shift = monomial_quotient(mono, lm)
                factor = c * pow(g.terms[lm], -1, p) % p
                for m2, c2 in g.terms.items():
                    if m2 == lm:
                        continue
                    m = monomial_mul(m2, shift)
                    v = (work.get(m, 0) - factor * c2) % p
                    if v:
                        work[m] = v
                    else:
                        work.pop(m, None)
                break
        else:
            remainder[mono] = c
    return Polynomial(f.p, f.num_vars, remainder)


def s_polynomial(f, g):
    p = f.p
    lmf = f.leading_monomial()
    lmg = g.leading_monomial()
    lcm = monomial_lcm(lmf, lmg)
    cf = pow(f.terms[lmf], -1, p)
    cg = pow(g.terms[lmg], -1, p)
    return f.term_mul(monomial_quotient(lcm, lmf), cf) - g.term_mul(
        monomial_quotient(lcm, lmg), cg
    )


def buchberger(gens, degree_cap=512):
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic for a fixed input order.  Raises DegreeCapExceeded if a
    pair not skipped as coprime has lcm degree above ``degree_cap``.
    """
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("degenerate input: all generators are zero")

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def lead_key(g):
        return grevlex_key(g.leading_monomial())

    def pair_sort_key(pair):
        i, j = pair
        lcm = monomial_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())
        return (grevlex_key(lcm), i, j)

    while pairs:
        i, j = min(pairs, key=pair_sort_key)
        pairs.discard((i, j))
        lmi = basis[i].leading_monomial()
        lmj = basis[j].leading_monomial()
        # Buchberger's first criterion: coprime leading monomials
        if all(min(a, b) == 0 for a, b in zip(lmi, lmj)):
            continue
        lcm = monomial_lcm(lmi, lmj)
        if monomial_degree(lcm) > degree_cap:
            raise DegreeCapExceeded(
                f"Groebner basis needs an S-pair of lcm degree "
                f"{monomial_degree(lcm)}, above the fixed degree cap {degree_cap}; "
                "relations this hard are not supported"
            )
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            k = len(basis) - 1
            pairs.update((i2, k) for i2 in range(k))

    # minimalize: drop generators whose lead is divisible by a kept one's lead
    minimal = []
    for g in sorted(basis, key=lead_key):
        lm = g.leading_monomial()
        if not any(monomial_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    # reduce tails against the rest
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form(g, others)
        reduced.append(r.monic())
    reduced.sort(key=lead_key)
    return GroebnerBasis(reduced, basis[0].num_vars)


def monomials_of_degree(num_vars, m):
    """All exponent tuples of total degree m, as a generator."""
    if m < 0:
        return
    if num_vars == 0:
        if m == 0:
            yield ()
        return
    if num_vars == 1:
        yield (m,)
        return
    for e in range(m + 1):
        for rest in monomials_of_degree(num_vars - 1, m - e):
            yield (e,) + rest


def standard_monomials(gb, m):
    """Degree-m monomials not divisible by any leading monomial of gb,
    sorted descending in grevlex; an F_p-basis of (R/ideal)_m.

    One recursion fixes x_0, x_1, ... in turn, exponents ascending, and the
    last variable takes the rest of the degree.  Each lead, cut to x_0..x_i,
    is tested when its last variable x_i is fixed; a divisor ends x_i's loop.
    """
    if m < 0:
        return []
    n = gb.num_vars
    # by_last[i]: leads whose last variable is x_i, cut to x_0..x_i
    by_last = [[] for _ in range(n)]
    for lm in gb.leading_monomials:
        last = max((i for i, e in enumerate(lm) if e), default=0)
        by_last[last].append(lm[: last + 1])
    out = []

    def walk(i, prefix, deg):
        if i == n:
            if deg == m:  # false only for a ring with no variables and m > 0
                out.append(prefix)
            return
        leads = by_last[i]
        for e in range(m - deg + 1) if i < n - 1 else (m - deg,):
            ext = prefix + (e,)
            # a lead dividing ext divides it for every larger exponent of x_i
            if leads and any(monomial_divides(lm, ext) for lm in leads):
                break
            walk(i + 1, ext, deg + e)

    walk(0, (), 0)
    return sorted(out, key=grevlex_key, reverse=True)
