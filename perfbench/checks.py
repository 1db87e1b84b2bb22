"""Answer checks for the benchmark, computed apart from frobpow.

Nothing here imports the program.  Polynomials are dicts mapping exponent
tuples to residues mod p, with their own parser and arithmetic, and the
expected answers come from closed forms:

* kq on the Fermat cubic with I = (x^2, y^2, z^2): dim R_m = 3m for m >= 1,
  so the membership map (+)_3 R_{k-2q} -> R_k can only be onto once
  9(k - 2q) >= 3k, i.e. k >= 3q; the paper's inclusion theorem with nu = 3
  and a = 0 puts R_k inside I^[q] for every k > 3q.  So 3q <= k(q) <= 3q + 1
  and the threshold is 3q + 1.
* frobenius on the same cubic with I = (x, y) and f = z^2: for p = 1 mod 3
  the ring is F-pure (Fedder's criterion), so (x, y)^F = (x, y), which does
  not contain z^2; for p = 2 mod 3, z^(2p) = -z (x^3 + y^3)^((2p-1)/3) and
  every monomial x^(3i) y^(3j) of that power has 3i >= p or 3j >= p, so
  z^(2p) lies in (x^p, y^p) and the first power that works is e = 1.
* member certificates are re-checked as polynomial identities: h minus
  sum c_i * g_i^q must vanish, or be divisible by a relation that is monic in
  the first variable.
* non-membership in an ideal whose generators share an F_p-rational zero P
  is proved by h(P) != 0.

Every check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations

import re

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_poly(text, var_names, p):
    """Parse sums of terms like ``3*x^2*y + z`` into {exponents: coeff}."""
    index = {name: i for i, name in enumerate(var_names)}
    poly = {}
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse polynomial at offset {pos}: {text!r}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coeff = 1
        exps = [0] * len(var_names)
        for factor in m.group(2).replace(" ", "").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            exps[index[name]] += int(power) if power else 1
        add_term(poly, tuple(exps), sign * coeff, p)
    return poly


def format_poly(poly, var_names, order=None):
    """Terms joined by `` + `` in the given order of monomials (default:
    sorted), so a seed can vary the text without changing the polynomial."""
    parts = []
    for mono in order if order is not None else sorted(poly):
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(var_names, mono)
            if e
        ]
        c = poly[mono]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts) if parts else "0"


def add_term(poly, mono, c, p):
    v = (poly.get(mono, 0) + c) % p
    if v:
        poly[mono] = v
    else:
        poly.pop(mono, None)


def add(f, g, p, scale=1):
    """f + scale * g."""
    out = dict(f)
    for mono, c in g.items():
        add_term(out, mono, scale * c, p)
    return out


def mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            add_term(out, tuple(a + b for a, b in zip(m1, m2)), c1 * c2, p)
    return out


def evaluate(f, point, p):
    total = 0
    for mono, c in f.items():
        term = c
        for x, e in zip(point, mono):
            term = term * pow(x, e, p) % p
        total += term
    return total % p


def reduce_by_monic(f, relation, p):
    """Remainder of f on division by ``relation``, which must be monic in the
    first variable: repeatedly cancel the term of highest first-variable
    degree.  The remainder is 0 iff ``relation`` divides f."""
    lead_deg = max(mono[0] for mono in relation)
    lead = [m for m in relation if m[0] == lead_deg]
    if len(lead) != 1 or relation[lead[0]] != 1 or any(lead[0][1:]):
        raise ValueError("relation is not monic in the first variable")
    f = dict(f)
    # cancelling a term of first-variable degree d only creates terms of
    # lower degree, so one sweep from the top degree down suffices
    for d in range(max((m[0] for m in f), default=0), lead_deg - 1, -1):
        for mono in [m for m in f if m[0] == d]:
            c = f[mono]
            shift = (d - lead_deg,) + mono[1:]
            for m2, c2 in relation.items():
                add_term(f, tuple(a + b for a, b in zip(m2, shift)), -c * c2, p)
    return f


def certificate_residual(h, gens, coeffs, q, p):
    """h - sum coeffs_i * gens_i^q."""
    residual = dict(h)
    for g, c in zip(gens, coeffs):
        residual = add(residual, mul(c, frobenius(g, q), p), p, scale=-1)
    return residual


def frobenius(f, q):
    """f^q in characteristic p for q = p^e: coefficients are fixed by
    Frobenius, exponents scale by q."""
    return {tuple(q * e for e in mono): c for mono, c in f.items()}


# -- per-command checks ----------------------------------------------------


def check_kq(payload, p, emax):
    problems = []
    if payload.get("nu") != "3":
        problems.append(f"nu = {payload.get('nu')!r}, expected '3'")
    rows = payload.get("rows", [])
    if [r.get("e") for r in rows] != list(range(1, emax + 1)):
        return problems + [f"rows cover e = {[r.get('e') for r in rows]}"]
    for r in rows:
        q = p ** r["e"]
        k = r.get("k_empirical")
        if r.get("q") != q:
            problems.append(f"e={r['e']}: q = {r.get('q')}, expected {q}")
        if r.get("k_threshold") != 3 * q + 1:
            problems.append(
                f"q={q}: k_threshold = {r.get('k_threshold')}, expected {3 * q + 1}"
            )
        if not isinstance(k, int) or not 3 * q <= k <= 3 * q + 1:
            problems.append(f"q={q}: k_empirical = {k!r}, outside [{3 * q}, {3 * q + 1}]")
        elif r.get("tight") is not (k == 3 * q + 1):
            problems.append(f"q={q}: tight = {r.get('tight')!r} with k = {k}")
    return problems


def check_frobenius(payload, p, emax):
    problems = []
    if payload.get("nu") != "2":
        problems.append(f"nu = {payload.get('nu')!r}, expected '2'")
    if payload.get("predicted_sufficient_q") is not None:
        problems.append("predicted_sufficient_q must be null when deg f = nu")
    if p % 3 == 1:
        expected_rows = [(e, p**e, False) for e in range(emax + 1)]
        expected_found = None
    else:
        expected_rows = [(0, 1, False), (1, p, True)]
        expected_found = 1
    got = [(r.get("e"), r.get("q"), r.get("member")) for r in payload.get("rows", [])]
    if got != expected_rows:
        problems.append(f"rows {got}, expected {expected_rows}")
    if payload.get("found_e") != expected_found:
        problems.append(f"found_e = {payload.get('found_e')!r}, expected {expected_found}")
    return problems


def check_member(payload, query):
    """``query`` holds the problem as dicts: p, vars, gens, q, h, expect, and
    optionally relation (a certificate must reduce to 0 modulo it, which must
    be monic in the first variable) and point (a common zero of the
    generators; for an expected non-member h(point) != 0 is the proof)."""
    p, names = query["p"], query["vars"]
    member = payload.get("member")
    if payload.get("q") != query["q"]:
        return [f"q = {payload.get('q')}, expected {query['q']}"]
    if not query["expect"]:
        point = query["point"]
        if any(evaluate(g, point, p) for g in query["gens"]):
            return [f"generators do not all vanish at {point}: bad input"]
        if evaluate(query["h"], point, p) == 0:
            return [f"h vanishes at {point}, so non-membership is unproved: bad input"]
        if member is not False:
            return [f"member = {member!r}, but h(P) != 0 at a common zero P"]
        return []
    if member is not True:
        return [f"member = {member!r}, expected true"]
    cert = payload.get("certificate")
    if not isinstance(cert, list) or len(cert) != len(query["gens"]):
        return ["certificate missing or of the wrong length"]
    coeffs = [parse_poly(c, names, p) for c in cert]
    residual = certificate_residual(query["h"], query["gens"], coeffs, query["q"], p)
    if query.get("relation") is not None:
        residual = reduce_by_monic(residual, query["relation"], p)
    if residual:
        return [f"certificate identity fails: residual has {len(residual)} terms"]
    return []
