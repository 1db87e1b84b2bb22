"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines inline).  Every criterion is exact: integer equalities,
zero tolerance, plus wall-clock budgets.
"""

import functools
import itertools
import json
import random
import time

import pytest

from frobpow.bounds import inclusion_threshold, koszul_invariants
from frobpow.cli import run_command
from frobpow.engine import IdealSpec, MembershipEngine, containment_table
from frobpow.groebner import monomials_of_degree
from frobpow.polynomials import Polynomial
from frobpow.rings import RingPresentation

from conftest import FERMAT_CUBIC_FPB, fermat_cubic_ring, fermat_quartic_ring

import math
from fractions import Fraction

FERMAT_QUARTIC_FPB = """\
[ring]
char = 3
vars = x y z w
relations = x^4+y^4+z^4+w^4
[ideal]
gens = x^3 ; y^3 ; z^3 ; w^3
[assumptions]
flags = normal_domain cohen_macaulay omega_invertible strongly_semistable
[options]
order = grevlex
"""

FERMAT_QUARTIC_P5_FPB = FERMAT_QUARTIC_FPB.replace("char = 3", "char = 5")

CUBIC_PARAMS_FPB = FERMAT_CUBIC_FPB.replace(
    "gens = x^2 ; y^2 ; z^2", "gens = x ; y"
)

SMALL_P_CAVEAT = (
    "tight-closure membership of this element is only guaranteed for "
    "sufficiently large characteristic; a failure at a small prime does not "
    "contradict the slope bound"
)

# The problems criteria 2-4 tabulate; criterion 8 cross-checks their tables.
_TABLE_NAMES = ("criterion2", "criterion3_p2", "criterion3_p3", "criterion4")


@functools.cache
def _table(name):
    """(engine, rows) of one problem in _TABLE_NAMES, built once per session
    by whichever of criteria 2-4 and 8 asks first."""
    if name.startswith("criterion3_p"):
        # I = (x, y) in F_p[x, y]: k(q) = 2q - 1, against the threshold with
        # nu = 2 and a = -2 written out
        p = int(name[len("criterion3_p"):])
        ring = RingPresentation(p, ("x", "y"), flags=("cohen_macaulay",))
        eng = MembershipEngine(ring, IdealSpec.from_strings(ring, ["x", "y"]))
        rows = []
        for e in (1, 2, 3):
            q = p**e
            k_emp = eng.min_containment_degree(q, cap=eng.default_cap(q))
            k_thy = inclusion_threshold(2, -2, q)
            rows.append((e, q, k_emp, k_thy, k_emp == k_thy))
        return eng, rows
    # nu = 3 and nu = 2, derived by the engine from the flags
    gens = {"criterion2": ["x^2", "y^2", "z^2"], "criterion4": ["x", "y"]}[name]
    ring = fermat_cubic_ring()
    eng = MembershipEngine(ring, IdealSpec.from_strings(ring, gens))
    return eng, containment_table(eng, 2)


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _run_json(capsys, argv):
    code = run_command(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def _write(tmp_path, text):
    path = tmp_path / "problem.fpb"
    path.write_text(text)
    return str(path)


def test_criterion_1_fermat_cubic_constants(tmp_path, capsys):
    started = time.perf_counter()
    path = _write(tmp_path, FERMAT_CUBIC_FPB)
    code, doc = _run_json(capsys, ["bounds", path, "--emax", "1"])
    elapsed = time.perf_counter() - started
    payload = doc["payload"] if doc else {}
    got = (
        code,
        payload.get("nu"),
        payload.get("C1"),
        payload.get("C0"),
        payload.get("C1prime"),
        payload.get("inclusion_threshold", {}).get("7"),
    )
    ok = got == (0, "3", "3", 2, 4, 22) and elapsed < 1.0
    _report(
        1,
        ok,
        f"bounds gives nu=3, C1=3, C0=2, C1'=4, threshold(7)=22 "
        f"(got {got[1:]}; {elapsed:.2f}s)",
    )


def test_criterion_2_inclusion_theorem(tmp_path, capsys):
    started = time.perf_counter()
    path = _write(tmp_path, FERMAT_CUBIC_FPB)
    code, doc = _run_json(capsys, ["kq", path, "--emax", "2"])
    elapsed = time.perf_counter() - started
    rows = {r["q"]: r for r in doc["payload"]["rows"]} if doc else {}
    ok = (
        code == 0
        and rows[7]["k_empirical"] is not None
        and rows[7]["k_empirical"] <= 22
        and rows[49]["k_empirical"] is not None
        and rows[49]["k_empirical"] <= 148
        and elapsed < 60
    )
    if ok:
        _table("criterion2")
    _report(
        2,
        ok,
        f"k_empirical(7)={rows.get(7, {}).get('k_empirical')} <= 22, "
        f"k_empirical(49)={rows.get(49, {}).get('k_empirical')} <= 148 "
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_parameter_exactness():
    started = time.perf_counter()
    failures = []
    for p in (2, 3):
        _, rows = _table(f"criterion3_p{p}")
        for _, q, k_emp, k_thy, _ in rows:
            if not (k_emp == 2 * q - 1 == k_thy):
                failures.append((p, q, k_emp, k_thy))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 5
    _report(
        3,
        ok,
        f"k_empirical(q) = 2q-1 = threshold(nu=2, a=-2, q) for p in {{2,3}}, "
        f"e = 1..3 (failures: {failures}; {elapsed:.1f}s)",
    )


def test_criterion_4_frobenius_closure_negative(tmp_path, capsys):
    started = time.perf_counter()
    path = _write(tmp_path, CUBIC_PARAMS_FPB)
    code, doc = _run_json(
        capsys,
        ["frobenius", path, "--emax", "3", "--f", "z^2", "--allow-large"],
    )
    elapsed = time.perf_counter() - started
    found = doc["payload"]["found_e"] if doc else "?"
    members = [r["member"] for r in doc["payload"]["rows"]] if doc else []
    ok = code == 0 and found is None and members == [False] * 4 and elapsed < 120
    if ok:
        _table("criterion4")
    _report(
        4,
        ok,
        f"z^2 not in the Frobenius closure of (x, y) for e <= 3 "
        f"(found_e={found}, members={members}; {elapsed:.1f}s)",
    )


def test_criterion_5_quartic_tight_closure(tmp_path, capsys):
    started = time.perf_counter()
    path = _write(tmp_path, FERMAT_QUARTIC_FPB)
    argv = ["tight", path, "--emax", "2", "--f", "x^2*y^2*z^2*w^2",
            "--c", "x", "--allow-large"]
    code, doc = _run_json(capsys, argv)
    members = [r["member"] for r in doc["payload"]["rows"]] if doc else []
    if code == 0 and members == [True, True]:
        elapsed = time.perf_counter() - started
        _report(
            5,
            elapsed < 600,
            f"c*f^q in I^[q] for q = 3 and q = 9 at p = 3 ({elapsed:.0f}s)",
        )
        return
    # Small-prime fallback: the guarantee only holds for p >> 0, so record the
    # p = 3 outcome and require q = 3 at p = 5 instead, with the caveat.
    path5 = _write(tmp_path, FERMAT_QUARTIC_P5_FPB)
    argv5 = ["tight", path5, "--emax", "1", "--f", "x^2*y^2*z^2*w^2",
             "--c", "x", "--allow-large"]
    code5, doc5 = _run_json(capsys, argv5)
    members5 = [r["member"] for r in doc5["payload"]["rows"]] if doc5 else []
    elapsed = time.perf_counter() - started
    ok = code5 == 0 and members5 == [True] and elapsed < 600
    _report(
        5,
        ok,
        f"p = 3 gave {members}; fallback p = 5, q = 3 gave {members5}. "
        f"{SMALL_P_CAVEAT} ({elapsed:.0f}s)",
    )


def test_criterion_6_koszul_closed_forms():
    started = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for n in range(2, 9):
        for _ in range(8):
            degrees = tuple(rng.randint(1, 9) for _ in range(n))
            total = sum(degrees)
            for t in range(1, n):
                ki = koszul_invariants(degrees, t, dim_ring=t + 1)
                assert ki.rank == math.comb(n - 1, t)
                assert ki.degree_coeff == math.comb(n - 2, t - 1) * (-total)
                checked += 1
    quartic_ok = all(
        koszul_invariants((a,) * 4, 2, dim_ring=3).slope_over_deg
        == Fraction(-8 * a, 3)
        for a in range(1, 7)
    )
    elapsed = time.perf_counter() - started
    ok = quartic_ok and elapsed < 1.0
    _report(
        6,
        ok,
        f"rank C(n-1,t) and degree -C(n-2,t-1)*sum(d) on {checked} cases, "
        f"quartic slope -8a/3 (quartic_ok={quartic_ok}; {elapsed:.2f}s)",
    )


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(42)
    ring = RingPresentation(2, ("x", "y"), flags=("cohen_macaulay",))
    gen_pool = ["x^2", "x*y+y^2", "x^3", "x^2*y+y^3", "y^2"]
    agree = total = 0
    while total < 200:
        texts = rng.sample(gen_pool, rng.randint(1, 3))
        gens = [ring.parse(t) for t in texts]
        q = rng.choice([1, 2])
        eng = MembershipEngine(ring, IdealSpec(tuple(gens)))
        m = rng.randint(q * min(g.degree() for g in gens), q * 3 + 2)
        products = []
        for g in gens:
            shift = m - q * g.degree()
            if shift < 0:
                continue
            gq = g.frobenius_power(q)
            for mono in monomials_of_degree(2, shift):
                products.append(gq.term_mul(mono))
        if len(products) > 12:  # keep the exhaustive oracle desk-scale
            continue
        f = Polynomial(
            2, 2, {mono: rng.randint(0, 1) for mono in monomials_of_degree(2, m)}
        )
        if f.is_zero():
            continue
        # encode degree-m monomials as bit positions; F_2 sums are XORs
        bit = {mono: i for i, mono in enumerate(monomials_of_degree(2, m))}
        vecs = [
            sum(1 << bit[mono] for mono, c in t.terms.items() if c)
            for t in products
        ]
        target = sum(1 << bit[mono] for mono, c in f.terms.items() if c)
        expected = False
        for mask in range(1 << len(vecs)):
            acc = 0
            for i, v in enumerate(vecs):
                if mask >> i & 1:
                    acc ^= v
            if acc == target:
                expected = True
                break
        total += 1
        agree += eng.membership(q, f).member == expected
    elapsed = time.perf_counter() - started
    ok = agree == total == 200 and elapsed < 60
    _report(
        7,
        ok,
        f"linear-algebra membership vs exhaustive span oracle over F_2: "
        f"{agree}/{total} agree ({elapsed:.1f}s)",
    )


def test_criterion_8_consistency_suite():
    started = time.perf_counter()
    problems = []

    # (a) hilbert_dim vs standard-monomial counts on 5 rings, m <= 30
    xyz = ("x", "y", "z")
    rings = [
        fermat_cubic_ring(),
        fermat_quartic_ring(),
        RingPresentation(2, ("x", "y")),
        RingPresentation(3, xyz),
        RingPresentation(5, xyz, [Polynomial(5, 3, {(2, 0, 0): 1, (0, 1, 1): 4})]),
    ]
    for ring in rings:
        for m in range(31):
            if len(ring.graded_basis(m)) != ring.hilbert_dim(m):
                problems.append(("hilbert", ring.p, m))

    # (b) termwise Frobenius vs repeated squaring, 500 random polynomials
    rng = random.Random(8)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(1, 3)
        f = Polynomial(
            p, n,
            {tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(0, p - 1)
             for _ in range(rng.randint(0, 5))},
        )
        q = p ** rng.randint(1, 2)
        if f.frobenius_power(q) != f**q:
            problems.append(("frobenius", p, f))

    # (c) reverse containment I^[q'] subset of I^[q] for q | q' on the
    # containment tables of criteria 2-4
    tables = {name: _table(name) for name in _TABLE_NAMES}
    for name, (eng, table) in tables.items():
        rows = list(table)
        ks = [
            (r.q, r.k_empirical) if hasattr(r, "q") else (r[1], r[2])
            for r in rows
        ]
        # k(q) is nondecreasing in q along each table
        for (q1, k1), (q2, k2) in zip(ks, ks[1:]):
            if not (q1 < q2 and k1 <= k2):
                problems.append(("k-monotone", name, ks))
        # generator q'-powers lie in I^[q] whenever q | q'
        qs = [q for q, _ in ks]
        for q, qp in itertools.combinations(qs, 2):
            if qp % q:
                continue
            for g in eng.ideal.generators:
                if not eng.membership(q, g.frobenius_power(qp)).member:
                    problems.append(("reverse-containment", name, q, qp))

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60
    _report(
        8,
        ok,
        f"hilbert/monomial counts, 500 Frobenius oracle checks, reverse "
        f"containment on {len(tables)} tables (problems: {problems[:3]}; "
        f"{elapsed:.1f}s)",
    )
