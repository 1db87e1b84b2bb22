"""Mutation gate for the exact-answer paths; needs only the standard library
and pytest.

    python3 tests/mutants.py

Each mutant replaces one line of the package with a faulty one.  For each,
the script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, applies the mutant there (the checkout is never changed), and
runs the named test nodes with `-x`.  The unmutated copy runs every named
node first, within TIMEOUT seconds; each mutant run may then take twice as
long as that baseline run did, and a mutant is killed when its tests fail
or run past that limit (a mutant may loop).  The script exits
non-zero when a target line is not found exactly once, when the unmutated
copy fails the named tests or times out, or when any mutant survives.  A
surviving mutant is a gap in the tests: add a test that kills it, and keep
it on the list.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# seconds the baseline run, every named node on the unmutated copy, may take
TIMEOUT = 60

CLASSES = "tests/test_classes.py"
WALK_ORACLE = f"{CLASSES}::test_coset_walk_matches_a_brute_force_oracle"
ECHELON = "tests/test_classes.py::test_lattice_echelon_has_increasing_positive_pivots"
MATMUL_TIER = "tests/test_linalg.py::test_matmul_mod_is_exact_just_past_each_float_tier"
PARAMETER_ORACLE = f"{CLASSES}::test_every_degree_has_the_length_of_a_parameter_ideal"
QUOTIENT_RING = "tests/test_rings.py::test_quotient_ring_matches_division_by_units_and_leads"

# (name, file under src/frobpow, line as written, faulty line, test nodes)
MUTANTS = [
    (
        "_verify_certificate returns without checking",
        "engine.py",
        "        total = Polynomial.zero(ring.p, ring.num_vars)",
        "        return",
        [
            "tests/test_engine.py::test_wrong_certificate_fails_the_re_check",
            "tests/test_cli.py::test_failed_re_check_is_one_internal_error_line",
        ],
    ),
    (
        "poly_parse accepts a zero exponent",
        "polynomials.py",
        "            if e < 1:",
        "            if e < 0:",
        ["tests/test_polynomials.py::test_parse_error_message_and_offset"],
    ),
    (
        "monomial_divides compares with <",
        "polynomials.py",
        "    return all(map(le, a, b))",
        "    return all(x < y for x, y in zip(a, b))",
        [
            "tests/test_groebner.py::test_normal_form_single_step",
            "tests/test_rings.py::test_ring_normal_form_consistent_with_division",
        ],
    ),
    (
        "coset_monomials drops its lead prune",
        "groebner.py",
        "            if leads and any(monomial_divides(lm, v) for lm in leads):",
        "            if False:",
        [WALK_ORACLE],
    ),
    (
        "coset_monomials starts a pivot at its current value (t = 0)",
        "groebner.py",
        "            t = -(v[i] // row[i])",
        "            t = 0",
        [WALK_ORACLE],
    ),
    (
        "coset_monomials keeps a leaf of any degree",
        "groebner.py",
        "            if deg == m:  # the last coordinate may leave the degree short",
        "            if True:",
        [WALK_ORACLE],
    ),
    (
        "coset_monomials returns its walk unsorted",
        "groebner.py",
        "    return sorted(out, key=_reversed)",
        "    return out",
        [WALK_ORACLE],
    ),
    (
        "lattice_echelon stores a new row without flipping its sign",
        "engine.py",
        "                rows[c] = v if v[c] > 0 else [-a for a in v]",
        "                rows[c] = v",
        [ECHELON],
    ),
    (
        "lattice_echelon drops Euclid's swap (loops forever)",
        "engine.py",
        "                    row, v = v, row",
        "                    pass",
        [ECHELON],
    ),
    (
        "class_keys skips the first echelon row",
        "engine.py",
        "        for c, d, support in steps:",
        "        for c, d, support in steps[1:]:",
        ["tests/test_classes.py::test_class_key_ignores_lattice_vectors"],
    ),
    (
        "_eliminate skips the pivot-row normalization",
        "linalg.py",
        "                if inv != 1:",
        "                if False:",
        ["tests/test_linalg.py::test_solve_recovers_consistent_system"],
    ),
    (
        "_peel counts a removed holder twice (takes a column with two holders)",
        "linalg.py",
        "                count[c] -= 1",
        "                count[c] -= 2",
        ["tests/test_linalg.py::test_structural_pivots_on_small_cases"],
    ),
    (
        "rank_mod stacks only the pivot rows, dropping the rows left unreduced",
        "linalg.py",
        "        pivots = row_echelon_mod(_dense(pivots, rest, m, p), p)",
        "        pivots = row_echelon_mod(_dense(pivots, [], m, p), p)",
        ["tests/test_linalg.py::test_rank_finishes_dense_on_the_columns_it_holds"],
    ),
    (
        "_matmul_mod takes float32 up to 2**25",
        "linalg.py",
        "        f = np.float32 if bound < 2**24 else np.float64",
        "        f = np.float32 if bound < 2**25 else np.float64",
        [MATMUL_TIER],
    ),
    (
        "_matmul_mod takes float64 up to 2**54",
        "linalg.py",
        "    if k > 1 and bound < 2**53:",
        "    if k > 1 and bound < 2**54:",
        [MATMUL_TIER],
    ),
    (
        "row_echelon_mod skips the forward substitution",
        "linalg.py",
        "            for j in range(k - 1):",
        "            for j in range(0):",
        ["tests/test_linalg.py::test_rank_and_solve_wider_than_one_panel"],
    ),
    (
        "_packing is one bit narrower",
        "engine.py",
        "    width = m.bit_length()",
        "    width = m.bit_length() - 1",
        ["tests/test_classes.py::test_packed_assembly_matches_the_tuple_path"],
    ),
    (
        "monomial_normal_form swaps r and b in the Frobenius rule",
        "rings.py",
        "                    (tuple(r + p * e for r, e in zip(rem, t)), c)",
        "                    (tuple(e + p * r for r, e in zip(rem, t)), c)",
        ["tests/test_rings.py::test_normal_form_matches_plain_division"],
    ),
    (
        "_quotient takes a unit that shares a variable with a lead as free",
        "engine.py",
        "                        not any(map(min, terms[0], lm)) for lm in leads):",
        "                        True for lm in leads):",
        [f"{CLASSES}::test_skip_does_not_fire_on_a_unit_sharing_a_lead_variable"],
    ),
    (
        "_shape_verdict counts R's rows against the columns over R'",
        "engine.py",
        "        rows = ring.hilbert_dim(k)",
        "        rows = self.ring.hilbert_dim(k)",
        [PARAMETER_ORACLE],
    ),
    (
        "membership's _piece is built over R' (the certificate ring changes)",
        "engine.py",
        "        return Piece(rows, cols, self.ring)",
        "        return Piece(rows, cols, self._quotient(q)[0])",
        [f"{CLASSES}::test_class_split_matches_the_whole_degree_matrix[7]"],
    ),
    (
        "_columns walks the source coset plus q*exp(f_i), not minus",
        "engine.py",
        "            source = [k - q * a for k, a in zip(key, self._exponents[i])]",
        "            source = [k + q * a for k, a in zip(key, self._exponents[i])]",
        [f"{CLASSES}::test_class_map_matches_keying_each_monomial[3]"],
    ),
    (
        "_lcm_sum flips the inclusion-exclusion sign",
        "rings.py",
        "        out[k + sum(u)] = out.get(k + sum(u), 0) - c",
        "        out[k + sum(u)] = out.get(k + sum(u), 0) + c",
        [QUOTIENT_RING],
    ),
    (
        "QuotientRing keeps the normal-form terms a unit divides",
        "rings.py",
        "        return {m: c for m, c in nf.items() if not self._divided(m)}",
        "        return dict(nf)",
        [QUOTIENT_RING],
    ),
    (
        "GroebnerBasis caps a variable at its pure power lead, not one below",
        "groebner.py",
        "                caps[last] = min(caps[last], lm[last] - 1)",
        "                caps[last] = min(caps[last], lm[last])",
        [WALK_ORACLE],
    ),
    (
        "standard_monomials lets the last variable pass its cap",
        "groebner.py",
        "        for e in range(top + 1) if i < n - 1 else (rest,) * (rest == top):",
        "        for e in range(top + 1) if i < n - 1 else (rest,):",
        [QUOTIENT_RING],
    ),
]


def run_tests(tree, nodes, timeout):
    """Run the named nodes in the copy at tree: pytest's finished process, or
    None when it ran past timeout seconds and was killed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *nodes]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def copy_tree(dest):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main():
    failures = []
    with tempfile.TemporaryDirectory(prefix="frobpow-mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        nodes = sorted({node for *_, tests in MUTANTS for node in tests})
        started = time.perf_counter()
        baseline = run_tests(tree, nodes, TIMEOUT)
        # a mutant run takes a subset of the baseline's nodes: only one that
        # loops, or slows its tests down twofold, reaches this limit
        limit = 2 * (time.perf_counter() - started)
        if baseline is None or baseline.returncode:
            if baseline is not None:
                print(baseline.stdout + baseline.stderr)
            print("the unmutated copy fails the named tests, or times out")
            return 1
        print(f"baseline: {len(nodes)} nodes in {limit / 2:.1f} s; "
              f"each mutant run is stopped at {limit:.1f} s")
        for name, file, line, faulty, tests in MUTANTS:
            path = tree / "src" / "frobpow" / file
            original = path.read_text(encoding="utf-8")
            lines = original.split("\n")
            if lines.count(line) != 1:
                print(f"MISSING  {name}: {file} holds {line.strip()!r} "
                      f"{lines.count(line)} times, not once")
                failures.append(name)
                continue
            lines[lines.index(line)] = faulty
            path.write_text("\n".join(lines), encoding="utf-8")
            started = time.perf_counter()
            result = run_tests(tree, tests, limit)
            seconds = time.perf_counter() - started
            path.write_text(original, encoding="utf-8")
            # a run that times out counts as killed
            survived = result is not None and result.returncode == 0
            timed_out = ", timed out" if result is None else ""
            print(f"{'SURVIVED' if survived else 'killed  '} {name} "
                  f"({seconds:.1f} s{timed_out})")
            if survived:
                failures.append(name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
