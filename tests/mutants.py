"""Mutation gate for the exact-answer paths; needs only the standard library
and pytest.

    python3 tests/mutants.py

Each mutant replaces one line of the package with a faulty one.  For each,
the script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, applies the mutant there (the checkout is never changed), and
runs the named test nodes with `-x`.  A mutant is killed when those tests
fail.  The script exits non-zero when a target line is not found exactly
once, when the unmutated copy fails the named tests, or when any mutant
survives.  A surviving mutant is a gap in the tests: add a test that kills
it, and keep it on the list.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
]


def run_tests(tree, nodes):
    """Run the named nodes in the copy at tree; pytest's finished process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *nodes]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)


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
        baseline = run_tests(tree, nodes)
        if baseline.returncode:
            print(baseline.stdout + baseline.stderr)
            print("the unmutated copy fails the named tests")
            return 1
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
            survived = run_tests(tree, tests).returncode == 0
            seconds = time.perf_counter() - started
            path.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'killed  '} {name} "
                  f"({seconds:.1f} s)")
            if survived:
                failures.append(name)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
