"""Byte-for-byte replay of recorded ``--no-timings`` reports.

Each case runs one CLI command on ``tests/golden/problem.fpb`` (the problem
file of the README) or, for the ``*_no_nu`` cases, on the same problem without
the strongly_semistable flag, and compares its stdout with the recording
``tests/golden/<name>``.  Reports made with ``--no-timings`` are meant to stay
byte-identical across refactors, so a failure here is an output change.
Rewrite the recordings only when such a change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib

import pytest

from frobpow.cli import run_command

GOLDEN = pathlib.Path(__file__).with_name("golden")
PROBLEM = GOLDEN / "problem.fpb"
# the README problem without strongly_semistable: n = 3 > dim R = 2, so nu is
# not derivable, and the closure reports carry no guarantee and no prediction
PROBLEM_NO_NU = GOLDEN / "problem_no_nu.fpb"

# the six README examples, then kq as csv and a membership that fails
_README = {
    "bounds": ["bounds", "--emax", "2"],
    "koszul": ["koszul"],
    "kq": ["kq", "--emax", "2"],
    "member": ["member", "--q", "7", "--elem", "x^8*y^8*z^6"],
    "tight": ["tight", "--emax", "2", "--f", "z^2", "--c", "x"],
    "frobenius": ["frobenius", "--emax", "2", "--f", "z^2"],
}
CASES = {
    f"{name}.{ext}": argv + ["--format", fmt]
    for name, argv in _README.items()
    for fmt, ext in (("text", "txt"), ("json", "json"))
}
CASES["kq.csv"] = _README["kq"] + ["--format", "csv"]
CASES["member_non_member.json"] = [
    "member", "--q", "7", "--elem", "x^6*y^7*z^7", "--format", "json"
]
_NO_NU = {
    "tight_no_nu": _README["tight"],
    "frobenius_no_nu": ["frobenius", "--emax", "2", "--f", "x*y*z"],
}
for name, argv in _NO_NU.items():
    for fmt, ext in (("text", "txt"), ("json", "json")):
        CASES[f"{name}.{ext}"] = argv + ["--format", fmt]


def _problem(case):
    return PROBLEM_NO_NU if case.split(".")[0] in _NO_NU else PROBLEM


def _argv(case, problem):
    argv = CASES[case]
    return argv[:1] + [str(problem)] + argv[1:] + ["--no-timings"]


def _stdout(case, problem=None):
    problem = problem or _problem(case)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(_argv(case, problem))
    assert code == 0, case
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert _stdout(case) == (GOLDEN / case).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output_without_options_section(case, tmp_path):
    # grevlex is the only order, so [options] may be left out
    text = _problem(case).read_text()
    problem = tmp_path / "problem.fpb"
    problem.write_text(text[: text.index("[options]")])
    assert "[options]" in text and "order" not in problem.read_text()
    assert _stdout(case, problem) == (GOLDEN / case).read_bytes()


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / case).write_bytes(_stdout(case))
