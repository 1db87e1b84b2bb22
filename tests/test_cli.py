import json
import os
import subprocess
import sys

import pytest

import frobpow
from frobpow import bounds as bounds_mod
from frobpow import linalg
from frobpow.cli import (
    InputError,
    emit_report,
    parse_problem_file,
    run_command,
)
from frobpow.engine import MembershipEngine

from conftest import FERMAT_CUBIC_FPB, off_by_one

PARAM_FPB = """\
[ring]
char = 3
vars = x y
[ideal]
gens = x ; y
"""


def write(tmp_path, text, name="problem.fpb"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- problem-file parsing --------------------------------------------------

def test_parse_fermat_cubic_problem():
    pf = parse_problem_file(FERMAT_CUBIC_FPB)
    assert pf.ring.p == 7
    assert pf.ring.var_names == ("x", "y", "z")
    assert len(pf.ring.relations) == 1
    assert pf.ideal.degrees == (2, 2, 2)
    assert "strongly_semistable" in pf.ring.flags


def test_parse_minimal_problem():
    pf = parse_problem_file(PARAM_FPB)
    assert pf.ring.relations == ()
    assert not pf.ring.flags
    assert pf.ideal.degrees == (1, 1)


def test_parse_comments_and_blank_lines():
    text = "# header\n\n" + PARAM_FPB + "\n# trailing\n"
    assert parse_problem_file(text).ring.p == 3


@pytest.mark.parametrize(
    "mutation, message",
    [
        (("char = 3", "char = 6"), "characteristic must be prime"),
        (("char = 3", "char = three"), "char must be an integer"),
        (("gens = x ; y", "gens = x + y^2 ; y"), "not homogeneous"),
        (("gens = x ; y", "gens = x + w ; y"), "unknown variable"),
        (("[ideal]", "[ideals]"), "unknown section"),
        (("vars = x y", "vars = x x"), "duplicate variable"),
        (("gens = x ; y", "gens = x ; y\nextra = 1"), "unknown key"),
        # the last value used to win silently: this ran at p = 7
        (("char = 3", "char = 5\nchar = 7"),
         "line 3 in [ring]: duplicate key 'char' (first set on line 2)"),
        # no polynomial can name such a variable, and poly_format would write
        # (y^2)^3 as y^2^3, which does not parse back
        (("vars = x y", "vars = x y y^2"),
         "line 3 in [ring]: variable name 'y^2' is not an identifier"),
        (("vars = x y", "vars = x y 2z"), "variable name '2z'"),
        (("vars = x y", "vars = x y z-1"), "variable name 'z-1'"),
    ],
)
def test_parse_diagnostics(mutation, message):
    old, new = mutation
    with pytest.raises(InputError) as err:
        parse_problem_file(PARAM_FPB.replace(old, new))
    assert message in str(err.value)


def test_parse_rejects_unknown_flag():
    text = PARAM_FPB + "[assumptions]\nflags = shiny\n"
    with pytest.raises(InputError) as err:
        parse_problem_file(text)
    assert "unknown flag" in str(err.value) and "cohen_macaulay" in str(err.value)


def test_parse_line_numbers_in_errors():
    with pytest.raises(InputError) as err:
        parse_problem_file(PARAM_FPB.replace("char = 3", "char = 4"))
    assert "line 2" in str(err.value)


# -- commands end to end ---------------------------------------------------

def run_json(capsys, argv):
    code = run_command(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_bounds_command_fermat_cubic(fermat_cubic_file, capsys):
    code, doc = run_json(capsys, ["bounds", fermat_cubic_file, "--emax", "2"])
    assert code == 0
    payload = doc["payload"]
    assert payload["nu"] == "3"  # exact rationals serialize as strings
    assert payload["C1"] == "3"
    assert payload["C0"] == 2
    assert payload["C1prime"] == 4
    assert payload["smith_bound"] == 4
    assert payload["inclusion_threshold"] == {"1": 4, "7": 22, "49": 148}
    assert "strongly_semistable" in doc["assumptions"]


def test_koszul_command(fermat_cubic_file, capsys):
    code, doc = run_json(capsys, ["koszul", fermat_cubic_file])
    assert code == 0
    syz = doc["payload"]["syzygies"]
    assert [s["rank"] for s in syz] == [2, 1]
    assert syz[0]["slope_over_deg"] == "-3"


def test_kq_command_parameter_case(tmp_path, capsys):
    path = write(tmp_path, PARAM_FPB)
    code, doc = run_json(capsys, ["kq", path, "--emax", "2"])
    assert code == 0
    rows = doc["payload"]["rows"]
    assert [(r["q"], r["k_empirical"], r["k_threshold"]) for r in rows] == [
        (3, 5, 5),
        (9, 17, 17),
    ]
    assert all(r["tight"] for r in rows)


def test_kq_cap_zero_is_honoured(fermat_cubic_file, capsys):
    # an explicit cap of 0 is a cap like any other, not the default one
    for cap in (0, 5):
        code, doc = run_json(
            capsys, ["kq", fermat_cubic_file, "--emax", "1", "--cap", str(cap)]
        )
        assert code == 0
        (row,) = doc["payload"]["rows"]
        assert row["k_empirical"] is None and row["cap_exceeded"] == cap


def test_kq_csv_output(tmp_path, capsys):
    path = write(tmp_path, PARAM_FPB)
    code = run_command(["kq", path, "--emax", "1", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "e,q,k_empirical,k_threshold,tight",
        "1,3,5,5,True",
    ]


def test_kq_csv_writes_as_the_csv_module_would(fermat_cubic_file, capsys):
    # a search that stops at its cap reports k_empirical and tight as None,
    # which csv.writer writes as an empty field, and True as "True"
    import csv
    import io

    for cap, row in ((["--cap", "10"], [1, 7, None, 22, None]),
                     ([], [1, 7, 22, 22, True])):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("e", "q", "k_empirical", "k_threshold", "tight"))
        writer.writerow(row)
        argv = ["kq", fermat_cubic_file, "--emax", "1", "--format", "csv"]
        assert run_command(argv + cap) == 0
        assert capsys.readouterr().out == buf.getvalue()


def test_member_command(tmp_path, capsys):
    path = write(tmp_path, PARAM_FPB)
    code, doc = run_json(
        capsys, ["member", path, "--q", "3", "--elem", "x^3+2*y^3"]
    )
    assert code == 0
    assert doc["payload"]["member"] is True
    assert doc["payload"]["certificate"] is not None
    code, doc = run_json(
        capsys, ["member", path, "--q", "3", "--elem", "x^2*y^2"]
    )
    assert code == 0
    assert doc["payload"]["member"] is False
    assert doc["payload"]["certificate"] is None


def test_frobenius_command(fermat_cubic_file, tmp_path, capsys):
    text = FERMAT_CUBIC_FPB.replace("gens = x^2 ; y^2 ; z^2", "gens = x ; y")
    path = write(tmp_path, text)
    code, doc = run_json(capsys, ["frobenius", path, "--emax", "1", "--f", "z^2"])
    assert code == 0
    assert doc["payload"]["found_e"] is None
    assert [r["member"] for r in doc["payload"]["rows"]] == [False, False]


@pytest.mark.parametrize("p, predicted", [(2, 4), (3, 3)])
def test_frobenius_command_reports_the_predicted_q(tmp_path, capsys, p, predicted):
    # a = 2 and nu = 2 on x^5 + y^5 + z^5 with I = (x, y); deg(xyz) = 3
    text = (f"[ring]\nchar = {p}\nvars = x y z\nrelations = x^5+y^5+z^5\n"
            "[ideal]\ngens = x ; y\n")
    code, doc = run_json(
        capsys, ["frobenius", write(tmp_path, text), "--emax", "2", "--f", "x*y*z"]
    )
    assert code == 0
    payload = doc["payload"]
    assert (payload["nu"], payload["predicted_sufficient_q"]) == ("2", predicted)
    assert payload["found_e"] == 0


def test_tight_command(fermat_cubic_file, tmp_path, capsys):
    text = FERMAT_CUBIC_FPB.replace("gens = x^2 ; y^2 ; z^2", "gens = x ; y")
    path = write(tmp_path, text)
    code, doc = run_json(
        capsys, ["tight", path, "--emax", "1", "--f", "z^2", "--c", "x"]
    )
    assert code == 0
    assert [r["member"] for r in doc["payload"]["rows"]] == [True]
    assert any("finite evidence" in n for n in doc["payload"]["notes"])


# -- exit codes and refusals -----------------------------------------------

def test_failed_re_check_is_one_internal_error_line(
    fermat_cubic_file, capsys, monkeypatch
):
    monkeypatch.setattr(linalg, "solve_mod", off_by_one(linalg.solve_mod))
    argv = ["member", fermat_cubic_file, "--q", "7", "--elem", "x^8*y^8*z^6"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: certificate identity failed to re-verify"
    )
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_missing_flag_turns_success_into_refusal(tmp_path, capsys):
    ok = write(tmp_path, FERMAT_CUBIC_FPB, "ok.fpb")
    assert run_command(["bounds", ok]) == 0
    capsys.readouterr()
    stripped = FERMAT_CUBIC_FPB.replace(
        "flags = normal_domain cohen_macaulay omega_invertible strongly_semistable",
        "flags = normal_domain cohen_macaulay omega_invertible",
    )
    bad = write(tmp_path, stripped, "bad.fpb")
    assert run_command(["bounds", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # refusal leaves no partial payload
    assert "strongly_semistable" in captured.err


def test_input_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, PARAM_FPB.replace("char = 3", "char = 4"))
    assert run_command(["bounds", path]) == 2
    assert "input error" in capsys.readouterr().err
    assert run_command(["bounds", str(tmp_path / "missing.fpb")]) == 2


@pytest.mark.parametrize("text, extra, message", [
    ("char = 3\n" + PARAM_FPB, [], "line 1: content before any section header"),
    (PARAM_FPB.replace("char = 3", "char 7"), [], "expected 'key = value'"),
    (PARAM_FPB.replace("char = 3\n", ""), [], "missing required key 'char' in [ring]"),
    (PARAM_FPB.replace("vars = x y", "vars ="), [], "no variables declared"),
    (PARAM_FPB.replace("vars = x y", "vars = x y\nrelations = 1"), [],
     "[ring]: relation degrees must be >= 1"),
    (PARAM_FPB.replace("vars = x y", "vars = x\nrelations = x").replace(" ; y", ""),
     [], "[ring]: need dim R = N - r >= 1"),
    (PARAM_FPB, ["--elem", "x^"], "expected integer"),
    (PARAM_FPB, ["--elem", "x*"], "expected variable after '*'"),
    (PARAM_FPB, ["--elem", "x +"], "expected term"),
    (PARAM_FPB, ["--elem", "x $"], "unexpected character '$'"),
    (PARAM_FPB, ["--elem", ""], "empty polynomial"),
])
def test_input_errors_are_one_line_with_exit_2(tmp_path, capsys, text, extra, message):
    path = write(tmp_path, text)
    assert run_command(["member", path, "--q", "3", "--elem", "x^3", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert message in captured.err


def test_problem_file_not_utf8_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "problem.fpb"
    path.write_bytes(b"\xff\xfe" + PARAM_FPB.encode())
    assert run_command(["bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not UTF-8" in captured.err
    assert captured.err.count("\n") == 1


def test_report_past_the_int_digit_limit_is_a_one_line_input_error(tmp_path, capsys):
    # q = p^460 at p = 4294967291 has over 4300 digits, past Python's default
    # limit on int-to-str conversion; the message differs between versions
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 4300:
        pytest.skip("needs Python's default int-to-str digit limit")
    text = FERMAT_CUBIC_FPB.replace("char = 7", "char = 4294967291")
    path = write(tmp_path, text)
    for fmt in ("text", "json"):
        assert run_command(["bounds", path, "--emax", "460", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_bounds_stops_at_the_first_q_past_the_int_digit_limit(
    fermat_cubic_file, capsys, monkeypatch
):
    # 3 * 7^e + 1 passes 4300 digits at e = 5088: no larger q or threshold
    # is built, where all 20,001 once were
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 4300:
        pytest.skip("needs Python's default int-to-str digit limit")
    calls = []
    threshold = bounds_mod.inclusion_threshold

    def counted(nu, a, q):
        calls.append(q)
        return threshold(nu, a, q)

    monkeypatch.setattr(bounds_mod, "inclusion_threshold", counted)
    assert run_command(["bounds", fermat_cubic_file, "--emax", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert len(calls) <= 5100


def test_problem_file_with_a_byte_order_mark_parses(tmp_path, capsys):
    bom = tmp_path / "bom.fpb"
    bom.write_bytes(b"\xef\xbb\xbf" + FERMAT_CUBIC_FPB.encode())
    plain = write(tmp_path, FERMAT_CUBIC_FPB)
    outs = []
    for path in (plain, str(bom)):
        assert run_command(["kq", path, "--emax", "1", "--no-timings"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1] and "k_empirical = 22" in outs[0]


@pytest.mark.parametrize("out", ["missing/report.txt", "."])
def test_unwritable_out_is_a_one_line_error(tmp_path, capsys, out):
    path = write(tmp_path, PARAM_FPB)
    target = tmp_path / out
    assert run_command(["koszul", path, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("order", ["lex", "grlex"])
def test_order_other_than_grevlex_is_an_input_error(tmp_path, capsys, order):
    path = write(tmp_path, PARAM_FPB + f"[options]\norder = {order}\n")
    assert run_command(["kq", path, "--emax", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 7 in [options]: unknown order {order!r}" in captured.err
    assert "only grevlex" in captured.err


def test_relations_that_are_not_a_complete_intersection_are_an_input_error(
    tmp_path,
):
    # (x^2, xy) has dimension 1, not 3 - 2: its standard monomials outnumber
    # the complete-intersection Hilbert function
    text = PARAM_FPB.replace("char = 3", "char = 5").replace(
        "vars = x y", "vars = x y z\nrelations = x^2 ; x*y"
    ).replace("gens = x ; y", "gens = x ; y ; z")
    path = write(tmp_path, text)
    proc = _run_module(["member", path, "--q", "5", "--elem", "z^6"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: ")
    assert proc.stderr.count("\n") == 1
    assert "not a complete intersection: y, z are algebraically" in proc.stderr


# F_3[x,y,z,w]/(x^2, xy) has dimension 3, not 4 - 2, so the complete-
# intersection numbers (a = -1, and with them an inclusion threshold of 7 at
# q = 3) are wrong for it: y^m never lies in (z^3, w^3)
NOT_CI_FPB = """\
[ring]
char = 3
vars = x y z w
relations = x^2 ; x*y
[ideal]
gens = z ; w
[assumptions]
flags = normal_domain cohen_macaulay omega_invertible
"""


@pytest.mark.parametrize("argv", [
    ["bounds", "--emax", "1"],
    ["koszul"],
    ["kq", "--emax", "1"],
    ["member", "--q", "3", "--elem", "y^7"],
])
def test_every_command_refuses_a_non_complete_intersection_on_reading(
    tmp_path, capsys, argv
):
    path = write(tmp_path, NOT_CI_FPB)
    assert run_command([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: [ring]: relations are not a complete intersection: "
        "y, z, w are algebraically independent modulo them\n"
    )


def test_groebner_degree_cap_is_a_one_line_refusal(tmp_path):
    # the S-pair of the two leads x^260*y and x*y^260 has lcm degree 520
    text = PARAM_FPB.replace("char = 3", "char = 5").replace(
        "vars = x y",
        "vars = x y z w\nrelations = x^260*y - z^261 ; x*y^260 - w^261",
    )
    proc = _run_module(["member", write(tmp_path, text), "--q", "1", "--elem", "x"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        "refusal: Groebner basis needs an S-pair of lcm degree 520, above the "
        "fixed degree cap 512"
    )
    assert proc.stderr.count("\n") == 1


def test_coprime_pairs_above_the_groebner_degree_cap_are_skipped(
    tmp_path, capsys
):
    # the basis is x^300 - z^300, y^300 - z^300: its two leads are coprime,
    # and their lcm has degree 600, above buchberger's cap of 512
    text = PARAM_FPB.replace("char = 3", "char = 5").replace(
        "vars = x y", "vars = x y z\nrelations = x^300 - y^300 ; x^300 - z^300"
    )
    argv = ["member", write(tmp_path, text), "--q", "1", "--elem", "x"]
    assert run_command(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["member"] is True


@pytest.mark.parametrize("argv", [
    ["kq", "--emax", "1", "--cap", "-3"],
    ["kq", "--emax", "-1"],
    ["bounds", "--emax", "-1"],
    ["tight", "--emax", "-1", "--f", "z^2", "--c", "x"],
    ["frobenius", "--emax", "-1", "--f", "z^2"],
])
def test_negative_cap_or_emax_is_a_usage_error(fermat_cubic_file, capsys, argv):
    assert run_command([argv[0], fermat_cubic_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer >= 0" in captured.err


@pytest.mark.parametrize("argv, what", [
    (["member", "--q", "3", "--elem", "0"], "--elem"),
    (["member", "--q", "3", "--elem", "x + y^2"], "--elem"),
    (["tight", "--f", "x", "--c", "0"], "--c"),
    (["frobenius", "--f", "x + y^2"], "--f"),
])
def test_zero_or_inhomogeneous_element_is_a_one_line_input_error(
    tmp_path, capsys, argv, what
):
    path = write(tmp_path, PARAM_FPB)
    assert run_command([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {what} must be nonzero and homogeneous\n"


def test_emax_that_is_not_an_integer_is_a_usage_error(fermat_cubic_file, capsys):
    assert run_command(["kq", fermat_cubic_file, "--emax", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --emax: expected an integer >= 0, got 'abc'" in captured.err


def test_member_requires_q_and_elem(tmp_path, capsys):
    path = write(tmp_path, PARAM_FPB)
    assert run_command(["member", path]) == 2
    assert run_command(["member", path, "--q", "3"]) == 2
    assert run_command(["member", path, "--q", "4", "--elem", "x^4"]) == 2
    capsys.readouterr()


def test_csv_rejected_for_non_tabular_report(fermat_cubic_file, capsys):
    code = run_command(["bounds", fermat_cubic_file, "--format", "csv"])
    assert code == 2
    assert "csv" in capsys.readouterr().err


def test_matrix_guard_refuses_without_allow_large(tmp_path, capsys):
    text = FERMAT_CUBIC_FPB.replace("gens = x^2 ; y^2 ; z^2", "gens = x ; y")
    path = write(tmp_path, text)
    code = run_command(["frobenius", path, "--emax", "3", "--f", "z^2"])
    assert code == 1
    assert "--allow-large" in capsys.readouterr().err


# -- deterministic output --------------------------------------------------

def test_no_timings_output_is_byte_identical(tmp_path, fermat_cubic_file):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    for out in (out1, out2):
        assert run_command(
            ["bounds", fermat_cubic_file, "--emax", "2",
             "--format", "json", "--no-timings", "--out", out]
        ) == 0
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2
    assert b"timings" not in b1


def test_timings_live_outside_payload(fermat_cubic_file, capsys):
    code, doc = run_json(capsys, ["bounds", fermat_cubic_file])
    assert code == 0
    assert "timings" in doc and "seconds" in doc["timings"]
    assert "timings" not in doc["payload"]
    assert "seconds" not in doc["payload"]


def test_emit_report_unknown_format():
    from frobpow.cli import Report

    with pytest.raises(InputError):
        emit_report(Report("bounds", {}, (), {}), fmt="yaml")


# -- per-command arguments, the size guard, the module entry point ----------

def test_refusal_comes_before_any_assembly(tmp_path, capsys, monkeypatch):
    def fail(self, q, m):
        raise AssertionError(f"assembled degree {m} for q={q}")

    text = FERMAT_CUBIC_FPB.replace("char = 7", "char = 11").replace(
        "gens = x^2 ; y^2 ; z^2", "gens = x ; y"
    )
    path = write(tmp_path, text)
    # f^11 already lies in I^[11], but the q = 1331 piece is over the cap
    code, doc = run_json(
        capsys, ["frobenius", path, "--emax", "3", "--f", "z^2", "--allow-large"]
    )
    assert code == 0 and doc["payload"]["found_e"] == 1
    monkeypatch.setattr(MembershipEngine, "_assemble", fail)
    assert run_command(["frobenius", path, "--emax", "3", "--f", "z^2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--allow-large" in captured.err

    # kq at p = 7: the q = 343 search reaches degree 1038, 3114 x 3168
    cubic = write(tmp_path, FERMAT_CUBIC_FPB, "cubic.fpb")
    assert run_command(["kq", cubic, "--emax", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree 1038 for q=343 has 3114x3168" in captured.err
    assert "--allow-large" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "{path}", "--q", "3", "--elem", "x^3", "--format", "csv"],
        ["bounds", "{path}", "--allow-large"],
        ["koszul", "{path}", "--emax", "2"],
        ["kq", "{path}", "--q", "3"],
        ["tight", "{path}", "--f", "x"],
        ["frobenius", "{path}", "--emax", "1"],
    ],
)
def test_flags_outside_a_command_are_input_errors(tmp_path, capsys, argv):
    path = write(tmp_path, PARAM_FPB)
    assert run_command([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: frobpow" in captured.err


def _run_module(argv):
    """``python -m frobpow.cli argv`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(frobpow.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "frobpow.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_runs_the_cli(fermat_cubic_file):
    proc = _run_module(["bounds", fermat_cubic_file])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("report: bounds\n")
    assert "  nu = 3" in proc.stdout


def test_characteristic_above_2_to_32_is_an_input_error(tmp_path, capsys):
    # 4294967311 is prime, but above the ceiling of linalg's exact products
    path = write(tmp_path, PARAM_FPB.replace("char = 3", "char = 4294967311"))
    assert run_command(["bounds", path]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "below 2**32" in err


QUARTIC_FPB = """\
[ring]
char = 5
vars = x y z w
relations = z^4 + x^4 + w^4 + y^4
[ideal]
gens = x^3 ; y^3 ; z^3 ; w^3
"""

# runs the commands given as JSON in argv[1] with the sparse phase's update
# budget set to argv[2] (empty: left as it is), and reports on stderr the exit
# codes and whether numpy, dataclasses or inspect was ever imported
NUMPY_PROBE = """\
import json, sys
from frobpow import cli, linalg
if sys.argv[2]:
    linalg._BUDGET = int(sys.argv[2])
codes = [cli.run_command(argv) for argv in json.loads(sys.argv[1])]
loaded = {m: m in sys.modules for m in ("numpy", "dataclasses", "inspect")}
sys.stderr.write(json.dumps({"codes": codes, **loaded}))
"""


def _probe(commands, budget=""):
    src = os.path.dirname(os.path.dirname(os.path.abspath(frobpow.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands), budget],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr)


def test_numpy_is_loaded_only_when_a_class_needs_the_dense_finish(
    tmp_path, fermat_cubic_file
):
    quartic = write(tmp_path, QUARTIC_FPB, "quartic.fpb")
    commands = [
        # the tight_quartic benchmark query, and the README's kq example
        ["member", quartic, "--q", "5", "--elem", "x^11*y^10*z^10*w^10",
         "--allow-large", "--format", "json", "--no-timings"],
        ["kq", fermat_cubic_file, "--emax", "2", "--format", "json", "--no-timings"],
    ]
    sparse_out, sparse = _probe(commands)
    assert sparse == {"codes": [0, 0], "numpy": False, "dataclasses": False,
                      "inspect": False}
    # with no update budget, every class that needs a reduction goes dense
    dense_out, dense = _probe(commands, budget="0")
    assert dense["codes"] == [0, 0] and dense["numpy"] is True
    assert dense_out == sparse_out
    assert '"member": true' in sparse_out and '"k_empirical": 22' in sparse_out


def test_memory_error_in_the_dense_finish_is_a_one_line_refusal(
    tmp_path, capsys, monkeypatch
):
    def out_of_memory(pivots, rest, width, p):
        raise MemoryError("Unable to allocate 994. MiB for an array")

    # with no update budget the query's class goes dense, where allocation fails
    monkeypatch.setattr(linalg, "_BUDGET", 0)
    monkeypatch.setattr(linalg, "_dense", out_of_memory)
    quartic = write(tmp_path, QUARTIC_FPB, "quartic.fpb")
    argv = ["member", quartic, "--q", "5", "--elem", "x^11*y^10*z^10*w^10",
            "--allow-large"]
    assert run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "refusal: out of memory\n"
