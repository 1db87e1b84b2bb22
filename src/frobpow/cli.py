"""Problem-file parsing, subcommands, and report serialization.

One subcommand per bound/experiment family: bounds, koszul, kq, member,
tight, frobenius.  Reports serialize deterministically (stable key order, no
timestamps in the payload); timings live in a separate envelope field.

Exit codes: 0 success, 1 computation refusal (missing assumption flag,
matrix-size guard, Groebner degree cap, or memory that cannot be allocated)
or internal error (a failed cross-check, such as certificate
re-verification), 2 input error (including a problem file that cannot be
read as UTF-8 text and an --out file that cannot be written).
"""

import argparse
import json
import sys
import time
from collections import namedtuple
from fractions import Fraction

from . import bounds as bounds_mod
from .engine import (
    IdealSpec,
    MatrixTooLarge,
    MembershipEngine,
    containment_table,
    frobenius_closure_test,
    tight_closure_witness_test,
)
from .groebner import DegreeCapExceeded
from .polynomials import _IDENT, PolyError, check_prime, poly_format, poly_parse
from .rings import KNOWN_FLAGS, AssumptionMissing, RingPresentation

MAX_MATRIX_ENTRIES = 4_000_000


class InputError(ValueError):
    pass


ProblemFile = namedtuple("ProblemFile", "ring ideal")
Report = namedtuple("Report", "kind payload assumptions timings")


# -- problem files ---------------------------------------------------------

_SECTIONS = ("ring", "ideal", "assumptions", "options")


def parse_problem_file(text):
    """Parse the INI-like problem format (sections [ring], [ideal],
    [assumptions], [options]) with per-line diagnostics.  [options] is
    optional; its one key, order, accepts only grevlex."""
    data = {s: {} for s in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise InputError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise InputError(f"line {lineno}: content before any section header")
        if "=" not in line:
            raise InputError(f"line {lineno} in [{section}]: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in data[section]:
            first = data[section][key][1]
            raise InputError(
                f"line {lineno} in [{section}]: duplicate key {key!r} "
                f"(first set on line {first})"
            )
        data[section][key] = (value.strip(), lineno)

    def take(section, key, required=False):
        if key in data[section]:
            return data[section].pop(key)
        if required:
            raise InputError(f"missing required key {key!r} in [{section}]")
        return None, None

    char_s, ln = take("ring", "char", required=True)
    try:
        p = int(char_s)
    except ValueError:
        raise InputError(f"line {ln} in [ring]: char must be an integer")
    try:
        check_prime(p)
    except PolyError as exc:
        raise InputError(f"line {ln} in [ring]: {exc}")

    vars_s, ln = take("ring", "vars", required=True)
    var_names = tuple(vars_s.split())
    if not var_names:
        raise InputError(f"line {ln} in [ring]: no variables declared")
    if len(set(var_names)) != len(var_names):
        raise InputError(f"line {ln} in [ring]: duplicate variable names")
    for name in var_names:
        if not _IDENT.fullmatch(name):
            raise InputError(
                f"line {ln} in [ring]: variable name {name!r} is not an identifier"
            )

    order_s, ln = take("options", "order")
    if order_s not in (None, "grevlex"):
        raise InputError(
            f"line {ln} in [options]: unknown order {order_s!r} "
            "(only grevlex is supported)"
        )

    flags_s, ln = take("assumptions", "flags")
    flags = tuple(flags_s.split()) if flags_s else ()
    for f in flags:
        if f not in KNOWN_FLAGS:
            raise InputError(
                f"line {ln} in [assumptions]: unknown flag {f!r} "
                f"(known: {' '.join(sorted(KNOWN_FLAGS))})"
            )

    def parse_polys(section, key, required):
        raw, ln = take(section, key, required=required)
        if raw is None:
            return []
        out = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                f = poly_parse(chunk, var_names, p)
            except PolyError as exc:
                raise InputError(f"line {ln} in [{section}]: {exc}")
            out.append(f)
        return out

    relations = parse_polys("ring", "relations", required=False)
    gens = parse_polys("ideal", "gens", required=True)

    for section in _SECTIONS:
        for key, (_, ln) in data[section].items():
            raise InputError(f"line {ln} in [{section}]: unknown key {key!r}")

    try:
        ring = RingPresentation(p, var_names, relations, flags=flags)
    except ValueError as exc:
        raise InputError(f"[ring]: {exc}")
    try:
        ideal = IdealSpec(tuple(gens))
    except ValueError as exc:
        raise InputError(f"[ideal]: {exc}")
    return ProblemFile(ring, ideal)


# -- serialization ---------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def emit_report(report, fmt="text", include_timings=True):
    """Deterministic serialization of a Report as text, json, or csv."""
    if fmt == "json":
        doc = {
            "kind": report.kind,
            "assumptions": list(report.assumptions),
            "payload": _jsonable(report.payload),
        }
        if include_timings:
            doc["timings"] = report.timings
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        if report.kind != "kq":
            raise InputError("csv output is only defined for kq tables")
        # the values are ints, bools and None, which is written empty: no
        # field needs quoting
        columns = ("e", "q", "k_empirical", "k_threshold", "tight")
        lines = [",".join(columns)]
        for row in report.payload["rows"]:
            values = ("" if row[c] is None else str(row[c]) for c in columns)
            lines.append(",".join(values))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"report: {report.kind}"]
        if report.assumptions:
            lines.append("assumptions: " + " ".join(report.assumptions))
        lines.extend(_text_lines(report.payload, indent="  "))
        if include_timings:
            for k, v in report.timings.items():
                lines.append(f"[{k}: {v}]")
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown output format {fmt!r}")


def _text_lines(value, indent=""):
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k} = {_jsonable(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.extend(_text_lines(v, indent))
            else:
                lines.append(f"{indent}- {_jsonable(v)}")
    return lines


# -- subcommands -----------------------------------------------------------


def _over_digits(x, limit):
    """True when abs(x) has more than limit decimal digits; 10**limit has
    over 3*limit bits, so it is built only for an x that long."""
    return x.bit_length() > 3 * limit and abs(x) >= 10**limit


def _cmd_bounds(pf, args):
    ring = pf.ring
    degrees = pf.ideal.degrees
    nu, provenance = bounds_mod.compute_nu(degrees, ring.dim, ring.flags)
    a = ring.a_invariant()
    c1, c0 = bounds_mod.regularity_bound_constants(degrees, ring)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    thresholds, q = {}, 1
    for e in range(args.emax + 1):
        k = bounds_mod.inclusion_threshold(nu, a, q)
        # the report cannot print an int of more than limit digits: stop at
        # the first such q or threshold, before building every larger one
        if limit and any(_over_digits(x, limit) for x in (q, k)):
            raise InputError(
                f"q = {ring.p}^{e} or its inclusion threshold has more than "
                f"{limit} digits, Python's limit on int-to-str conversion"
            )
        thresholds[q] = k
        q *= ring.p
    return {
        "nu": nu,
        "nu_provenance": provenance,
        "smith_bound": bounds_mod.smith_bound(degrees, ring.dim),
        "parameter_bound": bounds_mod.parameter_bound(degrees),
        "inclusion_threshold": thresholds,
        "frobenius_closure_threshold": nu,
        "C1": c1,
        "C0": c0,
        "C1prime": bounds_mod.chardin_constant(degrees, ring.dim),
        "citations": {
            "nu": "nu = (dim R - 1) * (d_1 + ... + d_n) / (n - 1); " + provenance,
            "smith": "sum of the dim R largest generator degrees",
            "parameter": "d_1 + ... + d_n",
            "inclusion_thresholds": "smallest m with m > q*nu + a, a the "
            "a-invariant",
            "frobenius_closure_threshold": "degrees strictly above nu lie in "
            "the Frobenius closure (strict inequality required)",
            "c1": "max(d_i; j * (d_1+...+d_n)/(n-1), j = 1..dim R - 1)",
            "c0": "max(reg(R), a-invariant)",
            "chardin_c1prime": "max Koszul resolution shift degree: sum of the "
            "min(dim R, n) largest degrees",
            "note": "Koszul complex used throughout; a minimal resolution may "
            "give a sharper nu",
        },
    }


def _cmd_koszul(pf, args):
    degrees = pf.ideal.degrees
    n = len(degrees)
    entries = []
    for j in range(1, n):
        ki = bounds_mod.koszul_invariants(degrees, j, pf.ring.dim)
        entries.append(dict(ki._asdict(), shift_degrees=list(ki.shift_degrees)))
    return {
        "generator_degrees": list(degrees),
        "syzygies": entries,
        "citations": {
            "rank": "alternating sum of Koszul term ranks C(n, i)",
            "degree_coeff": "alternating sum of Koszul term degrees "
            "-C(n-1, i-1) * sum(d)",
        },
    }


def _engine(pf, args):
    max_entries = None if args.allow_large else MAX_MATRIX_ENTRIES
    return MembershipEngine(pf.ring, pf.ideal, max_entries=max_entries)


def _cmd_kq(pf, args):
    # kq refuses without nu (exit 1, or 2 when n < dim R), and reports
    # where it comes from
    nu, provenance = bounds_mod.compute_nu(pf.ideal.degrees, pf.ring.dim, pf.ring.flags)
    table = containment_table(_engine(pf, args), args.emax, cap=args.cap)
    return {
        "nu": nu,
        "nu_provenance": provenance,
        # cap_exceeded is printed only for a row whose search hit the cap
        "rows": [
            {k: v for k, v in r._asdict().items()
             if k != "cap_exceeded" or v is not None}
            for r in table
        ],
        "citations": {
            "k_threshold": "smallest m with m > q*nu + a",
            "k_empirical": "minimal k with rank of the degree-k membership "
            "matrix equal to dim R_k",
        },
    }


def _parse_elem(pf, text, what):
    try:
        f = pf.ring.parse(text)
    except PolyError as exc:
        raise InputError(f"{what}: {exc}")
    if f.is_zero() or not f.is_homogeneous():
        raise InputError(f"{what} must be nonzero and homogeneous")
    return f


def _cmd_member(pf, args):
    h = _parse_elem(pf, args.elem, "--elem")
    cert = _engine(pf, args).membership(args.q, h)
    return {
        "q": args.q,
        "element": poly_format(h, pf.ring.var_names),
        "degree": h.degree(),
        "member": cert.member,
        "certificate": (
            [poly_format(c, pf.ring.var_names) for c in cert.coefficients]
            if cert.member
            else None
        ),
        "citations": {
            "member": "rank/solve of the graded membership matrix over F_p; "
            "certificate re-verified by normal-form reduction"
        },
    }


def _cmd_tight(pf, args):
    f = _parse_elem(pf, args.f, "--f")
    c = _parse_elem(pf, args.c, "--c")
    engine = _engine(pf, args)
    rep = tight_closure_witness_test(engine, f, c, args.emax)
    return {
        "f": poly_format(f, pf.ring.var_names),
        "c": poly_format(c, pf.ring.var_names),
        "nu": engine.nu,
        "rows": [r._asdict() for r in rep.rows],
        "notes": list(rep.notes),
        "citations": {
            "rows": "membership of c*f^q in I^[q] per tested q"
        },
    }


def _cmd_frobenius(pf, args):
    f = _parse_elem(pf, args.f, "--f")
    engine = _engine(pf, args)
    rep = frobenius_closure_test(engine, f, args.emax)
    return {
        "f": poly_format(f, pf.ring.var_names),
        "nu": engine.nu,
        "rows": [r._asdict() for r in rep.rows],
        "found_e": rep.found_e,
        "predicted_sufficient_q": rep.predicted_sufficient_q,
        "citations": {
            "found_e": "smallest e <= emax with f^(p^e) in I^[p^e], if any",
            "predicted_sufficient_q": "smallest q with q*(deg f - nu) > a, "
            "valid when deg f > nu",
        },
    }


def _non_negative_int(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


# argparse keyword arguments of each command-specific flag
_FLAGS = {
    "--emax": dict(type=_non_negative_int, default=2),
    "--cap": dict(type=_non_negative_int),
    "--q": dict(type=int, required=True),
    "--elem": dict(required=True),
    "--f": dict(required=True),
    "--c": dict(required=True),
    "--allow-large": dict(action="store_true"),
}

# command -> (handler, the flags it reads)
_COMMANDS = {
    "bounds": (_cmd_bounds, ("--emax",)),
    "koszul": (_cmd_koszul, ()),
    "kq": (_cmd_kq, ("--emax", "--cap", "--allow-large")),
    "member": (_cmd_member, ("--q", "--elem", "--allow-large")),
    "tight": (_cmd_tight, ("--f", "--c", "--emax", "--allow-large")),
    "frobenius": (_cmd_frobenius, ("--f", "--emax", "--allow-large")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="frobpow",
        description="Degree bounds and exact membership experiments for "
        "Frobenius powers of homogeneous ideals in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("problem_file")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.add_argument("--out", default=None)
        formats = ("text", "json", "csv") if name == "kq" else ("text", "json")
        sp.add_argument("--format", dest="fmt", default="text", choices=formats)
        sp.add_argument("--no-timings", action="store_true",
                        help="omit the timing envelope for byte-identical runs")
    return parser


def run_command(argv):
    """Entry point used by tests; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        # utf-8-sig: a leading byte-order mark is not part of the text
        with open(args.problem_file, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.problem_file} is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        pf = parse_problem_file(text)
        payload = _COMMANDS[args.command][0](pf, args)
        timings = {"seconds": round(time.perf_counter() - started, 3)}
        report = Report(args.command, payload, tuple(sorted(pf.ring.flags)), timings)
        # inside the handlers: an integer past Python's str-conversion digit
        # limit raises ValueError here
        out = emit_report(report, args.fmt, include_timings=not args.no_timings)
    except (InputError, PolyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (AssumptionMissing, DegreeCapExceeded) as exc:
        print(f"refusal: {exc}", file=sys.stderr)
        return 1
    except MatrixTooLarge as exc:
        print(f"refusal: {exc}; pass --allow-large to proceed", file=sys.stderr)
        return 1
    except MemoryError:
        # numpy's allocation failures subclass MemoryError; an abort inside
        # BLAS cannot be caught
        print("refusal: out of memory", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # a failed internal cross-check, such as certificate re-verification:
        # a fault in the program, not in the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(out)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
