"""The benchmark's four workloads: CLI invocations plus the check of each.

Every workload is a fixed list of invocations (an operation is one checked
invocation; a pass runs each once).  The seed changes only what cannot change
the work: the variable names, the order of terms in the polynomial texts,
the order of invocations in a pass and, on large_prime, the p = 65537
control problems, which are random quadrics of identical shape.  The
large-prime queries at p = 2^31 - 1 and p = 4294967291 come from the fixed
seed LARGE_PRIME_SEED: they fail today (see README.md), and a failure must
not depend on the run's seed.

Regenerate and inspect the inputs of one seed with

    python3 perfbench/workloads.py --seed 7

which writes every workload's problem files and command lines under
perfbench/out/inputs-7/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random

import checks

FLAGS_SEMISTABLE = "normal_domain cohen_macaulay omega_invertible strongly_semistable"
FLAGS_PARAMETER = "normal_domain cohen_macaulay omega_invertible"

VAR_NAMES = {
    3: [("x", "y", "z"), ("a", "b", "c"), ("u", "v", "w"), ("x0", "x1", "x2")],
    4: [("x", "y", "z", "w"), ("a", "b", "c", "d"), ("s", "t", "u", "v"),
        ("x0", "x1", "x2", "x3")],
}

LARGE_PRIME_SEED = 20040513
CONTROL_PRIME = 65537
LARGE_PRIMES = (2**31 - 1, 4294967291)
# (degree, member?) of the queries made for each prime
LARGE_PRIME_QUERIES = ((8, True), (8, False), (16, True), (16, False))


class Op:
    """One CLI invocation: its arguments after the problem-file path, the
    problem text, and the check of its JSON payload."""

    def __init__(self, name, command, problem, args, check, known_fault=False):
        self.name = name
        self.command = command
        self.problem = problem
        self.args = list(args)
        self.check = check
        # an operation the program is known to get wrong today; its failure
        # is counted, not treated as a broken benchmark
        self.known_fault = known_fault

    def argv(self, problem_path):
        return [self.command, problem_path, *self.args,
                "--format", "json", "--no-timings"]


def _monomials(num_vars, degree):
    if num_vars == 1:
        return [(degree,)]
    return [
        (e,) + rest
        for e in range(degree, -1, -1)
        for rest in _monomials(num_vars - 1, degree - e)
    ]


def _text(poly, names, rng):
    order = sorted(poly)
    rng.shuffle(order)
    return checks.format_poly(poly, names, order)


def _problem(p, names, relations, gens, flags, rng):
    lines = ["[ring]", f"char = {p}", f"vars = {' '.join(names)}"]
    if relations:
        lines.append("relations = " + " ; ".join(_text(r, names, rng) for r in relations))
    lines += ["[ideal]", "gens = " + " ; ".join(_text(g, names, rng) for g in gens)]
    if flags:
        lines += ["[assumptions]", f"flags = {flags}"]
    return "\n".join(lines) + "\n"


def _fermat(num_vars, degree):
    return {tuple(degree if j == i else 0 for j in range(num_vars)): 1
            for i in range(num_vars)}


def _pure_powers(num_vars, degree, which):
    return [{tuple(degree if j == i else 0 for j in range(num_vars)): 1}
            for i in which]


def kq_cubic(rng):
    names = rng.choice(VAR_NAMES[3])
    ops = []
    for p, emax in ((7, 2), (5, 3), (11, 2)):
        problem = _problem(p, names, [_fermat(3, 3)], _pure_powers(3, 2, range(3)),
                           FLAGS_SEMISTABLE, rng)
        ops.append(Op(
            f"kq_p{p}_emax{emax}", "kq", problem, ["--emax", str(emax)],
            functools.partial(checks.check_kq, p=p, emax=emax),
        ))
    return ops


def frobenius_cubic(rng):
    names = rng.choice(VAR_NAMES[3])
    ops = []
    for p in (7, 5, 11):
        problem = _problem(p, names, [_fermat(3, 3)], _pure_powers(3, 1, (0, 1)),
                           FLAGS_PARAMETER, rng)
        ops.append(Op(
            f"frobenius_p{p}", "frobenius", problem,
            ["--f", f"{names[2]}^2", "--emax", "3", "--allow-large"],
            functools.partial(checks.check_frobenius, p=p, emax=3),
        ))
    return ops


def tight_quartic(rng):
    # acceptance criterion 5 at p = 5: c = x, f = x^2 y^2 z^2 w^2, q = 5
    names = rng.choice(VAR_NAMES[4])
    p, q = 5, 5
    relation = _fermat(4, 4)
    gens = _pure_powers(4, 3, range(4))
    h = {(11, 10, 10, 10): 1}
    query = dict(p=p, vars=names, gens=gens, q=q, h=h, expect=True,
                 relation=relation)
    problem = _problem(p, names, [relation], gens, FLAGS_SEMISTABLE, rng)
    return [Op(
        "member_quartic_p5_q5", "member", problem,
        ["--q", str(q), "--elem", checks.format_poly(h, names), "--allow-large"],
        functools.partial(checks.check_member, query=query),
    )]


def _random_form(rng, p, degree):
    return {m: rng.randrange(1, p) for m in _monomials(3, degree)}


def _plain_queries(p, names, rng, known_fault):
    """Two random quadrics through a random point P with no zero coordinate,
    and members a*f1 + b*f2 or non-members shifted by x^d off P."""
    point = tuple(rng.randrange(1, p) for _ in range(3))
    gens = []
    for _ in range(2):
        f = _random_form(rng, p, 2)
        # adjust the x^2 coefficient so that f(P) = 0
        lead = (2, 0, 0)
        checks.add_term(f, lead, -checks.evaluate(f, point, p) * pow(point[0], -2, p), p)
        gens.append(f)
    problem = _problem(p, names, [], gens, "", rng)
    ops = []
    for degree, expect in LARGE_PRIME_QUERIES:
        h = checks.add(
            checks.mul(_random_form(rng, p, degree - 2), gens[0], p),
            checks.mul(_random_form(rng, p, degree - 2), gens[1], p), p,
        )
        if not expect:
            checks.add_term(h, (degree, 0, 0), rng.randrange(1, p), p)
        query = dict(p=p, vars=names, gens=gens, q=1, h=h, expect=expect,
                     point=point)
        ops.append(Op(
            f"member_p{p}_deg{degree}_{'in' if expect else 'out'}", "member",
            problem, ["--q", "1", "--elem", _text(h, names, rng)],
            functools.partial(checks.check_member, query=query),
            known_fault=known_fault,
        ))
    return ops


def large_prime(rng):
    names = rng.choice(VAR_NAMES[3])
    ops = _plain_queries(CONTROL_PRIME, names, rng, known_fault=False)
    fixed = random.Random(LARGE_PRIME_SEED)
    for p in LARGE_PRIMES:
        ops += _plain_queries(p, ("x", "y", "z"), fixed, known_fault=True)
    return ops


WORKLOADS = {
    "kq_cubic": kq_cubic,
    "frobenius_cubic": frobenius_cubic,
    "tight_quartic": tight_quartic,
    "large_prime": large_prime,
}


def build(workload, seed):
    """The operations of one pass, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=None,
                        help="directory (default perfbench/out/inputs-<seed>)")
    args = parser.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    out = args.out or os.path.join(here, "out", f"inputs-{args.seed}")
    for workload in WORKLOADS:
        folder = os.path.join(out, workload)
        os.makedirs(folder, exist_ok=True)
        commands = []
        for i, op in enumerate(build(workload, args.seed)):
            path = os.path.join(folder, f"{i:02d}-{op.name}.fpb")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.problem)
            commands.append({"name": op.name, "argv": op.argv(path),
                             "known_fault": op.known_fault})
        with open(os.path.join(folder, "commands.json"), "w", encoding="utf-8") as fh:
            json.dump(commands, fh, indent=1)
    print(out)


if __name__ == "__main__":
    main()
