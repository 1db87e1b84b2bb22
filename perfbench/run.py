"""Run one benchmark workload of the frobpow CLI and print its metrics.

    python3 perfbench/run.py --workload kq_cubic --seed 1 --seconds 20 --trace 0

Each operation is one fresh ``frobpow`` process (perfbench/child.py), started
one at a time from this process, with BLAS/OpenMP pinned to one thread and a
fixed PYTHONHASHSEED.  A pass runs every operation of the workload once and
checks every answer (checks.py).  One warm-up pass is discarded; then whole
passes run while the next one is expected to end within ``--seconds``.

--trace 0 reports the end-to-end metrics (medians over the passes):
    wall_s       spawn-to-exit time of the pass's processes, summed
    setup_s      spawn to the return of parse_problem_file, summed
    cpu_s        user + system CPU time of the pass's processes
    peak_rss_mb  largest maximum resident set of any process in the pass
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py (medians over the traced passes) together with the
tracing overhead against the untraced passes.  --unpinned leaves the BLAS
thread count at the library default, for reference figures only.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Details of every pass go to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# end-to-end metrics: medians of these figures of the untraced passes
END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")

# per-layer metric -> (source, key) read off one traced pass: the inclusive
# or self time of a tracer.py layer, a tracer counter, a ratio of two
# counters in percent, or a figure of the pass itself.  Names and units are
# those of BENCHMARK.json; trace.overhead_pct compares passes and is set apart.
PER_LAYER = {
    "linalg.rank_s": ("incl", "linalg.rank"),
    "linalg.solve_s": ("incl", "linalg.solve"),
    "linalg.calls": ("count", "linalg.calls"),
    "linalg.entries": ("count", "linalg.entries"),
    "linalg.nnz": ("count", "linalg.nnz"),
    "groebner.standard_monomials_s": ("incl", "groebner.standard_monomials"),
    "groebner.standard_monomials_calls": ("count", "groebner.standard_monomials_calls"),
    "groebner.monomials_enumerated": ("count", "groebner.monomials_enumerated"),
    "groebner.monomials_kept": ("count", "groebner.monomials_kept"),
    "groebner.kept_pct": (
        "pct", ("groebner.monomials_kept", "groebner.monomials_enumerated")),
    "groebner.buchberger_s": ("incl", "groebner.buchberger"),
    "engine.self_s": ("self", "engine"),
    "engine.verify_s": ("incl", "engine.verify"),
    "engine.rank_tests": ("count", "engine.rank_tests"),
    "engine.memberships": ("count", "engine.memberships"),
    "engine.matrix_entries": ("count", "engine.matrix_entries"),
    "engine.max_matrix_entries": ("count", "engine.max_matrix_entries"),
    "engine.matrix_nnz": ("count", "engine.matrix_nnz"),
    "rings.normal_form_s": ("incl", "rings.normal_form"),
    "rings.graded_basis_calls": ("count", "rings.graded_basis_calls"),
    "rings.monomial_nf_calls": ("count", "rings.monomial_nf_calls"),
    "rings.monomial_nf_hits": ("count", "rings.monomial_nf_hits"),
    "rings.monomial_nf_hit_pct": (
        "pct", ("rings.monomial_nf_hits", "rings.monomial_nf_calls")),
    "polynomials.constructed": ("count", "polynomials.constructed"),
    "polynomials.frobenius_power_s": ("incl", "polynomials.frobenius_power"),
    "cli.parse_s": ("incl", "cli.parse"),
    "cli.self_s": ("self", "cli"),
    "trace.wall_s": ("pass", "wall_s"),
    "trace.startup_s": ("pass", "startup_s"),
    "trace.teardown_s": ("pass", "teardown_s"),
    "trace.bookkeeping_s": ("self", "trace.bookkeeping"),
    "trace.unaccounted_s": ("pass", "unaccounted_s"),
}
MAX_COUNTS = ("engine.max_matrix_entries",)


def metric_units():
    """Metric name -> unit from BENCHMARK.json, per kind; every metric it
    names must be one this file computes, and the other way round."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {kind: {m["name"]: m["unit"] for m in bench[kind]}
             for kind in ("end_to_end", "per_layer")}
    computed = {"end_to_end": set(END_TO_END),
                "per_layer": set(PER_LAYER) | {"trace.overhead_pct"}}
    for kind, names in computed.items():
        if set(units[kind]) != names:
            raise SystemExit(f"error: BENCHMARK.json {kind} metrics differ from "
                             f"run.py's: {sorted(set(units[kind]) ^ names)}")
    return units


def _pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(pinned):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.pop(var, None)
    if pinned:
        env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def invoke(op, path, trace, env, workdir):
    """Run one operation; returns its timings, rusage and problems."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    argv = [sys.executable, CHILD, str(trace), *op.argv(path)]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            # wait4 rather than wait: it also returns the child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        ended = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    info = {}
    for line in stderr.splitlines():
        if line.startswith("PERFBENCH "):
            info = json.loads(line[len("PERFBENCH "):])
    marks = info.get("marks", {})
    if "parsed" not in marks or (trace and "trace" not in info):
        problems = ["the child wrote no complete PERFBENCH record"]
    elif proc.returncode != 0:
        tail = [ln for ln in stderr.splitlines() if not ln.startswith("PERFBENCH ")]
        problems = [f"exit code {proc.returncode}: {tail[-1] if tail else ''}"]
    else:
        try:
            problems = op.check(json.loads(stdout)["payload"])
        except (ValueError, KeyError) as exc:
            problems = [f"unreadable report: {exc!r}"]
    return {
        "op": op.name,
        "known_fault": op.known_fault,
        "problems": problems,
        "wall_s": ended - started,
        "setup_s": marks["parsed"] - started if "parsed" in marks else 0.0,
        "startup_s": marks["entered"] - started if "entered" in marks else 0.0,
        "teardown_s": ended - marks["left"] if "left" in marks else 0.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "trace": info.get("trace"),
    }


def run_pass(ops, paths, trace, env, workdir):
    started = now()
    results = [invoke(op, path, trace, env, workdir) for op, path in zip(ops, paths)]
    summary = {
        "trace": trace,
        "elapsed_s": now() - started,
        "wall_s": sum(r["wall_s"] for r in results),
        "setup_s": sum(r["setup_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_mb"] for r in results),
        "failed": sum(1 for r in results if r["problems"]),
        "unexpected": [
            f"{r['op']}: {'; '.join(r['problems'])}"
            for r in results if r["problems"] and not r["known_fault"]
        ],
        "ops": results,
    }
    if trace:
        summary["layers"] = layer_metrics(results, summary["wall_s"])
    return summary


def layer_metrics(results, wall_s):
    """Per-layer metrics of one traced pass, summed over its processes."""
    sums = {"self": {}, "incl": {}, "count": {}}
    for r in results:
        for source, key in (("self", "self_s"), ("incl", "incl_s"), ("count", "counts")):
            dst = sums[source]
            for k, v in (r["trace"] or {}).get(key, {}).items():
                dst[k] = max(dst.get(k, 0), v) if k in MAX_COUNTS else dst.get(k, 0) + v
    layers = {k: v for k, v in sorted(sums["self"].items()) if k != "root"}
    startup = sum(r["startup_s"] for r in results)
    teardown = sum(r["teardown_s"] for r in results)
    sums["pass"] = {
        "wall_s": wall_s,
        "startup_s": startup,
        "teardown_s": teardown,
        # what neither the layers' self times nor the process start and end
        # cover: the gaps between spans of different processes
        "unaccounted_s": wall_s - startup - teardown - sum(layers.values()),
    }
    metrics = {}
    for name, (source, key) in PER_LAYER.items():
        if source == "pct":
            metrics[name] = _pct(sums["count"].get(key[0], 0), sums["count"].get(key[1], 0))
        else:
            metrics[name] = sums[source].get(key, 0 if source == "count" else 0.0)
    metrics["self_by_layer"] = layers
    return metrics


def measure(ops, paths, seconds, trace, env, workdir, log):
    """Warm-up pass, then whole passes (pairs of untraced and traced passes
    with trace) while the next is expected to end within ``seconds``."""
    warm = run_pass(ops, paths, 0, env, workdir)
    log(f"warm-up pass: {warm['wall_s']:.3f} s wall (discarded)")
    passes = [warm]
    measured = []
    started = now()
    while True:
        group = [run_pass(ops, paths, 0, env, workdir)]
        if trace:
            group.append(run_pass(ops, paths, 1, env, workdir))
        for p in group:
            log(f"pass {len(measured) + 1}{' (traced)' if p['trace'] else ''}: "
                f"{p['wall_s']:.3f} s wall, {p['setup_s']:.3f} s setup, "
                f"{p['cpu_s']:.3f} s cpu, {p['peak_rss_mb']:.1f} MB, "
                f"{p['failed']} failed")
        measured.append(group)
        passes += group
        elapsed = now() - started
        if elapsed + elapsed / len(measured) > seconds:
            return passes, measured


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unpinned", action="store_true",
                        help="leave BLAS/OpenMP threads at the library default "
                        "(reference figures only)")
    args = parser.parse_args(argv)

    def log(msg):
        print(f"[{args.workload} seed={args.seed}] {msg}", flush=True)

    if not os.path.isfile(os.path.join(ROOT, "src", "frobpow", "cli.py")):
        print(f"error: no frobpow sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    units = metric_units()
    ops = workloads.build(args.workload, args.seed)
    workdir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        paths = []
        for i, op in enumerate(ops):
            path = os.path.join(workdir, f"{i:02d}-{op.name}.fpb")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.problem)
            paths.append(path)
        env = child_env(pinned=not args.unpinned)
        passes, measured = measure(ops, paths, args.seconds, args.trace, env,
                                   workdir, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [g[0] for g in measured]
    unexpected = sorted({u for p in passes for u in p["unexpected"]})
    for u in unexpected:
        log(f"WRONG: {u}")
    if args.trace:
        traced = [g[1] for g in measured]
        metrics = {
            name: {"value": statistics.median_low(p["layers"][name] for p in traced),
                   "unit": units["per_layer"][name]}
            for name in PER_LAYER
        }
        # each traced pass against the untraced pass just before it, so that
        # both see the machine in the same state
        metrics["trace.overhead_pct"] = {"value": statistics.median(
            _pct(t["wall_s"] - u["wall_s"], u["wall_s"]) for u, t in measured),
            "unit": units["per_layer"]["trace.overhead_pct"]}
        shown = traced[len(traced) // 2]
        log(f"self time by layer in traced pass {len(traced) // 2 + 1} "
            f"({shown['wall_s']:.3f} s wall):")
        rows = dict(shown["layers"]["self_by_layer"])
        for name in ("trace.startup_s", "trace.teardown_s", "trace.unaccounted_s"):
            rows[name] = shown["layers"][name]
        for layer, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
            log(f"  {layer:30s} {secs:9.3f} s {_pct(secs, shown['wall_s']):5.1f}%")
        log(f"traced wall {metrics['trace.wall_s']['value']:.3f} s against untraced "
            f"{statistics.median(p['wall_s'] for p in untraced):.3f} s; overhead "
            f"{metrics['trace.overhead_pct']['value']:+.1f}% (median of "
            f"{len(measured)} untraced/traced pairs)")
    else:
        metrics = {
            name: {"value": statistics.median(p[name] for p in untraced), "unit": unit}
            for name, unit in units["end_to_end"].items()
        }
    counted = [p for group in measured for p in group]
    result = {
        "correct": not unexpected,
        "attempted": len(ops) * len(counted),
        "failed": sum(p["failed"] for p in counted),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    detail = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "passes": passes}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
