"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --label a [--unpinned]
    python3 perfbench/spread.py --label a --compare b

Runs perfbench/run.py once per (workload, seed), one at a time, for every
workload of BENCHMARK.json at its run_seconds, and stores
the result lines in perfbench/out/spread-<label>.json.  For each workload and
end-to-end metric it prints the median, the first and third quartile
(statistics.quantiles, n=4), the quartile distance as a share of the median,
and the failed share of the operations.  --compare prints two stored labels
side by side with the change of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(label):
    with open(os.path.join(HERE, "out", f"spread-{label}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def table(runs):
    out = {}
    for workload, results in runs.items():
        metrics = results[0]["metrics"]
        out[workload] = {m: stats([r["metrics"][m]["value"] for r in results])
                         for m in metrics}
        out[workload]["failed_share"] = sorted(
            {f"{r['failed']}/{r['attempted']}" for r in results})
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds)
    parser.add_argument("--unpinned", action="store_true")
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()

    if args.seeds:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = str(bench["run_seconds"])
        runs = {}
        for workload in workloads:
            for seed in args.seeds:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds", seconds,
                       "--trace", "0"] + (["--unpinned"] if args.unpinned else [])
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      check=True)
                result = json.loads(proc.stdout.splitlines()[-1])
                if not result["correct"]:
                    print(proc.stdout, file=sys.stderr)
                runs.setdefault(workload, []).append(result)
                print(f"{workload} seed {seed}: {json.dumps(result)}", flush=True)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)

    current = table(load(args.label))
    other = table(load(args.compare)) if args.compare else None
    for workload, metrics in current.items():
        print(f"{workload}: failed {', '.join(metrics.pop('failed_share'))}")
        for m, (med, q1, q3, share) in metrics.items():
            line = (f"  {m:12s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}"
                    f"  (Q3-Q1)/median {share:6.3f}")
            if other and workload in other:
                base = other[workload][m][0]
                line += f"  vs {args.compare}: {base:10.4f} ({(med - base) / base:+.3f})"
            print(line)


if __name__ == "__main__":
    main()
