#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 --out perfbench/evidence/set-a.json
    python3 perfbench/spread.py --compare perfbench/evidence/set-a.json \\
        perfbench/evidence/set-b.json

The first form runs every workload of BENCHMARK.json once per seed with
tracing off, and records each run's metrics plus, per metric, the median and
the distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)).  A spread is flagged when it exceeds a
third of the metric's bound (setup_s is exempt).  The second form checks
that no metric's median in the second set is worse than in the first by
more than its bound.  Both exit non-zero on a flag.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d\n%s" % (workload, seed, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect or failed ops: %s seed %d: %s" % (workload, seed, lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "iqr_frac": (q3 - q1) / med if med else float("inf")}


def measure(spec, seeds, first_seed):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"runs": {}, "summary": {}}
    flagged = []
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, wl, s) for s in range(first_seed, first_seed + seeds)]
        report["runs"][wl] = runs
        report["summary"][wl] = {}
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs])
            report["summary"][wl][name] = s
            flag = name != "setup_s" and s["iqr_frac"] > bound / 3
            if flag:
                flagged.append("%s/%s" % (wl, name))
            print("%-12s %-22s median %12.4g  iqr/median %6.3f  bound %.2f%s" %
                  (wl, name, s["median"], s["iqr_frac"], bound,
                   "  <-- over a third of the bound" if flag else ""), flush=True)
    return report, flagged


def compare(spec, first, second):
    worse = []
    workloads = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        for wl in workloads:
            a = first["summary"][wl][m["name"]]["median"]
            b = second["summary"][wl][m["name"]]["median"]
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = change > m["bound"]
            if flag:
                worse.append("%s/%s" % (wl, m["name"]))
            print("%-12s %-22s %12.4g -> %12.4g  worse by %+.3f  bound %.2f%s" %
                  (wl, m["name"], a, b, change, m["bound"], "  <-- over" if flag else ""))
    return worse


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the runs and summary here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(spec, first, second) else 0
    report, flagged = measure(spec, args.seeds, args.first_seed)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
