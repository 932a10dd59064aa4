#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload (those of BENCHMARK.json, cold_read and hidden_user) on
the shrunken (--tiny) device, once untraced and once traced, and checks that
  * the result line has exactly the contract's keys, the correctness checks
    passed and no operation failed;
  * every declared end-to-end metric (untraced) and per-layer metric
    (traced) is printed with its declared unit;
  * the traced run recorded spans for every layer;
  * the same seed gives the same op stream, and another seed another one.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"
LAYERS = ("net", "dev", "ftl", "stego", "vthi", "ecc", "pack", "nand")


def fail(msg):
    sys.exit("smoke: FAIL: " + msg)


def run(workload, trace, seed=7):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("%s trace %d exited %d\n%s" % (workload, trace, out.returncode,
                                            out.stderr[-3000:]))
    return lines


def check_result(workload, trace, lines, declared):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace %d: correct=%s attempted=%s failed=%s" %
             (workload, trace, result["correct"], result["attempted"], result["failed"]))
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            fail("%s trace %d: metric %s missing" % (workload, trace, m["name"]))
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            fail("%s trace %d: metric %s printed as %s" % (workload, trace, m["name"], got))
    if set(metrics) != {m["name"] for m in declared}:
        fail("%s trace %d: undeclared metrics %s" %
             (workload, trace, sorted(set(metrics) - {m["name"] for m in declared})))


def check_spans(workload, lines):
    detail = next((json.loads(l) for l in lines if l.startswith('{"samples"')), None)
    if detail is None:
        fail("%s: traced run printed no span summary" % workload)
    names = detail["spans"]
    for layer in LAYERS:
        if not any(n.startswith(layer + ".") and c > 0 for n, c in names.items()):
            fail("%s: no %s.* spans recorded" % (workload, layer))
    spans = ROOT / detail["spans_file"]
    if not spans.is_file() or spans.stat().st_size == 0:
        fail("%s: spans file %s missing" % (workload, spans))


def stream_digest(workload, seed):
    out = subprocess.run([str(BINARY), "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "0", "--stream-digest", "500"],
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        fail("stream digest of %s exited %d" % (workload, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])["stream_digest"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # cold_read and hidden_user run but are not gated (README.md says why).
    names = [w["name"] for w in spec["workloads"]] + ["cold_read", "hidden_user"]
    for name in names:
        check_result(name, 0, run(name, 0), spec["end_to_end"])
        traced = run(name, 1)
        check_result(name, 1, traced, spec["per_layer"])
        check_spans(name, traced)
        if stream_digest(name, 7) != stream_digest(name, 7):
            fail("%s: one seed gave two op streams" % name)
        if stream_digest(name, 7) == stream_digest(name, 8):
            fail("%s: two seeds gave one op stream" % name)
        print("smoke: %s ok" % name, flush=True)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
