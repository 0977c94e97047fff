#!/usr/bin/env python3
"""Quick self-test of the benchmark itself (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload once at test scale, untraced and traced, and checks:
  * the result line has exactly correct/attempted/failed/metrics, the run
    passed, and every metric BENCHMARK.json names appears with its unit;
  * the traced run prints the layer-share table, and sweep_fleet ends with
    shard.dead_workers = 0;
  * the correctness gate trips (non-zero exit, failed > 0) when one
    reference value is perturbed.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--scale", "test"] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout


def expect(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, out = run(w, trace)
            tag = "%s trace=%d" % (w, trace)
            expect(rc == 0 and res is not None, tag + ": exit 0 with a result", failures)
            if res is None:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   tag + ": result keys", failures)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   tag + ": outputs correct", failures)
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       "%s: %s [%s]" % (tag, m["name"], m["unit"]), failures)
            if trace:
                expect("# layer shares" in out, tag + ": layer-share table", failures)
            if trace and w == "sweep_fleet":
                dead = res["metrics"].get("shard.dead_workers", {}).get("value")
                expect(dead == 0, tag + ": shard.dead_workers == 0", failures)
    rc, res, _ = run("sim_bench", 0, "--perturb-reference")
    expect(rc != 0 and res is not None and res["failed"] > 0 and not res["correct"],
           "gate trips on a perturbed reference value", failures)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
