#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig4_fmm32 --seed 0 --seconds 30 --trace 0

Workloads: fig4_fmm32 and sweep_fleet, the two BENCHMARK.json names, and
sim_bench for runs by hand (see perfbench/NOTES.md).
The default seed is 0, the seed perfbench/reference.json holds values for;
the held-out seed for re-checking claims is 4099.

The driver is built into .bench_build/ (CMake, Release). Its output is
relayed unchanged: comment lines starting with '#' (host context, the
layer-share table of a traced run), then one JSON result line with the keys
correct, attempted, failed and metrics. The exit code is non-zero when the
build fails, an output fails its check, or the run overruns its deadline.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("fig4_fmm32", "sim_bench", "sweep_fleet")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    """Configures (first time) and builds the driver; exits on failure."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at the repository root: nothing to build" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "perfbench_build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        if rc != 0:
            fail("cmake configure failed (see %s)" % log)
    rc = run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                     "-j", jobs], log, BUILD_TIMEOUT_S)
    if rc != 0 or not os.path.exists(DRIVER):
        fail("build failed (see %s)" % log)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "test"),
                   help="input scale (default: bench; sweep_fleet is test)")
    p.add_argument("--perturb-reference", action="store_true",
                   help="self-test: alter one reference value; the gate must trip")
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload=" + a.workload, "--seed=%d" % a.seed,
           "--seconds=%s" % a.seconds, "--trace=%d" % a.trace,
           "--reference=" + os.path.join(BENCH_DIR, "reference.json"),
           "--out-dir=" + OUT_DIR]
    if a.scale:
        cmd.append("--scale=" + a.scale)
    if a.perturb_reference:
        cmd.append("--perturb-reference")

    # Own process group, so a deadline kill also takes the fleet workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("driver overran its %d s deadline" % RUN_TIMEOUT_S)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
