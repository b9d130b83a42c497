#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. The last line of stdout is the result object; the exit code
      is non-zero when the build or any correctness oracle fails.
  python3 perfbench/run.py --report [--seed <n>] [--seconds <s>]
      Every workload, untraced then traced, printed as one table of all
      end-to-end and per-layer metrics with their units.
  python3 perfbench/run.py --selftest
      The self-test of the benchmark's helpers.

pgbench (perfbench/src) is built with CMake into $CARGO_TARGET_DIR (or
.bench_build) inside the checkout; after the first build, a run only checks
that it is up to date. Scratch files live in a per-run directory there and
are removed when the run ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot_csv", "durable_stream", "serve_mutations")
RUN_TIMEOUT_S = 175


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures (once) and builds pgbench; exits 1 on failure."""
    bdir = os.path.join(build_base(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "pgbench", "pgbench_selftest"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            sys.stderr.write("perfbench: build failed\n")
            if len(steps) == 2:  # a failed first configure leaves no cache
                shutil.rmtree(bdir, ignore_errors=True)
            sys.exit(1)
    return bdir


def run_pgbench(bdir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    workdir = os.path.join(build_base(), "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [os.path.join(bdir, "pgbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        code, out = 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code, out.splitlines()


def report(bdir, seed, seconds):
    """Prints every metric of every workload; returns the exit code."""
    code = 0
    for workload in WORKLOADS:
        print("== %s (seed %d)" % (workload, seed))
        for trace in (0, 1):
            rc, lines = run_pgbench(bdir, workload, seed, seconds, trace)
            code = code or rc
            if len(lines) < 2:
                print("  run failed (exit %d)" % rc)
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            if trace == 0:
                print("  env    %s" % json.dumps(info["env"], sort_keys=True))
                print("  inputs %s" % json.dumps(info["inputs"],
                                                 sort_keys=True))
                for name, m in sorted(info["report"].items()):
                    print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
                for error in info["errors"]:
                    print("  ERROR %s" % error)
            title = "per-layer (traced)" if trace else "end-to-end (gated)"
            print("  -- %s: correct=%s attempted=%d failed=%d" % (
                title, result["correct"], result["attempted"],
                result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.report or args.selftest or args.workload):
        parser.error("one of --workload, --report or --selftest is required")

    bdir = build()
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "pgbench_selftest")]).returncode
    if args.report:
        return report(bdir, args.seed, args.seconds)
    code, lines = run_pgbench(bdir, args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
