#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the engine and the benchmark program from this checkout
(Release, into $CARGO_TARGET_DIR or .bench_build at the checkout root, in a
directory named after the checkout's path) and
runs one measurement; the program's last line of output is the result. The
second form runs every workload once at a small size, untraced and traced,
with output verification, and exits non-zero unless each run is correct.
Build output goes to standard error.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analytic_spill", "compile_churn", "sessions_rw"]
RUN_TIMEOUT_S = 170


def build_dir():
    """One build directory per checkout, named after the checkout's path.

    CMake builds whatever source tree a build directory was first configured
    with, so two checkouts sharing $CARGO_TARGET_DIR must not share one.
    """
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tag = hashlib.sha1(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + tag)


def build():
    """Configures (once) and builds; returns the program's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.hpp")):
        print("perfbench: engine sources not found under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def run(binary, args):
    """Runs the program; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([binary] + args + ["--work-dir", build_dir()],
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run(binary, ["--workload", workload, "--seed", "1", "--seconds", "1",
                                     "--trace", trace, "--smoke"])
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if code == 0 and lines else None
            except ValueError:
                result = None
            good = (result is not None and result["correct"] and result["failed"] == 0
                    and result["attempted"] > 0 and result["metrics"])
            ok = ok and good
            print("%-16s trace=%s %s" % (workload, trace, "ok" if good else "FAILED"))
            if not good:
                sys.stdout.write(out)
    return 0 if ok else 1


def main(argv):
    binary = build()
    if binary is None:
        return 2
    if argv == ["--smoke"]:
        return smoke(binary)
    code, out = run(binary, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
