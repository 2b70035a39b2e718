#!/usr/bin/env python3
"""Build and run the Runtime::submit benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <serve_churn|fig3_steady|phase_shift>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ with CMake (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs only bring
the build up to date. Every file the benchmark writes stays under that
build directory. The last line of stdout is the run's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_churn", "fig3_steady", "phase_shift")
# Each process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the benchmark; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.hpp")):
        fail(f"no library sources under {ROOT}/src: run from a full checkout", 2)
    out = build_root()
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, env=env,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(out, "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run(cmd, forward_stdout):
    """Run one benchmark process to its end; return its exit code."""
    try:
        p = subprocess.run(cmd, stdout=None if forward_stdout else sys.stderr,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    return p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    root = build_root()
    work = os.path.join(root, "runs",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
        if args.workload == "serve_churn":
            # The store is populated by a process of its own, so the
            # measured process starts against it cold: a restart.
            store = os.path.join(work, "store")
            if run(cmd + ["--populate", "--store", store], False) != 0:
                fail("populating the decision store failed")
            cmd += ["--store", store]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, f"{args.workload}.spans.csv")]
        sys.stdout.flush()
        code = run(cmd, True)
    finally:
        # Every process has exited here, so no Runtime still writes into
        # the store directory.
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail(f"benchmark exited with code {code}", code)


if __name__ == "__main__":
    main()
