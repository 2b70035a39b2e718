#!/usr/bin/env python3
"""Self-test of the Runtime::submit benchmark.

    python3 perfbench/selftest.py

1. The binary's --selftest mode: every correctness check accepts the genuine
   value from a real Runtime run and rejects a deliberately corrupted copy.
2. A short untraced and traced run of every workload in BENCHMARK.json
   prints a well-formed result with exactly the named metrics and units.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Scratch files stay under the build directory; the exit code is the verdict.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run as bench  # noqa: E402

SECONDS = "2"
failures = []


def check(ok, what):
    print(("PASS  " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_result(res, expected, label):
    if not isinstance(res, dict):
        check(False, f"{label}: last stdout line is a JSON object")
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct/attempted/failed/metrics")
    check(res.get("correct") is True, f"{label}: correct is true")
    attempted, failed = res.get("attempted"), res.get("failed")
    check(isinstance(attempted, int) and attempted >= 1,
          f"{label}: attempted is a whole number >= 1 ({attempted})")
    check(isinstance(failed, int) and 0 <= failed <= (attempted or 0),
          f"{label}: failed is a whole number <= attempted ({failed})")
    metrics = res.get("metrics", {})
    check(set(metrics) == set(expected),
          f"{label}: metric names are exactly the {len(expected)} named ones"
          + ("" if set(metrics) == set(expected) else
             f" (missing {sorted(set(expected) - set(metrics))},"
             f" extra {sorted(set(metrics) - set(expected))})"))
    for name, unit in expected.items():
        m = metrics.get(name, {})
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v)
              and m.get("unit") == unit,
              f"{label}: {name} = {v} {m.get('unit')} (unit {unit})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build()
    scratch = os.path.join(bench.build_root(), "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        p = subprocess.run([binary, "--selftest", "--store", scratch],
                           stdout=subprocess.PIPE, text=True)
        sys.stdout.write(p.stdout)
        check(p.returncode == 0, "every check rejects its corrupted copy")

        groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                  1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        for w in spec["workloads"]:
            for trace, expected in groups.items():
                label = f"{w['name']} --trace {trace}"
                p = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", w["name"], "--seed", "1",
                     "--seconds", SECONDS, "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True, cwd=ROOT)
                check(p.returncode == 0, f"{label}: exit code 0")
                check_result(result_of(p.stdout), expected, label)

        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run(spec["command"] + [
            "--workload", spec["workloads"][0]["name"], "--seed", "1",
            "--seconds", SECONDS, "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=bare, env=env, timeout=180)
        check(p.returncode != 0 and result_of(p.stdout) is None,
              "without the library sources: non-zero exit, no result "
              f"(exit {p.returncode})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
