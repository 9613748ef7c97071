#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, run twice.

    python3 perfbench/test_bench.py

Run from the root of a checkout; builds cbt_perfbench like run.py does.
Checks, per workload:
  * both runs exit 0 with "correct": true;
  * the fingerprint, the window counts, "attempted", "failed" and every
    deterministic per-layer metric repeat exactly between the runs;
  * the traced passes' fingerprint equals the untraced passes' one;
  * the printed metric names and units are exactly BENCHMARK.json's
    end_to_end set (--trace 0) and per_layer set (--trace 1).
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402

SEED = "7"
# Wall-clock-derived metrics; everything else is a count or a ratio of
# counts and must repeat exactly.
TIMED_UNITS = {"ns", "ms", "s", "1/s", "MB"}
TIMED_NAMES = {"trace.overhead_ratio"}


def drive(workload, trace):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", SEED, "--seconds",
         "0.1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{workload} --trace {trace}: exit {out.returncode}\n"
             f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        fail(f"{workload} --trace {trace}: incorrect output\n{out.stdout}")
    return lines, result


def fail(message):
    print("FAIL:", message)
    sys.exit(1)


def line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    fail(f"no '{prefix}' line in the report")


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in TIMED_UNITS and k not in TIMED_NAMES}


def main():
    if not run.build():
        fail("build failed")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        first_lines, first = drive(workload, 1)
        second_lines, second = drive(workload, 1)
        untraced_lines, untraced = drive(workload, 0)

        for trace, result in ((1, first), (0, untraced)):
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                fail(f"{workload} --trace {trace}: metrics {got} != "
                     f"BENCHMARK.json {want[trace]}")

        fingerprints = {
            line_value(first_lines, "fingerprint "),
            line_value(first_lines, "traced fingerprint "),
            line_value(second_lines, "fingerprint "),
            line_value(second_lines, "traced fingerprint "),
            line_value(untraced_lines, "fingerprint "),
        }
        if len(fingerprints) != 1:
            fail(f"{workload}: fingerprints differ: {sorted(fingerprints)}")
        if (line_value(first_lines, "window counts:") !=
                line_value(second_lines, "window counts:")):
            fail(f"{workload}: window counts differ between runs")
        operations = {(r["attempted"], r["failed"])
                      for r in (first, second, untraced)}
        if len(operations) != 1:
            fail(f"{workload}: attempted/failed differ: {sorted(operations)}")
        a = deterministic(first["metrics"])
        b = deterministic(second["metrics"])
        if a != b:
            diff = {k: (a[k], b[k]) for k in a if a[k] != b.get(k)}
            fail(f"{workload}: deterministic metrics differ: {diff}")
        print(f"ok  {workload}: fingerprint {fingerprints.pop()}, "
              f"{len(a)} deterministic metrics repeat exactly")
    print("all workloads passed")


if __name__ == "__main__":
    main()
