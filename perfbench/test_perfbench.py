#!/usr/bin/env python3
"""Self-test of the benchmark, on the tiny size of every workload.

    python3 perfbench/test_perfbench.py

Run from the root of a source tree. For each workload it runs the tiny
size twice with the same seed, untraced and traced, and checks that:
- the run exits 0 and its last line is the result object, correct, with
  nothing failed;
- the metrics are exactly those BENCHMARK.json names for the mode, each
  with its unit;
- every count metric (counts, abstract sizes, ratios of counts, words
  allocated in a layer) is identical across the two runs: a difference
  means the run is not a function of its seed. gc.minor_mw and
  gc.major_collections are left out: they count the whole process,
  including the library clock (Timing.monotonic_now), which boxes a
  float only when the clock has advanced since its last read — so
  budgeted serve requests allocate a few words more or less with the
  timing.
It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

EXACT_UNITS = {"count", "nodes", "links", "ratio", "Mwords"}
# Ratios of times, not of counts; and process-wide GC counts.
NOT_EXACT = {"compress.stage_coverage", "compress.worst_class_coverage",
             "gc.minor_mw", "gc.major_collections"}


def run(args, cwd="."):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc, what):
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {what}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        sys.exit(f"FAIL {what}: correct={res['correct']} "
                 f"attempted={res['attempted']} failed={res['failed']}")
    return res


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            what = f"{w} trace={trace}"
            args = ["--workload", w, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny"]
            a = result_of(run(args), what)
            b = result_of(run(args), what + " (again)")
            units = {k: v["unit"] for k, v in a["metrics"].items()}
            if units != expected[trace]:
                missing = set(expected[trace]) - set(units)
                extra = set(units) - set(expected[trace])
                sys.exit(f"FAIL {what}: metrics differ from BENCHMARK.json; "
                         f"missing {sorted(missing)}, extra {sorted(extra)}, "
                         f"or units differ")
            for name, m in a["metrics"].items():
                again = b["metrics"][name]["value"]
                if m["unit"] in EXACT_UNITS and name not in NOT_EXACT:
                    if m["value"] != again:
                        sys.exit(f"FAIL {what}: {name} is {m['value']} then "
                                 f"{again} with the same seed")
            if a["attempted"] != b["attempted"]:
                sys.exit(f"FAIL {what}: attempted differs across runs")
            print(f"ok   {what}: {len(units)} metrics, "
                  f"{a['attempted']} checks")

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = run(["--workload", "dc-all", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        sys.exit("FAIL bare directory: the benchmark ran without the sources")
    print("ok   bare directory: refused with exit", proc.returncode)


if __name__ == "__main__":
    main()
