#!/usr/bin/env python3
"""The benchmark's own tests, at smoke-test sizes (seconds once built).

    python3 perfbench/test_bench.py

For every workload in BENCHMARK.json:
  * run.py --tiny prints, as its last line, every end-to-end metric
    (--trace 0) and every per-layer metric (--trace 1) named in
    BENCHMARK.json, each with its unit, and reports no failure;
  * the exact model counts of an untraced and a traced runner process are
    identical (the traced one runs the counting ProgramFactory wrapper,
    engine timers and shard channel counters, and must not change them);
  * the traced run's spans cover its traced iterations: their self times
    sum to within 10% of the traced wall time.
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def fail(message):
    print("FAIL:", message)
    sys.exit(1)


def check_result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} --trace {trace}: reported failures")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"{workload} --trace {trace}: {metric['name']} missing")
        if got["unit"] != metric["unit"]:
            fail(f"{workload}: {metric['name']} unit {got['unit']}")
        print(f"  {workload:15s} {metric['name']:28s} {got['value']:.6g}"
              f" {got['unit']}")
    return result


def main():
    run.build()
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result_line(workload, 0)
        traced = check_result_line(workload, 1)
        coverage = traced["metrics"]["obs.span_coverage"]["value"]
        if not 0.9 <= coverage <= 1.1:
            fail(f"{workload}: span self times cover {coverage:.3f} of the"
                 " traced wall time")

        plain = run.run_workload(workload, 2, 0, 0, True, 180)
        counted = run.run_workload(workload, 2, 0, 1, True, 180)
        if plain is None or counted is None:
            fail(f"{workload}: runner failed")
        if plain["counts"] != counted["counts"]:
            fail(f"{workload}: traced counts {counted['counts']} !="
                 f" untraced {plain['counts']}")
        print(f"ok {workload}: traced and untraced counts identical")
    print("all benchmark tests passed")


if __name__ == "__main__":
    main()
