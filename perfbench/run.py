#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The runner package (perfbench/) is built
into .bench_build/ with CMake, then one runner process runs the workload
and prints its measurements; this script checks the exact model counts
against the references in perfbench/reference.json (for the seeds recorded
there), attaches the units named in BENCHMARK.json, and prints the result
as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list (and the runner writes its spans to
.bench_build/run/). --tiny runs the workload at smoke-test sizes, where no
reference counts apply. Exit status is non-zero, with no result line, when
the build or the runner fails or the runner's metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "run"
RUNNER = BUILD_DIR / "perfbench_runner"
# A run must end within this many seconds of starting, build included
# when the build is already up to date.
DEADLINE_S = 175.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_workload(workload, seed, seconds, trace, tiny, timeout):
    """Run one runner process; its parsed result, or None if it failed."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(RUNNER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(WORK_DIR)]
    if tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {timeout:.0f} s and was stopped")
        return None
    if proc.returncode != 0:
        log(f"runner exited with status {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("runner printed no result")
        return None
    return json.loads(lines[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def main(argv):
    start = time.monotonic()
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2

    build()
    out = run_workload(args.workload, args.seed, args.seconds, args.trace,
                     args.tiny,
                     max(10.0, DEADLINE_S - (time.monotonic() - start)))
    if out is None:
        return 1

    attempted = out["attempted"]
    failed = out["failed"]
    for error in out["errors"]:
        log("FAILED", error)

    # Exact model counts against the references recorded for this seed.
    recorded = reference["workloads"][args.workload]["counts"]
    if not args.tiny and str(args.seed) in recorded:
        attempted += 1
        expected = recorded[str(args.seed)]
        if out["counts"] != expected:
            failed += 1
            for key in sorted(set(expected) | set(out["counts"])):
                if expected.get(key) != out["counts"].get(key):
                    log(f"FAILED reference: {key} = {out['counts'].get(key)},"
                        f" recorded {expected.get(key)}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = out["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        log("runner metrics do not match BENCHMARK.json:",
            sorted(set(got) ^ {m["name"] for m in wanted}))
        return 1
    metrics = {}
    for m in wanted:
        value = got[m["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {m['name']} is not a finite number: {value!r}")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    log(f"{args.workload} seed {args.seed}: {out['iterations']} untraced +"
        f" {out['traced_iterations']} traced iterations,"
        f" {len(out['setup_times_s'])} set-ups, build {out['build_type']},"
        f" counts {json.dumps(out['counts'])}")
    for name, m in metrics.items():
        log(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
