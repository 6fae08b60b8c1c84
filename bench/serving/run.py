#!/usr/bin/env python3
"""End-to-end serving benchmark: builds the benchmark and runs one workload.

    python3 bench/serving/run.py --workload offline|online|rotate \\
        --seed N --seconds S --trace 0|1

Builds libhdlock and the benchmark from this checkout (CMake, Release) into
$CARGO_TARGET_DIR/build-serving (default .bench_build/build-serving), runs one workload
and prints the benchmark's output: a `run` record, then as the last line
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the span dump
to $CARGO_TARGET_DIR/serving-run/<workload>.trace.csv).

    python3 bench/serving/run.py --selftest         # the benchmark's own tests

The workloads, metric names and units come from BENCHMARK.json at the root
of the checkout; every run checks that the binary printed exactly those
metrics with those units.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
MANIFEST = REPO_ROOT / "BENCHMARK.json"
# A run measures for --seconds; owner rotations, references, set-up cycles,
# idle swaps and the max-rate search come on top.
RUN_ALLOWANCE_S = 120
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_manifest():
    try:
        return json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {MANIFEST}: {error}")


def target_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else REPO_ROOT / base


def build_dir():
    # The "build" prefix keeps the CMake tree (and its generated sources)
    # out of the repo's include-graph lint, which skips build* directories.
    return target_dir() / "build-serving"


def build(target):
    if not (REPO_ROOT / "CMakeLists.txt").is_file() or not (REPO_ROOT / "src" / "api").is_dir():
        fail(f"hdlock sources not found next to the benchmark (expected {REPO_ROOT}/src)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 1)
    return out


def check_metrics(manifest, result, trace):
    expected = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric set differs from the manifest: missing {missing}, extra {extra}", 1)
    for name, entry in metrics.items():
        if entry.get("unit") != expected[name]:
            fail(f"metric {name}: unit {entry.get('unit')!r}, manifest says {expected[name]!r}", 1)
        if not isinstance(entry.get("value"), (int, float)):
            fail(f"metric {name}: value {entry.get('value')!r} is not a number", 1)


def run(manifest, args):
    out = build("serving_bench")
    run_dir = target_dir() / "serving-run"
    run_dir.mkdir(parents=True, exist_ok=True)
    command = [str(out / "serving_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(run_dir)]
    timeout = args.seconds + RUN_ALLOWANCE_S
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:g}s", 1)
    finally:
        for bundle in run_dir.glob("*.hdlk"):
            bundle.unlink()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}", done.returncode or 1)
    check_metrics(manifest, json.loads(lines[-1]), args.trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


def selftest():
    out = build("serving_bench_tests")
    sys.exit(subprocess.run([str(out / "serving_bench_tests")], check=False).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    manifest = load_manifest()
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    run(manifest, args)


if __name__ == "__main__":
    main()
