#!/usr/bin/env python3
"""Build and run the CEPIC end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload compile|simulate|dse-sweep \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the
toolchain libraries from src/, the cepic-perfbench program and
cepic-prof) in the directory named by $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild only what changed. cepic-perfbench's
standard output is passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the Chrome
trace it writes is checked with `cepic-prof --validate` against
schemas/chrome-trace.schema.json, and that check counts as one more
operation. Exits non-zero, without a result line, when the toolchain
sources are missing, the build fails or cepic-perfbench fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile", "simulate", "dse-sweep")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"toolchain sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "cepic-perfbench",
         "cepic-prof", "-j", jobs],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    work_dir = build_dir / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    trace_out = (build_dir / "perfbench-traces" /
                 f"{args.workload}-seed{args.seed}.json")
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "cepic-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir), "--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"cepic-perfbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"cepic-perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace:
        check = subprocess.run(
            [str(build_dir / "cepic-prof"), "--validate",
             str(ROOT / "schemas" / "chrome-trace.schema.json"),
             str(trace_out)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout.strip())
        result["attempted"] += 1
        if check.returncode != 0:
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
