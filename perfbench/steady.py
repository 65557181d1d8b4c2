#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload repeatedly, alternating between workloads (compile,
simulate, dse-sweep, compile, ...), with seeds base, base+1, ... and
prints for each workload and end-to-end metric the median, the first
and third quartiles and the spread (Q3 - Q1) / median, next to the
metric's bound in BENCHMARK.json. A spread under a third of the bound
is marked "ok". Also prints the share of failed operations per run,
which must be identical across runs.

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --runs 5 --workloads dse-sweep --json out.json

Quartiles are Python's statistics.quantiles(values, n=4).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads",
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--json", help="also write every result here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            res = run_once(w, args.seed_base + r, seconds)
            results[w].append(res)
            print(f"run {r + 1}/{args.runs} {w}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr)

    for w in workloads:
        print(f"\n{w} ({args.runs} runs of {seconds:g} s)")
        shares = sorted({r["failed"] / r["attempted"] for r in results[w]})
        print(f"  failed share per run: {shares}; all correct: "
              f"{all(r['correct'] for r in results[w])}")
        print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results[w]]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
            if name == "setup_s":
                verdict = "(not bound)"
            print(f"  {name:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.2%} {bounds[name]:>6} {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
