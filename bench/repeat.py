"""Repeat one workload over several seeds and summarise each end-to-end metric.

    python3 bench/repeat.py --workload spectrum --runs 10

Runs bench/run.py once per seed (1, 2, ...), one run at a time, for the
run_seconds of BENCHMARK.json, and prints for every metric the median,
the first and third quartiles and their distance as a share of the
median (statistics.quantiles(values, n=4)), plus the share of failed
queries over all runs.  Use it to set a metric's bound and to
re-check it later on the same machine.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        row = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(row), flush=True)
    print(f"{args.workload}: {args.runs} runs, failed share {failed}/{attempted}")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"  {name:14s} median {med:10.4g} {units[name]:5s} q1 {q1:10.4g} q3 {q3:10.4g} "
              f"spread {(q3 - q1) / med:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
