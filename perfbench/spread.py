"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sector --runs 10 [--first-seed 1]
                                [--seconds 20] [--trace 0]

Runs ``run.py`` once per seed, one after another, and prints, for every
metric, its values, median and quartile spread ((Q3 - Q1) / median, with
quartiles from ``statistics.quantiles(values, n=4)``).  The last line is
the summary as JSON.  Stops with a nonzero exit at the first run that
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
            print(f"seed {seed}: rc={proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        last = json.loads(lines[-1])
        results.append(last)
        print(f"seed {seed}: attempted={last['attempted']} failed={last['failed']}", flush=True)
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "spread": spread, "unit": first["unit"],
                         "values": values}
        print(f"  {name:<34} median={med:<12.6g} spread={spread:<8.4f} {first['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
