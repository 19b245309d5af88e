"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steady.py --workload dense --seeds 1 2 3 4 5 --seconds 30

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(n=4); a steady metric keeps it well inside the bound
in BENCHMARK.json.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, cwd=HERE.parent,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 and median(vals) else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  above bound/3"
        print(f"{name:24s} {median(vals):12.6f} {spread:8.4f} {bound if bound else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
