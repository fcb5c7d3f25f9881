#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds N] [--first S]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to a third of
the metric's bound from BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    args = parser.parse_args()
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first, args.first + args.seeds):
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{workload:12s} {m['name']:16s} median {statistics.median(v):14.6g}"
                  f"  spread {spread:6.3f}  bound/3 {m['bound'] / 3:6.3f}"
                  f"  {'ok' if spread < m['bound'] / 3 else 'WIDE'}")
        sys.stdout.flush()
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
