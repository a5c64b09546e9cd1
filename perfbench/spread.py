"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 --seconds 25 [--workload sweep ...]

Runs run.py once per seed and workload and prints, per metric, the median and
the interquartile distance as a share of the median, next to the metric's
bound in BENCHMARK.json.  A benchmark is steady when every spread (setup_s
aside) is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, spread
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            line = " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items())
            print(f"{workload} seed {seed} correct={result['correct']} {line}", flush=True)
        for name, vals in values.items():
            print(
                f"{workload:15s} {name:13s} median={median(vals):.6g} "
                f"spread={spread(vals):.4f} bound={bounds.get(name)} n={len(vals)}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
