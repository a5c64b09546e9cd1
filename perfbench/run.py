"""Run one charsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload theorem-smooth --seed 1 --seconds 25 --trace 0

Each pass is a fresh single-threaded process (worker.py) that imports charsum
from ./src, sets up, runs the workload once and checks every report row.
Passes repeat until --seconds is spent (at least MIN_PASSES); times are
medians over the untraced passes.  With --trace 1, traced and untraced passes
alternate and the per-layer metrics come from the traced ones.

The second-to-last stdout line is a JSON detail record (environment, inputs,
every pass, all end-to-end metrics including the correctness shares); the
last line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
from stats import median, quartiles
from workloads import WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / ".out"
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

# Gated end-to-end metrics (BENCHMARK.json) and their units.
END_TO_END = {
    "run_s": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "loose_share": "share",
    "bound_ratio": "ratio",
}
# Reported in the detail line; zero at the seed or drawn by the seed, so they
# are enforced through `correct` or left ungated (see README.md).
REPORTED = {
    "fail_share": "share",
    "bound_miss_share": "share",
    "max_err_ratio": "ratio",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "thread_caps": THREAD_CAPS,
        "seed": seed,
        "commit": git_commit(),
    }


def run_pass(workload: str, inputs: dict, traced: bool, out: Path, timeout: float) -> dict:
    """One fresh worker process; returns its result with the pass wall time added."""
    spawned = _now()
    job = {"workload": workload, "inputs": inputs, "trace": traced, "spawned": spawned, "out": str(out)}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_CAPS),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["traced"] = traced
    result["wall_s"] = _now() - spawned
    return result


def run_passes(workload: str, inputs: dict, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` is spent; with tracing, untraced and traced alternate."""
    OUT_DIR.mkdir(exist_ok=True)
    started = _now()
    passes: list[dict] = []
    while True:
        elapsed = _now() - started
        out = OUT_DIR / f"{os.getpid()}-{len(passes)}.json"
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, inputs, traced, out, RUN_LIMIT_S - elapsed))
        elapsed = _now() - started
        typical = median([p["wall_s"] for p in passes])
        if elapsed + typical > RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    try:
        OUT_DIR.rmdir()
    except OSError:
        pass
    return passes


def summarise(workload: str, seed: int, inputs: dict, passes: list[dict], trace: bool):
    """(detail record, result record) for a finished run."""
    plain = [p for p in passes if not p["traced"]]
    run_s = median([p["run_s"] for p in plain])
    values = {
        "run_s": run_s,
        "checks_per_s": plain[0]["attempted"] / run_s,
        "setup_s": median([p["setup_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    for name in ("loose_share", "bound_ratio", *REPORTED):
        values[name] = max(p[name] for p in passes)
    bypass = sorted({msg for p in passes for msg in p.get("bypass", [])})
    correct = not bypass and all(
        p["rows_match"] and p["failed"] == 0 and p["bound_misses"] == 0 for p in passes
    )
    units = {**END_TO_END, **REPORTED}
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {
            name: median([p["layers"][name] for p in traced])
            for name in spans.LAYER_METRICS
            if name != "trace.overhead_ratio"
        }
        layers["trace.overhead_ratio"] = median([p["run_s"] for p in traced]) / run_s
        metrics = {n: {"value": v, "unit": spans.LAYER_METRICS[n]} for n, v in layers.items()}
    else:
        metrics = {n: {"value": values[n], "unit": END_TO_END[n]} for n in END_TO_END}
    q1, _, q3 = quartiles([p["run_s"] for p in plain])
    detail = {
        "workload": workload,
        "inputs": inputs,
        "environment": environment(seed),
        "untraced_passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "run_s_quartiles": [q1, run_s, q3],
        "run_s_max": max(p["run_s"] for p in plain),
        "passes": [
            {k: p[k] for k in ("traced", "setup_s", "run_s", "cpu_s", "peak_rss_mb")} for p in passes
        ],
        "end_to_end": {n: {"value": values[n], "unit": units[n]} for n in units},
        "bypass_violations": bypass,
        "errors": sorted({e for p in passes for e in p["errors"]}),
    }
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="charsum benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "charsum" / "__init__.py").is_file():
        print(f"error: no charsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed)
    try:
        passes = run_passes(args.workload, inputs, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail, result = summarise(args.workload, args.seed, inputs, passes, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
