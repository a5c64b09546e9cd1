"""Reduced-size passes of every workload, traced and untraced, through the
same worker and summary code as a full run."""

import json
import shutil
import subprocess
import sys

import pytest

import run

SMALL = {
    "theorem-smooth": {"modulus": 11, "function": "t", "tol": 1e-8},
    "theorem-log": {"modulus": 13, "function": "log", "tol": 1e-8},
    "sweep": {"min_abs_d": 2, "max_abs_d": 40},
    "theorem-quad": {"modulus": 7, "jump": "2/5", "terms": 8, "tol": 1e-6},
}


def _declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_pass_emits_declared_metrics(workload, tmp_path):
    spec, end_to_end, per_layer = _declared()
    assert workload in {w["name"] for w in spec["workloads"]}
    inputs = SMALL[workload]
    passes = [
        run.run_pass(workload, inputs, traced, tmp_path / f"{traced}.json", 120)
        for traced in (False, True)
    ]
    detail, result = run.summarise(workload, 1, inputs, passes[:1], trace=False)
    assert result["correct"], detail
    assert result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == end_to_end
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("fail_share", "bound_miss_share", "max_err_ratio"):
        assert name in detail["end_to_end"]

    detail, result = run.summarise(workload, 1, inputs, passes, trace=True)
    assert result["correct"], detail["bypass_violations"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == per_layer


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
