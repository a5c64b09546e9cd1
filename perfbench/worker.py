"""One benchmark pass in a fresh process: set up, run one workload, check it.

Invoked by run.py as `python3 perfbench/worker.py <json>`, where the JSON holds
the workload name, its generated inputs, the trace flag, the CLOCK_MONOTONIC
time at which run.py spawned this process, and the path the report is written to.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

import charsum.cli
import charsum.fourier
from charsum.functions import FunctionSpec, VariationClass, builtin_function

import spans
import workloads


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _quad_specs(jump: str):
    """Three user FunctionSpecs with no closed form and no declared envelope."""
    y = float(Fraction(jump))
    return [
        FunctionSpec(
            name="smooth",
            evaluator=lambda t: math.exp(-t) * math.cos(3.0 * t),
            variation_class=VariationClass.SMOOTH_C2,
        ),
        FunctionSpec(
            name=f"jump:{jump}",
            evaluator=lambda t: 1.0 + t if t <= y else t * t,
            variation_class=VariationClass.PIECEWISE_SMOOTH,
            jump_points=((y, 1.0 + y, y * y),),
        ),
        FunctionSpec(
            name="log-singular",
            evaluator=lambda t: math.log(t) * (1.0 - 0.5 * t),
            variation_class=VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
            singular_at_zero=True,
        ),
    ]


def setup(workload: str, inputs: dict, tracer) -> dict:
    """Build the groups and function specs the run needs (after the imports above)."""
    if tracer is not None:
        spans.instrument(tracer)
    state: dict = {}
    if workload == "sweep":
        specs = [builtin_function("t2"), builtin_function("exp")]
    elif workload == "theorem-quad":
        specs = _quad_specs(inputs["jump"])
        state["specs"] = specs
    else:
        specs = [builtin_function(inputs["function"])]
    if workload != "sweep":
        # through the CLI's own name, so the CLI's call hits the same cache
        state["group"] = charsum.cli.build_character_group(inputs["modulus"])
    if tracer is not None:
        for spec in specs:
            spans.instrument_spec(tracer, spec)
    return state


def _cli_argv(workload: str, inputs: dict, out: str) -> list[str]:
    if workload == "sweep":
        args = ["sweep", "--min-abs-d", str(inputs["min_abs_d"]), "--max-abs-d", str(inputs["max_abs_d"])]
    else:
        args = [
            "verify-theorem", "-q", str(inputs["modulus"]),
            "--function", inputs["function"], "--tol", repr(inputs["tol"]),
        ]
    return args + ["--format", "json", "--output", out]


def run_quad(inputs: dict, state: dict, tracer) -> list[dict]:
    """fourier.verify_theorem for every spec and primitive character, in order."""
    rows = []
    for spec in state["specs"]:
        for chi in state["group"].primitive_characters():
            if tracer is not None:
                tracer.check_id = len(rows)
            row = {"check": f"theorem:{spec.name}", "label": chi.label}
            try:
                chk = charsum.fourier.verify_theorem(chi, spec, inputs["tol"], terms=inputs["terms"])
            except Exception as exc:  # a raising check is a failed row, not a crash
                row["raised"] = repr(exc)
            else:
                row.update(abs_error=chk.abs_error, tail_bound=chk.series.tail_bound, passed=chk.passed)
            rows.append(row)
    return rows


def read_report(path: str) -> list[dict]:
    """Rows of a JSON report, with `pass` renamed to match run_quad's rows."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    os.remove(path)
    for row in rows:
        row["passed"] = row.pop("pass")
    return rows


def main() -> int:
    job = json.loads(sys.argv[1])
    workload, inputs = job["workload"], job["inputs"]
    tracer = spans.Tracer() if job["trace"] else None
    state = setup(workload, inputs, tracer)
    setup_s = _now() - job["spawned"]
    if tracer is not None:
        tracer.check_id = 0

    started, cpu_started = time.perf_counter(), time.process_time()
    error = None
    if workload == "theorem-quad":
        rows = run_quad(inputs, state, tracer)
    else:
        try:
            code = charsum.cli.main(_cli_argv(workload, inputs, job["out"]))
        except Exception as exc:  # the report is lost, so every row failed
            code, error = None, repr(exc)
    run_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if workload != "theorem-quad":
        rows = []
        if os.path.exists(job["out"]):
            rows = read_report(job["out"])
        elif error is None:
            error = f"no report written (exit code {code})"
    result = {"setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb}
    result.update(workloads.check_rows(workload, inputs, rows))
    result["errors"] = [error] if error else [r["raised"] for r in rows if "raised" in r][:5]
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["bypass"] = workloads.bypass_violations(workload, inputs, result["layers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
