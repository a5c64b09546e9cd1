"""Seeded inputs for the charsum benchmark workloads.

Nothing here imports charsum: the inputs, the row counts they imply and the
requested tolerances are fixed by the benchmark, so a change to the library
cannot move its own yardstick.  Each band is narrow on purpose: a seed changes
which modulus, window or jump point runs, but not how much work a run is, so
run-to-run spread measures the program and not the draw.
"""

from __future__ import annotations

import random

WORKLOADS = ("theorem-smooth", "theorem-log", "sweep", "theorem-quad")

# theorem-smooth: f = t at tol 1e-8.  Odd characters have a C/n sine envelope,
# hit the 10^6-term cap, and spend the run in the series head.
SMOOTH_PRIMES = (491, 499, 503, 509)
# theorem-log: f = log, Cesaro-averaged on both parities, Si/Ci coefficients.
LOG_PRIMES = (101, 103)
# sweep: |d| in [start, start + SWEEP_SPAN - 1] with start drawn from this band.
SWEEP_STARTS = range(2, 13)
SWEEP_SPAN = 500
# theorem-quad: three user specs without closed forms, summed to a fixed N.
QUAD_PRIMES = (101, 103)
QUAD_JUMPS = ("2/5", "3/7", "4/9", "5/11", "3/8", "5/12", "4/11")
QUAD_TERMS = 64
QUAD_SPECS = ("smooth", "jump", "log-singular")

THEOREM_TOL = 1e-8
QUAD_TOL = 1e-6
# The tolerances a plain `charsum sweep` requests (no --tol): the documented
# per-check defaults when the benchmark was defined, kept here as constants.
SWEEP_TOL = {
    "separability": 1e-9,
    "quadratic_tau": 1e-9,
    "identity:1": 1e-7,
    "identity:2": 1e-7,
    "identity:3": 1e-8,
    "identity:4": 5e-4,
}


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theorem-smooth":
        return {"modulus": rng.choice(SMOOTH_PRIMES), "function": "t", "tol": THEOREM_TOL}
    if workload == "theorem-log":
        return {"modulus": rng.choice(LOG_PRIMES), "function": "log", "tol": THEOREM_TOL}
    if workload == "sweep":
        start = rng.choice(SWEEP_STARTS)
        return {"min_abs_d": start, "max_abs_d": start + SWEEP_SPAN - 1}
    if workload == "theorem-quad":
        return {
            "modulus": rng.choice(QUAD_PRIMES),
            "jump": rng.choice(QUAD_JUMPS),
            "terms": QUAD_TERMS,
            "tol": QUAD_TOL,
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def is_fundamental(d: int) -> bool:
    """Fundamental discriminant test, written apart from the library's."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(abs(m))
    return False


def sweep_discriminants(lo: int, hi: int) -> list[int]:
    return [d for a in range(lo, hi + 1) for d in (-a, a) if is_fundamental(d)]


def expected_rows(workload: str, inputs: dict) -> int:
    """Rows the inputs imply, so that a shortened run cannot read as faster.

    A prime modulus q has q - 2 primitive characters; a sweep writes five rows
    per fundamental discriminant (separability, quadratic tau, identity 1 or 2,
    identities 3 and 4).
    """
    if workload == "sweep":
        return 5 * len(sweep_discriminants(inputs["min_abs_d"], inputs["max_abs_d"]))
    q = inputs["modulus"]
    if not is_prime(q):
        raise ValueError(f"band modulus {q} is not prime")
    per_spec = q - 2
    return per_spec * len(QUAD_SPECS) if workload == "theorem-quad" else per_spec


def requested_tolerance(workload: str, inputs: dict, check: str) -> float:
    """The tolerance the run asked for, not the one a report row states."""
    if workload == "sweep":
        return SWEEP_TOL[check]
    return inputs["tol"]


def check_rows(workload: str, inputs: dict, rows: list[dict]) -> dict:
    """Checks every report row against the inputs and the requested tolerances.

    A row fails when it raised, names a check the workload does not run, or
    its `pass` is false.  A theorem or identity row misses its bound when
    abs_error > tail_bound + 1e-9 (an unsound bound), and is loose when
    tail_bound exceeds the requested tolerance (a PASS that does not certify
    what was asked).  Rows missing from the report count as failed.
    """
    expected = expected_rows(workload, inputs)
    checks = set(SWEEP_TOL) if workload == "sweep" else None
    failed = loose = misses = bounded = 0
    max_err = max_bound = 0.0
    for row in rows:
        check = row.get("check") or ""
        known = check in checks if checks else check.startswith("theorem:")
        if "raised" in row or not known:
            failed += 1
            continue
        failed += not row["passed"]
        tol = requested_tolerance(workload, inputs, check)
        max_err = max(max_err, row["abs_error"] / tol)
        if check.startswith(("theorem:", "identity:")):
            bounded += 1
            loose += row["tail_bound"] > tol
            misses += row["abs_error"] > row["tail_bound"] + 1e-9
            max_bound = max(max_bound, row["tail_bound"] / tol)
    attempted = max(expected, len(rows))
    failed += attempted - len(rows)
    return {
        "attempted": attempted,
        "rows_match": len(rows) == expected,
        "failed": failed,
        "bound_misses": misses,
        "fail_share": failed / attempted,
        "bound_miss_share": misses / bounded if bounded else 0.0,
        "loose_share": loose / bounded if bounded else 0.0,
        "max_err_ratio": max_err,
        "bound_ratio": max_bound,
    }


def bypass_violations(workload: str, inputs: dict, layers: dict) -> list[str]:
    """Traced-pass proofs that the workload takes the path it claims."""
    out = []
    if workload == "theorem-quad":
        if layers["quadrature.f_evals"] == 0:
            out.append("theorem-quad never ran quadrature")
    elif layers["quadrature.f_evals"] != 0:
        out.append(f"quadrature ran outside theorem-quad ({layers['quadrature.f_evals']} samples)")
    if workload == "sweep":
        if layers["fourier.series_terms"] != 0:
            out.append(f"sweep summed {layers['fourier.series_terms']} theorem-series terms")
    else:
        characters = inputs["modulus"] - 2
        if layers["gauss_sums.gauss_sum_calls"] != characters:
            out.append(
                f"{layers['gauss_sums.gauss_sum_calls']} Gauss sums for {characters} characters"
            )
    return out
