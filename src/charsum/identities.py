"""The four closed-form character-sum identities, as verifiable computations.

Each check compares two independently computed sides at a stated tolerance:

1. square identity (odd real chi):   sum chi(k) (k/q)^2 = -(sqrt(q)/pi) L(1, chi)
2. log identity   (even real chi):   the remainder R = sum chi(k) log k
   + (sqrt(q)/2) L(1, chi) is reproduced by the exact sine-integral
   correction series 2 sqrt(q) sum chi(n) eps_n, eps_n = (pi/2 - Si(2 pi n))/(2 pi n)
3. exp identity   (both parities):   sum chi(k) e^{k/q} equals the explicit
   rational-coefficient series with parity-dependent prefactor
4. partial-sum identity:             F*(y) for F(y) = sum_{k <= qy} chi(k)
   equals the averaged truncated sine/cosine series (constant term L(1, chi)
   in the odd case)

Identity 2 uses the exact eps_n correction rather than an O(1/n^2) bound, so
the comparison is testable at fixed precision; the remainder over sqrt(q) is
recorded without deciding whether it is character-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analytic import (
    LValue,
    PeriodicSums,
    l_one,
    partial_sum_bound,
    reciprocal_tail,
    si_complement_array,
)
from .characters import real_primitive_character
from .fourier import direct_sum
from .functions import builtin_function
from .gauss_sums import tau

__all__ = [
    "IdentityCheck",
    "check_square_identity",
    "check_log_identity",
    "check_exp_identity",
    "check_partial_sum_identity",
    "run_identity",
    "IDENTITY_IDS",
    "DEFAULT_TOLERANCES",
]

TWO_PI = 2.0 * math.pi

DEFAULT_TOLERANCES = {1: 1e-7, 2: 1e-7, 3: 1e-8, 4: 5e-4}
DEFAULT_PARTIAL_SUM_TERMS = 10**4


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one identity comparison; pass iff abs_error <= tolerance."""

    identity_id: int
    discriminant: int
    y: Fraction | None
    lhs: float
    rhs: float
    abs_error: float
    tolerance: float
    passed: bool
    terms_used: int
    tail_bound: float
    notes: dict = field(default_factory=dict)


def _finish(identity_id, d, y, lhs, rhs, tol, terms, tail, notes=None) -> IdentityCheck:
    err = abs(lhs - rhs)
    return IdentityCheck(
        identity_id=identity_id,
        discriminant=d,
        y=y,
        lhs=float(lhs),
        rhs=float(rhs),
        abs_error=float(err),
        tolerance=float(tol),
        passed=bool(err <= tol),
        terms_used=int(terms),
        tail_bound=float(tail),
        notes=notes or {},
    )


def check_square_identity(d: int, tol: float = DEFAULT_TOLERANCES[1]) -> IdentityCheck:
    """Identity 1: needs chi(-1) = -1, i.e. a negative fundamental discriminant."""
    if d >= 0:
        raise ValueError(
            f"identity 1 requires chi(-1) = -1 (negative fundamental discriminant); got d = {d}"
        )
    chi = real_primitive_character(d)
    q = abs(d)
    lhs = direct_sum(chi, builtin_function("t2"))
    lval = l_one(chi, min(tol / 8, 1e-9))
    rhs = -math.sqrt(q) / math.pi * lval.value
    tail = math.sqrt(q) / math.pi * lval.tail_bound
    return _finish(1, d, None, lhs, rhs, tol, lval.terms_used, tail)


# eps_n depends on n only; grown once and shared across the discriminant sweep
_eps_cache = np.empty(0)


def _eps_values(count: int) -> np.ndarray:
    global _eps_cache
    if len(_eps_cache) < count:
        n = np.arange(len(_eps_cache) + 1, count + 1)
        w = TWO_PI * n
        _eps_cache = np.concatenate([_eps_cache, si_complement_array(w) / w])
    return _eps_cache[:count]


def check_log_identity(d: int, tol: float = DEFAULT_TOLERANCES[2]) -> IdentityCheck:
    """Identity 2: needs chi(-1) = +1, i.e. a fundamental discriminant d > 1.

    lhs is the directly computed remainder R = sum chi(k) log k
    + (sqrt(q)/2) L(1, chi); rhs is the sine-integral correction series.
    """
    if d <= 1:
        raise ValueError(
            f"identity 2 requires chi(-1) = +1 (fundamental discriminant d > 1); got d = {d}"
        )
    chi = real_primitive_character(d)
    q = d
    vals = chi.values_real()
    log_sum = math.fsum(vals[k] * math.log(k) for k in range(2, q) if vals[k] != 0.0)
    lval = l_one(chi, min(tol / 8, 1e-9))
    remainder = log_sum + math.sqrt(q) / 2 * lval.value

    # |eps_n| <= 1/(2 pi^2 n^2) since |pi/2 - Si(x)| <= 2/x; invert the PV tail
    # bound 2 K C / (N+1)^2 on the value scale 2 sqrt(q)
    pv = partial_sum_bound(q)
    c_env = 1.0 / (2.0 * math.pi**2)
    n_terms = int(min(max(4096, math.ceil(math.sqrt(8 * pv * c_env * math.sqrt(q) / tol))), 2**19))
    eps = _eps_values(n_terms)
    n = np.arange(1, n_terms + 1)
    series = 2 * math.sqrt(q) * float((vals[n % q] * eps).sum())
    series_tail = 4 * math.sqrt(q) * pv * c_env / (n_terms + 1) ** 2
    tail = series_tail + math.sqrt(q) / 2 * lval.tail_bound
    notes = {"remainder_over_sqrt_q": remainder / math.sqrt(q)}
    return _finish(2, d, None, remainder, series, tol, n_terms, tail, notes)


_IM = 1.0 / TWO_PI  # imaginary scale in 1 + 4 pi^2 n^2 = 4 pi^2 (n - i/2pi)(n + i/2pi)


def check_exp_identity(d: int, tol: float = DEFAULT_TOLERANCES[3]) -> IdentityCheck:
    """Identity 3, both parities; the series tail is recovered by repeated
    summation by parts on the rational coefficient atoms."""
    chi = real_primitive_character(d)
    q = abs(d)
    lhs = direct_sum(chi, builtin_function("exp"))

    if chi.is_even:
        prefactor = 2.0 * (math.e - 1.0) * math.sqrt(q)
        scale = 1.0 / (4.0 * math.pi**2)
        atoms = [(scale / (2j * _IM), -1j * _IM), (-scale / (2j * _IM), 1j * _IM)]

        def g(n: np.ndarray) -> np.ndarray:
            return 1.0 / (1.0 + 4.0 * math.pi**2 * n**2)

    else:
        prefactor = -4.0 * math.pi * (math.e - 1.0) * math.sqrt(q)
        atoms = [(1.0 / (8.0 * math.pi**2), -1j * _IM), (1.0 / (8.0 * math.pi**2), 1j * _IM)]

        def g(n: np.ndarray) -> np.ndarray:
            return n / (1.0 + 4.0 * math.pi**2 * n**2)

    vals = chi.values_real()
    period = np.concatenate([vals[1:], [0.0]])
    sums = PeriodicSums(period)
    n_terms = max(2048, 8 * q)
    while True:
        _, bound = reciprocal_tail(sums, atoms, n_terms)
        if abs(prefactor) * bound <= tol / 4 or n_terms >= 2**20:
            break
        n_terms *= 2
    n = np.arange(1, n_terms + 1, dtype=float)
    head = (vals[n.astype(np.int64) % q] * g(n)).sum()
    corr, bound = reciprocal_tail(sums, atoms, n_terms)
    rhs = prefactor * float((head + corr).real)
    tail = abs(prefactor) * bound
    return _finish(3, d, None, lhs, rhs, tol, n_terms, tail)


def check_partial_sum_identity(
    d: int,
    y: Fraction | str | float,
    terms: int = DEFAULT_PARTIAL_SUM_TERMS,
    tol: float = DEFAULT_TOLERANCES[4],
) -> IdentityCheck:
    """Identity 4: F*(y) against the averaged truncated series.

    y must be rational in (0, 1); when q y is an integer, F* takes the
    midpoint value (the k = q y term contributes chi(q y)/2).  The notes
    carry the empirical error-decay rate of the averaged truncation.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    y = Fraction(y) if not isinstance(y, Fraction) else y
    if not 0 < y < 1:
        raise ValueError(f"y must lie in (0, 1); got {y}")
    chi = real_primitive_character(d)
    q = abs(d)
    vals = chi.values_real()

    qy = q * y
    whole = qy.numerator // qy.denominator
    lhs = math.fsum(vals[k] for k in range(1, whole + 1) if vals[k] != 0.0)
    if qy.denominator == 1:
        lhs -= vals[whole] / 2.0  # midpoint convention at the jump

    tau_value = tau(chi).value
    n = np.arange(1, 2 * terms + 1)
    yf = float(y)
    if chi.is_even:
        coeffs = np.sin(TWO_PI * n * yf) / n
        prefactor = tau_value / math.pi
        constant = 0.0
        sign = 1.0
    else:
        coeffs = np.cos(TWO_PI * n * yf) / n
        prefactor = tau_value / (1j * math.pi)
        lval = l_one(chi, 1e-10)
        constant = lval.value
        sign = -1.0

    partial = np.cumsum(vals[n % q] * coeffs)

    def averaged(count: int) -> float:
        series = partial[count - 1 : 2 * count].mean()
        value = prefactor * (constant + sign * series)
        return float(value.real)

    rhs = averaged(terms)
    grid = [max(8, terms // 8), max(8, terms // 4), max(8, terms // 2), terms]
    errors = [abs(averaged(c) - lhs) for c in grid]
    notes = {}
    if all(e > 0 for e in errors):
        slope = float(np.polyfit(np.log(grid), np.log(errors), 1)[0])
        notes["decay_slope"] = slope
    pv = partial_sum_bound(q)
    tail = abs(prefactor) * 4 * pv / (terms + 1)
    return _finish(4, d, y, lhs, rhs, tol, terms, tail, notes)


IDENTITY_IDS = {
    1: check_square_identity,
    2: check_log_identity,
    3: check_exp_identity,
    4: check_partial_sum_identity,
}


def run_identity(
    identity_id: int,
    d: int,
    y: Fraction | str | None = None,
    tol: float | None = None,
    terms: int | None = None,
) -> IdentityCheck:
    """Dispatch an identity check by id (1..4) with per-identity defaults."""
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"identity id must be in 1..4, got {identity_id}")
    tol = DEFAULT_TOLERANCES[identity_id] if tol is None else tol
    if identity_id == 4:
        if y is None:
            raise ValueError("identity 4 requires a rational y in (0, 1)")
        return check_partial_sum_identity(
            d, y, terms=DEFAULT_PARTIAL_SUM_TERMS if terms is None else terms, tol=tol
        )
    if y is not None:
        raise ValueError(f"identity {identity_id} does not take y")
    return IDENTITY_IDS[identity_id](d, tol=tol)
