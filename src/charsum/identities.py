"""The four closed-form character-sum identities, as verifiable computations.

Each check compares two independently computed sides at a stated tolerance:

1. square identity (odd real chi):   sum chi(k) (k/q)^2 = -(sqrt(q)/pi) L(1, chi)
2. log identity   (even real chi):   the remainder R = sum chi(k) log k
   + (sqrt(q)/2) L(1, chi) is reproduced by the exact sine-integral
   correction series 2 sqrt(q) sum chi(n) eps_n, eps_n = (pi/2 - Si(2 pi n))/(2 pi n)
3. exp identity   (both parities):   sum chi(k) e^{k/q} equals the theorem
   series for f = exp with prefactor 2 sqrt(q)
4. partial-sum identity:             F*(y) for F(y) = sum_{k <= qy} chi(k)
   is the direct sum for the step at y, and equals its theorem series with
   prefactor 2 sqrt(q)

Identities 2, 3 and 4 sum their series with analytic.character_series.
Identities 3 and 4 are the theorem for the built-in exp and step:y specs,
whose exact coefficient atoms (periodic weights over 1/n for the step) give
an exact Abel tail under a rigorous bound.  Identity 2 sums the exact eps_n
correction series, which is the logarithm's cosine coefficient minus its atom
-1/(4n); the Polya-Vinogradov tail bound for the O(1/n^2) envelope the log
spec declares for eps_n keeps the comparison testable at fixed precision.  The
remainder over sqrt(q) is recorded without deciding whether it is
character-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# PeriodicSums, reciprocal_tail and tau stay bound here: perfbench/spans.py wraps them by name
from .analytic import (  # noqa: F401
    PeriodicSums,
    character_series,
    l_one,
    reciprocal_tail,
    si_complement_array,
)
from .characters import MODULUS_CEILING, real_primitive_character
from .fourier import direct_sum
from .functions import TWO_PI, builtin_function
from .gauss_sums import tau  # noqa: F401

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

DEFAULT_TOLERANCES = {1: 1e-7, 2: 1e-7, 3: 1e-8, 4: 5e-4}
_PARTIAL_SUM_TERMS_CAP = 2**22


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

    # eps_n is what the atom -1/(4n) leaves of log's cosine coefficient
    series, n_terms, series_tail = character_series(
        vals, _eps_values, 2 * math.sqrt(q), tol / 2, 4096, 2**19,
        envelope=builtin_function("log").envelope_for("cos"),
    )
    tail = series_tail + math.sqrt(q) / 2 * lval.tail_bound
    notes = {"remainder_over_sqrt_q": remainder / math.sqrt(q)}
    return _finish(2, d, None, remainder, series, tol, n_terms, tail, notes)


def _theorem_check(identity_id, d, y, f, tol, start, cap, terms=None) -> IdentityCheck:
    """The theorem for the real primitive chi_d and a spec with exact atoms:
    the direct sum against the series with prefactor 2 sqrt(q), exact for
    either parity since tau(chi_d) is sqrt(q) or i sqrt(q)."""
    chi = real_primitive_character(d)
    kind = "cos" if chi.is_even else "sin"
    series, n_terms, bound = character_series(
        chi.values_real(),
        lambda count: f.closed_form(np.arange(1, count + 1), kind),
        2.0 * math.sqrt(abs(d)),
        tol / 2,
        start,
        cap,
        atoms=f.atoms_for(kind),
        terms=terms,
    )
    return _finish(identity_id, d, y, direct_sum(chi, f), series.real, tol, n_terms, bound)


def check_exp_identity(d: int, tol: float = DEFAULT_TOLERANCES[3]) -> IdentityCheck:
    """Identity 3, both parities: the theorem for f = exp."""
    return _theorem_check(3, d, None, builtin_function("exp"), tol, max(2048, 8 * abs(d)), 2**20)


def check_partial_sum_identity(
    d: int,
    y: Fraction | str | float,
    terms: int | None = None,
    tol: float = DEFAULT_TOLERANCES[4],
) -> IdentityCheck:
    """Identity 4: F*(y) against the theorem series for the step at y.

    y must be rational in (0, 1); when q y is an integer, F* takes the
    midpoint value (the k = q y term contributes chi(q y)/2).  F*(y) is the
    direct sum for step:y, exact since every product is +-1, +-1/2 or 0.  With
    y = a/b the step's atoms carry weights of period b, so the series tail
    beyond N is an Abel tail over the period lcm(q, b), which must not exceed
    MODULUS_CEILING; N starts at 4 lcm(q, b), and an explicit `terms` fixes N
    and must not exceed 2^22.
    """
    if terms is not None and not 1 <= terms <= _PARTIAL_SUM_TERMS_CAP:
        raise ValueError(f"terms must be >= 1 and at most {_PARTIAL_SUM_TERMS_CAP}, got {terms}")
    y = Fraction(y) if not isinstance(y, Fraction) else y
    if not 0 < y < 1:
        raise ValueError(f"y must lie in (0, 1); got {y}")
    q = abs(d)
    b = y.denominator
    period = math.lcm(q, b)
    if period > MODULUS_CEILING:
        raise ValueError(
            f"y = {y} has denominator {b}, so the series period lcm({q}, {b}) = {period} "
            f"exceeds {MODULUS_CEILING}; pass y as a fraction string with a small "
            "denominator, such as 1/5"
        )
    f = builtin_function(f"step:{y}")
    return _theorem_check(4, d, y, f, tol, 4 * period, _PARTIAL_SUM_TERMS_CAP, terms)


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
        return check_partial_sum_identity(d, y, terms=terms, tol=tol)
    if y is not None:
        raise ValueError(f"identity {identity_id} does not take y")
    if terms is not None:
        raise ValueError(f"identity {identity_id} does not take terms; it picks N from tol")
    return IDENTITY_IDS[identity_id](d, tol=tol)
