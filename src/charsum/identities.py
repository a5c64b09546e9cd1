"""The four closed-form character-sum identities, as verifiable computations.

Each is the theorem for a real primitive character chi_d and one built-in
spec, checked by _theorem_check: the direct sum of chi(k) f*(k/q) against one
analytic.character_series call with prefactor 2 sqrt(q) (exact for either
parity, since tau(chi_d) is sqrt(q) or i sqrt(q)), the spec's atoms and
declared envelope for chi's kind, and the table W (fold plus atoms' kernel)
that fourier.series_table caches per spec.

1. square (odd chi), f = t2:      sum chi(k) (k/q)^2 = -(sqrt(q)/pi) L(1, chi)
2. log (even chi), f = log:       the remainder R = sum chi(k) log k
   + (sqrt(q)/2) L(1, chi) equals the correction series
   2 sqrt(q) sum chi(n) eps_n, eps_n = (pi/2 - Si(2 pi n))/(2 pi n); R over
   sqrt(q) is recorded without deciding whether it is character-independent
3. exp (both parities), f = exp:  sum chi(k) e^{k/q} equals its series
4. partial sums, f = step:y:      F*(y) for F(y) = sum_{k <= qy} chi(k)
   equals its series
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

# PeriodicSums, reciprocal_tail (the tail kernel's entry point),
# si_complement_array and tau stay bound here: perfbench/spans.py wraps them
# by name
from .analytic import (  # noqa: F401
    TERMS_CEILING,
    PeriodicSums,
    character_series,
    check_terms,
    check_tolerance,
    l_one,
    reciprocal_tail,
    si_complement_array,
)
from .characters import MODULUS_CEILING, real_primitive_character
from .fourier import direct_sum, series_table
from .functions import builtin_function
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


def _theorem_check(identity_id, d, y, f, tol, target, start, terms=None) -> IdentityCheck:
    """The direct sum for chi_d and f against its series, from N = start to
    the target, N at most TERMS_CEILING; passes iff they agree within tol,
    which obeys check_tolerance."""
    check_tolerance(tol, "tol")
    chi = real_primitive_character(d)
    kind = "cos" if chi.is_even else "sin"
    series, n_terms, bound = character_series(
        chi.values_real(), partial(series_table, f, kind), 2.0 * math.sqrt(abs(d)), target, start,
        TERMS_CEILING, f.atoms_for(kind), f.envelope_for(kind) or (0.0, 1), terms,
    )
    lhs, rhs = direct_sum(chi, f), series.real
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
        terms_used=int(n_terms),
        tail_bound=float(bound),
    )


def check_square_identity(d: int, tol: float = DEFAULT_TOLERANCES[1]) -> IdentityCheck:
    """Identity 1, the theorem for f = t2: needs chi(-1) = -1, i.e. a negative
    fundamental discriminant.  The series is 2 sqrt(q) sum chi(n) (-1/(2 pi n))
    = -(sqrt(q)/pi) L(1, chi), its tail the kernel of that atom."""
    if d >= 0:
        raise ValueError(
            f"identity 1 requires chi(-1) = -1 (negative fundamental discriminant); got d = {d}"
        )
    return _theorem_check(1, d, None, builtin_function("t2"), tol, tol / 2, max(2048, 8 * abs(d)))


def check_log_identity(d: int, tol: float = DEFAULT_TOLERANCES[2]) -> IdentityCheck:
    """Identity 2, the theorem for f = log: needs chi(-1) = +1, i.e. a
    fundamental discriminant d > 1.

    The direct sum is sum chi(k) log k, since sum chi(k) = 0, and the atom
    -1/(4n) of log's cosine coefficient gives -(sqrt(q)/2) L(1, chi) of the
    series.  Both sides are reported shifted by (sqrt(q)/2) L(1, chi), so lhs
    is R and rhs the correction series; abs_error and tail_bound stay the
    theorem's, free of the L-value's error.
    """
    if d <= 1:
        raise ValueError(
            f"identity 2 requires chi(-1) = +1 (fundamental discriminant d > 1); got d = {d}"
        )
    check = _theorem_check(2, d, None, builtin_function("log"), tol, tol, 4096)
    # the shift cancels from abs_error, so l_one's target stops above its 1e-13 floor
    target = min(max(tol / 8, 1e-12), 1e-9)
    shift = math.sqrt(d) / 2 * l_one(real_primitive_character(d), target).value
    remainder = check.lhs + shift
    return replace(
        check,
        lhs=remainder,
        rhs=check.rhs + shift,
        notes={"remainder_over_sqrt_q": remainder / math.sqrt(d)},
    )


def check_exp_identity(d: int, tol: float = DEFAULT_TOLERANCES[3]) -> IdentityCheck:
    """Identity 3, both parities: the theorem for f = exp."""
    return _theorem_check(3, d, None, builtin_function("exp"), tol, tol / 2, max(2048, 8 * abs(d)))


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
    beyond N is summed by class over the period lcm(q, b), which must not
    exceed MODULUS_CEILING; N starts at 4 lcm(q, b), and an explicit `terms`
    fixes N and obeys check_terms.
    """
    check_terms(terms)
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
    return _theorem_check(4, d, y, f, tol, tol / 2, 4 * period, terms)


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
