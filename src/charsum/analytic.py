"""L(1, chi), the sine/cosine integrals, and character-twisted tail summation.

The L-value evaluator truncates sum chi(n)/n and recovers the discarded tail
by repeated summation by parts: the iterated partial sums of a non-principal
character are periodic, so each Abel step extracts an exact boundary term and
leaves a remainder one order smaller.  The same machinery serves any tail
sum_{n>N} chi(n) g(n) whose g is a combination of atoms 1/(n + c), since the
forward differences of such atoms have closed forms.  abel_series is the one
head-plus-tail engine: L(1, chi), the theorem series for functions with
declared atoms, and identities 3 and 4 all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .characters import DirichletCharacter

__all__ = [
    "LValue",
    "l_one",
    "sine_integral",
    "cosine_integral",
    "si_complement",
    "sine_integral_array",
    "cosine_integral_array",
    "si_complement_array",
    "PeriodicSums",
    "reciprocal_tail",
    "abel_series",
    "partial_sum_bound",
]

EULER_GAMMA = 0.5772156649015328606

# --- sine and cosine integrals ----------------------------------------------
#
# Power series up to x = 8; beyond that the auxiliary functions are evaluated
# through the continued fraction for E1(ix) (modified Lentz), which converges
# rapidly and avoids the divergence of the plain asymptotic series.

_SERIES_CUTOFF = 8.0


def _si_cin_series(x: float) -> tuple[float, float]:
    """(Si(x), Cin(x)) by power series; x in [0, 8]."""
    si = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18:
        si += term / (2 * k + 1)
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
        k += 1
    cin = 0.0
    term = x * x / 2.0
    k = 1
    while abs(term) > 1e-18:
        cin += term / (2 * k)
        term *= -x * x / ((2 * k + 1) * (2 * k + 2))
        k += 1
    return si, cin


def _e1_ix(x: float, maxiter: int = 300) -> complex:
    """e^{-ix} times the continued fraction of E1(ix): gives
    Ci(x) = -Re, Si(x) = pi/2 + Im.  Requires x >= 2 for fast convergence."""
    b = complex(1.0, x)
    c = complex(1e308, 0.0)
    d = 1.0 / b
    h = d
    for i in range(1, maxiter):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * complex(math.cos(x), -math.sin(x))


def sine_integral(x: float) -> float:
    """Si(x) = integral_0^x sin(u)/u du, to about 1e-15 absolute.

    Odd extension for negative arguments; Si(x) -> pi/2 as x -> infinity.
    """
    if x < 0:
        return -sine_integral(-x)
    if x == 0.0:
        return 0.0
    if x <= _SERIES_CUTOFF:
        return _si_cin_series(x)[0]
    return math.pi / 2 + _e1_ix(x).imag


def cosine_integral(x: float) -> float:
    """Ci(x) = gamma + ln x - integral_0^x (1 - cos u)/u du, for x > 0."""
    if x <= 0:
        raise ValueError(f"cosine integral requires x > 0, got {x}")
    if x <= _SERIES_CUTOFF:
        return EULER_GAMMA + math.log(x) - _si_cin_series(x)[1]
    return -_e1_ix(x).real


def si_complement(x: float) -> float:
    """pi/2 - Si(x), computed without cancellation for large x."""
    if x <= _SERIES_CUTOFF:
        return math.pi / 2 - sine_integral(x)
    return -_e1_ix(x).imag


def _e1_ix_array(x: np.ndarray) -> np.ndarray:
    """Vectorized counterpart of _e1_ix for x >= 8."""
    b = 1.0 + 1j * x
    c = np.full_like(b, 1e308)
    d = 1.0 / b
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for i in range(1, 300):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = np.where(converged, h, h * delta)
        converged |= np.abs(delta - 1.0) < 1e-16
        if converged.all():
            break
    return h * np.exp(-1j * x)


def _split_small_large(x: np.ndarray):
    small = x < _SERIES_CUTOFF
    return small, ~small


def si_complement_array(x) -> np.ndarray:
    """Vectorized pi/2 - Si(x) for positive x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small, large = _split_small_large(x)
    if small.any():
        out[small] = [si_complement(float(v)) for v in x[small]]
    if large.any():
        out[large] = -_e1_ix_array(x[large]).imag
    return out


def sine_integral_array(x) -> np.ndarray:
    """Vectorized Si(x) for positive x."""
    return math.pi / 2 - si_complement_array(x)


def cosine_integral_array(x) -> np.ndarray:
    """Vectorized Ci(x) for positive x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small, large = _split_small_large(x)
    if small.any():
        out[small] = [cosine_integral(float(v)) for v in x[small]]
    if large.any():
        out[large] = -_e1_ix_array(x[large]).real
    return out


# --- character-twisted tails by repeated summation by parts ------------------


class PeriodicSums:
    """Iterated partial sums of a mean-zero periodic sequence (one period given).

    Level j holds the periodic array U^j with mean mu_j, where U^1 are the
    partial sums of the input and U^{j+1} are the partial sums of U^j - mu_j.
    max |U^j - mu_j| bounds the level-j fluctuation.
    """

    def __init__(self, period_values: np.ndarray, levels: int = 6):
        vals = np.asarray(period_values)
        if abs(complex(vals.sum())) > 1e-9:
            raise ValueError("sequence must have mean zero over a period (non-principal character)")
        self.period = len(vals)
        self.levels = levels
        self._U: list[np.ndarray] = []
        self.means: list[complex] = []
        self.fluctuation: list[float] = []
        u = vals.astype(complex) if np.iscomplexobj(vals) else vals.astype(float)
        for _ in range(levels):
            U = np.cumsum(u)
            mu = U.mean()
            self._U.append(U)
            self.means.append(mu)
            u = U - mu
            self.fluctuation.append(float(np.abs(u).max()))

    def partial(self, level: int, n: int):
        """U^{level}_n for n >= 1 (1-based sequence index)."""
        return self._U[level - 1][(n - 1) % self.period]


def _atom_delta(c: complex, k: int, n: int) -> complex:
    """Delta^k g(n) for g(n) = 1/(n+c), with Delta g(n) = g(n) - g(n+1)."""
    num = float(math.factorial(k))
    den = complex(1.0)
    for j in range(k + 1):
        den *= n + j + c
    return num / den


def reciprocal_tail(
    sums: PeriodicSums,
    atoms: list[tuple[complex, complex]],
    start: int,
) -> tuple[complex, float]:
    """(value, error bound) for sum_{n > start} a_n g(n).

    a_n is the periodic sequence behind `sums`; g(n) = sum of coef/(n + c)
    over the given (coef, c) atoms, each with Re(c) >= 0 and |n + c| >= n.
    The value is the sum of exact Abel boundary terms over all levels; the
    bound covers the remaining fluctuation term at the deepest level.
    """
    value = 0j
    best = math.inf
    best_value = 0j
    for level in range(1, sums.levels + 1):
        dg = sum(coef * _atom_delta(c, level - 1, start + 1) for coef, c in atoms)
        value += (sums.means[level - 1] - sums.partial(level, start)) * dg
        # remainder after this level: |u^level| * sum|coef| * (L-1)!/prod(start+j)
        prod = 1.0
        for j in range(1, level + 1):
            prod *= start + j
        bound = sums.fluctuation[level - 1] * sum(abs(coef) for coef, _ in atoms) \
            * math.factorial(level - 1) / prod
        if bound < best:
            best = bound
            best_value = value
    return best_value, best


def abel_series(
    values: np.ndarray,
    coefficients: Callable[[int], np.ndarray],
    atoms: Sequence[tuple[complex, complex]],
    budget: float,
    start: int,
    cap: int,
    terms: int | None = None,
) -> tuple[complex, int, float, int]:
    """(value, N, tail bound, levels) for sum_{n >= 1} values[n % p] g(n).

    `values` is one mean-zero period of length p, indexed by n mod p;
    g(n) = sum coef / (n + c) over the (coef, c) atoms, and
    `coefficients(N)` returns g(1..N) for the head.  N starts at
    min(start, cap) and doubles, clamped to the cap, until the Abel tail
    bound is <= budget; an explicit `terms` fixes N.  The value is the head
    sum plus the exact Abel correction for the tail beyond N.
    """
    sums = PeriodicSums(np.roll(values, -1))  # entry n - 1 holds the value at n
    n_terms = min(start, cap) if terms is None else int(terms)
    correction, bound = reciprocal_tail(sums, atoms, n_terms)
    while terms is None and bound > budget and n_terms < cap:
        n_terms = min(2 * n_terms, cap)
        correction, bound = reciprocal_tail(sums, atoms, n_terms)
    n = np.arange(1, n_terms + 1)
    head = (values[n % len(values)] * coefficients(n_terms)).sum()
    return head + correction, n_terms, bound, sums.levels


# --- L(1, chi) ----------------------------------------------------------------


@dataclass(frozen=True)
class LValue:
    """Truncated-plus-accelerated evaluation of L(1, chi)."""

    value: float | complex
    terms_used: int
    tail_bound: float
    character_label: str


def partial_sum_bound(q: int) -> float:
    """Polya-Vinogradov bound sqrt(q) ln q + 1 on character partial sums."""
    return math.sqrt(q) * math.log(q) + 1.0 if q > 1 else 1.0


def l_one(chi: DirichletCharacter, target_accuracy: float = 1e-9) -> LValue:
    """L(1, chi) = sum chi(n)/n for a non-principal character.

    Direct partial sum to N, with the tail recovered by repeated summation
    by parts over complete periods (abel_series); N starts at max(1024, 4q)
    and is doubled until the rigorous tail bound fits.
    """
    if chi.is_principal:
        raise ValueError("L(s, chi_0) has a pole at s = 1 and is not representable")
    real = chi.is_real
    values = chi.values_real() if real else chi.values_complex()
    slack = 1e-13  # floating-point summation of the head
    value, n_terms, bound, _ = abel_series(
        values,
        lambda count: 1.0 / np.arange(1, count + 1),
        [(1.0, 0.0)],
        target_accuracy - slack,
        max(1024, 4 * chi.modulus),
        2**22,
    )
    value = float(value.real) if real else complex(value)
    return LValue(value, n_terms, float(bound + slack), chi.label)
