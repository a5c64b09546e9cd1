"""L(1, chi), the sine/cosine integrals, and the character-twisted series engine.

The L-value evaluator truncates sum chi(n)/n and recovers the discarded tail
by repeated summation by parts: the iterated partial sums of a non-principal
character are periodic, so each Abel step extracts an exact boundary term and
leaves a remainder one order smaller.  The same machinery serves any tail
sum_{n>N} chi(n) g(n) whose g is a combination of atoms coef/(n + c), since the
forward differences of such atoms have closed forms; a coef given as one
period of weights w[n mod b] twists the character into the periodic sequence
chi(n) w(n), of period lcm(q, b).  character_series is the one series engine:
a head to N, the exact Abel tail of the atoms, and the Polya-Vinogradov tail
bound of a remainder known only through an envelope C/n^p (optionally
Cesaro-averaged when there are no atoms).  L(1, chi), the theorem series and
the four identities all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .characters import MODULUS_CEILING, DirichletCharacter

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
    "character_series",
    "partial_sum_bound",
]

EULER_GAMMA = 0.5772156649015328606

# --- sine and cosine integrals ----------------------------------------------
#
# One vectorized core: the power series below _SERIES_CUTOFF, the continued
# fraction for E1(ix) (modified Lentz) from it on.  The cutoff is low because
# the alternating series loses about e^x/sqrt(2 pi x) ulps to cancellation;
# the fraction needs 54 steps at x = 3.5 and fewer beyond.

_SERIES_CUTOFF = 3.5


def _series(x: np.ndarray, j: int, term: np.ndarray) -> np.ndarray:
    """sum_i term_i / (j + 2i), term_{i+1} = -term_i x^2 / ((j + 2i + 1)(j + 2i + 2)).

    (j, term) = (1, x) gives Si(x) and (2, x^2/2) gives Cin(x) = gamma + ln x
    - Ci(x).  Each element sums while its |term| > 1e-18.
    """
    total = np.zeros_like(x)
    step = -x * x
    live = np.abs(term) > 1e-18
    while live.any():
        total = np.where(live, total + term / j, total)
        term = term * (step / ((j + 1) * (j + 2)))
        j += 2
        live &= np.abs(term) > 1e-18
    return total


def _e1_ix(x: np.ndarray) -> np.ndarray:
    """e^{-ix} times the continued fraction of E1(ix): Ci(x) = -Re and
    pi/2 - Si(x) = -Im.  Each element stops at its own |delta - 1| < 1e-16;
    converged elements leave the working arrays, which shrink one at a time."""
    b = 1.0 + 1j * x
    c = np.full_like(b, 1e308)
    d = 1.0 / b
    out = d.copy()
    h = out  # h is out itself until the first compaction
    live = np.arange(len(x))
    for i in range(1, 300):
        if not len(live):
            break
        a = -float(i * i)
        b += 2.0
        d *= a
        d += b
        np.divide(1.0, d, out=d)
        np.divide(a, c, out=c)
        c += b
        delta = c * d
        h *= delta
        delta -= 1.0
        done = np.abs(delta) < 1e-16
        del delta  # freed before the compaction copies
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live = live[keep]
            b = b[keep]
            c = c[keep]
            d = d[keep]
            h = h[keep]
    out[live] = h
    return out * np.exp(-1j * x)


def si_complement_array(x) -> np.ndarray:
    """Vectorized pi/2 - Si(x) for x >= 0, without cancellation for large x."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    xs = x[small]
    if (xs < 0).any():
        raise ValueError(f"the array sine integrals require x >= 0, got {xs[xs < 0][0]}")
    out[small] = math.pi / 2 - _series(xs, 1, xs)
    large = ~small
    out[large] = -_e1_ix(x[large]).imag
    return out


def sine_integral_array(x) -> np.ndarray:
    """Vectorized Si(x) = integral_0^x sin(u)/u du for x >= 0."""
    return math.pi / 2 - si_complement_array(x)


def cosine_integral_array(x) -> np.ndarray:
    """Vectorized Ci(x) = gamma + ln x - integral_0^x (1 - cos u)/u du for x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    xs = x[small]
    if (xs <= 0).any():
        raise ValueError(f"cosine integral requires x > 0, got {xs[xs <= 0][0]}")
    out[small] = EULER_GAMMA + np.log(xs) - _series(xs, 2, xs * xs / 2.0)
    large = ~small
    out[large] = -_e1_ix(x[large]).real
    return out


def sine_integral(x: float) -> float:
    """Si(x) to within 1e-15, with the odd extension for negative arguments."""
    if x < 0:
        return -sine_integral(-x)
    return float(sine_integral_array([x])[0])


def cosine_integral(x: float) -> float:
    """Ci(x) for x > 0, to within 1.1e-15 max(1, |Ci(x)|)."""
    return float(cosine_integral_array([x])[0])


def si_complement(x: float) -> float:
    """pi/2 - Si(x) to within 1e-15, without cancellation for large x."""
    if x < 0:
        return math.pi / 2 - sine_integral(x)
    return float(si_complement_array([x])[0])


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


def _abel_groups(values: np.ndarray, atoms: Sequence[tuple]) -> list[tuple[PeriodicSums, list]]:
    """The atoms grouped by their period of weights, each group with its sums.

    Scalar atoms share the sums of `values`.  The atoms whose coef is one and
    the same array w of length b become unit atoms 1/(n + c) over the twisted
    sequence values[n % m] w[n % b], of period lcm(m, b); a period above
    MODULUS_CEILING is rejected before that sequence is allocated.
    """
    groups: dict[int | None, tuple[np.ndarray | None, list]] = {}
    for coef, c in atoms:
        if np.ndim(coef) == 0:
            groups.setdefault(None, (None, []))[1].append((coef, c))
        else:
            groups.setdefault(id(coef), (coef, []))[1].append((1.0, c))
    m = len(values)
    out = []
    for weights, group in groups.values():
        period_values = values
        if weights is not None:
            b = len(weights)
            period = math.lcm(m, b)
            if period > MODULUS_CEILING:
                raise ValueError(
                    f"coefficient weights of period {b} make the series period "
                    f"lcm({m}, {b}) = {period} exceed the modulus ceiling {MODULUS_CEILING}"
                )
            r = np.arange(period)
            period_values = values[r % m] * weights[r % b]
        out.append((PeriodicSums(np.roll(period_values, -1)), group))  # entry n - 1 holds n
    return out


def _abel_tail(groups: list[tuple[PeriodicSums, list]], start: int) -> tuple[complex, float]:
    """reciprocal_tail summed over the atom groups: (value, error bound)."""
    parts = [reciprocal_tail(sums, group, start) for sums, group in groups]
    return sum(value for value, _ in parts), sum(bound for _, bound in parts)


def character_series(
    values: np.ndarray,
    coefficients: Callable[[int], np.ndarray],
    prefactor: complex,
    target: float,
    start: int,
    cap: int,
    atoms: Sequence[tuple] = (),
    envelope: tuple[float, int] = (0.0, 1),
    terms: int | None = None,
    averaged: bool = False,
) -> tuple[complex, int, float]:
    """(value, N, tail bound) for prefactor * sum_{n >= 1} values[n % m] a_n.

    `values` is one period of length m, indexed by n mod m, and
    `coefficients(M)` returns a_1..a_M.  The coefficients are modelled as
    a_n = sum coef/(n + c) over the (coef, c) atoms plus a remainder r_n with
    |r_n| <= C/n^p, envelope = (C, p).  A coef is a scalar, or one period of
    weights (a 1-D array w of length b) meaning w[n % b]/(n + c).  With atoms,
    each sequence the Abel tail runs over (`values`, and values[n % m] w[n % b]
    of period lcm(m, b) <= MODULUS_CEILING for each weights array) must have
    mean zero.

    The head sums prefactor * values[n % m] a_n to N; with `averaged` (legal
    only without atoms) the value is instead the Cesaro mean of the partial
    sums over [N, 2N] and the remainder bound is doubled.  The atoms' tail is
    the exact Abel correction; the remainder's tail is bounded by
    2 K C |prefactor| / (N + 1)^p, K = partial_sum_bound(m).  N is the least
    integer >= start whose remainder bound meets the target (half the target
    with atoms), clamped to the cap (cap // 2, but at least 1, when averaged);
    N then doubles, clamped to the cap, while |prefactor| times the Abel bound
    exceeds half the target.  An explicit `terms` fixes N.
    """
    if averaged and atoms:
        raise ValueError("Cesaro averaging applies only to series without atoms")
    groups = _abel_groups(values, atoms)
    c, p = envelope
    weight = (4.0 if averaged else 2.0) * partial_sum_bound(len(values)) * c * abs(prefactor)
    if terms is not None:
        n_terms = int(terms)
    else:
        remainder_target = target / 2 if atoms else target
        need = (weight / remainder_target) ** (1.0 / p)  # inf for a tiny target: clamp before ceil
        n_terms = min(max(start, math.ceil(min(need, cap))), cap)
        if averaged:
            n_terms = max(1, min(n_terms, cap // 2))
    correction, abel_bound = 0.0, 0.0
    if atoms:
        correction, abel_bound = _abel_tail(groups, n_terms)
        while terms is None and abs(prefactor) * abel_bound > target / 2 and n_terms < cap:
            n_terms = min(2 * n_terms, cap)
            correction, abel_bound = _abel_tail(groups, n_terms)
    length = 2 * n_terms if averaged else n_terms
    coeffs = coefficients(length)  # first: generating them may be the memory peak
    n = np.arange(1, length + 1)
    twisted = values[n % len(values)] * coeffs
    head = np.cumsum(twisted)[n_terms - 1 :].mean() if averaged else twisted.sum()
    bound = abs(prefactor) * abel_bound + weight / float(n_terms + 1) ** p
    return prefactor * (head + correction), n_terms, bound


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
    by parts over complete periods (character_series with the one atom 1/n);
    N starts at max(1024, 4q) and is doubled until the rigorous tail bound fits.
    """
    if chi.is_principal:
        raise ValueError("L(s, chi_0) has a pole at s = 1 and is not representable")
    real = chi.is_real
    values = chi.values_real() if real else chi.values_complex()
    slack = 1e-13  # floating-point summation of the head
    value, n_terms, bound = character_series(
        values,
        lambda count: 1.0 / np.arange(1, count + 1),
        1.0,
        2.0 * (target_accuracy - slack),  # the engine spends half its target on the Abel tail
        max(1024, 4 * chi.modulus),
        2**22,
        atoms=[(1.0, 0.0)],
    )
    value = float(value.real) if real else complex(value)
    return LValue(value, n_terms, float(bound + slack), chi.label)
