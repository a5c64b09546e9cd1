"""L(1, chi), the sine/cosine integrals, and the character-twisted series engine.

The L-value evaluator truncates sum chi(n)/n and recovers the discarded tail
by repeated summation by parts: the iterated partial sums of a non-principal
character are periodic, so each Abel step extracts an exact boundary term and
leaves a remainder one order smaller.  The same machinery serves any tail
sum_{n>N} chi(n) g(n) whose g is a combination of atoms coef/(n + c)^m (m = 1,
or c = 0), whose forward differences are exact (_atom_delta); a coef given as
one period of weights w[n mod b] twists the character into the periodic sequence
chi(n) w(n), of period lcm(q, b).  character_series is the one series engine:
a head to N, the exact Abel tail of the atoms, and the Polya-Vinogradov tail
bound of a remainder known only through an envelope C/n^p (optionally
Cesaro-averaged when there are no atoms).  L(1, chi), the theorem series and
the four identities all call it.

The values are periodic mod m, so the head sum_n v[n mod m] w_n a_n equals
sum_r v[r] A[r] with A[r] the weighted coefficients of class r.  The engine
takes the coefficients only as that fold (residue_fold, built once per
modulus and N by the caller, who may cache it), so a head costs O(m): the
classes are summed with their high parts exact and their low parts pairwise,
and the m products by math.fsum after an exact split of each (fold_head,
head_rounding_bound).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    "residue_fold",
    "fold_head",
    "head_rounding_bound",
    "coefficient_fold",
    "character_series",
    "check_tolerance",
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

ABEL_LEVELS = 6


class PeriodicSums:
    """Iterated partial sums of a mean-zero periodic sequence (one period given).

    Level j = 1..ABEL_LEVELS holds the periodic array U^j with mean mu_j, where
    U^1 are the partial sums of the input and U^{j+1} are the partial sums of
    U^j - mu_j.  max |U^j - mu_j| bounds the level-j fluctuation.
    """

    def __init__(self, period_values: np.ndarray):
        vals = np.asarray(period_values)
        if abs(complex(vals.sum())) > 1e-9:
            raise ValueError("sequence must have mean zero over a period (non-principal character)")
        self.period = len(vals)
        self._U: list[np.ndarray] = []
        self.means: list[complex] = []
        self.fluctuation: list[float] = []
        u = vals.astype(complex) if np.iscomplexobj(vals) else vals.astype(float)
        for _ in range(ABEL_LEVELS):
            U = np.cumsum(u)
            mu = U.mean()
            self._U.append(U)
            self.means.append(mu)
            u = U - mu
            self.fluctuation.append(float(np.abs(u).max()))

    def partial(self, level: int, n: int):
        """U^{level}_n for n >= 1 (1-based sequence index)."""
        return self._U[level - 1][(n - 1) % self.period]


@lru_cache(maxsize=4096)
def _power_difference(k: int, n: int, m: int) -> float:
    """Delta^k n^-m, rounded from the exact sum_i (-1)^i C(k, i)/(n + i)^m,
    whose terms cancel too many digits to be summed in floats."""
    return float(sum(Fraction((-1) ** i * math.comb(k, i), (n + i) ** m) for i in range(k + 1)))


def _atom_delta(coef, c: complex, k: int, n: int, m: int = 1) -> complex:
    """coef Delta^k g(n) for g(n) = 1/(n + c)^m, Delta g(n) = g(n) - g(n + 1): the
    product coef k!/prod_{j <= k} (n + j + c) for m = 1, else (c = 0) the exact form."""
    if m != 1:
        return coef * _power_difference(k, n, m)
    den = complex(1.0)
    for j in range(k + 1):
        den *= n + j + c
    return coef * float(math.factorial(k)) / den


def reciprocal_tail(sums: PeriodicSums, atoms: Sequence[tuple], start: int) -> tuple[complex, float]:
    """(value, error bound) for sum_{n > start} a_n g(n).

    a_n is the periodic sequence behind `sums`; g(n) = sum of coef/(n + c)^m
    over the (coef, c) or (coef, c, m) atoms (m = 1 when omitted), each with
    Re(c) >= 0, and c = 0 when m > 1.  The value is the sum of exact Abel
    boundary terms over the levels; the bound covers the remaining fluctuation
    term at the best level L, with sum_{n > N} |Delta^L g(n)| at most
    sum |coef| Delta^{L-1} n^-m (N + 1): 1/n^m is completely monotone, so the
    sum telescopes, and |n + c| >= n for m = 1.
    """
    sizes: dict[int, float] = {}  # sum |coef| per exponent m
    for coef, c, *power in atoms:
        m = power[0] if power else 1
        if m != 1 and c != 0:
            raise ValueError(f"a power atom 1/(n + c)^{m} needs c = 0, got c = {c}")
        sizes[m] = sizes.get(m, 0.0) + abs(coef)
    value, best = 0j, (math.inf, 0j)
    for level in range(1, len(sums.means) + 1):
        dg = sum(_atom_delta(coef, c, level - 1, start + 1, *power) for coef, c, *power in atoms)
        value += (sums.means[level - 1] - sums.partial(level, start)) * dg
        fluctuation = sums.fluctuation[level - 1]
        bound = sum(
            _atom_delta(fluctuation * size, 0.0, level - 1, start + 1, m).real
            for m, size in sizes.items()
        )
        if bound < best[0]:
            best = bound, value
    return best[1], best[0]


def _abel_groups(values: np.ndarray, atoms: Sequence[tuple]) -> list[tuple[PeriodicSums, list]]:
    """The atoms grouped by their period of weights, each group with its sums.

    Scalar atoms share the sums of `values`.  The atoms whose coef is one and
    the same array w of length b become unit atoms 1/(n + c)^m over the twisted
    sequence values[n % m] w[n % b], of period lcm(m, b); a period above
    MODULUS_CEILING is rejected before that sequence is allocated.
    """
    groups: dict[int | None, tuple[np.ndarray | None, list]] = {}
    for coef, *rest in atoms:
        if np.ndim(coef) == 0:
            groups.setdefault(None, (None, []))[1].append((coef, *rest))
        else:
            groups.setdefault(id(coef), (coef, []))[1].append((1.0, *rest))
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


_UNIT = 2.0**-53  # unit roundoff of float64


def _split_scale(max_term: float, rows: int) -> float:
    """A power of two sigma >= (rows + 2) max_term: the high parts
    (sigma + x) - sigma of terms |x| <= max_term are multiples of 2^-53 sigma,
    so any sum of `rows` of them is exact (Rump, Ogita and Oishi's ExtractVector)."""
    return math.ldexp(1.0, math.frexp(max_term)[1] + (rows + 1).bit_length())


def residue_fold(coeffs: np.ndarray, m: int, averaged: bool = False) -> np.ndarray:
    """The real coefficients a_1..a_L folded by n mod m: a (2, m) array whose
    column r sums to A[r] = sum_{n <= L, n = r mod m} w_n a_n.

    w_n = 1, except that with `averaged` (L = 2N even) w_n = (2N - n + 1)/(N + 1)
    for n > N, so that sum_r v[r] A[r] is the mean of the partial sums S_N ...
    S_2N of v[n mod m] a_n.  Each weighted term x_n is split exactly into a
    high part, a multiple of 2^-53 sigma (_split_scale), and a low part
    |x_n - high| <= min(|x_n|, 2^-53 sigma).  Row 0 holds the class sums of
    the high parts, which are exact in any order; row 1 those of the low
    parts, each class summed pairwise along a contiguous row of a transposed
    copy.  The result is a new array, never a view of coeffs.
    """
    length = len(coeffs)
    rows = length // m + 1  # n = 0 .. length
    terms = np.zeros(rows * m)
    terms[1 : length + 1] = coeffs
    if averaged:
        n_terms = length // 2
        upper = terms[n_terms + 1 : length + 1]
        upper *= np.arange(n_terms, 0, -1)
        upper /= n_terms + 1
    sigma = _split_scale(float(np.abs(terms).max()), rows)
    high = terms + sigma
    high -= sigma
    terms -= high  # exact: the low parts
    folded = np.empty((2, m))
    folded[0] = high.reshape(rows, m).sum(axis=0)
    del high
    folded[1] = terms.reshape(rows, m).T.copy().sum(axis=1)
    return folded


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, Veltkamp split)."""

    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def fold_head(values: np.ndarray, folded: np.ndarray) -> float | complex:
    """sum_r values[r] (folded[0, r] + folded[1, r]), real and imaginary parts apart.

    Each product with a high part is split exactly into its rounded value and
    its error; the rounded values go to math.fsum together with one pairwise
    sum of the errors and of the products with the low parts.  Both of those
    are second order in the rounding unit next to the head, so the head is
    the correctly rounded sum up to them (head_rounding_bound).
    """

    def dot(v):
        products, errors = _two_product(v, folded[0])
        rest = errors.sum() + (v * folded[1]).sum()
        return math.fsum(products.tolist() + [float(rest)])

    if np.iscomplexobj(values):
        return complex(dot(values.real), dot(values.imag))
    return dot(values)


def _pairwise_depth(count: int) -> int:
    """A bound on the additions any term passes through in NumPy's pairwise sum
    of `count` terms: blocks of at most 128 are summed in 8 running sums of 16
    terms (15 additions), combined in 3, then up to 7 leftover terms one by
    one; a longer run is halved recursively (halves rounded to multiples of
    8), one addition per level."""
    depth = 25
    while count > 128:
        count = (count + 1) // 2 + 8
        depth += 1
    return depth


def head_rounding_bound(values: np.ndarray, coeffs: np.ndarray, averaged: bool = False) -> float:
    """A bound on the rounding of fold_head(values, residue_fold(coeffs, m,
    averaged)), m = len(values), against the exact sum it stands for, for each
    of its real and imaginary parts.  With V = max|values|, S = sum |a_n| (the
    weights are at most 1), L the number of coefficients, sigma the split
    scale and Lo = min(S, L 2^-53 sigma) a bound on the low parts' sum of
    magnitudes, it is

        V (u S + 2u S [Cesaro weights] + gamma_h Lo + gamma_k (2u S + (1 + gamma_h) Lo))

    with u = 2^-53, gamma_j = j u/(1 - j u), h = _pairwise_depth(L // m + 1)
    for the low parts' class sums and k = _pairwise_depth(m) + 2 for the sum
    of the product errors and low-part products: one final rounding, the
    weights, and two second-order terms.  A last factor 1 + 2^-50 covers the
    products of small terms left out.  The coefficients are taken as exact.
    """
    coeffs = np.abs(coeffs)
    m = len(values)
    rows = len(coeffs) // m + 1
    total = math.fsum(coeffs.tolist())
    low = min(total, len(coeffs) * _UNIT * _split_scale(float(coeffs.max(initial=0.0)), rows))

    def gamma(j):
        return j * _UNIT / (1.0 - j * _UNIT)

    rows_gamma, rest_gamma = gamma(_pairwise_depth(rows)), gamma(_pairwise_depth(m) + 2)
    spread = (3.0 if averaged else 1.0) * _UNIT * total + rows_gamma * low
    spread += rest_gamma * (2.0 * _UNIT * total + (1.0 + rows_gamma) * low)
    return float(np.abs(values).max()) * spread * (1.0 + 2.0**-50)


def coefficient_fold(
    coefficients: Callable[[int], np.ndarray],
) -> Callable[[int, int, bool], np.ndarray]:
    """The fold callable of character_series for `coefficients(L)` = a_1..a_L:
    (m, N, averaged) -> residue_fold of a_1..a_L, L = 2N if averaged else N."""

    def fold(m: int, n_terms: int, averaged: bool) -> np.ndarray:
        return residue_fold(coefficients(2 * n_terms if averaged else n_terms), m, averaged)

    return fold


def check_tolerance(value: float, name: str) -> None:
    """Raise ValueError naming `name` unless value is finite and at least
    sys.float_info.min, the one rule for every tolerance and target accuracy:
    the engine halves its target, and a subnormal target halves to 0."""
    if not (math.isfinite(value) and value >= sys.float_info.min):
        raise ValueError(f"{name} must be finite and > 0 (at least {sys.float_info.min}), got {value}")


def character_series(
    values: np.ndarray,
    fold: Callable[[int, int, bool], np.ndarray],
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
    `fold(m, N, averaged)` returns the coefficients a_n folded by n mod m as
    residue_fold does (coefficient_fold builds it from a coefficient
    function).  The coefficients are modelled as
    a_n = sum coef/(n + c)^e over the atoms (coef, c) or (coef, c, e), as in
    reciprocal_tail, plus a remainder r_n with
    |r_n| <= C/n^p, envelope = (C, p).  A coef is a scalar, or one period of
    weights (a 1-D array w of length b) meaning w[n % b]/(n + c)^e.  With atoms,
    each sequence the Abel tail runs over (`values`, and values[n % m] w[n % b]
    of period lcm(m, b) <= MODULUS_CEILING for each weights array) must have
    mean zero.

    The head sums prefactor * values[n % m] a_n to N; with `averaged` (legal
    only without atoms) the value is instead the Cesaro mean of the partial
    sums over [N, 2N] and the remainder bound is doubled.  Either way the head
    is fold_head over the m residue classes.  The atoms' tail is
    the exact Abel correction; the remainder's tail is bounded by
    2 K C |prefactor| / (N + 1)^p, K = partial_sum_bound(m).  N is the least
    integer >= start whose remainder bound meets the target (half the target
    with atoms), clamped to the cap (cap // 2, but at least 1, when averaged);
    N then doubles, clamped to the cap, while |prefactor| times the Abel bound
    exceeds half the target.  An explicit `terms` fixes N.  The bound covers
    truncation only; head_rounding_bound bounds the head's rounding.
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
    correction, abel_bound = _abel_tail(groups, n_terms)  # (0, 0) without atoms
    while terms is None and abs(prefactor) * abel_bound > target / 2 and n_terms < cap:
        n_terms = min(2 * n_terms, cap)
        correction, abel_bound = _abel_tail(groups, n_terms)
    head = fold_head(values, fold(len(values), n_terms, averaged))
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
    The bound adds 1e-13 for the head's rounding, so target_accuracy must be
    finite and above that floor; the engine's target is 2 (target - 1e-13).
    """
    slack = 1e-13  # floating-point summation of the head
    if not (math.isfinite(target_accuracy) and target_accuracy > slack):
        raise ValueError(f"target_accuracy must be finite and > 0, above the floor {slack} "
                         f"the bound keeps for the head's rounding; got {target_accuracy}")
    if chi.is_principal:
        raise ValueError("L(s, chi_0) has a pole at s = 1 and is not representable")
    real = chi.is_real
    values = chi.values_real() if real else chi.values_complex()
    value, n_terms, bound = character_series(
        values,
        coefficient_fold(lambda count: 1.0 / np.arange(1, count + 1)),
        1.0,
        2.0 * (target_accuracy - slack),  # the engine spends half its target on the Abel tail
        max(1024, 4 * chi.modulus),
        2**22,
        atoms=[(1.0, 0.0)],
    )
    value = float(value.real) if real else complex(value)
    return LValue(value, n_terms, float(bound + slack), chi.label)
