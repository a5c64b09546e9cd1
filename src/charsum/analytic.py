"""L(1, chi), the sine/cosine integrals, and the character-twisted series engine.

character_series is the one series engine: a head to N, the tail of the
coefficient atoms, and the Polya-Vinogradov tail bound of a remainder known
only through an envelope C/n^p (optionally Cesaro-averaged when there are no
atoms).  L(1, chi), the theorem series and the four identities all call it.
An atom is coef/(n + c)^m (m = 1, or c = 0) or coef ln(n)/n; a coef given as
one period of weights w[n mod b] twists the character into the periodic
sequence chi(n) w(n), of period P = lcm(q, b).  The atoms' tail beyond N is
summed per residue class n = N + r mod P by Euler-Maclaurin summation with a
rigorous remainder; the class sums, folded by n mod q (reciprocal_tail), make
a kernel that does not depend on the character, so a character's tail is one
length-q dot product and N one choice per atom set, modulus and target.

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
    "LOG_ATOM",
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


# --- character-twisted tails: Euler-Maclaurin sums per residue class ---------
#
# The tail beyond N of an atom g splits into the classes n = N + r, r = 1..P,
# of the series period P, and each class sum is (DLMF 2.10.1, 24.2)
#
#   sum_{j >= 0} g(a + jP) = (1/P) int_a^inf g + g(a)/2
#                            - sum_{k <= K} B_2k/(2k)! P^(2k-1) g^(2k-1)(a) + R,
#   |R| <= |B_2K|/(2K)! P^(2K-1) int_a^inf |g^(2K)|,  |B_2K|/(2K)! = 2 zeta(2K)/(2 pi)^2K.
#
# A divergent integral (1/n, ln(n)/n) becomes -(G(a) - G(N))/P for an
# antiderivative G; the constant dropped from every class multiplies the sum
# of the sequence over a period, which must be 0 (PeriodicSums).

LOG_ATOM = "log"  # the exponent slot of an atom coef ln(n)/n, whose c is 0
EM_TERMS = 6  # K
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730))  # B_2 .. B_2K
_EM = [float(b / math.factorial(2 * k)) for k, b in enumerate(_BERNOULLI, 1)]
_EM_REMAINDER = abs(_EM[-1])
_ODD = 2 * EM_TERMS - 1
_HARMONIC = [math.fsum(1.0 / i for i in range(1, j + 1)) for j in range(2 * EM_TERMS + 1)]
# the log atom's B_2k/(2k)! (2k - 1)!, and the same times H_(2k-1)
_LOG_EM = [b * math.factorial(2 * k - 1) for k, b in enumerate(_EM, 1)]
_LOG_EM_H = [b * _HARMONIC[2 * k - 1] for k, b in enumerate(_LOG_EM, 1)]


def _odd_series(coeffs: Sequence[float], x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k - 1] x^(2k - 1), by Horner's rule in x^2."""
    y = x * x
    total = coeffs[-1]
    for coef in coeffs[-2::-1]:
        total = total * y + coef
    return total * x


@lru_cache(maxsize=None)
def _power_coeffs(m: int) -> tuple[float, ...]:
    """B_2k/(2k)! (m)_(2k-1) for k = 1..K, (m)_j the rising factorial."""
    return tuple(b * math.prod(range(m, m + 2 * k - 1)) for k, b in enumerate(_EM, 1))


def _class_sums(c: complex, power, n_terms: int, period: int) -> np.ndarray:
    """sum_{j >= 0} g(a + jP) for the classes a = N + r, r = 1..P, entry i
    holding the class a = i mod P, less a constant common to every class and
    within _remainder(power, P, N + 1) each, for g = 1/(n + c)^m or ln(n)/n
    (power LOG_ATOM).  With x = P/(a + c), the Euler-Maclaurin terms are
    g(a) sum_k B_2k/(2k)! (m)_(2k-1) x^(2k-1) for a power, since
    g^(k)(t) = (-1)^k (m)_k/(t + c)^(m + k), and for ln(t)/t, whose
    g^(k)(t) = (-1)^k k! (ln t - H_k)/t^(k + 1), they are
    sum_k B_2k/(2k)! (2k - 1)! (ln a - H_(2k-1)) x^(2k-1)/a.  G(a) - G(N) is
    formed from log1p(r/N), so the common ln N cancels exactly; a power's
    convergent integral drops N^(1-m)/((m - 1) P) the same way (expm1), so
    every entry is about as small as g(a)."""
    r = (np.arange(period) - (n_terms + 1)) % period + 1.0
    a = n_terms + r
    if power == LOG_ATOM:
        shift = np.log1p(r / n_terms)  # ln a - ln N; G = (ln t)^2/2
        integral = -shift * (2.0 * math.log(n_terms) + shift) / (2.0 * period)
        x = period / a
        terms = np.log(a) * (0.5 + _odd_series(_LOG_EM, x)) - _odd_series(_LOG_EM_H, x)
        return integral + terms / a
    t = a + c
    if power == 1:
        integral = -np.log1p((r + c) / n_terms) / period  # G = ln(t + c)
    else:
        integral = np.expm1((1 - power) * np.log1p(r / n_terms)) / ((power - 1) * period)
        integral *= n_terms ** (1.0 - power)
    return integral + t**-power * (0.5 + _odd_series(_power_coeffs(power), period / t))


def _remainder(power, period: int, a: float) -> float:
    """|B_2K|/(2K)! P^(2K-1) int_a^inf |g^(2K)|, sound for every a >= 1.

    For 1/(t + c)^m with Re c >= 0, |t + c| >= t gives
    |g^(2K)(t)| <= (m)_2K/t^(m + 2K), whose integral is (m)_(2K-1)/a^(m + 2K - 1).
    For ln(t)/t, g^(2K) changes sign once, at t0 = e^(H_2K): the integral is
    -g^(2K-1)(a) from t0 on, and g^(2K-1)(a) - 2 g^(2K-1)(t0) below it.
    """
    x = (period / a) ** _ODD
    if power != LOG_ATOM:
        return _EM_REMAINDER * math.prod(range(power, power + _ODD)) * x / a**power
    core = (math.log(a) - _HARMONIC[_ODD]) * x / a  # -P^(2K-1) g^(2K-1)(a)/(2K-1)!
    if math.log(a) < _HARMONIC[-1]:  # ln t0 - H_(2K-1) = 1/(2K)
        core = -core + period**_ODD / (EM_TERMS * math.exp((_ODD + 1) * _HARMONIC[-1]))
    return _EM_REMAINDER * math.factorial(_ODD) * core


def _atom_terms(bounds: Sequence[tuple], share: float, cap: int) -> int:
    """The least N <= cap (at least 1) at which scale * _remainder(power, P, N + 1)
    meets `share` for each (scale, power, P) in `bounds`, solved from the closed
    form of the remainder (for ln(n)/n, by fixed-point iteration on ln(N + 1)
    from t0 = e^(H_2K) up) and stepped up where rounding leaves it short."""
    n_terms = 1
    for scale, power, period in bounds:
        if scale == 0.0:
            continue
        log_c = math.log(scale * _EM_REMAINDER / share) + _ODD * math.log(period)
        if power == LOG_ATOM:
            log_c += math.log(math.factorial(_ODD))
            log_a = max(_HARMONIC[-1], log_c / (_ODD + 1))
            for _ in range(8):  # contracts by 1/(2K (ln a - H_(2K-1))) per step
                log_a = max(_HARMONIC[-1], (log_c + math.log(log_a - _HARMONIC[_ODD])) / (_ODD + 1))
        else:
            log_a = (log_c + math.log(math.prod(range(power, power + _ODD)))) / (power + _ODD)
        a = math.ceil(math.exp(min(log_a, math.log(cap + 1.0))))
        while a <= cap and scale * _remainder(power, period, a) > share:
            a += 1
        n_terms = max(n_terms, a - 1)
    return min(n_terms, cap)


class PeriodicSums:
    """The sum and the absolute sum over one period of the twisted sequence
    values[n mod m] w[n mod b], of period lcm(m, b) (w = 1 without weights).

    The sum must be 0, which holds for a non-principal character: each class
    sum of the tail kernel drops a constant that the tail multiplies by it.
    The residues mod lcm(m, b) are the pairs (s mod m, t mod b) with
    s = t mod gcd(m, b), so both sums take O(m + b).
    """

    def __init__(self, values: np.ndarray, weights: np.ndarray | None = None):
        values = np.asarray(values)
        weights = np.ones(1) if weights is None else weights
        step = math.gcd(len(values), len(weights))

        def classes(x):
            return x.reshape(-1, step).sum(axis=0)

        if abs(complex(classes(values) @ classes(weights))) > 1e-9:
            raise ValueError("sequence must have mean zero over a period (non-principal character)")
        self.absolute = float(classes(np.abs(values)) @ classes(np.abs(weights)))


def _atom_groups(atoms: Sequence[tuple], m: int) -> list[tuple]:
    """The atoms as groups (weights, period, [(coef, c, power)]), by their
    period of weights.

    Scalar atoms form the group of weights None and period m.  The atoms whose
    coef is one and the same array w of length b become unit atoms over the
    weights w, of period lcm(m, b); a period above MODULUS_CEILING is rejected.
    power is the exponent m (1 when omitted) or LOG_ATOM, and needs c = 0
    unless it is 1.
    """
    groups: dict[int | None, tuple[np.ndarray | None, list]] = {}
    for coef, c, *power in atoms:
        power = power[0] if power else 1
        if power != 1 and c != 0:
            raise ValueError(f"a power or log atom ({power}) needs c = 0, got c = {c}")
        if np.ndim(coef) == 0:
            groups.setdefault(None, (None, []))[1].append((coef, c, power))
        else:
            groups.setdefault(id(coef), (coef, []))[1].append((1.0, c, power))
    out = []
    for weights, group in groups.values():
        period = m
        if weights is not None:
            b = len(weights)
            period = math.lcm(m, b)
            if period > MODULUS_CEILING:
                raise ValueError(
                    f"coefficient weights of period {b} make the series period "
                    f"lcm({m}, {b}) = {period} exceed the modulus ceiling {MODULUS_CEILING}"
                )
        out.append((weights, period, group))
    return out


def reciprocal_tail(atoms: Sequence[tuple], m: int, n_terms: int) -> np.ndarray:
    """The tail kernel K of the atoms beyond N, folded to the m residue classes.

    For one period `values` of length m whose twisted periods sum to 0
    (PeriodicSums), sum_{n > N} values[n mod m] g(n) is sum_r values[r] K[r],
    g the real part of the sum of the atoms, within the bound character_series
    reports: the class sum of each n mod P in a group of period P, times
    coef w[n mod b], adds to K[n mod m].  K does not depend on the character.
    """
    kernel = np.zeros(m)
    for weights, period, group in _atom_groups(atoms, m):
        sums = sum(coef * _class_sums(c, power, n_terms, period) for coef, c, power in group)
        if weights is not None:
            sums = sums * np.tile(weights, period // len(weights))
        kernel += sums.real.reshape(-1, m).sum(axis=0)
    return kernel


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
    tail: Callable[[int, int], np.ndarray] | None = None,
) -> tuple[complex, int, float]:
    """(value, N, tail bound) for prefactor * sum_{n >= 1} values[n % m] a_n.

    `values` is one period of length m, indexed by n mod m, and
    `fold(m, N, averaged)` returns the coefficients a_n folded by n mod m as
    residue_fold does (coefficient_fold builds it from a coefficient
    function).  The coefficients are modelled as a_n = the real part of
    sum coef g(n) over the atoms (coef, c) or (coef, c, e), g(n) = 1/(n + c)^e
    (e = 1 when omitted, Re(c) >= 0, c = 0 when e > 1) or ln(n)/n
    (e = LOG_ATOM, c = 0), plus a remainder r_n with |r_n| <= C/n^p,
    envelope = (C, p).  A coef is a scalar, or one period of weights (a 1-D
    array w of length b) meaning w[n % b] g(n).  With atoms, the sequence
    `values` and each values[n % m] w[n % b] of period lcm(m, b) <=
    MODULUS_CEILING must sum to 0 over a period (PeriodicSums).

    The head sums prefactor * values[n % m] a_n to N; with `averaged` (legal
    only without atoms) the value is instead the Cesaro mean of the partial
    sums over [N, 2N] and the remainder bound is doubled.  Either way the head
    is fold_head over the m residue classes.  The atoms' tail is
    sum_r values[r] K[r] for the kernel K = tail(m, N), reciprocal_tail(atoms,
    m, N) by default (a caller may cache it: it does not depend on values).
    Its bound is |prefactor| times, per atom, |coef| times the absolute sum of
    its (twisted) period times _remainder at N + 1; the remainder's tail is
    bounded by 2 K C |prefactor| / (N + 1)^p, K = partial_sum_bound(m).  N is
    the least integer >= start whose remainder bound meets the target (half
    the target with atoms) and at which each of k atoms' bounds meets
    target/(2k), clamped to the cap (cap // 2, but at least 1, when
    averaged).  An explicit `terms` fixes N.  The bound covers truncation
    only; head_rounding_bound bounds the head's rounding.
    """
    if averaged and atoms:
        raise ValueError("Cesaro averaging applies only to series without atoms")
    m = len(values)
    size = abs(prefactor)
    bounds = []  # (scale, power, period) per atom
    for weights, period, group in _atom_groups(atoms, m):
        scale = size * PeriodicSums(values, weights).absolute
        bounds += [(scale * abs(coef), power, period) for coef, _, power in group]
    c, p = envelope
    weight = (4.0 if averaged else 2.0) * partial_sum_bound(m) * c * size
    if terms is not None:
        n_terms = int(terms)
    else:
        remainder_target = target / 2 if atoms else target
        need = (weight / remainder_target) ** (1.0 / p)  # inf for a tiny target: clamp before ceil
        n_terms = min(max(start, math.ceil(min(need, cap))), cap)
        if averaged:
            n_terms = max(1, min(n_terms, cap // 2))
        elif bounds:
            n_terms = max(n_terms, _atom_terms(bounds, target / (2 * len(bounds)), cap))
    head = fold_head(values, fold(m, n_terms, averaged))
    if atoms:
        head += values @ (reciprocal_tail(atoms, m, n_terms) if tail is None else tail(m, n_terms))
    bound = sum(scale * _remainder(power, period, n_terms + 1.0) for scale, power, period in bounds)
    return prefactor * head, n_terms, bound + weight / float(n_terms + 1) ** p


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

    The 1/n fold to N plus the 1/n kernel beyond it (character_series with
    the one atom 1/n), N the least at which the rigorous tail bound fits.
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
        2.0 * (target_accuracy - slack),  # the engine spends half its target on the atoms
        1,
        2**22,
        atoms=[(1.0, 0.0)],
    )
    value = float(value.real) if real else complex(value)
    return LValue(value, n_terms, float(bound + slack), chi.label)
