"""Gauss sums G(n, chi) and tau(chi), with separability and tau-value checks.

`gauss_sum` and `tau` evaluate each root of unity e(k n / q) from its reduced
turn fraction (one cos/sin pair per term, no accumulated-angle recurrences).
`gauss_sum_table` gets G(n, chi) for every n mod q at once from one inverse
FFT of chi's value table; its roots of unity are NumPy's FFT twiddles, not
reduced fractions.  `separability_residual` compares that table with
conj(chi)(n) tau(chi), so its two sides are computed independently.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import DirichletCharacter, real_primitive_character

__all__ = [
    "gauss_sum",
    "gauss_sum_table",
    "tau",
    "separability_residual",
    "quadratic_tau_residual",
]

# Residual gate for the exact Gauss-sum identities.  The FFT table is within
# about eps*log2(q)*q of the exact sums (4.4e-9 at the 10^6 modulus ceiling as
# a worst case); the measured separability residual is at most 7.8e-13 over
# |d| <= 5000 and 1.1e-10 over the 57 fundamental discriminants with
# 999,900 <= |d| <= 10^6.
GAUSS_TOLERANCE = 1e-9


def gauss_sum(chi: DirichletCharacter, n: int) -> complex:
    """G(n, chi) = sum_{k=1}^{q-1} chi(k) e(k n / q)."""
    q = chi.modulus
    if q == 1:
        return 0j
    e = chi.turn_denominator
    k = np.arange(1, q, dtype=np.int64)
    turns = chi.turns[1:]
    mask = turns >= 0
    # combined exact turn: chi-part t/e plus twist part (k n mod q)/q, over denominator e*q
    kn = k if n % q == 1 else (k * (n % q)) % q
    num = (np.where(mask, turns, 0) * q + kn * e) % (e * q)
    angles = (2.0 * np.pi / (e * q)) * num
    # cos/sin at the units only; the other terms stay 0
    return complex(np.sum(np.cos(angles, out=np.zeros(q - 1), where=mask)),
                   np.sum(np.sin(angles, out=np.zeros(q - 1), where=mask)))


def tau(chi: DirichletCharacter) -> complex:
    """tau(chi) = G(1, chi).  Cached on the character."""
    cached = chi._cache.get("tau")
    if cached is None:
        cached = gauss_sum(chi, 1)
        chi._cache["tau"] = cached
    return cached


def gauss_sum_table(chi: DirichletCharacter) -> np.ndarray:
    """G(n, chi) for n = 0..q-1, from one length-q inverse FFT of chi's table.

    G(n, chi) = sum_k chi(k) e(k n / q) is q times the inverse DFT of
    chi(0..q-1), an O(q log q) job in place of q sums of q terms.  Each entry
    is within about eps * log2(q) * q of the exact sum (eps = 2^-52): the
    FFT's relative 2-norm error is O(eps log q) and the vector G has 2-norm
    sqrt(q) * |chi|_2 <= q.  For q = 1 the sum over 1 <= k <= q - 1 is empty and G = 0.
    """
    q = chi.modulus
    if q == 1:
        return np.zeros(1, dtype=complex)
    return np.fft.ifft(chi.values()) * q


def separability_residual(chi: DirichletCharacter) -> float:
    """max over n mod q of |G(n, chi) - conj(chi)(n) tau(chi)|, chi primitive.

    G comes from `gauss_sum_table` and tau from the exact-turn `tau`, so the
    residual compares two independent evaluations.  Both sides vanish when
    gcd(n, q) > 1.  Callers assert the residual is below GAUSS_TOLERANCE.
    """
    if not chi.is_primitive:
        raise ValueError(
            f"separability requires a primitive character; {chi.label} has "
            f"conductor {chi.conductor} < modulus {chi.modulus}"
        )
    rhs = np.conj(chi.values()) * tau(chi)
    return float(np.max(np.abs(gauss_sum_table(chi) - rhs)))


def quadratic_tau_residual(d: int) -> float:
    """Deviation of tau(chi_d) from sqrt(q) (d > 0) or i sqrt(q) (d < 0), q = |d|.

    chi_d is the primitive real character attached to the fundamental
    discriminant d; non-fundamental d raises ValueError.
    """
    chi = real_primitive_character(d)
    t = tau(chi)
    root = math.sqrt(abs(d))
    expected = complex(root, 0.0) if d > 0 else complex(0.0, root)
    return abs(t - expected)
