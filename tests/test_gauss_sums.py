"""Gauss sum values, separability, and the tau evaluation for real characters."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from charsum.analytic import _pairwise_depth
from charsum.characters import (CharacterGroup, build_character_group, fundamental_discriminants,
                                real_primitive_character)
from charsum.gauss_sums import (
    GAUSS_TOLERANCE,
    gauss_sum,
    gauss_sum_table,
    quadratic_tau_residual,
    separability_residual,
    tau,
)


def brute_gauss(chi, n):
    """Independent two-line evaluation via cmath, term by term."""
    q = chi.modulus
    return sum(chi(k) * cmath.exp(2j * math.pi * k * n / q) for k in range(1, q))


U = 2.0**-53


def gamma(k):
    return k * U / (1.0 - k * U)


def turn_fraction_gauss_sum(chi, n):
    """G(n, chi) with each root of unity from its reduced turn fraction: the
    combined turn t/e + (k n mod q)/q over the denominator e q, one cos/sin
    pair per unit k and one real pairwise sum per component."""
    q = chi.modulus
    if q == 1:
        return 0j
    e = chi.turn_denominator
    k = np.arange(1, q, dtype=np.int64)
    turns = chi.turns[1:]
    mask = turns >= 0
    num = (np.where(mask, turns, 0) * q + (k * (n % q)) % q * e) % (e * q)
    angles = (2.0 * np.pi / (e * q)) * num
    return complex(np.sum(np.cos(angles, out=np.zeros(q - 1), where=mask)),
                   np.sum(np.sin(angles, out=np.zeros(q - 1), where=mask)))


def table_bound(q):
    """Per component, |gauss_sum - G| for modulus q, as its docstring derives.

    Each table entry is exp(i t) with t = fl(fl(2 pi j) / m) for a root of
    order m: np.pi, the product and the quotient round once each, so t is
    within gamma_3 t <= 2 pi gamma_3 of the exact angle, and cos and sin add
    an ulp (at most u below 1), so the entry is within A = 2 pi gamma_3 +
    sqrt(2) u of its root.  The exact product of two such entries is within
    2A + A^2 of chi(k) e(kn/q); each of its parts is rounded once after one
    addition (gamma_2 |a| |b| <= gamma_2 (1 + A)^2).  NumPy's pairwise sum of
    the 2(q - 1) interleaved parts adds gamma_k times the sum of the |parts|
    of one component, at most gamma_k (1 + A)^2 (1 + gamma_2) (q - 1), with
    k = _pairwise_depth(2(q - 1)).
    """
    a = 2.0 * math.pi * gamma(3) + math.sqrt(2.0) * U
    product = 2.0 * a + a * a + gamma(2) * (1.0 + a) ** 2
    total = gamma(_pairwise_depth(2 * (q - 1))) * (1.0 + a) ** 2 * (1.0 + gamma(2))
    return (q - 1) * (product + total) * (1.0 + 2.0**-50)


def turn_fraction_bound(q):
    """Per component, |turn_fraction_gauss_sum - G|: each angle is within
    2 pi gamma_3 (2 pi / (e q) rounds with np.pi and once more, the product
    once), cos and sin add at most u, and the pairwise sum of q - 1 terms of
    size <= 1 adds gamma_d (q - 1), d = _pairwise_depth(q - 1)."""
    per_term = 2.0 * math.pi * gamma(3) + U + gamma(_pairwise_depth(q - 1))
    return (q - 1) * per_term * (1.0 + 2.0**-50)


def test_gauss_sum_within_table_bound_of_turn_fraction_oracle():
    # both evaluations are within their a-priori bounds of the exact sum, so
    # they are within the sum of the bounds of each other, per component
    for q in [*range(1, 151), 499, 512, 1000, 1009]:
        bound = table_bound(q) + turn_fraction_bound(q)
        for chi in CharacterGroup(q).characters():
            for n in (0, 1, 2, q - 1, q + 3):
                value, oracle = gauss_sum(chi, n), turn_fraction_gauss_sum(chi, n)
                assert isinstance(value, complex)
                assert abs(value.real - oracle.real) <= bound, (chi.label, n)
                assert abs(value.imag - oracle.imag) <= bound, (chi.label, n)


def test_tau_within_table_bound_of_40_digit_sums():
    # measured at most 3.0 (q - 1) u per component (the principal character
    # mod 3); the turn fractions' worst is 2.25 (q - 1) u (mod 11)
    for q in range(2, 32):
        bound = table_bound(q)
        for chi in CharacterGroup(q).characters():
            with mpmath.workdps(40):
                exact = mpmath.fsum(
                    mpmath.expjpi(2 * (mpmath.mpf(int(chi.turns[k])) / chi.turn_denominator
                                       + mpmath.mpf(k) / q))
                    for k in range(1, q) if chi.turns[k] >= 0
                )
                value = tau(chi)
                assert abs(float(value.real - exact.real)) <= bound, chi.label
                assert abs(float(value.imag - exact.imag)) <= bound, chi.label


def test_gauss_sum_odd_mod4_is_2i():
    chi = build_character_group(4).character_by_index(1)
    value = gauss_sum(chi, 1)
    assert abs(value - 2j) < 1e-14
    # n = 1 twist equals e(1/4) - e(3/4) by hand
    assert abs(value - (cmath.exp(2j * math.pi / 4) - cmath.exp(2j * math.pi * 3 / 4))) < 1e-14


def test_gauss_sum_principal_zero_twist_counts_units():
    for q in (2, 7, 12):
        chi = build_character_group(q).character_by_index(0)
        value = gauss_sum(chi, 0)
        phi = sum(1 for k in range(1, q) if math.gcd(k, q) == 1)
        assert abs(value - phi) < 1e-12


def test_gauss_sum_legendre_mod5_is_sqrt5():
    chi = real_primitive_character(5)
    assert abs(gauss_sum(chi, 1) - math.sqrt(5)) < 1e-10


def test_gauss_sum_matches_bruteforce():
    for q in (3, 5, 8, 9, 21):
        for chi in build_character_group(q).characters():
            for n in (0, 1, 2, q - 1, q + 3):
                assert abs(gauss_sum(chi, n) - brute_gauss(chi, n)) < 1e-11


def test_tau_examples():
    assert abs(tau(real_primitive_character(-3)) - 1j * math.sqrt(3)) < 1e-10
    assert abs(tau(real_primitive_character(5)) - math.sqrt(5)) < 1e-10
    assert abs(tau(real_primitive_character(-4)) - 2j) < 1e-10


def test_gauss_sum_residual():
    # |G(n, chi)| - sqrt(q) vanishes for primitive chi and gcd(n, q) = 1
    chi = real_primitive_character(5)
    gs = gauss_sum(chi, 2)
    assert isinstance(gs, complex)
    assert abs(abs(gs) - math.sqrt(5)) < 1e-9


def test_separability_odd_mod4_n3():
    chi = build_character_group(4).character_by_index(1)
    # the max over n mod 4 covers n = 3
    assert separability_residual(chi) < 1e-12
    # both sides equal -2i
    assert abs(gauss_sum(chi, 3) + 2j) < 1e-13
    assert abs(gauss_sum_table(chi)[3] + 2j) < 1e-13


def test_separability_vanishing_twist():
    chi = real_primitive_character(5)
    # n = 5 is n = 0 mod 5, inside the max over n mod 5
    assert separability_residual(chi) < 1e-12
    assert abs(gauss_sum(chi, 5)) < 1e-12
    assert abs(gauss_sum_table(chi)[0]) < 1e-12


def test_separability_exhaustive_small_moduli():
    worst = 0.0
    for q in range(3, 51):
        for chi in build_character_group(q).primitive_characters():
            worst = max(worst, separability_residual(chi))
    assert worst <= GAUSS_TOLERANCE


def test_separability_rejects_imprimitive():
    chi = build_character_group(8).character_by_index(0)
    with pytest.raises(ValueError, match="primitive"):
        separability_residual(chi)


def test_gauss_sum_table_matches_scalar_oracle():
    # The table's docstring bound is eps*log2(q)*q; the scalar sums carry
    # rounding of the same size from their q - 1 twiddle products, so their
    # difference is held to twice that bound.
    eps = 2.0**-52
    seen_real = seen_complex = 0
    for q in range(1, 61):
        bound = 2.0 * eps * math.log2(q) * q
        for chi in build_character_group(q).primitive_characters():
            table = gauss_sum_table(chi)
            assert table.shape == (q,)
            for n in range(q):
                assert abs(table[n] - gauss_sum(chi, n)) <= bound, (chi.label, n)
            seen_real += chi.is_real
            seen_complex += not chi.is_real
    assert seen_real > 0 and seen_complex > 0


def test_separability_large_real_modulus():
    chi = real_primitive_character(100001)
    assert chi.is_real and chi.is_primitive
    assert separability_residual(chi) <= GAUSS_TOLERANCE


def test_quadratic_tau_examples():
    assert quadratic_tau_residual(5) <= 1e-10
    assert quadratic_tau_residual(-3) <= 1e-10
    with pytest.raises(ValueError):
        quadratic_tau_residual(9)


def test_quadratic_tau_sweep():
    worst = max(quadratic_tau_residual(d) for d in fundamental_discriminants(500))
    assert worst <= 1e-9


def test_tau_magnitude_all_primitive():
    for q in range(3, 101):
        for chi in build_character_group(q).primitive_characters():
            assert abs(abs(tau(chi)) - math.sqrt(q)) <= 1e-9, chi.label


def test_conjugation_relation():
    # G(-n, chi) = conj(G(n, conj(chi))) and G(n, chi) = chi(-1) conj(G(n, conj(chi))),
    # exercised for both parities
    for q in (5, 7, 8, 12):
        for chi in build_character_group(q).primitive_characters():
            sign = 1.0 if chi.is_even else -1.0
            for n in (1, 2, 3):
                conj_side = gauss_sum(chi.conjugate(), n).conjugate()
                assert abs(gauss_sum(chi, -n) - conj_side) <= 1e-9, (q, chi.label, n)
                assert abs(gauss_sum(chi, n) - sign * conj_side) <= 1e-9, (q, chi.label, n)
