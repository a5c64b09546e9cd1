"""Sine/cosine integrals and L(1, chi): oracles and properties.

Si is checked against a high-order Gauss-Legendre quadrature oracle written
here from scratch; L-values against closed constants, a reversed identity,
and a brute-force partial-sum value recorded before the build.
"""

import math

import numpy as np
import pytest

from charsum.analytic import (
    PeriodicSums,
    abel_series,
    cosine_integral,
    l_one,
    partial_sum_bound,
    reciprocal_tail,
    si_complement,
    si_complement_array,
    sine_integral,
    sine_integral_array,
)
from charsum.characters import build_character_group, real_primitive_character

# L(1, chi) for the even character mod 5: brute partial sums to 10^7 with
# window averaging, recorded before the main build.
L_ONE_MOD5_BRUTE = 0.4304089409639974


def si_oracle(x, order=120):
    """Si(x) by Gauss-Legendre quadrature of sin(u)/u on [0, x]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    u = 0.5 * x * (nodes + 1.0)
    vals = np.where(u == 0.0, 1.0, np.sin(u) / np.where(u == 0.0, 1.0, u))
    return 0.5 * x * float(np.dot(weights, vals))


def test_si_zero():
    assert sine_integral(0.0) == 0.0


def test_si_at_pi_against_quadrature_oracle():
    oracle = si_oracle(math.pi)
    assert sine_integral(math.pi) == pytest.approx(oracle, abs=1e-12)
    assert sine_integral(math.pi) == pytest.approx(1.851937052, abs=1e-9)


def test_si_quadrature_oracle_grid():
    for x in (0.5, 2.0, 7.9, 8.1, 20.0, 75.0):
        assert sine_integral(x) == pytest.approx(si_oracle(x), abs=1e-12), x


def test_si_limit_value():
    assert abs(sine_integral(1e4) - math.pi / 2) <= 1e-4


def test_si_odd_extension():
    assert sine_integral(-3.0) == -sine_integral(3.0)


def test_si_monotone_on_0_pi():
    xs = np.linspace(0, math.pi, 500)
    vals = [sine_integral(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_si_complement_bound_and_consistency():
    for x in np.geomspace(2, 1e4, 200):
        comp = si_complement(float(x))
        assert abs(comp) <= 2.0 / x
        assert comp == pytest.approx(math.pi / 2 - sine_integral(float(x)), abs=1e-12)


def test_si_ci_vectorized_match_scalar():
    xs = np.array([0.5, 3.0, 7.99, 8.01, 60.0, 6.283185307179586e4])
    assert np.allclose(sine_integral_array(xs), [sine_integral(float(x)) for x in xs], atol=1e-14)
    assert np.allclose(si_complement_array(xs), [si_complement(float(x)) for x in xs], atol=1e-14)


def test_ci_against_quadrature_oracle():
    # Cin by quadrature, then Ci = gamma + ln x - Cin
    from scipy import integrate

    gamma = 0.5772156649015328606
    for x in (0.7, 3.0, 9.0, 40.0):
        cin, _ = integrate.quad(lambda u: (1 - math.cos(u)) / u if u > 0 else 0.0, 0, x, limit=200)
        assert cosine_integral(x) == pytest.approx(gamma + math.log(x) - cin, abs=1e-11)
    with pytest.raises(ValueError):
        cosine_integral(0.0)


# --- L(1, chi) -----------------------------------------------------------------


def leibniz_oracle(terms=200000):
    """pi/4 by the alternating series with tail averaging."""
    n = np.arange(terms)
    partial = np.cumsum((-1.0) ** n / (2 * n + 1))
    return float(partial[terms // 2 :].mean())


def test_l_one_odd_mod4_is_pi_over_4():
    chi = build_character_group(4).character_by_index(1)
    lval = l_one(chi, 1e-10)
    assert lval.value == pytest.approx(leibniz_oracle(), abs=1e-9)
    assert lval.value == pytest.approx(math.pi / 4, abs=1e-10)
    assert lval.tail_bound <= 1e-10 + 1e-12


def test_l_one_odd_mod3_reversed_identity():
    # the exact two-term direct sum chi(1)/9 + chi(2)*4/9 = -1/3 run backward:
    # L = (pi/sqrt(3)) * (1/3)
    chi = build_character_group(3).character_by_index(1)
    assert l_one(chi, 1e-10).value == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-10)


def test_l_one_even_mod5_brute_force_value():
    chi = real_primitive_character(5)
    assert l_one(chi, 1e-9).value == pytest.approx(L_ONE_MOD5_BRUTE, abs=1e-7)


def test_l_one_real_characters_are_real_and_positive():
    for d in (-3, -4, 5, 8, -7, 12, -499, 497):
        chi = real_primitive_character(d)
        lval = l_one(chi, 1e-9)
        assert isinstance(lval.value, float)
        assert lval.value > 0.0, d


def test_l_one_positive_sweep():
    from charsum.characters import fundamental_discriminants

    for d in fundamental_discriminants(500):
        assert l_one(real_primitive_character(d), 1e-8).value > 0.0, d


def test_l_one_complex_character_matches_brute_average():
    chi = build_character_group(7).character_by_index(1)
    assert not chi.is_real
    lval = l_one(chi, 1e-10)
    n = np.arange(1, 10**6 + 1)
    partial = np.cumsum(chi.values_complex()[n % 7] / n)
    brute = partial[len(partial) // 2 :].mean()
    assert abs(lval.value - brute) <= 1e-10  # brute window mean is good to ~1e-12


def test_l_one_rejects_principal():
    chi = build_character_group(4).character_by_index(0)
    with pytest.raises(ValueError, match="pole"):
        l_one(chi)


def test_l_one_target_controls_bound():
    chi = real_primitive_character(-163)
    for target in (1e-6, 1e-9, 1e-12):
        lval = l_one(chi, target)
        assert lval.tail_bound <= target


# --- the periodic Abel machinery, against an exact tail ---------------------------


def test_reciprocal_tail_against_exact_remainder():
    # chi mod 4: the full series is exactly pi/4, so the tail past N is known
    chi = build_character_group(4).character_by_index(1)
    period = np.concatenate([chi.values_real()[1:], [0.0]])
    sums = PeriodicSums(period)
    for start in (100, 1000, 5000):
        n = np.arange(1, start + 1)
        head = float((period[(n % 4) - 1] / n).sum())
        exact_tail = math.pi / 4 - head
        corr, bound = reciprocal_tail(sums, [(1.0, 0.0)], start)
        assert abs(corr.real - exact_tail) <= bound + 1e-15
        assert bound < 1e-8


def test_reciprocal_tail_bound_scales_down_with_start():
    chi = real_primitive_character(-499)
    period = np.concatenate([chi.values_real()[1:], [0.0]])
    sums = PeriodicSums(period)
    bounds = [reciprocal_tail(sums, [(1.0, 0.0)], s)[1] for s in (2000, 8000, 32000)]
    assert bounds[0] > bounds[1] > bounds[2]


def _harmonic(count):
    return 1.0 / np.arange(1, count + 1)


def test_abel_series_known_value_and_brute_partial_sums():
    # chi mod 4 against 1/n: the series is L(1, chi_-4) = pi/4
    chi = build_character_group(4).character_by_index(1)
    vals = chi.values_real()
    value, n_terms, bound, _ = abel_series(vals, _harmonic, [(1.0, 0.0)], 1e-12, 64, 2**20)
    assert n_terms >= 64 and bound <= 1e-12
    assert abs(value - math.pi / 4) <= bound + 1e-15

    # chi mod 5 against the exp sine coefficients b_n (atoms at c = -+i/2pi); the
    # brute partial sum to M = 2e6 is within its Dirichlet-test remainder
    # 2 max|chi partial sums| |b_M| <= 2 * 2 / (2 pi M)
    atoms = ((-1.0 / (4 * math.pi), -0.5j / math.pi), (-1.0 / (4 * math.pi), 0.5j / math.pi))

    def coeffs(count):
        n = np.arange(1, count + 1, dtype=float)
        return -2 * math.pi * n / (1 + 4 * math.pi**2 * n**2)

    vals = real_primitive_character(5).values_real()
    value, n_terms, bound, _ = abel_series(vals, coeffs, atoms, 1e-12, 40, 2**20)
    n = np.arange(1, 2 * 10**6 + 1)
    brute = float((vals[n % 5] * coeffs(len(n))).sum())
    assert abs(value.real - brute) <= 2 / (math.pi * len(n))
    assert bound <= 1e-12


def test_abel_series_explicit_terms_and_cap():
    vals = real_primitive_character(-163).values_real()
    atoms = [(1.0, 0.0)]
    _, n_terms, _, _ = abel_series(vals, _harmonic, atoms, 1e-30, 1000, 2**22, terms=777)
    assert n_terms == 777  # fixed N, even though the bound misses the budget
    _, n_terms, bound, _ = abel_series(vals, _harmonic, atoms, 1e-30, 1000, 5000)
    assert n_terms == 5000 and bound > 1e-30  # doubling 1000 -> 2000 -> 4000 -> clamped
    _, n_terms, _, _ = abel_series(vals, _harmonic, atoms, 1e-30, 1000, 600)
    assert n_terms == 600  # a start above the cap is clamped too


def test_periodic_sums_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        PeriodicSums(np.array([1.0, 1.0, 0.0]))


def test_partial_sum_bound_monotone():
    assert partial_sum_bound(1) == 1.0
    assert partial_sum_bound(100) == pytest.approx(math.sqrt(100) * math.log(100) + 1)
