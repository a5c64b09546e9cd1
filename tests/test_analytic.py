"""Sine/cosine integrals and L(1, chi): oracles and properties.

Si is checked against a high-order Gauss-Legendre quadrature oracle written
here from scratch, and Si, pi/2 - Si and Ci against 40-digit mpmath values
(arrays and scalars); L-values against closed constants, a reversed identity,
and a brute-force partial-sum value recorded before the build; the series
engine in each of its modes against long brute sums.
"""

import math

import mpmath
import numpy as np
import pytest

from charsum.analytic import (
    PeriodicSums,
    character_series,
    cosine_integral,
    cosine_integral_array,
    l_one,
    partial_sum_bound,
    reciprocal_tail,
    si_complement,
    si_complement_array,
    sine_integral,
    sine_integral_array,
)
from charsum.characters import build_character_group, real_primitive_character
from charsum.functions import builtin_function

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
    assert sine_integral(-30.0) == -sine_integral(30.0)
    assert si_complement(-30.0) == math.pi / 2 + sine_integral(30.0)


def test_array_integrals_reject_arguments_outside_their_domain():
    with pytest.raises(ValueError, match="x >= 0"):
        sine_integral_array(np.array([1.0, -30.0]))
    with pytest.raises(ValueError, match="x > 0"):
        cosine_integral_array(np.array([1.0, 0.0]))


def test_si_monotone_on_0_pi():
    xs = np.linspace(0, math.pi, 500)
    vals = [sine_integral(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_si_complement_bound_and_consistency():
    for x in np.geomspace(2, 1e4, 200):
        comp = si_complement(float(x))
        assert abs(comp) <= 2.0 / x
        assert comp == pytest.approx(math.pi / 2 - sine_integral(float(x)), abs=1e-12)


def test_si_ci_against_mpmath_oracle():
    xs = np.concatenate([
        np.geomspace(1e-4, 1e8, 121),
        np.linspace(3.0, 4.0, 41),  # both sides of the series cutoff
        np.linspace(7.5, 8.5, 21),  # both sides of the former cutoff at 8
        2 * math.pi * np.arange(1, 101),
        2 * math.pi * np.array([1e3, 1e4, 1e5, 1e6]),
    ])
    with mpmath.workdps(40):
        si = [mpmath.si(mpmath.mpf(float(x))) for x in xs]
        exact = {
            "si": np.array([float(v) for v in si]),
            "comp": np.array([float(mpmath.pi / 2 - v) for v in si]),
            "ci": np.array([float(mpmath.ci(mpmath.mpf(float(x)))) for x in xs]),
        }
    computed = {
        "si": (sine_integral_array(xs), [sine_integral(float(x)) for x in xs]),
        "comp": (si_complement_array(xs), [si_complement(float(x)) for x in xs]),
        "ci": (cosine_integral_array(xs), [cosine_integral(float(x)) for x in xs]),
    }
    for name, (array, scalar) in computed.items():
        allowed = 2e-15 * np.maximum(1.0, np.abs(exact[name]))
        for values in (array, np.array(scalar)):
            err = np.abs(values - exact[name])
            assert (err <= allowed).all(), (name, xs[np.argmax(err / allowed)], err.max())


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
    # the engine with atoms only: chi mod 4 against 1/n gives L(1, chi_-4) = pi/4
    chi = build_character_group(4).character_by_index(1)
    vals = chi.values_real()
    atoms = [(1.0, 0.0)]
    value, n_terms, bound = character_series(vals, _harmonic, 1.0, 2e-12, 64, 2**20, atoms)
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
    value, n_terms, bound = character_series(vals, coeffs, 1.0, 2e-12, 40, 2**20, atoms)
    n = np.arange(1, 2 * 10**6 + 1)
    brute = float((vals[n % 5] * coeffs(len(n))).sum())
    assert abs(value.real - brute) <= 2 / (math.pi * len(n))
    assert bound <= 1e-12


def test_abel_series_explicit_terms_and_cap():
    vals = real_primitive_character(-163).values_real()
    atoms = [(1.0, 0.0)]
    _, n_terms, _ = character_series(vals, _harmonic, 1.0, 1e-30, 1000, 2**22, atoms, terms=777)
    assert n_terms == 777  # fixed N, even though the bound misses the target
    _, n_terms, bound = character_series(vals, _harmonic, 1.0, 1e-30, 1000, 5000, atoms)
    assert n_terms == 5000 and bound > 1e-30  # doubling 1000 -> 2000 -> 4000 -> clamped
    _, n_terms, _ = character_series(vals, _harmonic, 1.0, 1e-30, 1000, 600, atoms)
    assert n_terms == 600  # a start above the cap is clamped too
    with pytest.raises(ValueError, match="Cesaro"):
        character_series(vals, _harmonic, 1.0, 1e-8, 1000, 5000, atoms, averaged=True)


def test_periodic_atoms_are_unit_atoms_over_the_twisted_period():
    # coef = w (period 3) against the even character mod 5 is the unit atom
    # 1/n over the twisted sequence chi(n) w(n mod 3) of period 15; a scalar
    # atom alongside forms its own group, and the groups' tails add
    vals = real_primitive_character(5).values_real()
    w = np.array([0.25, -1.0, 0.5])
    r = np.arange(15)
    twisted = vals[r % 5] * w[r % 3]

    def coeffs(count):
        n = np.arange(1, count + 1)
        return w[n % 3] / n

    value, n_terms, bound = character_series(vals, coeffs, 2.0, 1e-12, 40, 2**20, [(w, 0.0)])
    ref, ref_terms, ref_bound = character_series(
        twisted, _harmonic, 2.0, 1e-12, 40, 2**20, [(1.0, 0.0)]
    )
    assert (n_terms, bound) == (ref_terms, ref_bound)
    assert abs(value - ref) <= 1e-15
    mixed, _, mixed_bound = character_series(
        vals, lambda count: coeffs(count) - 0.5 * _harmonic(count), 2.0, 1e-12, 40, 2**20,
        [(w, 0.0), (-0.5, 0.0)], terms=n_terms,
    )
    scalar, _, scalar_bound = character_series(
        vals, lambda count: -0.5 * _harmonic(count), 2.0, 1e-12, 40, 2**20, [(-0.5, 0.0)],
        terms=n_terms,
    )
    assert abs(mixed - (value + scalar)) <= 1e-15
    assert mixed_bound == pytest.approx(bound + scalar_bound, rel=1e-15)


def test_twisted_period_ceiling(monkeypatch):
    import charsum.analytic as analytic

    def no_sums(*args, **kwargs):
        raise AssertionError("the twisted sums must not be built")

    # lcm(1009, 997) = 1,005,973 > 10^6 is rejected before anything is built
    vals = real_primitive_character(1009).values_real()
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "PeriodicSums", no_sums)
        with pytest.raises(ValueError, match=r"lcm\(1009, 997\) = 1005973 exceed"):
            character_series(vals, _harmonic, 1.0, 1e-8, 40, 2**20, [(np.zeros(997), 0.0)])
    # the boundary itself, under a ceiling of 15: lcm(5, 3) passes, lcm(5, 4) does not
    monkeypatch.setattr(analytic, "MODULUS_CEILING", 15)
    vals = real_primitive_character(5).values_real()
    value, _, _ = character_series(vals, _harmonic, 1.0, 1e-8, 40, 2**20, [(np.ones(3), 0.0)])
    assert math.isfinite(value.real)
    with pytest.raises(ValueError, match="= 20 exceed the modulus ceiling 15"):
        character_series(vals, _harmonic, 1.0, 1e-8, 40, 2**20, [(np.ones(4), 0.0)])


def _counting(coefficients, lengths):
    def counted(count):
        lengths.append(count)
        return coefficients(count)

    return counted


def _remainder(f, kind):
    """n -> coefficient_n minus the spec's atoms, for n = 1..count."""

    def coeffs(count):
        n = np.arange(1, count + 1)
        return f.closed_form(n, kind) - sum(coef / (n + c) for coef, c in f.atoms_for(kind))

    return coeffs


@pytest.mark.parametrize("name, averaged", [("t2", False), ("log", True)])
def test_envelope_series_within_bound_of_long_brute_sum(name, averaged):
    # the engine without atoms, on what the atoms leave of the cosine
    # coefficients against the even character mod 5: the plain partial sums of
    # t2 (C/n^2) and the Cesaro mean of log's eps_n (C/n^2); the brute partial
    # sum to M is within its own Polya-Vinogradov tail 2 K C / (M + 1)^p
    f = builtin_function(name)
    vals = real_primitive_character(5).values_real()
    env = f.envelope_for("cos")
    coeffs = _remainder(f, "cos")

    lengths = []
    value, n_terms, bound = character_series(
        vals, _counting(coeffs, lengths), 1.0, 1e-4, 32, 10**6, envelope=env, averaged=averaged
    )
    assert lengths == [2 * n_terms if averaged else n_terms]
    assert 32 <= n_terms < 10**6 and 0 < bound <= 1e-4
    m = 4 * 10**6
    n = np.arange(1, m + 1)
    brute = float((vals[n % 5] * coeffs(m)).sum())
    brute_tail = 2 * partial_sum_bound(5) * env[0] / (m + 1) ** env[1]
    assert abs(value - brute) <= bound + brute_tail


def test_atoms_plus_remainder_within_bound_of_long_brute_sum():
    # log's cosine side against the even character mod 5: the atom -1/(4n)
    # sums to -L(1, chi)/4 = -ln(golden ratio)/(2 sqrt 5), and the remainder
    # eps_n is brute-summed to M = 4e6 (its tail is under 2 K C / (M + 1)^2)
    f = builtin_function("log")
    vals = real_primitive_character(5).values_real()
    c, p = f.envelope_for("cos")
    prefactor = 2.0 * math.sqrt(5)

    def coeffs(count):
        return f.closed_form(np.arange(1, count + 1), "cos")

    value, n_terms, bound = character_series(
        vals, coeffs, prefactor, 1e-9, 40, 10**6, f.atoms_for("cos"), (c, p)
    )
    # the remainder bound alone meets half the target
    weight = 2 * partial_sum_bound(5) * c * prefactor
    assert n_terms == math.ceil((weight / 0.5e-9) ** (1 / p))
    assert 0 < bound <= 1e-9
    m = 4 * 10**6
    n = np.arange(1, m + 1)
    eps = si_complement_array(2 * math.pi * n) / (2 * math.pi * n)
    l_one_mod5 = math.log((1 + math.sqrt(5)) / 2) * 2 / math.sqrt(5)
    brute = prefactor * (float((vals[n % 5] * eps).sum()) - l_one_mod5 / 4)
    brute_tail = 2 * partial_sum_bound(5) * c * prefactor / (m + 1) ** p
    assert abs(value - brute) <= bound + brute_tail + 1e-13


def test_envelope_series_choice_of_n():
    vals = real_primitive_character(-163).values_real()
    coeffs = _harmonic
    value, n_terms, bound = character_series(vals, coeffs, 2.0, 1e-12, 40, 10**6, envelope=(0.0, 2))
    assert (n_terms, bound) == (40, 0.0)  # C = 0: N = start, bound 0
    n = np.arange(1, 41)
    assert value == 2.0 * (vals[n % 163] * coeffs(40)).sum()
    for averaged in (False, True):
        lengths = []
        _, n_terms, bound = character_series(
            vals, _counting(coeffs, lengths), 1.0, 1e-30, 40, 10**6, (), (1.0, 1), 777, averaged
        )
        assert n_terms == 777 and bound > 1e-30  # fixed N, even though the bound misses
        assert lengths == [2 * 777 if averaged else 777]
    # a target so small that the needed N overflows a float is clamped to the cap
    _, n_terms, _ = character_series(
        vals, coeffs, 1.0, 1e-310, 40, 5000, envelope=(1.0, 1), averaged=True
    )
    assert n_terms == 2500
    # a Cesaro cap below 2 still sums the window [1, 2]
    value, n_terms, _ = character_series(
        vals, coeffs, 1.0, 1e-30, 40, 1, envelope=(1.0, 1), averaged=True
    )
    assert n_terms == 1 and value == np.mean(np.cumsum(vals[[1, 2]] * coeffs(2)))


def test_periodic_sums_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        PeriodicSums(np.array([1.0, 1.0, 0.0]))


def test_partial_sum_bound_monotone():
    assert partial_sum_bound(1) == 1.0
    assert partial_sum_bound(100) == pytest.approx(math.sqrt(100) * math.log(100) + 1)
