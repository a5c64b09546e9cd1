"""Sine/cosine integrals and L(1, chi): oracles and properties.

Si is checked against a high-order Gauss-Legendre quadrature oracle written
here from scratch, and Si, pi/2 - Si and Ci against 40-digit mpmath values
(arrays and scalars); L-values against closed constants, a reversed identity,
and a brute-force partial-sum value recorded before the build; the tail
kernel's class sums against 40-digit digamma, Hurwitz zeta and Stieltjes
values; the series engine in each of its modes, and over fourier's Cesaro
window, against long brute sums; the head against its rounding bound, and
NumPy's pairwise summation order, which that bound assumes, bit for bit.
"""

import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from charsum.analytic import (
    LOG_ATOM,
    PeriodicSums,
    _class_offsets,
    _class_sums,
    _pairwise_depth,
    _remainder,
    character_series,
    coefficient_fold,
    cosine_integral,
    cosine_integral_array,
    fold_head,
    head_rounding_bound,
    l_one,
    partial_sum_bound,
    reciprocal_tail,
    residue_fold,
    si_complement,
    si_complement_array,
    sine_integral,
    sine_integral_array,
)
from charsum.characters import build_character_group, real_primitive_character
from charsum.fourier import _cesaro_window
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


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0])
def test_l_one_rejects_target_not_finite_and_positive(target):
    with pytest.raises(ValueError, match="target_accuracy must be finite and > 0"):
        l_one(real_primitive_character(5), target)


@pytest.mark.parametrize("target", [5e-324, 5e-14, 1e-13])
def test_l_one_rejects_targets_at_or_below_its_floor(target):
    # the bound keeps a 1e-13 slack for the head's rounding, so no target at or
    # below it can be met: at 1e-13 the engine's target would be 0
    with pytest.raises(ValueError, match="above the floor 1e-13"):
        l_one(real_primitive_character(5), target)


def test_l_one_meets_a_target_just_above_its_floor():
    lval = l_one(real_primitive_character(5), 2e-13)
    assert lval.tail_bound <= 2e-13 and lval.terms_used < 2**22
    assert lval.value == pytest.approx(L_ONE_MOD5_BRUTE, abs=1e-7)


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


# --- the tail kernel: Euler-Maclaurin class sums against exact values ----------


def test_reciprocal_tail_against_exact_remainder():
    # chi mod 4: the full series is exactly pi/4, so the tail past N is known
    chi = build_character_group(4).character_by_index(1)
    values = chi.values_real()
    for start in (1, 24, 100, 1000, 5000):
        with mpmath.workdps(40):
            head = mpmath.fsum(values[n % 4] / mpmath.mpf(n) for n in range(1, start + 1))
            exact_tail = float(mpmath.pi / 4 - head)
        kernel = reciprocal_tail([(1.0, 0.0)], 4, start)
        bound = PeriodicSums(values).absolute * _remainder(1, 4, start + 1.0)
        assert kernel.shape == (4,) and kernel.dtype == float
        assert abs(values @ kernel - exact_tail) <= bound + 1e-15 * np.abs(kernel).max()
        assert start < 100 or bound < 1e-15


def _kernel_oracle(c, power, n_terms, period, r):
    """sum_{j >= 0} g(N + r + jP) at 40 digits, up to a constant common to
    every r: -psi((a + c)/P)/P for 1/(n + c), zeta(m, a/P)/P^m for 1/n^m, and
    (gamma_1(a/P) - ln(P) psi(a/P))/P for ln(n)/n (the Stieltjes constant
    gamma_1(x) of the Hurwitz zeta function)."""
    x = mpmath.mpf(n_terms + r) / period
    if power == LOG_ATOM:
        return (mpmath.stieltjes(1, x) - mpmath.log(period) * mpmath.digamma(x)) / period
    if power == 1:
        return -mpmath.digamma(x + mpmath.mpc(c) / period) / period
    return mpmath.zeta(power, x) / mpmath.mpf(period) ** power


def _kernel_errors(c, power, n_terms, period):
    """max |(T[r] - T[1]) - oracle| over sampled r, the bound 2 R(N + 1) on it,
    and the size of the class sums (for the rounding allowance).  Entry i of
    _class_sums holds the class N + r = i mod P."""
    sums = _class_sums(c, power, n_terms, _class_offsets(n_terms, period))
    assert sums.shape == (period,)
    first = sums[(n_terms + 1) % period]
    rs = sorted({1, 2, period // 2, period})  # neighbours, the middle and the far end
    with mpmath.workdps(40):
        ref = _kernel_oracle(c, power, n_terms, period, 1)
        error = max(
            abs(complex(_kernel_oracle(c, power, n_terms, period, r) - ref)
                - (sums[(n_terms + r) % period] - first))
            for r in rs
        )
    return error, 2 * _remainder(power, period, n_terms + 1.0), float(np.abs(sums).max())


@pytest.mark.parametrize(
    "c, power",
    [(0.0, 1), (0.3, 1), (0.5j / math.pi, 1), (-0.5j / math.pi, 1), (0.0, 2), (0.0, 3), (0.0, LOG_ATOM)],
    ids=["digamma", "digamma-shifted", "digamma-complex", "digamma-conjugate", "zeta-2", "zeta-3",
         "stieltjes"],
)
def test_kernel_differences_against_40_digit_values(c, power):
    # T[r] - T[s] at N = 8P, where the kernel is used: within the remainder
    # bound of both classes plus the rounding of the class sums, and the
    # bound itself far below the class sums
    for period in (7, 101, 1009):
        n_terms = 8 * period
        error, bound, size = _kernel_errors(c, power, n_terms, period)
        assert error <= bound + 1e-14 * size, (period, error, bound)
        assert bound <= 1e-9 * size, period


@pytest.mark.parametrize("power", [1, 2, 3, LOG_ATOM])
def test_remainder_bound_holds_at_small_and_large_n(power):
    # the remainder bound is sound from N = 1 on, where the expansion is far
    # from converged (a = N + 1 below e^(H_12) for the log atom), to N = 8P
    for period in (7, 101):
        bounds = []
        for n_terms in (1, 2, 24, 8 * period):
            error, bound, size = _kernel_errors(0.0, power, n_terms, period)
            assert error <= bound + 1e-14 * size, (period, n_terms, error, bound)
            bounds.append(bound)
        assert bounds == sorted(bounds, reverse=True)


def test_power_atom_tail_against_catalan():
    # chi mod 4 against 1/n^2: the full series is Catalan's constant G, so the
    # tail past N is known; the atom 1/n^2 alongside 1/n adds its kernel
    chi = build_character_group(4).character_by_index(1)
    values = chi.values_real()
    for start in (1, 3, 24, 100, 1000):
        with mpmath.workdps(40):
            head = mpmath.fsum(values[n % 4] / mpmath.mpf(n) ** 2 for n in range(1, start + 1))
            exact_tail = float(mpmath.catalan - head)
        kernel = reciprocal_tail([(1.0, 0.0, 2)], 4, start)
        bound = PeriodicSums(values).absolute * _remainder(2, 4, start + 1.0)
        assert abs(values @ kernel - exact_tail) <= bound + 1e-15 * np.abs(kernel).max(), start
        one = reciprocal_tail([(1.0, 0.0)], 4, start)
        both = reciprocal_tail([(1.0, 0.0), (-3.0, 0.0, 2)], 4, start)
        assert np.allclose(both, one - 3.0 * kernel, rtol=0, atol=1e-15 * np.abs(both).max())
    with pytest.raises(ValueError, match="needs c = 0"):
        reciprocal_tail([(1.0, 0.5, 2)], 4, 100)
    with pytest.raises(ValueError, match="needs c = 0"):
        reciprocal_tail([(1.0, 0.5, LOG_ATOM)], 4, 100)


def test_reciprocal_tail_bound_scales_down_with_start():
    values = real_primitive_character(-499).values_real()
    bounds = [
        character_series(values, _harmonic_table, 1.0, 1e-8, 1, 10**6, [(1.0, 0.0)], terms=s)[2]
        for s in (1000, 2000, 8000, 32000)
    ]
    assert bounds == sorted(bounds, reverse=True) and bounds[-1] < 1e-20


def test_log_atom_tail_against_stieltjes_class_sums():
    # chi mod 5 against ln(n)/n: the tail past N from the folded kernel against
    # the 40-digit class sums weighted by the character (their common constant
    # cancels, since the character sums to 0 over a period)
    values = real_primitive_character(5).values_real()
    for start in (1, 24, 40):
        kernel = reciprocal_tail([(1.0, 0.0, LOG_ATOM)], 5, start)
        bound = PeriodicSums(values).absolute * _remainder(LOG_ATOM, 5, start + 1.0)
        with mpmath.workdps(40):
            exact = sum(
                values[(start + r) % 5] * _kernel_oracle(0.0, LOG_ATOM, start, 5, r) for r in range(1, 6)
            )
        assert abs(values @ kernel - float(exact)) <= bound + 1e-15 * np.abs(kernel).max(), start


def _harmonic(count):
    return 1.0 / np.arange(1, count + 1)


_harmonic_table = coefficient_fold(_harmonic, [(1.0, 0.0)])  # 1/n with its own atom


def test_abel_series_known_value_and_brute_partial_sums():
    # the engine with atoms only: chi mod 4 against 1/n gives L(1, chi_-4) = pi/4
    chi = build_character_group(4).character_by_index(1)
    vals = chi.values_real()
    atoms = [(1.0, 0.0)]
    value, n_terms, bound = character_series(vals, _harmonic_table, 1.0, 2e-12, 64, 2**20, atoms)
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
    value, n_terms, bound = character_series(
        vals, coefficient_fold(coeffs, atoms), 1.0, 2e-12, 40, 2**20, atoms
    )
    n = np.arange(1, 2 * 10**6 + 1)
    brute = float((vals[n % 5] * coeffs(len(n))).sum())
    assert abs(value.real - brute) <= 2 / (math.pi * len(n))
    assert bound <= 1e-12


def test_abel_series_explicit_terms_and_cap():
    vals = real_primitive_character(-163).values_real()
    atoms = [(1.0, 0.0)]
    _, n_terms, _ = character_series(
        vals, _harmonic_table, 1.0, 1e-30, 1000, 2**22, atoms, terms=777
    )
    assert n_terms == 777  # fixed N, even though the bound misses the target
    _, n_terms, bound = character_series(vals, _harmonic_table, 1.0, 1e-30, 1000, 5000, atoms)
    assert n_terms == 5000 and bound > 1e-30  # the N the bound asks for, clamped
    _, n_terms, _ = character_series(vals, _harmonic_table, 1.0, 1e-30, 1000, 600, atoms)
    assert n_terms == 600  # a start above the cap is clamped too


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

    value, n_terms, bound = character_series(
        vals, coefficient_fold(coeffs, [(w, 0.0)]), 2.0, 1e-12, 40, 2**20, [(w, 0.0)]
    )
    ref, ref_terms, ref_bound = character_series(
        twisted, _harmonic_table, 2.0, 1e-12, 40, 2**20, [(1.0, 0.0)]
    )
    assert (n_terms, bound) == (ref_terms, ref_bound)
    assert abs(value - ref) <= 1e-15
    mixed_atoms = [(w, 0.0), (-0.5, 0.0)]
    mixed, _, mixed_bound = character_series(
        vals, coefficient_fold(lambda count: coeffs(count) - 0.5 * _harmonic(count), mixed_atoms),
        2.0, 1e-12, 40, 2**20, mixed_atoms, terms=n_terms,
    )
    scalar_atoms = [(-0.5, 0.0)]
    scalar, _, scalar_bound = character_series(
        vals, coefficient_fold(lambda count: -0.5 * _harmonic(count), scalar_atoms),
        2.0, 1e-12, 40, 2**20, scalar_atoms, terms=n_terms,
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
        atoms = [(np.zeros(997), 0.0)]
        with pytest.raises(ValueError, match=r"lcm\(1009, 997\) = 1005973 exceed"):
            character_series(vals, coefficient_fold(_harmonic, atoms), 1.0, 1e-8, 40, 2**20, atoms)
    # the boundary itself, under a ceiling of 15: lcm(5, 3) passes, lcm(5, 4) does not
    monkeypatch.setattr(analytic, "MODULUS_CEILING", 15)
    vals = real_primitive_character(5).values_real()
    atoms = [(np.ones(3), 0.0)]  # w = 1: the atom is 1/n, as the coefficients are
    value, _, _ = character_series(vals, coefficient_fold(_harmonic, atoms), 1.0, 1e-8, 40, 2**20, atoms)
    assert math.isfinite(value.real)
    atoms = [(np.ones(4), 0.0)]
    with pytest.raises(ValueError, match="= 20 exceed the modulus ceiling 15"):
        character_series(vals, coefficient_fold(_harmonic, atoms), 1.0, 1e-8, 40, 2**20, atoms)


def _window_fold(coefficients):
    """fourier's Cesaro window as a fold callable: (m, N) -> the fold of
    a_1..a_2N weighted into the mean of the partial sums S_N .. S_2N."""
    return lambda m, n_terms: residue_fold(_cesaro_window(coefficients(2 * n_terms)), m)


def _counting(coefficients, lengths):
    def counted(count):
        lengths.append(count)
        return coefficients(count)

    return counted


def _envelope_case(name):
    """(coefficients n -> r_1..r_count, envelope (C, p)) for the engine's envelope
    path: t2's cosine coefficients 1/(2 pi^2 n^2) under (1/(2 pi^2), 2), and
    what log's cosine atoms leave of its coefficients under log's envelope."""
    if name == "t2":
        c = 1.0 / (2.0 * math.pi**2)
        return (lambda count: c / np.arange(1, count + 1, dtype=float) ** 2), (c, 2)
    f = builtin_function(name)

    def coeffs(count):
        n = np.arange(1, count + 1)
        atoms = sum(coef / (n + c) ** (p[0] if p else 1) for coef, c, *p in f.atoms_for("cos"))
        return f.closed_form(n, "cos") - atoms

    return coeffs, f.envelope_for("cos")


@pytest.mark.parametrize("name, window", [("t2", False), ("log", True)])
def test_envelope_series_within_bound_of_long_brute_sum(name, window):
    # the engine without atoms, against the even character mod 5: the plain
    # partial sums of t2's cosine coefficients (C/n^2), and over fourier's
    # Cesaro window the mean of the partial sums of what log's cosine atoms
    # leave (C/n^4), under the same bound; the brute partial sum to M is
    # within its own Polya-Vinogradov tail 2 K C / (M + 1)^p
    vals = real_primitive_character(5).values_real()
    coeffs, env = _envelope_case(name)

    lengths = []
    fold = (_window_fold if window else coefficient_fold)(_counting(coeffs, lengths))
    value, n_terms, bound = character_series(vals, fold, 1.0, 1e-4, 32, 10**6, envelope=env)
    assert lengths == [2 * n_terms if window else n_terms]
    assert 32 <= n_terms < 10**6 and 0 < bound <= 1e-4
    m = 4 * 10**6
    n = np.arange(1, m + 1)
    brute = float((vals[n % 5] * coeffs(m)).sum())
    brute_tail = 2 * partial_sum_bound(5) * env[0] / (m + 1) ** env[1]
    assert abs(value - brute) <= bound + brute_tail


def test_atoms_plus_remainder_within_bound_of_long_brute_sum():
    # log's cosine side, with its declared atoms and envelope, against the even
    # character mod 5.  The brute sum splits off -1/(4n), which sums to
    # -L(1, chi)/4 = -ln(golden ratio)/(2 sqrt 5), and the rest
    # eps_n = (pi/2 - Si(2 pi n))/(2 pi n) <= 1/(4 pi^2 n^2) is brute-summed to
    # M = 4e6 (its tail is under 2 K / (4 pi^2 (M + 1)^2))
    f = builtin_function("log")
    vals = real_primitive_character(5).values_real()
    c, p = f.envelope_for("cos")
    prefactor = 2.0 * math.sqrt(5)

    def coeffs(count):
        return f.closed_form(np.arange(1, count + 1), "cos")

    value, n_terms, bound = character_series(
        vals, coefficient_fold(coeffs, f.atoms_for("cos")), prefactor, 1e-9, 40, 10**6, f.atoms_for("cos"),
        (c, p),
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
    brute_tail = 2 * partial_sum_bound(5) * prefactor / (4 * math.pi**2 * (m + 1) ** 2)
    assert abs(value - brute) <= bound + brute_tail + 1e-13


def test_envelope_series_choice_of_n():
    vals = real_primitive_character(-163).values_real()
    coeffs = _harmonic
    fold = coefficient_fold(coeffs)
    value, n_terms, bound = character_series(vals, fold, 2.0, 1e-12, 40, 10**6, envelope=(0.0, 2))
    assert (n_terms, bound) == (40, 0.0)  # C = 0: N = start, bound 0
    n = np.arange(1, 41)
    exact = 2.0 * math.fsum((vals[n % 163] * coeffs(40)).tolist())
    assert abs(value - exact) <= 2.0 * head_rounding_bound(vals, coeffs(40))
    for window in (False, True):
        lengths = []
        _, n_terms, bound = character_series(
            vals, (_window_fold if window else coefficient_fold)(_counting(coeffs, lengths)),
            1.0, 1e-30, 40, 10**6, (), (1.0, 1), 777,
        )
        assert n_terms == 777 and bound > 1e-30  # fixed N, even though the bound misses
        assert lengths == [2 * 777 if window else 777]
    # a target so small that the needed N overflows a float is clamped to the cap
    _, n_terms, _ = character_series(vals, fold, 1.0, 1e-310, 40, 5000, envelope=(1.0, 1))
    assert n_terms == 5000


def test_periodic_sums_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        PeriodicSums(np.array([1.0, 1.0, 0.0]))


def test_character_series_rejects_atoms_over_a_nonzero_mean():
    # the principal character mod 5 sums to 4 over a period, so the constant
    # that each class sum of the atoms' kernel drops would not cancel
    vals = build_character_group(5).character_by_index(0).values_real()
    atoms = [(1.0, 0.0)]
    with pytest.raises(ValueError, match="mean zero"):
        character_series(vals, coefficient_fold(_harmonic, atoms), 1.0, 1e-8, 40, 2**20, atoms)


def test_partial_sum_bound_monotone():
    assert partial_sum_bound(1) == 1.0
    assert partial_sum_bound(100) == pytest.approx(math.sqrt(100) * math.log(100) + 1)


def _exact_head(values, coeffs, window):
    """sum v[n mod m] a_n, or the mean of its partial sums S_N .. S_2N, exactly;
    (real part, imaginary part) as Fractions."""
    m = len(values)
    heads = []
    for part in (values.real, values.imag):
        terms = [Fraction(part[n % m]) * Fraction(a) for n, a in enumerate(coeffs.tolist(), 1)]
        if not window:
            heads.append(sum(terms, Fraction(0)))
            continue
        n_terms = len(coeffs) // 2
        partial, window = Fraction(0), Fraction(0)
        for n, term in enumerate(terms, 1):
            partial += term
            if n >= n_terms:
                window += partial
        heads.append(window / (n_terms + 1))
    return heads


def _head_errors(head, exact):
    return [abs(Fraction(part) - ref) for part, ref in zip((head.real, head.imag), exact)]


@pytest.mark.parametrize("m, length", [(7, 100), (7, 7), (13, 6), (13, 5), (1, 9), (101, 2000)])
@pytest.mark.parametrize("complex_period", [False, True])
@pytest.mark.parametrize("window", [False, True])
def test_fold_head_is_the_exact_series_head(m, length, complex_period, window):
    # real and complex periods, L a multiple of m or not, L below m: the head
    # from the residue fold is the sum, within head_rounding_bound of the
    # exact value; over fourier's Cesaro window it is the mean of the partial
    # sums S_N .. S_2N, within head_rounding_bound of the weighted
    # coefficients plus the weights' two roundings, 2u max|v| sum_{n > N} |a_n|
    rng = np.random.default_rng(m * length)
    values = rng.choice([-1.0, 0.0, 1.0], m)
    if complex_period:
        values = np.exp(2j * math.pi * rng.random(m)) * (values != 0)
    coeffs = rng.standard_normal(length) / np.arange(1, length + 1)
    bound = 0.0
    if window:
        coeffs = coeffs[: length - length % 2]
        weighted = _cesaro_window(coeffs)
        assert not np.shares_memory(weighted, coeffs)
        upper = np.abs(coeffs[len(coeffs) // 2 :]).tolist()
        bound = 2.0**-52 * float(np.abs(values).max()) * math.fsum(upper)
    else:
        weighted = coeffs
    folded = residue_fold(weighted, m)
    assert folded.shape == (m,) and not np.shares_memory(folded, weighted)
    head = fold_head(values, folded)
    assert isinstance(head, complex if complex_period else float)
    bound += head_rounding_bound(values, weighted)
    for error in _head_errors(complex(head), _exact_head(values, coeffs, window)):
        assert error <= bound


@pytest.mark.parametrize("m", [3, 5, 7, 12, 101])
def test_fold_head_within_rounding_bound_on_long_classes(m):
    # a small m with N >> m: each class sums L/m terms.  With a +-1 period
    # every product is exact, so math.fsum of the products is the correctly
    # rounded head (within one ulp of the exact one); a complex period is
    # checked against the exact Fraction head at a smaller L
    rng = np.random.default_rng(m)
    length = 10**6
    n = np.arange(1, length + 1)
    values = rng.choice([-1.0, 1.0], m)
    for coeffs in (rng.random(length), rng.standard_normal(length) / n):
        head = fold_head(values, residue_fold(coeffs, m))
        exact = math.fsum((values[n % m] * coeffs).tolist())
        assert abs(head - exact) <= head_rounding_bound(values, coeffs) + math.ulp(exact)
    values = np.exp(2j * math.pi * rng.random(m))
    coeffs = rng.random(5000)
    head = fold_head(values, residue_fold(coeffs, m))
    for error in _head_errors(head, _exact_head(values, coeffs, False)):
        assert error <= head_rounding_bound(values, coeffs)


def _numpy_sum(scalars, lanes=1, add=operator.add):
    """NumPy's pairwise sum of `scalars`, as `lanes` interleaved sums (2 for
    the real and imaginary parts of a complex array): sequential below 8
    terms; up to 128, 8 running sums, combined as a balanced tree within
    each lane, then the leftover terms one by one; above 128, the sums of
    two halves, the first rounded down to a multiple of 8."""
    n = len(scalars)
    if n > 128:
        half = n // 2 - n // 2 % 8
        left, right = _numpy_sum(scalars[:half], lanes, add), _numpy_sum(scalars[half:], lanes, add)
        return [add(a, b) for a, b in zip(left, right)]
    if n < 8:
        sums, rest = [0.0] * lanes, 0
    else:
        running = list(scalars[:8])
        rest = n - n % 8
        for i in range(8, rest, 8):
            running = [add(a, b) for a, b in zip(running, scalars[i : i + 8])]
        sums = []
        for lane in range(lanes):
            tree = running[lane::lanes]
            while len(tree) > 1:
                tree = [add(a, b) for a, b in zip(tree[::2], tree[1::2])]
            sums.append(tree[0])
    for i in range(rest, n):
        sums[i % lanes] = add(sums[i % lanes], scalars[i])
    return sums


def test_numpy_summation_order():
    # residue_fold, fold_head and the depth of _pairwise_depth assume NumPy's
    # pairwise order; on ill-conditioned data any other order shows in the bits
    rng = np.random.default_rng(7)

    def data(size):
        return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)

    def depth_add(a, b):
        return max(a, b) + 1

    for count in [*range(1, 401), 4097, 10**5]:
        terms = data(count)
        assert terms.sum() == _numpy_sum(terms.tolist())[0], count
        rows = data(3 * count).reshape(3, count)
        assert rows.sum(axis=1).tolist() == [_numpy_sum(row)[0] for row in rows.tolist()], count
        z = data(count) + 1j * data(count)
        assert [z.sum().real, z.sum().imag] == _numpy_sum(z.view(float).tolist(), 2), count
        assert max(_numpy_sum([0] * count, 1, depth_add)) <= _pairwise_depth(count)
        assert max(_numpy_sum([0] * 2 * count, 2, depth_add)) <= _pairwise_depth(2 * count)
