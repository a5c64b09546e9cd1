"""Direct sums vs the coefficient series: hand values, equivalence, invariants."""

import dataclasses
import gc
import math
import weakref
from functools import partial

import mpmath
import numpy as np
import pytest

from charsum import analytic, fourier, quadrature
from charsum.analytic import (TERMS_CEILING, _pairwise_depth, character_series, head_rounding_bound,
                              reciprocal_tail, residue_fold)
from charsum.characters import CharacterGroup, build_character_group, real_primitive_character
from charsum.fourier import direct_sum, theorem_series, verify_theorem
from charsum.functions import FunctionSpec, VariationClass, builtin_function, fstar
from charsum.gauss_sums import tau
from charsum.quadrature import QuadratureError, graded_edges


def log_without_atoms():
    """log's closed form without its atoms and envelopes, so that both sides
    take the Cesaro window under a measured envelope."""
    return dataclasses.replace(builtin_function("log"), name="log#noatoms", atoms=(), envelope=())


@pytest.fixture(scope="module")
def odd3():
    return build_character_group(3).character_by_index(1)


@pytest.fixture(scope="module")
def odd4():
    return build_character_group(4).character_by_index(1)


@pytest.fixture(scope="module")
def chi5():
    return real_primitive_character(5)


def test_direct_sum_hand_values(odd3, odd4, chi5):
    assert direct_sum(odd4, builtin_function("t2")) == pytest.approx(1 / 16 - 9 / 16, abs=1e-15)
    assert direct_sum(odd3, builtin_function("t2")) == pytest.approx(1 / 9 - 4 / 9, abs=1e-15)
    expected = math.exp(0.2) - math.exp(0.4) - math.exp(0.6) + math.exp(0.8)
    assert direct_sum(chi5, builtin_function("exp")) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.1330002, abs=1e-7)


def test_direct_sum_real_for_real_complex_otherwise(chi5):
    assert isinstance(direct_sum(chi5, builtin_function("t")), float)
    complex_chi = build_character_group(5).character_by_index(1)
    value = direct_sum(complex_chi, builtin_function("t"))
    assert isinstance(value, complex) and abs(value.imag) > 1e-3


def test_direct_sum_rejects_imprimitive_and_tiny_moduli():
    principal8 = build_character_group(8).character_by_index(0)
    with pytest.raises(ValueError, match="primitive"):
        direct_sum(principal8, builtin_function("t2"))
    principal2 = build_character_group(2).character_by_index(0)
    with pytest.raises(ValueError):
        direct_sum(principal2, builtin_function("t2"))


def test_direct_sum_pairwise_within_gamma_of_fsum():
    # complex chi: one pairwise sum of the rounded products, within
    # gamma_k sum |products| (k = _pairwise_depth(2(q - 1))) of their exact
    # sum per component, so within that plus one ulp of math.fsum of the same
    # products; real chi: math.fsum of the products, bit for bit
    specs = [builtin_function(n) for n in ("t", "t2", "exp", "log", "step:1/4")]
    for q in (7, 13, 29, 31, 101):
        k = _pairwise_depth(2 * (q - 1))
        gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
        characters = build_character_group(q).primitive_characters()
        assert any(chi.is_real for chi in characters)
        for f in specs:
            fs = np.array([fstar(f, j / q) for j in range(1, q)])
            for chi in characters:
                products = chi.values()[1:] * fs
                direct = direct_sum(chi, f)
                if chi.is_real:
                    assert direct == math.fsum(products.tolist()), (chi.label, f.name)
                    continue
                for got, parts in ((direct.real, products.real), (direct.imag, products.imag)):
                    exact = math.fsum(parts.tolist())
                    allowed = gamma * math.fsum(np.abs(parts).tolist()) + math.ulp(exact)
                    assert abs(got - exact) <= allowed, (chi.label, f.name)


def test_series_matches_direct_odd_mod3_t2(odd3):
    sev = theorem_series(odd3, builtin_function("t2"), 1e-8)
    assert abs(sev.value - (-1 / 3)) <= max(1e-8, sev.tail_bound)
    assert sev.parity_branch == "sine_odd" and not sev.averaged
    assert sev.tail_method == "euler_maclaurin" and not sev.best_effort


def test_series_matches_direct_even_mod5_exp(chi5):
    sev = theorem_series(chi5, builtin_function("exp"), 1e-8)
    assert abs(sev.value - 0.1330001886208585) <= 1e-8
    assert sev.tail_bound <= 1e-8 and not sev.best_effort
    assert sev.parity_branch == "cosine_even" and sev.tail_method == "euler_maclaurin"


def test_series_step_function_abel_tail(odd4):
    # the partial character sum F*(1/2) = chi(1) = 1 through the step spec
    assert direct_sum(odd4, builtin_function("step:1/2")) == 1.0
    # the step's periodic atoms put every character on the tail kernel.  Its
    # bound covers truncation only; the float head's own rounding (at most
    # 6.5e-15 measured here) is allowed for apart, as in the identity 4 checks
    rounding = 1e-12
    steps = [builtin_function(f"step:{y}") for y in ("1/4", "1/2", "4/5")]
    for q in range(3, 101):
        for chi in build_character_group(q).primitive_characters():
            for f in steps:
                chk = verify_theorem(chi, f, 1e-8)
                sev = chk.series
                assert chk.passed and sev.tail_method == "euler_maclaurin" and not sev.best_effort
                assert sev.tail_bound <= 1e-8, (chi.label, f.name)
                assert chk.abs_error <= sev.tail_bound + rounding, (chi.label, f.name)


def test_verify_theorem_spot_cases(odd4, chi5):
    chk = verify_theorem(odd4, builtin_function("t2"), 1e-8)
    assert chk.passed and abs(chk.direct + 0.5) < 1e-14
    chk = verify_theorem(chi5, builtin_function("exp"), 1e-8)
    assert chk.passed and chk.abs_error <= 1e-8


def test_verify_theorem_complex_characters_mod7():
    t2 = builtin_function("t2")
    for chi in build_character_group(7).primitive_characters():
        chk = verify_theorem(chi, t2, 1e-8)
        assert chk.passed, chi.label
        if not chi.is_real:
            assert isinstance(chk.direct, complex)


def test_even_characters_never_request_sine_coefficients(chi5):
    def poisoned(n, kind):
        if kind == "sin":
            raise AssertionError("sine coefficients must not be evaluated for even chi")
        return 1.0 / (2 * math.pi**2 * n.astype(float) ** 2)

    f = FunctionSpec(
        name="poisoned-cos-only",
        evaluator=lambda t: t * t,
        variation_class=VariationClass.SMOOTH_C2,
        closed_form=poisoned,
        envelope=(("cos", 1 / (2 * math.pi**2), 2),),
    )
    sev = theorem_series(chi5, f, 1e-8)
    assert abs(sev.value - direct_sum(chi5, builtin_function("t2"))) <= max(1e-8, sev.tail_bound)
    assert sev.tail_method == "envelope"


def test_odd_symmetric_function_gives_zero_even_series(chi5):
    f = FunctionSpec(
        name="t-minus-half",
        evaluator=lambda t: t - 0.5,
        variation_class=VariationClass.SMOOTH_C2,
        closed_form=lambda n, kind: np.zeros(len(n)) if kind == "cos" else -1.0 / (2 * np.pi * n),
        envelope=(("cos", 0.0, 2), ("sin", 1 / (2 * math.pi), 1)),
    )
    sev = theorem_series(chi5, f, 1e-8)
    assert sev.value == 0.0 and sev.tail_bound == 0.0
    assert direct_sum(chi5, f) == pytest.approx(0.0, abs=1e-15)


def test_series_conjugation_for_complex_characters():
    chi = build_character_group(7).character_by_index(1)
    t2 = builtin_function("t2")
    s = theorem_series(chi, t2, 1e-8)
    s_conj = theorem_series(chi.conjugate(), t2, 1e-8)
    tol = s.tail_bound + s_conj.tail_bound + 1e-12
    assert abs(s_conj.value - np.conj(s.value)) <= tol
    # and the direct sums conjugate likewise
    assert abs(direct_sum(chi.conjugate(), t2) - np.conj(direct_sum(chi, t2))) < 1e-14


def test_best_effort_flag_for_slow_sine_branch(odd3):
    # odd chi with smooth f and no atoms: sine coefficients decay like 1/n, so
    # a 1e-8 target is unreachable within the cap TERMS_CEILING; the engine
    # must stop there, flag best-effort and still satisfy its reported bound
    t2_without_atoms = dataclasses.replace(builtin_function("t2"), name="t2#noatoms", atoms=())
    sev = theorem_series(odd3, t2_without_atoms, 1e-8)
    assert (sev.tail_method, sev.terms_used) == ("envelope", TERMS_CEILING)
    assert sev.best_effort and sev.tail_bound > 1e-8
    assert abs(sev.value - (-1 / 3)) <= sev.tail_bound


@pytest.mark.parametrize("name", ["t", "t2", "exp"])
def test_abel_tail_clamped_by_small_terms_cap(name, monkeypatch):
    # N stops at the cap, here TERMS_CEILING made small; the bound there is
    # reported as is, and holds
    chi = build_character_group(13).character_by_index(1)
    f = builtin_function(name)
    monkeypatch.setattr(fourier, "TERMS_CEILING", 2 * chi.modulus)
    sev = theorem_series(chi, f, 1e-12)
    assert sev.tail_method == "euler_maclaurin" and sev.terms_used == 2 * chi.modulus
    assert sev.best_effort and sev.tail_bound > 1e-12
    assert abs(sev.value - direct_sum(chi, f)) <= sev.tail_bound


def test_step_rows_past_a_million_terms_certify():
    # a jump at 1/991 against q = 1009: the atoms' tail runs over the period
    # lcm(1009, 991) = 999,919, so N reaches about 4.2e6 (the odd row the cap
    # TERMS_CEILING itself) before the bound meets 1e-8, past the old 10^6
    f = builtin_function("step:1/991")
    group = build_character_group(1009)
    for parity in ("odd", "even"):
        chi = next(c for c in group.primitive_characters() if c.is_even == (parity == "even"))
        chk = verify_theorem(chi, f, 1e-8)
        sev = chk.series
        assert 10**6 < sev.terms_used <= TERMS_CEILING, parity
        assert not sev.best_effort and sev.tail_bound <= 1e-8, parity
        kind = "cos" if chi.is_even else "sin"
        table = chi.values_real() if chi.is_real else np.conj(chi.values_complex())
        coeffs = fourier.cached_coefficients(f, kind, sev.terms_used)
        rounding = 2 * math.sqrt(1009) * head_rounding_bound(table, coeffs)
        assert chk.abs_error <= sev.tail_bound + rounding, parity


def test_abel_tail_explicit_terms_fix_n(odd3):
    t = builtin_function("t")
    coarse = theorem_series(odd3, t, 1e-8, terms=7)
    fine = theorem_series(odd3, t, 1e-8, terms=700)
    assert (coarse.terms_used, fine.terms_used) == (7, 700)
    assert fine.tail_bound < coarse.tail_bound
    # the tail bound covers truncation only; the head adds its rounding, at
    # N = 700 more than the tail bound itself
    for sev in (coarse, fine):
        coeffs = fourier.cached_coefficients(t, "sin", sev.terms_used)
        rounding = 2 * math.sqrt(3) * head_rounding_bound(odd3.values_real(), coeffs)
        assert abs(sev.value - direct_sum(odd3, t)) <= sev.tail_bound + rounding


def test_explicit_terms_above_cap_rejected_before_allocating(odd3, monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("the series must not be set up")

    for name in ("cached_coefficients", "series_truncation"):
        monkeypatch.setattr(fourier, name, no_series)
    for f in (builtin_function("t"), log_without_atoms()):  # kernel and Cesaro tails
        for terms in (0, 10**12):
            with pytest.raises(ValueError, match=f"terms must be >= 1 and at most {TERMS_CEILING}, "
                                                 f"got {terms}"):
                theorem_series(odd3, f, 1e-8, terms=terms)


def test_terms_cap_above_ceiling_rejected_before_allocating(odd3, monkeypatch):
    # TERMS_CEILING is the one cap on N: one past it is refused before any
    # coefficient array is built, on both the kernel and the Cesaro tails
    t = builtin_function("t")
    sev = theorem_series(odd3, t, 1e-8, terms=40)
    assert sev.terms_used == 40

    def no_series(*args, **kwargs):
        raise AssertionError("the series must not be set up")

    for name in ("cached_coefficients", "series_truncation"):
        monkeypatch.setattr(fourier, name, no_series)
    for f in (t, log_without_atoms()):
        with pytest.raises(ValueError, match=f"at most {TERMS_CEILING}, got {TERMS_CEILING + 1}"):
            theorem_series(odd3, f, 1e-300, terms=TERMS_CEILING + 1)


def test_unbounded_variation_rejected(chi5):
    f = FunctionSpec(
        name="wild",
        evaluator=lambda t: math.sin(1 / t),
        variation_class=VariationClass.UNBOUNDED_VARIATION,
    )
    with pytest.raises(ValueError, match="unbounded"):
        theorem_series(chi5, f, 1e-8)


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0, 4.9e-324])
def test_theorem_series_rejects_target_below_the_tolerance_rule(chi5, target):
    # 4.9e-324 would halve to 0 inside the engine
    with pytest.raises(ValueError, match="target_accuracy must be finite and > 0"):
        theorem_series(chi5, builtin_function("t"), target)


def test_theorem_series_rejects_imprimitive():
    induced = [
        c for c in build_character_group(8).characters() if c.conductor == 4
    ][0]
    with pytest.raises(ValueError, match="primitive"):
        theorem_series(induced, builtin_function("t2"), 1e-8)


def test_quadrature_backed_spec_through_verify(odd3):
    bare_exp = FunctionSpec(
        name="exp#nocf",
        evaluator=math.exp,
        variation_class=VariationClass.SMOOTH_C2,
    )
    chk = verify_theorem(odd3, bare_exp, 1e-6)
    assert chk.passed
    assert chk.series.quadrature_budget > 0.0


def test_weighted_atoms_over_a_nonzero_twisted_mean_are_rejected(monkeypatch):
    # the even real chi mod 5 twisted by its own table sums to 4 over the
    # period 5, so the constant that each class sum of the atoms' kernel
    # drops would not cancel: the row is refused before any coefficient
    # array is built
    chi = real_primitive_character(5)
    f = FunctionSpec(
        name="twisted#mean",
        evaluator=lambda t: t,
        variation_class=VariationClass.PIECEWISE_SMOOTH,
        atoms=(("cos", ((chi.values_real(), 0.0),)),),
    )

    def no_coefficients(*args, **kwargs):
        raise AssertionError("no coefficient array may be built")

    monkeypatch.setattr(fourier, "cached_coefficients", no_coefficients)
    with pytest.raises(ValueError, match="mean zero"):
        theorem_series(chi, f, 1e-8)
    assert f not in fourier._modulus_cache


def test_cesaro_series_decay(odd4):
    # log's sine side without its atoms is a singular class without atoms
    f = log_without_atoms()
    direct = direct_sum(odd4, f)
    counts = [500, 1000, 2000, 4000, 8000]
    series = [theorem_series(odd4, f, 1e-8, terms=n) for n in counts]
    assert {s.tail_method for s in series} == {"cesaro"}
    errors = [abs(s.value - direct) for s in series]
    assert errors[-1] <= 5e-3
    slope = np.polyfit(np.log(counts), np.log(errors), 1)[0]
    assert slope <= -0.8


def test_cesaro_window_fold_is_the_old_engine_fold():
    # the window's fold, bit for bit, is the one the engine built when it
    # weighted the terms itself: a_1..a_2N copied into a zero-padded array
    # of (2N // m + 1) m terms from n = 0, with a_n, n > N, multiplied by
    # 2N - n + 1 and then divided by N + 1
    f = dataclasses.replace(log_without_atoms(), name="log#window-fold")
    for m, n_terms in ((5, 1), (7, 64), (13, 1000), (101, 4000)):
        for kind in ("cos", "sin"):
            coeffs = fourier.cached_coefficients(f, kind, 2 * n_terms)
            length = 2 * n_terms
            terms = np.zeros((length // m + 1) * m)
            terms[1 : length + 1] = coeffs
            upper = terms[n_terms + 1 : length + 1]
            upper *= np.arange(n_terms, 0, -1)
            upper /= n_terms + 1
            old = residue_fold(terms[1 : length + 1], m)
            folded = fourier.series_table(f, kind, m, n_terms)
            assert folded.tobytes() == old.tobytes(), (m, n_terms, kind)
            assert set(fourier._modulus_cache[f][1]) >= {(kind, n_terms)}


def test_cesaro_window_takes_half_the_cap(odd4, monkeypatch):
    # a target the cap (TERMS_CEILING, made small) cannot reach: the window
    # stops at N = cap // 2 and folds a_1 .. a_2N, the whole cap, once
    f = dataclasses.replace(log_without_atoms(), name="log#half-cap")
    folds = []

    def counted(coeffs, m):
        folds.append((m, len(coeffs)))
        return residue_fold(coeffs, m)

    monkeypatch.setattr(fourier, "residue_fold", counted)
    monkeypatch.setattr(fourier, "TERMS_CEILING", 5000)
    sev = theorem_series(odd4, f, 1e-30)
    assert (sev.terms_used, sev.tail_method, sev.best_effort) == (2500, "cesaro", True)
    assert folds == [(4, 5000)]
    assert set(fourier._modulus_cache[f][1]) == {("sin", 2500)}  # a real chi: no transform
    # a complex chi reads its head from the transform of the same window fold
    chi = build_character_group(5).character_by_index(1)
    assert chi.is_odd and not chi.is_real
    sev = theorem_series(chi, f, 1e-30)
    assert (sev.terms_used, sev.tail_method, sev.best_effort) == (2500, "cesaro", True)
    assert folds == [(4, 5000), (5, 5000)]
    assert set(fourier._modulus_cache[f][1]) == {("sin", 2500), ("sin", 2500, "transform")}


def test_cesaro_window_at_one_term(odd4):
    # N = 1 sums the window [1, 2]: (S_1 + S_2)/2 = p_1 + p_2/2 with
    # p_n = conj(chi)(n) b_n
    f = log_without_atoms()
    sev = theorem_series(odd4, f, 1e-30, terms=1)
    assert (sev.terms_used, sev.tail_method, sev.averaged) == (1, "cesaro", True)
    assert sev.best_effort
    p1, p2 = (odd4.values_real()[[1, 2]] * fourier.cached_coefficients(f, "sin", 2)).tolist()
    prefactor = -2j * fourier.tau(odd4)
    expected = (prefactor * (math.fsum([p1, p1, p2]) / 2)).real
    assert sev.value == pytest.approx(expected, rel=1e-15, abs=1e-16)


def test_cesaro_window_rows_within_their_bound(monkeypatch):
    # the window's value minus the series is the mean of the tails beyond
    # N .. 2N, each within the bound at N: over a sample of the characters
    # mod q < 60, log and three steps without atoms take the window on both
    # sides, at N solved (the cap, here TERMS_CEILING made 10^6 to keep the
    # run short), 64 and 1000, and stay within their bound up to the head's
    # rounding
    monkeypatch.setattr(fourier, "TERMS_CEILING", 10**6)
    rng = np.random.default_rng(19)
    moduli = [q for q in range(3, 60) if q % 4 != 2]
    for name in ("log", "step:1/3", "step:2/5", "step:1/2"):
        f = dataclasses.replace(builtin_function(name), name=f"{name}#bare", atoms=(), envelope=())
        for q in rng.choice(moduli, 4, replace=False).tolist():
            for chi in build_character_group(q).primitive_characters():
                for terms in (None, 64, 1000):
                    chk = verify_theorem(chi, f, 1e-6, terms=terms)
                    assert chk.series.tail_method == "cesaro"
                    assert chk.abs_error <= chk.series.tail_bound + 1e-13, (name, chi.label, terms)


def test_coefficient_decay_slopes():
    # smooth family cosine coefficients: log-log slope <= -1.9 on n in [10, 1000];
    # step functions: slope <= -0.9
    n = np.arange(10, 1001)
    for name in ("t2", "exp"):
        coeffs = np.abs(builtin_function(name).closed_form(n, "cos"))
        slope = np.polyfit(np.log(n), np.log(coeffs), 1)[0]
        assert slope <= -1.9, name
    for name in ("step:1/4", "step:4/5"):
        f = builtin_function(name)
        for kind in ("cos", "sin"):
            coeffs = np.abs(f.closed_form(n, kind))
            keep = coeffs > 1e-12  # skip exact zeros of the sine pattern
            slope = np.polyfit(np.log(n[keep]), np.log(coeffs[keep]), 1)[0]
            assert slope <= -0.9, (name, kind)


# --- quadrature sample cache ----------------------------------------------------


def _counted(g):
    def evaluator(t):
        evaluator.calls += 1
        return g(t)

    evaluator.calls = 0
    return evaluator


def _user_specs():
    """Quadrature-only specs shaped like the benchmark's: smooth, jump, log-singular."""
    y = 5 / 11
    return [
        FunctionSpec(
            name="smooth#quad",
            evaluator=_counted(lambda t: math.exp(-t) * math.cos(3.0 * t)),
            variation_class=VariationClass.SMOOTH_C2,
        ),
        FunctionSpec(
            name="jump#quad",
            evaluator=_counted(lambda t: 1.0 + t if t <= y else t * t),
            variation_class=VariationClass.PIECEWISE_SMOOTH,
            jump_points=((y, 1.0 + y, y * y),),
        ),
        FunctionSpec(
            name="log-singular#quad",
            evaluator=_counted(lambda t: math.log(t) * (1.0 - 0.5 * t)),
            variation_class=VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
            singular_at_zero=True,
        ),
    ]


# The per-n Filon rule under panel halving, kept here as the oracle of the
# batched library rule: one omega per call, a fresh grid and fresh samples per
# panel count, scalar weights and 1-D sums.  Each doubling sums only its new
# odd points; its even sum is the last rule's even plus odd sum.


def _scalar_filon_weights(theta):
    if theta >= 1.0 / 6.0:
        s, c = math.sin(theta), math.cos(theta)
        t3 = theta**3
        alpha = (theta**2 + theta * s * c - 2.0 * s * s) / t3
        beta = 2.0 * (theta * (1.0 + c * c) - 2.0 * s * c) / t3
        gamma = 4.0 * (s - theta * c) / t3
    else:
        t2 = theta * theta
        alpha = theta * t2 * (2.0 / 45 + t2 * (-2.0 / 315 + t2 * (2.0 / 4725)))
        beta = 2.0 / 3 + t2 * (2.0 / 15 + t2 * (-4.0 / 105 + t2 * (2.0 / 567)))
        gamma = 4.0 / 3 + t2 * (-2.0 / 15 + t2 * (1.0 / 210 + t2 * (-1.0 / 11340)))
    return alpha, beta, gamma


def _scalar_filon_integral(f, a, b, omega, kind, panels, sums):
    """The rule at `panels` panels; sums is None for the first rule, else
    (even, odd, half, edge) at panels // 2.  Returns (value, sums)."""
    h = (b - a) / (2 * panels)
    alpha, beta, gamma = _scalar_filon_weights(omega * h)
    x = np.linspace(a, b, 2 * panels + 1)
    fx = f(x)
    trig = np.cos if kind == "cos" else np.sin
    if sums is None:
        if kind == "cos":
            edge = fx[-1] * math.sin(omega * b) - fx[0] * math.sin(omega * a)
        else:
            edge = -(fx[-1] * math.cos(omega * b) - fx[0] * math.cos(omega * a))
        fg = fx * trig(omega * x)
        even, odd, half = fg[::2].sum(), fg[1::2].sum(), 0.5 * (fg[0] + fg[-1])
    else:
        even, odd, half, edge = sums
        even, odd = even + odd, (fx[1::2] * trig(omega * x[1::2])).sum()
    value = h * (alpha * edge + beta * (even - half) + gamma * odd)
    return value, (even, odd, half, edge)


def _scalar_filon_adaptive(f, a, b, omega, kind):
    panels = 8
    prev, sums = _scalar_filon_integral(f, a, b, omega, kind, panels, None)
    while panels <= quadrature.MAX_PANELS:
        resolved = omega * ((b - a) / (2 * panels)) < math.pi  # not an aliased grid
        panels *= 2
        cur, sums = _scalar_filon_integral(f, a, b, omega, kind, panels, sums)
        err = abs(cur - prev)
        if resolved and err <= max(quadrature.REL_TOL * abs(cur), quadrature.ABS_FLOOR):
            return cur, err
        prev = cur
    raise QuadratureError(f"no convergence at omega = {omega}", err)


def test_filon_taylor_weights_bit_identical_to_scalar():
    # the library's Taylor branch (theta < 1/6) is array arithmetic in the
    # scalar rule's operation order; the closed forms stay scalar libm calls
    sixth = 1.0 / 6.0
    rng = np.random.default_rng(23)
    theta = np.concatenate([
        [0.0, 5e-324, np.nextafter(sixth, 0.0), sixth, np.nextafter(sixth, 1.0)],
        np.geomspace(1e-12, sixth, 20_000, endpoint=False),
        rng.uniform(0.0, sixth, 20_000),
        rng.uniform(sixth, 300.0, 2_000),
    ])
    expected = np.array([_scalar_filon_weights(t) for t in theta.tolist()]).T
    assert np.stack(quadrature._filon_weights(theta)).tobytes() == expected.tobytes()


def _cold_coefficient(f, n, kind):
    """One coefficient by the per-n rule, sampling f afresh at every doubling."""
    omega = 2.0 * math.pi * n
    breakpoints = [0.0] + [t for t, _, _ in f.jump_points] + [1.0]
    total = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        base = np.vectorize(f.evaluator, otypes=[float])
        # one-sided limits at the piece's ends
        ends = [(t, right) for t, _, right in f.jump_points if t == a]
        ends += [(t, left) for t, left, _ in f.jump_points if t == b]

        def evaluator(x, base=base, ends=ends):
            fx = base(x)
            for t, value in ends:
                fx = np.where(x == t, value, fx)
            return fx

        edges = graded_edges(0.0, b) if f.singular_at_zero and a == 0.0 else [(a, b)]
        for lo, hi in edges:
            total += _scalar_filon_adaptive(evaluator, lo, hi, omega, kind)[0]
    return total


@pytest.mark.parametrize("index", range(3))
def test_sampled_coefficients_bit_identical_to_cold_quadrature(index):
    f = _user_specs()[index]
    count = 128
    cached = {kind: fourier.cached_coefficients(f, kind, count) for kind in ("cos", "sin")}
    calls = f.evaluator.calls
    # each grid point of each piece is evaluated once, whatever n, kind or doubling
    pieces = fourier._sample_cache[f]
    assert calls <= sum(len(piece.values) for piece in pieces)
    for kind in ("cos", "sin"):
        cold = [_cold_coefficient(f, n, kind) for n in range(1, count + 1)]
        assert cached[kind].tolist() == cold, (f.name, kind)
    # the cold pass re-samples every grid at every doubling of every coefficient
    assert f.evaluator.calls - calls > 20 * calls


def test_sample_cache_keeps_quadrature_error_accuracy():
    wild = FunctionSpec(
        name="wild#quad",
        evaluator=_counted(lambda t: math.sin(1.0 / (t + 1e-4))),
        variation_class=VariationClass.PIECEWISE_SMOOTH,
    )
    with pytest.raises(QuadratureError) as first:
        fourier.fourier_coefficient(wild, 3, "cos")
    calls = wild.evaluator.calls
    with pytest.raises(QuadratureError) as again:
        fourier.fourier_coefficient(wild, 3, "sin")
    assert wild.evaluator.calls == calls  # the finest grid is held, not re-sampled
    with pytest.raises(QuadratureError) as cold:
        _cold_coefficient(wild, 3, "cos")
    assert first.value.achieved > 0 and again.value.achieved > 0
    assert first.value.achieved == cold.value.achieved


def test_fstar_table_is_fstar_bit_for_bit():
    # the table fills from the evaluator and patches each jump that is some
    # k/q; it must equal fstar point by point, bit for bit
    y = 3 / 8
    user = FunctionSpec(
        name="jump#fstar",
        evaluator=lambda t: math.exp(t) if t <= y else -t,
        variation_class=VariationClass.PIECEWISE_SMOOTH,
        jump_points=((y, math.exp(y), -y), (0.5, 1.0, 0.0)),
    )
    specs = [builtin_function(n) for n in ("t2", "t", "exp", "log", "step:1/4", "step:1/2", "step:2/7")]
    for f in specs + [user]:
        for q in (3, 7, 8, 14, 16, 29, 40, 101):
            table = fourier._fstar_values(f, q)
            expected = np.array([fstar(f, k / q) for k in range(1, q)])
            assert table.dtype == float and table.tobytes() == expected.tobytes(), (f.name, q)
    # the jump cases above: 3/8 for q = 8, 16 and 40, 1/2 for every even q
    assert fourier._fstar_values(user, 16)[5] == 0.5 * (math.exp(y) - y)


def test_array_evaluators_and_points_are_bit_identical_to_the_scalar_loop():
    # the f* table takes its points as one array and fills t, t2 and the steps
    # by array arithmetic; both must equal the per-point Python values
    for q in (3, 1000, 2003, 99_991):
        points = np.arange(1, q) / q
        assert points.tobytes() == np.array([k / q for k in range(1, q)]).tobytes(), q
        for name in ("t", "t2", "step:1/2", "step:1/4", "step:2/7", "step:999/1000"):
            f = builtin_function(name)
            expected = np.array([f.evaluator(x) for x in points.tolist()])
            assert f.array_evaluator(points).tobytes() == expected.tobytes(), (name, q)


def test_fstar_cache_keeps_recent_moduli_only():
    t2 = dataclasses.replace(builtin_function("t2"), name="t2#fstar")
    for q in range(3, 40):
        table = fourier._fstar_values(t2, q)
        assert fourier._modulus_cache[t2][0] == q  # only the modulus in use is held
        assert set(fourier._modulus_cache[t2][1]) == {"fstar"}
    assert fourier._fstar_values(t2, 39) is table
    assert np.array_equal(table, [fstar(t2, k / 39) for k in range(1, 39)])
    # a new modulus replaces the held f* table and releases it
    old = weakref.ref(table)
    del table
    fourier._fstar_values(t2, 40)
    gc.collect()
    assert old() is None


def test_fold_cache_keeps_recent_moduli_only():
    t2 = dataclasses.replace(builtin_function("t2"), name="t2#moduli")
    for m in range(3, 20):
        folded = fourier.series_table(t2, "sin", m, 64)
        assert fourier._modulus_cache[t2][0] == m  # only the modulus in use is held
        assert set(fourier._modulus_cache[t2][1]) == {("sin", 64)}
    assert fourier.series_table(t2, "sin", 19, 64) is folded
    # the f* table and the series tables of one modulus share its tables
    table = fourier._fstar_values(t2, 19)
    assert set(fourier._modulus_cache[t2][1]) == {"fstar", ("sin", 64)}
    old = [weakref.ref(table), weakref.ref(folded)]
    del table, folded
    fourier.series_table(t2, "sin", 20, 64)
    gc.collect()
    assert [ref() for ref in old] == [None, None]


def test_group_folds_the_coefficients_once_per_n(monkeypatch):
    # every character of one group with one spec reaches the coefficients
    # and the atoms' tail through one W = fold + kernel per (kind, q, N)
    # (series_table), and its complex rows through one transform per table:
    # the f* table and each W.  A second pass folds, sums and transforms
    # nothing, and a new modulus frees the transforms
    log = builtin_function("log")
    fourier._modulus_cache.pop(log, None)
    folds, kernels, transforms = [], [], []

    def counted(coeffs, m):
        folds.append((m, len(coeffs)))
        return residue_fold(coeffs, m)

    def counted_tail(atoms, m, n_terms):
        kernels.append((m, n_terms))
        return reciprocal_tail(atoms, m, n_terms)

    transform = CharacterGroup.transform

    def counted_transform(group, h, conjugate=False):
        transforms.append((group.modulus, conjugate))
        return transform(group, h, conjugate)

    monkeypatch.setattr(analytic, "residue_fold", counted)
    monkeypatch.setattr(analytic, "reciprocal_tail", counted_tail)
    monkeypatch.setattr(CharacterGroup, "transform", counted_transform)
    group = build_character_group(13)
    characters = group.primitive_characters()
    checks = [verify_theorem(chi, log, 1e-8) for chi in characters]
    expected = sorted({(c.series.parity_branch, c.series.terms_used) for c in checks})
    assert [branch for branch, _ in expected] == ["cosine_even", "sine_odd"]  # both kinds
    assert not any(c.series.averaged for c in checks)
    assert sorted(folds) == sorted((13, n) for _, n in expected)
    assert sorted(kernels) == sorted((13, n) for _, n in expected)
    heads = {("cos" if c.series.parity_branch == "cosine_even" else "sin", c.series.terms_used)
             for chi, c in zip(characters, checks) if not chi.is_real}
    assert len(heads) == 2  # complex characters of both parities
    assert sorted(transforms) == [(13, False)] + [(13, True)] * len(heads)
    held = fourier._modulus_cache[log][1]
    assert {key for key in held if "transform" in key} == {("fstar", "transform")} | {
        (kind, n, "transform") for kind, n in heads}
    again = [verify_theorem(chi, log, 1e-8) for chi in characters]
    assert (len(folds), len(kernels), len(transforms)) == (len(expected), len(expected), 1 + len(heads))
    assert again == checks
    old = [weakref.ref(table) for key, table in held.items() if "transform" in key]
    del held
    verify_theorem(build_character_group(11).character_by_index(1), log, 1e-8)
    gc.collect()
    assert [ref() for ref in old] == [None] * (1 + len(heads))


def test_kernel_cache_keeps_the_modulus_in_use_only():
    # the atoms' kernel is held inside W, one read-only table per (kind, N)
    t = dataclasses.replace(builtin_function("t"), name="t#kernel")
    table = fourier.series_table(t, "sin", 7, 56)
    assert fourier.series_table(t, "sin", 7, 56) is table and not table.flags.writeable
    assert set(fourier._modulus_cache[t][1]) == {("sin", 56)}
    fold = residue_fold(fourier.cached_coefficients(t, "sin", 56), 7)
    assert table.tobytes() == (fold + reciprocal_tail(t.atoms_for("sin"), 7, 56)).tobytes()
    old = weakref.ref(table)
    del table
    fourier.series_table(t, "sin", 11, 88)
    gc.collect()
    assert old() is None


def test_fold_cache_holds_no_coefficient_array():
    t2 = dataclasses.replace(builtin_function("t2"), name="t2#fold")
    folded = fourier.series_table(t2, "sin", 7, 5000)
    coeffs = weakref.ref(fourier._coeff_cache[t2]["sin"])
    assert not np.shares_memory(folded, coeffs())
    fourier._coeff_cache.pop(t2)
    gc.collect()
    assert coeffs() is None  # nothing but the coefficient cache held the array
    assert fourier.series_table(t2, "sin", 7, 5000) is folded


def test_coefficients_beyond_the_retained_length_are_not_kept():
    t2 = dataclasses.replace(builtin_function("t2"), name="t2#retain")
    short = fourier.cached_coefficients(t2, "cos", 1000)
    count = fourier.RETAINED_TERMS + 1
    long = fourier.cached_coefficients(t2, "cos", count)
    assert len(long) == count and np.array_equal(long[:1000], short)
    assert len(fourier._coeff_cache[t2]["cos"]) == 1000


# --- the group route: one transform per table against the one-character oracle


U = 2.0**-53


def _gamma(k):
    return k * U / (1.0 - k * U)


def transform_bound(group, h):
    """CharacterGroup.transform's stated bound on each entry, and on each of
    its parts: eps sqrt(phi) |h|_2 over the units, eps = t eta/(1 - t eta),
    eta = u + gamma_4 (sqrt(2) + u), t = sum_i ceil(log2 order_i)."""
    levels = sum(math.ceil(math.log2(f.order)) for f in group._factors)
    eta = U + _gamma(4) * (math.sqrt(2.0) + U)
    eps = levels * eta / (1.0 - levels * eta)
    units = np.asarray(h, dtype=float)[group._unit_mask]
    return eps * math.sqrt(group.phi) * math.sqrt(math.fsum((units * units).tolist())) * (1.0 + 2.0**-50)


def one_character_dot_bound(count, h):
    """Per component, the rounding of one pairwise dot of `count` gathered
    roots with the exact real h: each root is within a = 2 pi gamma_3 +
    sqrt(2) u, each product part rounds once (gamma_2), and the pairwise sum
    of the 2 count interleaved parts adds gamma_k, k = _pairwise_depth(2 count)."""
    a = 2.0 * math.pi * _gamma(3) + math.sqrt(2.0) * U
    k = _pairwise_depth(2 * count)
    per_unit = a + _gamma(2) * (1.0 + a) + _gamma(k) * (1.0 + a) * (1.0 + _gamma(2))
    return per_unit * math.fsum(np.abs(h).tolist()) * (1.0 + 2.0**-50)


def exact_transform(group, h, conjugate):
    """sum_k chi(k) h[k] (conj(chi) when `conjugate`) for every character in
    index order, from 40-digit roots of unity and the floats of h as exact."""
    e = group.exponent
    sign = -1 if conjugate else 1
    with mpmath.workdps(40):
        roots = [mpmath.expjpi(mpmath.mpf(2 * sign * j) / e) for j in range(e)]
        exact_h = [mpmath.mpf(float(x)) for x in h]
        out = []
        for chi in group.characters():
            turns = chi.turns.tolist()
            out.append(mpmath.fsum(roots[t] * exact_h[k] for k, t in enumerate(turns) if t >= 0))
    return out


@pytest.mark.parametrize("q", (101, 360))
def test_transform_bound_covers_40_digit_sums(q):
    # both directions, on a prime group (one factor of order 100) and a
    # composite one (factors of order 2, 2, 6 and 4): the direct side of t
    # (the f* table k/q, exact as floats) and log's cosine series head W
    group = build_character_group(q)
    t, log = builtin_function("t"), builtin_function("log")
    fstar_table = np.append(0.0, fourier._fstar_values(t, q))
    n_terms = 8 * q
    head_table = fourier.series_table(log, "cos", q, n_terms)
    for h, conjugate in ((fstar_table, False), (head_table, True)):
        bound = transform_bound(group, h)
        sums = group.transform(h, conjugate=conjugate)
        exact = exact_transform(group, h, conjugate)
        worst = 0.0
        for got, want in zip(sums.tolist(), exact):
            with mpmath.workdps(40):
                worst = max(worst, abs(float(want.real - got.real)), abs(float(want.imag - got.imag)))
        assert worst <= bound, (q, conjugate, worst, bound)
        assert worst > 0.0  # the check reads a rounded sum, not a copy of the exact one


def one_character_series(chi, f, target):
    """theorem_series through analytic.character_series with fold_head, one
    character at a time: the oracle of the group route."""
    kind = "cos" if chi.is_even else "sin"
    atoms = f.atoms_for(kind)
    tau_value = tau(chi)
    prefactor = 2.0 * tau_value if chi.is_even else -2.0j * tau_value
    cap = TERMS_CEILING if f.closed_form is not None else fourier._QUADRATURE_TERMS_CAP
    if fourier._windowed(f, kind):
        cap //= 2
    start = max(fourier._MIN_TERMS, 8 * chi.modulus) if atoms else fourier._MIN_TERMS
    value, n_terms, tail = character_series(
        np.conj(chi.values()), partial(fourier.series_table, f, kind), prefactor, target, start, cap,
        atoms, fourier._envelope(f, kind),
    )
    return prefactor, value, n_terms, tail


@pytest.mark.parametrize("q", (5, 13, 15, 16, 24, 40, 63, 101, 360, 1009))
def test_group_route_within_transform_bound_of_the_oracle(q):
    # one to four cyclic factors (2-power moduli included): every row
    # keeps the oracle's N, tail bound, pass tolerance and verdict; a real
    # row is the oracle bit for bit, and a complex row's sides move by at
    # most the transform's bound plus the oracle's own pairwise rounding
    group = build_character_group(q)
    characters = group.primitive_characters()
    assert characters and any(not chi.is_real for chi in characters) == (q != 24)  # mod 24 all are real
    target = 1e-6
    specs = [builtin_function(n) for n in ("t", "t2", "exp", "log", "step:1/4")]
    if q <= 13:  # a user spec: quadrature coefficients under a measured envelope
        specs.append(FunctionSpec(name="exp#nocf", evaluator=math.exp, variation_class=VariationClass.SMOOTH_C2))
    for f in specs:
        fstar_table = np.append(0.0, fourier._fstar_values(f, q))
        lhs_allowed = transform_bound(group, fstar_table) + math.sqrt(2.0) * one_character_dot_bound(
            q - 1, fstar_table)
        for chi in characters:
            chk = verify_theorem(chi, f, target)
            direct = direct_sum(chi, f)
            prefactor, value, n_terms, tail = one_character_series(chi, f, target)
            if f.closed_form is None:
                assert chk.series.quadrature_budget > 0.0
            tolerance = tail + 1e-9 + chk.series.quadrature_budget
            assert (chk.series.terms_used, chk.series.tail_bound) == (n_terms, tail), (chi.label, f.name)
            assert chk.pass_tolerance == tolerance, (chi.label, f.name)
            assert chk.passed == (abs(direct - value) <= tolerance), (chi.label, f.name)
            if chi.is_real:
                assert chk.direct == direct and chk.series.value == float(value.real), (chi.label, f.name)
                continue
            kind = "cos" if chi.is_even else "sin"
            head_table = fourier._modulus_cache[f][1][kind, n_terms, "transform"]
            assert head_table.shape == (group.phi,)
            w = fourier.series_table(f, kind, q, n_terms)
            head = abs(value / prefactor)
            rhs_allowed = abs(prefactor) * (
                transform_bound(group, w) + math.sqrt(2.0) * one_character_dot_bound(q, w)
                + 2.0 * math.sqrt(2.0) * _gamma(2) * head
            ) * (1.0 + 2.0**-50)
            assert abs(chk.direct - direct) <= lhs_allowed, (chi.label, f.name)
            assert abs(chk.series.value - value) <= rhs_allowed, (chi.label, f.name)
