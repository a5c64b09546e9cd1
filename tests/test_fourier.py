"""Direct sums vs the coefficient series: hand values, equivalence, invariants."""

import dataclasses
import math

import numpy as np
import pytest

from charsum.characters import build_character_group, real_primitive_character
from charsum.fourier import direct_sum, theorem_series, verify_theorem
from charsum.functions import FunctionSpec, VariationClass, builtin_function


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


def test_series_matches_direct_odd_mod3_t2(odd3):
    sev = theorem_series(odd3, builtin_function("t2"), 1e-8)
    assert abs(sev.value - (-1 / 3)) <= max(1e-8, sev.tail_bound)
    assert sev.parity_branch == "sine_odd" and not sev.averaged
    assert sev.tail_method == "abel" and not sev.best_effort


def test_series_matches_direct_even_mod5_exp(chi5):
    sev = theorem_series(chi5, builtin_function("exp"), 1e-8)
    assert abs(sev.value - 0.1330001886208585) <= 1e-8
    assert sev.tail_bound <= 1e-8 and not sev.best_effort
    assert sev.parity_branch == "cosine_even" and sev.tail_method == "abel"


def test_series_step_function_with_averaging(odd4):
    # the partial character sum F*(1/2) = chi(1) = 1 through the step spec
    sev = theorem_series(odd4, builtin_function("step:1/2"), 1e-8, terms=10**4)
    assert sev.averaged and sev.tail_method == "cesaro"
    assert sev.value == pytest.approx(direct_sum(odd4, builtin_function("step:1/2")), abs=5e-3)
    assert direct_sum(odd4, builtin_function("step:1/2")) == pytest.approx(1.0, abs=1e-15)


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
    # a 1e-8 target is unreachable by truncation; the engine must flag
    # best-effort and still satisfy its reported bound
    t2_without_atoms = dataclasses.replace(builtin_function("t2"), name="t2#noatoms", atoms=())
    sev = theorem_series(odd3, t2_without_atoms, 1e-8, terms_cap=10**5)
    assert sev.tail_method == "envelope"
    assert sev.best_effort and sev.tail_bound > 1e-8
    assert abs(sev.value - (-1 / 3)) <= sev.tail_bound


@pytest.mark.parametrize("name", ["t", "t2", "exp"])
def test_abel_tail_clamped_by_small_terms_cap(name):
    # the Abel doubling stops at the cap; the bound there is reported as is
    chi = build_character_group(13).character_by_index(1)
    f = builtin_function(name)
    sev = theorem_series(chi, f, 1e-12, terms_cap=2 * chi.modulus)
    assert sev.tail_method == "abel" and sev.terms_used == 2 * chi.modulus
    assert sev.best_effort and sev.tail_bound > 1e-12
    assert abs(sev.value - direct_sum(chi, f)) <= sev.tail_bound


def test_abel_tail_explicit_terms_fix_n(odd3):
    t = builtin_function("t")
    coarse = theorem_series(odd3, t, 1e-8, terms=7)
    fine = theorem_series(odd3, t, 1e-8, terms=700)
    assert (coarse.terms_used, fine.terms_used) == (7, 700)
    assert fine.tail_bound < coarse.tail_bound
    for sev in (coarse, fine):
        assert abs(sev.value - direct_sum(odd3, t)) <= sev.tail_bound


def test_unbounded_variation_rejected(chi5):
    f = FunctionSpec(
        name="wild",
        evaluator=lambda t: math.sin(1 / t),
        variation_class=VariationClass.UNBOUNDED_VARIATION,
    )
    with pytest.raises(ValueError, match="unbounded"):
        theorem_series(chi5, f, 1e-8)


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


def test_cesaro_series_decay(chi5):
    f = builtin_function("log")
    direct = direct_sum(chi5, f)
    counts = [500, 1000, 2000, 4000, 8000]
    values = [theorem_series(chi5, f, 1e-8, terms=n).value for n in counts]
    errors = [abs(v - direct) for v in values]
    assert errors[-1] <= 5e-3
    slope = np.polyfit(np.log(counts), np.log(errors), 1)[0]
    assert slope <= -0.8


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
