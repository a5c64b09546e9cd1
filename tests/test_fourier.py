"""Direct sums vs the coefficient series: hand values, equivalence, invariants."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from charsum import fourier
from charsum.analytic import head_rounding_bound, reciprocal_tail, residue_fold
from charsum.characters import build_character_group, real_primitive_character
from charsum.fourier import direct_sum, theorem_series, verify_theorem
from charsum.functions import FunctionSpec, VariationClass, builtin_function, fstar
from charsum.quadrature import QuadratureError, filon_adaptive, graded_edges


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
    # a 1e-8 target is unreachable by truncation; the engine must flag
    # best-effort and still satisfy its reported bound
    t2_without_atoms = dataclasses.replace(builtin_function("t2"), name="t2#noatoms", atoms=())
    sev = theorem_series(odd3, t2_without_atoms, 1e-8, terms_cap=10**5)
    assert sev.tail_method == "envelope"
    assert sev.best_effort and sev.tail_bound > 1e-8
    assert abs(sev.value - (-1 / 3)) <= sev.tail_bound


@pytest.mark.parametrize("name", ["t", "t2", "exp"])
def test_abel_tail_clamped_by_small_terms_cap(name):
    # N stops at the cap; the bound there is reported as is, and holds
    chi = build_character_group(13).character_by_index(1)
    f = builtin_function(name)
    sev = theorem_series(chi, f, 1e-12, terms_cap=2 * chi.modulus)
    assert sev.tail_method == "euler_maclaurin" and sev.terms_used == 2 * chi.modulus
    assert sev.best_effort and sev.tail_bound > 1e-12
    assert abs(sev.value - direct_sum(chi, f)) <= sev.tail_bound


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

    for name in ("cached_coefficients", "character_series"):
        monkeypatch.setattr(fourier, name, no_series)
    for f in (builtin_function("t"), log_without_atoms()):  # kernel and Cesaro tails
        with pytest.raises(ValueError, match="at most terms_cap = 1000000"):
            theorem_series(odd3, f, 1e-8, terms=10**12)


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


def _cold_coefficient(f, n, kind):
    """One coefficient with a fresh evaluator per piece and no sample reuse."""
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
            total += filon_adaptive(evaluator, lo, hi, omega, kind)[0]
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
        folded = fourier.cached_fold(t2, "sin", m, 64, False)
        assert fourier._modulus_cache[t2][0] == m  # only the modulus in use is held
        assert set(fourier._modulus_cache[t2][1]) == {("sin", 64, False)}
    assert fourier.cached_fold(t2, "sin", 19, 64, False) is folded
    # the f* table and the folds of one modulus share its tables
    table = fourier._fstar_values(t2, 19)
    assert set(fourier._modulus_cache[t2][1]) == {"fstar", ("sin", 64, False)}
    old = [weakref.ref(table), weakref.ref(folded)]
    del table, folded
    fourier.cached_fold(t2, "sin", 20, 64, False)
    gc.collect()
    assert [ref() for ref in old] == [None, None]


def test_group_folds_the_coefficients_once_per_n(monkeypatch):
    # every character of one group with one spec reaches the coefficients
    # through one fold per (kind, q, N, window) and the atoms' tail through one
    # kernel per (kind, q, N); a second pass folds and sums nothing
    log = builtin_function("log")
    fourier._modulus_cache.pop(log, None)
    folds, kernels = [], []

    def counted(coeffs, m, averaged=False):
        folds.append((m, len(coeffs), averaged))
        return residue_fold(coeffs, m, averaged)

    def counted_tail(atoms, m, n_terms):
        kernels.append((m, n_terms))
        return reciprocal_tail(atoms, m, n_terms)

    monkeypatch.setattr(fourier, "residue_fold", counted)
    monkeypatch.setattr(fourier, "reciprocal_tail", counted_tail)
    group = build_character_group(13)
    series = [theorem_series(chi, log, 1e-8) for chi in group.characters() if chi.is_primitive]
    expected = sorted({(s.parity_branch, s.terms_used) for s in series})
    assert [branch for branch, _ in expected] == ["cosine_even", "sine_odd"]  # both kinds
    assert not any(s.averaged for s in series)
    assert sorted(folds) == sorted((13, n, False) for _, n in expected)
    assert sorted(kernels) == sorted((13, n) for _, n in expected)
    again = [theorem_series(chi, log, 1e-8) for chi in group.characters() if chi.is_primitive]
    assert (len(folds), len(kernels)) == (len(expected), len(expected)) and again == series


def test_kernel_cache_keeps_the_modulus_in_use_only():
    t = dataclasses.replace(builtin_function("t"), name="t#kernel")
    kernel = fourier.cached_tail(t, "sin", 7, 56)
    assert fourier.cached_tail(t, "sin", 7, 56) is kernel and not kernel.flags.writeable
    assert set(fourier._modulus_cache[t][1]) == {("sin", 56, "tail")}
    assert np.array_equal(kernel, reciprocal_tail(t.atoms_for("sin"), 7, 56))
    old = weakref.ref(kernel)
    del kernel
    fourier.cached_tail(t, "sin", 11, 88)
    gc.collect()
    assert old() is None


def test_fold_cache_holds_no_coefficient_array():
    t2 = dataclasses.replace(builtin_function("t2"), name="t2#fold")
    folded = fourier.cached_fold(t2, "sin", 7, 5000, False)
    coeffs = weakref.ref(fourier._coeff_cache[t2]["sin"])
    assert not np.shares_memory(folded, coeffs())
    fourier._coeff_cache.pop(t2)
    gc.collect()
    assert coeffs() is None  # nothing but the coefficient cache held the array
    assert fourier.cached_fold(t2, "sin", 7, 5000, False) is folded


def test_coefficients_beyond_the_retained_length_are_not_kept():
    t2 = dataclasses.replace(builtin_function("t2"), name="t2#retain")
    short = fourier.cached_coefficients(t2, "cos", 1000)
    count = fourier.RETAINED_TERMS + 1
    long = fourier.cached_coefficients(t2, "cos", count)
    assert len(long) == count and np.array_equal(long[:1000], short)
    assert len(fourier._coeff_cache[t2]["cos"]) == 1000
