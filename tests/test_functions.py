"""FunctionSpec behavior and Fourier coefficients against independent oracles.

The coefficient oracle is scipy's oscillatory quadrature (weight='cos'/'sin'),
which shares no code with the package's Filon machinery; log-side checks use
the integrate-by-parts reduction to quadrature-evaluated sine integrals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from charsum import functions
from charsum.functions import FunctionSpec, VariationClass, builtin_function, fstar
from charsum.fourier import fourier_coefficient
from charsum.quadrature import NestedSamples, QuadratureError, filon_adaptive, filon_integral


def oracle_coefficient(f, n, kind, points=None):
    """integral_0^1 f(t) cos/sin(2 pi n t) dt via scipy weighted quadrature."""
    w = 2 * math.pi * n
    val, err = integrate.quad(
        f, 0.0, 1.0, weight=kind, wvar=w, limit=400,
        epsabs=1e-13, epsrel=1e-13,
    )
    return val


def test_fstar_step_continuity_point():
    f = builtin_function("step:1/2")
    assert fstar(f, 0.3) == 1.0
    assert fstar(f, 0.7) == 0.0


def test_fstar_step_midpoint_at_jump():
    f = builtin_function("step:1/2")
    assert fstar(f, 0.5) == 0.5


def test_fstar_smooth_point():
    assert fstar(builtin_function("t2"), 0.25) == 0.0625


def test_fstar_domain():
    f = builtin_function("t")
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            fstar(f, bad)


def test_builtin_names():
    assert builtin_function("step:0.25").name == "step:1/4"
    with pytest.raises(ValueError):
        builtin_function("cosh")
    with pytest.raises(ValueError):
        builtin_function("step:3/2")


def test_step_denominator_ceiling(monkeypatch):
    # a step holds one period of b weights per side, so b is capped before any
    # allocation; the boundary is tested under a ceiling of 12
    with pytest.raises(ValueError, match="denominator 1000001, above the modulus ceiling"):
        builtin_function("step:1/1000001")
    monkeypatch.setattr(functions, "MODULUS_CEILING", 12)
    (weights, _), = builtin_function("step:5/12").atoms_for("cos")
    assert weights.shape == (12,) and not weights.flags.writeable
    with pytest.raises(ValueError, match="denominator 13, above the modulus ceiling 12"):
        builtin_function("step:5/13")


def test_t2_sin_coefficient_closed_form():
    # integral t^2 sin(2 pi n t) dt = -1/(2 pi n) for every n
    for n in (1, 2, 9, 40):
        assert fourier_coefficient(builtin_function("t2"), n, "sin") == pytest.approx(
            -1 / (2 * math.pi * n), abs=1e-15
        )


def test_exp_cos_coefficient_closed_form():
    for n in (1, 3, 17):
        assert fourier_coefficient(builtin_function("exp"), n, "cos") == pytest.approx(
            (math.e - 1) / (1 + 4 * math.pi**2 * n**2), abs=1e-15
        )


def test_step_cos_coefficient_closed_form():
    for y in (0.25, 0.8):
        f = builtin_function(f"step:{y}")
        for n in (1, 2, 11):
            assert fourier_coefficient(f, n, "cos") == pytest.approx(
                math.sin(2 * math.pi * n * y) / (2 * math.pi * n), abs=1e-15
            )


def test_log_cos_coefficient_against_sine_integral_oracle():
    # integrate by parts once: coefficient = -Si(2 pi n)/(2 pi n), with Si by quadrature
    for n in (1, 2, 10):
        w = 2 * math.pi * n
        si, _ = integrate.quad(lambda u: math.sin(u) / u, 0, w, limit=200)
        assert fourier_coefficient(builtin_function("log"), n, "cos") == pytest.approx(
            -si / w, abs=1e-12
        )


@pytest.mark.parametrize("name", ["t2", "t", "exp", "step:1/4", "step:4/5"])
@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_closed_forms_against_scipy_oracle(name, kind):
    f = builtin_function(name)
    for n in (1, 3, 12, 57):
        ours = fourier_coefficient(f, n, kind)
        ref = oracle_coefficient(f.evaluator, n, kind)
        assert ours == pytest.approx(ref, abs=2e-12), (name, kind, n)


def test_log_sin_coefficient_against_parts_oracle():
    # integrate by parts: coefficient = -Cin(2 pi n)/(2 pi n), Cin by quadrature
    # (scipy's weighted rule cannot be used directly: it samples log at t = 0)
    f = builtin_function("log")
    for n in (1, 4, 9):
        w = 2 * math.pi * n
        cin, _ = integrate.quad(lambda u: (1 - math.cos(u)) / u if u > 0 else 0.0, 0, w, limit=200)
        assert fourier_coefficient(f, n, "sin") == pytest.approx(-cin / w, abs=1e-12)


def test_quadrature_path_matches_closed_forms():
    # strip the closed forms so the Filon path is exercised, jumps included
    for name, kind, n in [
        ("t2", "cos", 7),
        ("exp", "sin", 23),
        ("step:1/2", "sin", 8),
        ("step:1/4", "cos", 150),
        ("log", "cos", 5),
        ("log", "sin", 5),
    ]:
        f = builtin_function(name)
        bare = FunctionSpec(
            name=f.name + "#bare",
            evaluator=f.evaluator,
            variation_class=f.variation_class,
            jump_points=f.jump_points,
            singular_at_zero=f.singular_at_zero,
        )
        assert fourier_coefficient(bare, n, kind) == pytest.approx(
            fourier_coefficient(f, n, kind), abs=1e-12
        ), (name, kind, n)


def test_coefficient_argument_validation():
    f = builtin_function("t2")
    with pytest.raises(ValueError):
        fourier_coefficient(f, 0, "cos")
    with pytest.raises(ValueError):
        fourier_coefficient(f, 1, "tan")


def test_quadrature_error_carries_achieved_accuracy():
    # a wild integrand that cannot converge under a tiny panel cap
    wild = np.vectorize(lambda t: math.sin(1.0 / (t + 1e-4)))
    with pytest.raises(QuadratureError) as exc:
        filon_adaptive(wild, 0.0, 1.0, 2 * math.pi, "cos", max_panels=32)
    assert exc.value.achieved > 0


def test_quadrature_rejects_panel_cap_below_first_rule():
    sampled = []

    def f(x):
        sampled.append(len(x))
        return np.ones_like(x)

    for cap in (0, 4, 7):
        with pytest.raises(ValueError, match="max_panels"):
            filon_adaptive(f, 0.0, 1.0, 2 * math.pi, "cos", max_panels=cap)
    assert sampled == []
    value, err = filon_adaptive(f, 0.0, 1.0, 2 * math.pi, "sin", max_panels=8)
    assert abs(value) < 1e-14 and sampled == [17, 33]


def test_nested_samples_evaluate_each_grid_point_once():
    seen = []

    pointwise = np.vectorize(lambda t: math.exp(-t) * math.cos(3.0 * t), otypes=[float])

    def f(x):
        seen.extend(x.tolist())
        return pointwise(x)

    a, b = 0.1, 0.8
    samples = NestedSamples(f, a, b)
    for panels in (8, 16, 4, 64, 32):
        x, fx = samples.grid(panels)
        fresh = np.linspace(a, b, 2 * panels + 1)
        assert x.tolist() == fresh.tolist() and np.array_equal(fx, f(fresh))
        assert not x.flags.writeable and not fx.flags.writeable
        del seen[-len(fresh):]  # the reference call above
    assert sorted(seen) == np.linspace(a, b, 129).tolist()
    assert len(samples.x) == len(samples.values) == 129
    # a coarser request is a view of the held grid, not a new one
    x, fx = samples.grid(16)
    assert np.shares_memory(x, samples.x) and np.shares_memory(fx, samples.values)
    for omega, kind in ((0.5, "cos"), (40.0, "sin")):
        assert filon_integral(samples, a, b, omega, kind, 16) == filon_integral(
            f, a, b, omega, kind, 16
        )
    evaluated = len(seen)
    with pytest.raises(ValueError, match="nest"):
        samples.grid(24)
    with pytest.raises(ValueError, match="nest"):
        samples.grid(0)
    with pytest.raises(ValueError, match="grids"):
        filon_integral(samples, a, 0.9, 0.5, "cos", 8)
    assert len(seen) == evaluated


def _atom_sum(f, kind, n):
    # a periodic coef is one period of weights, indexed by n mod b
    return sum(
        (coef if np.ndim(coef) == 0 else coef[n % len(coef)]) / (n + c)
        for coef, c in f.atoms_for(kind)
    )


def test_envelope_bounds_hold():
    # declared envelopes must dominate |coefficient_n - atoms| over a long range
    n = np.arange(1, 2001)
    for name in ("t2", "t", "exp", "log", "step:1/4", "step:1/2", "step:4/5"):
        f = builtin_function(name)
        for kind, c, p in f.envelope:
            remainder = np.abs(f.closed_form(n, kind) - _atom_sum(f, kind, n))
            env = c / n.astype(float) ** p
            # equality is attained (e.g. step:1/2 sine at odd n); allow rounding
            assert np.all(remainder <= env * (1 + 1e-14) + 1e-18), (name, kind)


def test_atoms_match_closed_forms():
    # the series head trusts closed_form and the Abel tail trusts the atoms, so
    # a wrong atom would give a silently wrong tail.  Atoms without a declared
    # envelope must be exact; the remainder of the others (log's cosine atom)
    # is checked against its envelope above
    n = np.arange(1, 10**5 + 1)
    exact = 0
    steps = ("step:1/4", "step:1/2", "step:4/5", "step:2/7")
    for name in ("t2", "t", "exp", "log") + steps:
        f = builtin_function(name)
        for kind, _ in f.atoms:
            if f.envelope_for(kind) is not None:
                continue
            exact += 1
            closed = f.closed_form(n, kind)
            if name in steps:  # the step's closed form against its definition
                y = Fraction(name[5:])
                angle = (2 * math.pi / y.denominator) * ((n * y.numerator) % y.denominator)
                trig = np.sin(angle) if kind == "cos" else 1.0 - np.cos(angle)
                ref = trig / (2 * math.pi * n)
                assert np.all(np.abs(closed - ref) <= 1e-14 * np.abs(ref)), (name, kind)
            from_atoms = np.asarray(_atom_sum(f, kind, n), dtype=complex)
            assert np.max(np.abs(from_atoms.imag)) <= 1e-14 * np.max(np.abs(closed)), (name, kind)
            # relative to each coefficient; a step's exact zeros must stay zero
            err = np.abs(from_atoms.real - closed)
            assert np.all(err <= 1e-14 * np.abs(closed)), (name, kind)
    assert exact == 4 + 2 * len(steps)  # t2 sin, t sin, exp cos and sin; both sides of steps


def test_atoms_validated_at_construction():
    with pytest.raises(ValueError, match="negative real part"):
        FunctionSpec(
            name="bad-atom",
            evaluator=lambda t: t,
            variation_class=VariationClass.SMOOTH_C2,
            atoms=(("sin", ((1.0, -0.5 + 1j),)),),
        )
    with pytest.raises(ValueError, match="kind"):
        FunctionSpec(
            name="bad-kind",
            evaluator=lambda t: t,
            variation_class=VariationClass.SMOOTH_C2,
            atoms=(("tan", ((1.0, 0.0),)),),
        )
    bad_coefs = [
        (np.array([]), "non-empty 1-D array"),
        (np.ones((2, 2)), "non-empty 1-D array"),
        ([0.5, -0.5], "non-empty 1-D array"),
        (np.array([0.0, np.nan]), "not finite"),
        (np.array([np.inf, 1.0]), "not finite"),
        (math.nan, "not finite"),
    ]
    for coef, message in bad_coefs:
        with pytest.raises(ValueError, match=message):
            FunctionSpec(
                name="bad-coef",
                evaluator=lambda t: t,
                variation_class=VariationClass.SMOOTH_C2,
                atoms=(("sin", ((coef, 0.0),)),),
            )
    bad_envelopes = [
        (("cos", -1.0, 2), "finite and >= 0"),
        (("cos", math.nan, 2), "finite and >= 0"),
        (("sin", math.inf, 1), "finite and >= 0"),
        (("cos", 1.0, 0), "integer >= 1"),
        (("cos", 1.0, 1.5), "integer >= 1"),
        (("cosine", 1.0, 2), "kind"),
    ]
    for envelope, message in bad_envelopes:
        with pytest.raises(ValueError, match=message):
            FunctionSpec(
                name="bad-envelope",
                evaluator=lambda t: t,
                variation_class=VariationClass.SMOOTH_C2,
                envelope=(envelope,),
            )
