"""FunctionSpec behavior and Fourier coefficients against independent oracles.

The coefficient oracle is scipy's oscillatory quadrature (weight='cos'/'sin'),
which shares no code with the package's Filon machinery; log-side checks use
the integrate-by-parts reduction to quadrature-evaluated sine integrals.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from charsum import functions, quadrature
from charsum.analytic import character_series, coefficient_fold, reciprocal_tail
from charsum.characters import real_primitive_character
from charsum.functions import FunctionSpec, VariationClass, builtin_function, fstar
from charsum.fourier import cached_coefficients, fourier_coefficient
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


def test_quadrature_error_carries_achieved_accuracy(monkeypatch):
    # a wild integrand that cannot converge under a tiny panel cap
    monkeypatch.setattr(quadrature, "MAX_PANELS", 32)
    wild = np.vectorize(lambda t: math.sin(1.0 / (t + 1e-4)))
    with pytest.raises(QuadratureError) as exc:
        filon_adaptive(wild, 0.0, 1.0, 2 * math.pi, "cos")
    assert exc.value.achieved > 0
    # a mixed batch, out of order, raises the error of its smallest failing
    # omega.  Under a cap of 2^10 panels a smooth f converges at 2 pi, and no
    # omega from 2048 pi on is accepted: the rule of 1024 panels, the last
    # one a doubling is compared with, has the phase omega h >= pi there
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2**10)
    converges = 2 * math.pi
    filon_adaptive(_smooth, 0.0, 1.0, converges, "cos")
    with pytest.raises(QuadratureError) as single:
        filon_adaptive(_smooth, 0.0, 1.0, 2200 * math.pi, "cos")
    with pytest.raises(QuadratureError) as batch:
        filon_adaptive(
            _smooth, 0.0, 1.0, [5000 * math.pi, converges, 3000 * math.pi, 2200 * math.pi], "cos"
        )
    assert f"omega = {2200 * math.pi} " in str(batch.value)
    assert batch.value.achieved > 0 and batch.value.achieved == single.value.achieved
    assert str(batch.value) == str(single.value)


def test_quadrature_panel_cap_of_the_first_rule_allows_one_doubling(monkeypatch):
    sampled = []

    def f(x):
        sampled.append(len(x))
        return np.ones_like(x)

    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    value, err = filon_adaptive(f, 0.0, 1.0, 2 * math.pi, "sin")
    # a plain callable is sampled on nested grids: the 16-panel rule
    # evaluates f only at its 16 new midpoints
    assert abs(value) < 1e-14 and sampled == [17, 16]


def _aliasing_exact(name, n, kind):
    """The coefficient of e^-t cos 3t ("smooth") or ln(t)(1 - t/2)
    ("log-singular") to 30 digits.  The first is half the sum of
    integral_0^1 e^((-1 + ik)t) dt over k = w +- 3; for the second,
    integral_0^1 ln(t) e^(iwt) dt is (-Si(w) + i (Ci(w) - gamma - ln w))/w,
    and the t ln(t) term is -i times its derivative in w, at w = 2 pi n."""
    with mpmath.workdps(30):
        w = 2 * mpmath.pi * n
        if name == "smooth":
            z = sum((mpmath.exp(-1 + 1j * k) - 1) / (-1 + 1j * k) for k in (w + 3, w - 3)) / 2
            return float(z.real if kind == "cos" else z.imag)
        si, cl = mpmath.si(w), mpmath.ci(w) - mpmath.euler - mpmath.log(w)
        return float(-si / w + cl / (2 * w**2) if kind == "cos" else cl / w + si / (2 * w**2))


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_quadrature_does_not_accept_an_aliased_grid(kind):
    # at omega = 2 pi n the panel phase omega h is a multiple of pi on the
    # first grids of [0, 1] and of the graded mesh, where every trig value is
    # 0 or +-1 and successive rules can agree far from the integral: accepted
    # there, 20 of these 24 coefficients were off by 1.5e-11 to 1.1e-5
    specs = [
        FunctionSpec(
            name="smooth",
            evaluator=lambda t: math.exp(-t) * math.cos(3.0 * t),
            variation_class=VariationClass.SMOOTH_C2,
        ),
        FunctionSpec(
            name="log-singular",
            evaluator=lambda t: math.log(t) * (1.0 - 0.5 * t),
            variation_class=VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
            singular_at_zero=True,
        ),
    ]
    for f in specs:
        for n in (8, 16, 32, 64, 96, 128):
            error = abs(fourier_coefficient(f, n, kind) - _aliasing_exact(f.name, n, kind))
            assert error <= 1e-13, (f.name, n, error)


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



# --- the Filon rule over a batch of omegas ------------------------------------


def _smooth(x):
    return np.exp(-x) * np.cos(3.0 * x)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_filon_batch_equals_per_omega_calls_bit_for_bit():
    a, b = 0.1, 0.8
    omegas = np.array([0.3, 1.0, 3.0, 3.9, 500.0] + [2 * math.pi * n for n in range(1, 41)])
    theta = omegas * (b - a) / 16  # the 8-panel rule's phase
    assert (theta < 1 / 6).any() and (theta >= 1 / 6).any()  # both weight branches
    for kind in ("cos", "sin"):
        samples = NestedSamples(_smooth, a, b)
        batch = filon_integral(samples, a, b, omegas, kind, 8)
        single = [filon_integral(_smooth, a, b, w, kind, 8) for w in omegas]
        assert all(len(v) == 1 for v in single)  # a scalar omega is the length-1 batch
        assert _bits(batch) == _bits(np.concatenate(single)), kind
        value, err = filon_adaptive(samples, a, b, omegas, kind)
        single = [filon_adaptive(_smooth, a, b, w, kind) for w in omegas]
        assert _bits(value) == _bits([v[0] for v, _ in single]), kind
        assert _bits(err) == _bits([e[0] for _, e in single]), kind


def test_filon_batch_chunk_boundaries_do_not_matter(monkeypatch):
    omegas = 2 * math.pi * np.arange(1, 101)
    samples = NestedSamples(_smooth, 0.0, 1.0)

    def results():
        return [
            _bits(filon_integral(samples, 0.0, 1.0, omegas, kind, 64))
            + _bits(np.concatenate(filon_adaptive(samples, 0.0, 1.0, omegas, kind)))
            for kind in ("cos", "sin")
        ]

    default = results()  # 129 points: 31 rows a chunk, so 4 chunks
    for elements in (1, 10**9):  # one row a chunk, one chunk for the batch
        monkeypatch.setattr(quadrature, "CHUNK_ELEMENTS", elements)
        assert results() == default, elements


def test_filon_doubling_evaluates_trig_once_per_grid_point(monkeypatch):
    # a doubling evaluates cos/sin(omega x) only at its new odd points, so an
    # omega whose finest rule has P panels costs 2P + 1 evaluations
    points, panels = [], []
    for name in ("cos", "sin"):
        def counted(x, *args, inner=getattr(np, name), **kwargs):
            points.append(np.size(x))
            return inner(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    integral = quadrature.filon_integral

    def recorded(*args):
        panels.append(args[5])
        return integral(*args)

    monkeypatch.setattr(quadrature, "filon_integral", recorded)
    for kind in ("cos", "sin"):
        points.clear(), panels.clear()
        filon_adaptive(lambda x: np.exp(-x) * (1.0 + x * x), 0.1, 0.8, 7.0, kind)
        assert len(panels) >= 4 and panels == [8 * 2**k for k in range(len(panels))]
        assert sum(points) == 2 * panels[-1] + 1, kind
    sums = quadrature.RuleSums()
    integral(_smooth, 0.0, 1.0, [1.0, 2.0], "cos", 8, sums)
    for count, omegas in ((32, [1.0, 2.0]), (16, [1.0])):
        with pytest.raises(ValueError, match="halved"):
            integral(_smooth, 0.0, 1.0, omegas, "cos", count, sums)


def _quadrature_specs():
    y = 5 / 11
    return [
        FunctionSpec(
            name="jump#batch",
            evaluator=lambda t: 1.0 + t if t <= y else t * t,
            variation_class=VariationClass.PIECEWISE_SMOOTH,
            jump_points=((y, 1.0 + y, y * y),),
        ),
        FunctionSpec(
            name="log-singular#batch",
            evaluator=lambda t: math.log(t) * (1.0 - 0.5 * t),
            variation_class=VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
            singular_at_zero=True,
        ),
    ]


def test_coefficient_cache_grown_in_two_batches_equals_one_batch():
    # the envelope's sample of 64, then the fold's 128, against 128 at once
    for grown, whole in zip(_quadrature_specs(), _quadrature_specs()):
        for kind in ("cos", "sin"):
            cached_coefficients(grown, kind, 64)
            assert _bits(cached_coefficients(grown, kind, 128)) == _bits(
                cached_coefficients(whole, kind, 128)
            ), (grown.name, kind)


def test_filon_batch_memory_stays_within_chunks():
    # 128 omegas on 8,193 points: the whole outer product would be 8.4 MB a
    # temporary; one-row chunks keep the peak, sampling included, under 1 MB
    omegas = 2 * math.pi * np.arange(1, 129)
    tracemalloc.start()
    try:
        filon_integral(_smooth, 0.0, 1.0, omegas, "cos", 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak

def _atom_sum(f, kind, n):
    # a periodic coef is one period of weights, indexed by n mod b; the
    # optional third element is the exponent, or "log" for ln(n)/n
    def atom(coef, c, *m):
        coef = coef if np.ndim(coef) == 0 else coef[n % len(coef)]
        return coef * np.log(n) / n if m == ("log",) else coef / (n + c) ** (m[0] if m else 1)

    return sum(atom(*a) for a in f.atoms_for(kind))


def test_envelope_bounds_hold():
    # declared envelopes must dominate |coefficient_n - atoms| over a long range:
    # t's zero cosine side and log's two remainders.  log's remainders come
    # within 12/(2 pi n)^2 and 20/(2 pi n)^2 of their envelopes, which fall
    # below the closed form's rounding (up to 3.4 units of |coefficient| for
    # the sine side, whose C/n^5 envelope floats resolve only to n ~ 120), so
    # for larger n the float difference passes on the rounding allowance
    # alone; test_log_cosine_envelope and test_log_sine_envelope check them in
    # 40 digits up to n = 10^6
    n = np.arange(1, 2001)
    checked = []
    for name in ("t2", "t", "exp", "log", "step:1/4", "step:1/2", "step:4/5"):
        f = builtin_function(name)
        for kind, c, p in f.envelope:
            closed = f.closed_form(n, kind)
            remainder = np.abs(closed - _atom_sum(f, kind, n))
            env = c / n.astype(float) ** p
            # equality is attained (e.g. step:1/2 sine at odd n); allow the
            # rounding of the envelope and of the closed form (8 units of it)
            allowance = 1e-18 + 2.0**-50 * np.abs(closed)
            assert np.all(remainder <= env * (1 + 1e-14) + allowance), (name, kind)
            checked.append((name, kind))
    assert checked == [("t", "cos"), ("log", "cos"), ("log", "sin")]


def test_log_cosine_envelope():
    # log's cosine coefficient -Si(x)/x at x = 2 pi n, less its atoms
    # -1/(4n) + 1/(4 pi^2 n^2), lies in [-C/n^4, 0] with C = 1/(8 pi^4), and
    # approaches -C/n^4 as n grows.  At n = 10^6 the remainder is 1e-27 against
    # coefficients of 2.5e-7, so it is taken from 40-digit mpmath, not floats
    f = builtin_function("log")
    c, p = f.envelope_for("cos")
    assert (c, p) == (1.0 / (8.0 * math.pi**4), 4)
    with mpmath.workdps(40):
        for n in np.unique(np.geomspace(1, 10**6, 61).astype(int)).tolist():
            x = 2 * mpmath.pi * n
            remainder = -mpmath.si(x) / x + mpmath.mpf(1) / (4 * n) - 1 / x**2
            env = mpmath.mpf(1) / (8 * mpmath.pi**4 * mpmath.mpf(n) ** 4)
            assert -env <= remainder <= 0, n
            # f(x) - 1/x = -2/x^3 + 24/x^5 - ..., so the remainder is (1 - 12/x^2 + ...) (-C/n^4)
            assert remainder <= -(1 - 13 / x**2) * env, n


def test_log_sine_envelope():
    # log's sine coefficient -(gamma + ln x - Ci(x))/x at x = 2 pi n, less its
    # atoms -(gamma + ln 2 pi)/(2 pi n) - ln(n)/(2 pi n) - 1/(8 pi^3 n^3), is
    # (1/x^2 - g(x))/x with g(x) = integral e^{-xt} t/(1 + t^2) dt (DLMF 6.7)
    # and 1/x^2 - g(x) = integral e^{-xt} t^3/(1 + t^2) dt in [0, 6/x^4]: it
    # lies in [0, C/n^5] with C = 3/(16 pi^5), and approaches C/n^5 as n
    # grows.  The atoms are checked as declared (their float coefs) and the
    # remainder taken in 40 digits
    f = builtin_function("log")
    c, p = f.envelope_for("sin")
    assert (c, p) == (3.0 / (16.0 * math.pi**5), 5)
    (one, zero, *exponent), (log_coef, log_zero, log_exponent), (cube, cube_zero, three) = (
        f.atoms_for("sin")
    )
    assert (zero, exponent, log_zero, log_exponent, cube_zero, three) == (0.0, [], 0.0, "log", 0.0, 3)
    with mpmath.workdps(40):
        assert abs(one - -(mpmath.euler + mpmath.log(2 * mpmath.pi)) / (2 * mpmath.pi)) <= 1e-16
        assert abs(log_coef - -1 / (2 * mpmath.pi)) <= 1e-17
        assert abs(cube - -1 / (8 * mpmath.pi**3)) <= 1e-18
        for n in np.unique(np.geomspace(1, 10**6, 61).astype(int)).tolist():
            x = 2 * mpmath.pi * n
            coefficient = -(mpmath.euler + mpmath.log(x) - mpmath.ci(x)) / x
            atoms = (mpmath.mpf(one) / n + mpmath.mpf(log_coef) * mpmath.log(n) / n
                     + mpmath.mpf(cube) / mpmath.mpf(n) ** 3)
            remainder = coefficient - atoms
            env = 3 / (16 * mpmath.pi**5 * mpmath.mpf(n) ** 5)
            # the float coefs move the atoms by up to 1e-17 (1 + ln n)/n
            slack = mpmath.mpf(1e-17) * (1 + mpmath.log(n)) / n
            assert -slack <= remainder <= env + slack, n
            # 1/x^2 - g(x) = 6/x^4 - 120/x^6 + ..., so the remainder is at
            # least (1 - 20/x^2) C/n^5
            assert remainder >= (1 - 20 / x**2) * env - slack, n


def _old_closed_form(name, n, kind):
    """The hand-written closed forms the smooth built-ins carried before their
    atoms became their coefficients, and a step's coefficients by definition."""
    w = 2 * math.pi * n.astype(float)
    if name == "t2":
        return 1.0 / (2.0 * math.pi**2 * n.astype(float) ** 2) if kind == "cos" else -1.0 / w
    if name == "t":
        return np.zeros(len(n)) if kind == "cos" else -1.0 / w
    if name == "exp":
        den = 1.0 + w**2
        return (math.e - 1.0) / den if kind == "cos" else -w * (math.e - 1.0) / den
    y = Fraction(name[5:])
    angle = (2 * math.pi / y.denominator) * ((n * y.numerator) % y.denominator)
    return (np.sin(angle) if kind == "cos" else 1.0 - np.cos(angle)) / w


def test_atoms_match_closed_forms():
    # the series head and the tail kernel both read the atoms of t2, t, exp and
    # the steps, so a wrong atom would give a silently wrong series: every kind
    # with atoms and no envelope must reproduce the old closed form, relative
    # to each coefficient (a step's exact zeros must stay zero)
    n = np.arange(1, 10**5 + 1)
    exact = 0
    steps = ("step:1/4", "step:1/2", "step:4/5", "step:2/7")
    for name in ("t2", "t", "exp", "log") + steps:
        f = builtin_function(name)
        for kind, _ in f.atoms:
            if f.envelope_for(kind) is not None:
                continue
            exact += 1
            ref = _old_closed_form(name, n, kind)
            closed = f.closed_form(n, kind)
            assert np.all(np.abs(closed - ref) <= 1e-14 * np.abs(ref)), (name, kind)
            from_atoms = np.asarray(_atom_sum(f, kind, n), dtype=complex)
            assert np.array_equal(from_atoms.real, closed), (name, kind)
    assert exact == 5 + 2 * len(steps)  # t2 cos and sin, t sin, exp cos and sin; steps
    assert not builtin_function("t").closed_form(n, "cos").any()


def test_exp_atom_per_side_is_its_conjugate_pair():
    # exp's 1 + 4 pi^2 n^2 = 4 pi^2 (n - i/2pi)(n + i/2pi) gives two partial
    # fractions per side, complex conjugates for real n.  Its one atom per
    # side doubles the coef of the first, so the real part is twice that of
    # one fraction, which is the real part of the pair bit for bit: the closed
    # form, the tail kernels and the engine's N and bound are those of the
    # pair written out here
    e1, two_pi = math.e - 1.0, 2.0 * math.pi
    pairs = {
        "cos": ((-1j * e1 / (4.0 * math.pi), -1j / two_pi), (1j * e1 / (4.0 * math.pi), 1j / two_pi)),
        "sin": ((-e1 / (4.0 * math.pi), -1j / two_pi), (-e1 / (4.0 * math.pi), 1j / two_pi)),
    }
    f = builtin_function("exp")
    n = np.arange(1, 200_001)
    for kind, pair in pairs.items():
        assert len(f.atoms_for(kind)) == 1
        summed = np.zeros(len(n))
        for coef, c in pair:
            summed += np.real(coef / (n + c))
        assert f.closed_form(n, kind).tobytes() == summed.tobytes(), kind
        for m in (5, 101, 499, 1009):
            for n_terms in (40, 808, 4000):
                one = reciprocal_tail(f.atoms_for(kind), m, n_terms)
                assert one.tobytes() == reciprocal_tail(pair, m, n_terms).tobytes(), (kind, m, n_terms)
    for d, kind in ((5, "cos"), (-163, "sin")):
        vals = real_primitive_character(d).values_real()
        def coeffs(count):
            return f.closed_form(np.arange(1, count + 1), kind)

        one, two = (character_series(vals, coefficient_fold(coeffs, atoms), 1.0, 1e-12, 40, 10**6, atoms)
                    for atoms in (f.atoms_for(kind), pairs[kind]))
        assert one == two, kind


def test_power_atoms_validated_at_construction():
    for atom, message in [
        ((1.0, 0.0, 0), "integer m >= 1"),
        ((1.0, 0.0, 1.5), "integer m >= 1"),
        ((1.0, 0.0, 2, 3), "integer m >= 1"),
        ((1.0, 0.5, 2), "needs c = 0"),
        ((1.0, 1j, 3), "needs c = 0"),
        ((1.0, 0.5, "log"), "ln\\(n\\)/n needs c = 0"),
        ((1.0, 0.0, "ln"), "integer m >= 1 or 'log'"),
        ((1.0, 0.0, "log", 2), "integer m >= 1 or 'log'"),
    ]:
        with pytest.raises(ValueError, match=message):
            FunctionSpec(
                name="bad-power",
                evaluator=lambda t: t,
                variation_class=VariationClass.SMOOTH_C2,
                atoms=(("cos", (atom,)),),
            )
    spec = FunctionSpec(
        name="power",
        evaluator=lambda t: t,
        variation_class=VariationClass.SMOOTH_C2,
        atoms=(("cos", ((1.0, 0.0, 2), (0.5, 0.25), (0.5, 0.25, 1), (-0.5, 0.0, "log"))),),
    )
    assert len(spec.atoms_for("cos")) == 4


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


def test_jump_points_validated_at_construction():
    # unsorted, repeated or out-of-range jumps made the quadrature skip or
    # overlap pieces: ((0.7, ...), (0.3, ...)) on 1 + t gave a_1(sin) = -0.1877
    # against -1/(2 pi), and a jump at 1.5 integrated over [0, 1.5]
    bad_jumps = [
        (((0.7, 1.7, 1.7), (0.3, 1.3, 1.3)), "strictly increasing"),
        (((0.3, 1.3, 1.3), (0.3, 1.3, 1.3)), "strictly increasing"),
        (((1.5, 2.5, 2.5),), r"\(0, 1\)"),
        (((0.0, 1.0, 1.0),), r"\(0, 1\)"),
        (((1.0, 2.0, 2.0),), r"\(0, 1\)"),
        (((-0.25, 0.75, 0.75),), r"\(0, 1\)"),
        (((math.nan, 1.0, 1.0),), "not finite"),
        (((0.5, math.inf, 1.0),), "not finite"),
        (((0.5, 1.0, -math.inf),), "not finite"),
    ]
    for jumps, message in bad_jumps:
        with pytest.raises(ValueError, match=message):
            FunctionSpec(
                name="bad-jumps",
                evaluator=lambda t: 1.0 + t,
                variation_class=VariationClass.PIECEWISE_SMOOTH,
                jump_points=jumps,
            )
    two = FunctionSpec(
        name="two-jumps",
        evaluator=lambda t: 1.0 + t,
        variation_class=VariationClass.PIECEWISE_SMOOTH,
        jump_points=((0.3, 1.3, 1.3), (0.7, 1.7, 1.7)),
    )
    assert fourier_coefficient(two, 1, "sin") == pytest.approx(-1 / (2 * math.pi), abs=1e-12)
