"""Oscillatory quadrature for integrals of f(t) cos/sin(omega t).

The workhorse is the composite Filon rule: f is interpolated by parabolas on
panel pairs while the oscillation is integrated exactly, so accuracy is
governed by f alone and does not degrade as omega grows.  As the panel phase
theta -> 0 the weights reduce to Simpson's rule, which covers the
non-oscillatory regime through the same code path; a Taylor branch keeps the
weights stable for small theta.

Panel doubling never samples a point twice.  The grid linspace(a, b, 2P + 1)
is bit-identical to the even entries of linspace(a, b, 4P + 1), because the
step (b - a)/4P is the step (b - a)/2P halved exactly.  NestedSamples holds
the finest grid requested so far and f on it, and filon_integral asks it for
both by panel count: a finer grid is built once, evaluating f only at the new
points.  One NestedSamples per interval can therefore serve every omega, both
kinds and every doubling, with results bit-identical to fresh sampling.

Both rules take a 1-D array of omegas, a scalar being the length-1 case, so
one panel-doubling pass over an interval serves every omega: each doubling is
one filon_integral call over the omegas not yet accepted, and each omega is
accepted at the doubling its own test would accept alone.  No omega is
accepted while the coarser rule's phase theta = omega h is pi or more: on a
grid with omega h a multiple of pi every cos/sin(omega x) is 0 or +-1, and
two such rules can agree far from the integral.  The pass carries the rule's
sums per omega (RuleSums) from one doubling to the next, in the halving form
of Filon's rule (L. N. G. Filon, Proc. Roy. Soc. Edinburgh 49, 1928;
Abramowitz & Stegun 25.4.47): the even points of the grid of 2P panels are
the whole grid of P panels, so the new even sum is the old even sum plus the
old odd sum, and only the new odd points need cos/sin(omega x).  The first
rule evaluates every grid point, and the endpoint terms f(b) sin/cos(omega b)
and f(a) sin/cos(omega a) are computed once per pass.  The weights' Taylor
branch is array arithmetic in the scalar rule's operation order; their closed
forms and the endpoint terms stay scalar libm calls per omega, since a NumPy
build's SIMD sin/cos need not match libm to the ulp.  The grid trig runs over
row chunks of the outer product of at most CHUNK_ELEMENTS = 2^12 elements
(one row when a row is longer), so no temporary outgrows max(2^12, 2P + 1)
floats, and each row is summed in the pairwise order of a 1-D sum.  Every
value is thus bit-identical to the call for its omega alone.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "NestedSamples",
    "QuadratureError",
    "RuleSums",
    "filon_integral",
    "filon_adaptive",
    "graded_edges",
]

# the accuracy filon_adaptive asks of a doubling, and callers budget for
REL_TOL = 1e-12
ABS_FLOOR = 1e-14
# filon_adaptive's panel cap and the graded mesh's stop toward 0 (graded_edges)
MAX_PANELS = 2**15
GRADED_CUTOFF = 1e-18
# the most elements of one row chunk of the grid trig in filon_integral
CHUNK_ELEMENTS = 2**12


class QuadratureError(ArithmeticError):
    """Raised when panel refinement hits its cap; carries the achieved accuracy."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved accuracy {achieved:.3e})")
        self.achieved = achieved


class NestedSamples:
    """f on the nested grids linspace(a, b, 2P + 1) of one interval [a, b].

    grid(P) returns (x, f(x)) on the grid of P panels, both read-only.  Only
    the finest grid requested so far is held, as `x` and `values`: a coarser
    grid is a strided view of them, and a finer one is built once and
    evaluates f only at the points the held grid lacks.  Panel counts must
    nest with the held one by a power of two.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
        self.f, self.a, self.b = f, a, b
        self.x: np.ndarray | None = None
        self.values: np.ndarray | None = None

    def grid(self, panels: int) -> tuple[np.ndarray, np.ndarray]:
        held = 2 * panels if self.x is None else len(self.x) - 1
        coarse, fine = sorted((held, 2 * panels))
        ratio, rest = divmod(fine, max(coarse, 1))
        if panels < 1 or rest or ratio & (ratio - 1):
            raise ValueError(f"{panels} panels do not nest with the {held // 2} held")
        if self.x is not None and 2 * panels <= held:
            return self.x[::ratio], self.values[::ratio]
        x = np.linspace(self.a, self.b, 2 * panels + 1)
        values, new = np.empty(len(x)), np.ones(len(x), dtype=bool)
        if self.values is not None:
            values[::ratio], new[::ratio] = self.values, False
        values[new] = self.f(x[new])
        x.flags.writeable = values.flags.writeable = False
        self.x, self.values = x, values
        return x, values


def _filon_weights(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Filon weights (alpha, beta, gamma) of each panel phase theta.

    Below theta = 1/6 they are Taylor polynomials, in array arithmetic; from
    1/6 on, the closed forms, by scalar libm sin/cos per theta.
    """
    t2 = theta * theta
    alpha = theta * t2 * (2.0 / 45 + t2 * (-2.0 / 315 + t2 * (2.0 / 4725)))
    beta = 2.0 / 3 + t2 * (2.0 / 15 + t2 * (-4.0 / 105 + t2 * (2.0 / 567)))
    gamma = 4.0 / 3 + t2 * (-2.0 / 15 + t2 * (1.0 / 210 + t2 * (-1.0 / 11340)))
    large = np.flatnonzero(theta >= 1.0 / 6.0)
    for i, th in zip(large.tolist(), theta[large].tolist()):
        s, c = math.sin(th), math.cos(th)
        t3 = th**3
        alpha[i] = (th**2 + th * s * c - 2.0 * s * s) / t3
        beta[i] = 2.0 * (th * (1.0 + c * c) - 2.0 * s * c) / t3
        gamma[i] = 4.0 * (s - th * c) / t3
    return alpha, beta, gamma


def _omegas(omega) -> np.ndarray:
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.ndim != 1:
        raise ValueError(f"omega must be a scalar or a 1-D array, got shape {omega.shape}")
    return omega


class RuleSums:
    """The running sums of the Filon rule on one interval, one entry per omega.

    At `panels` panels: `even` and `odd` sum f(x) trig(omega x) over the even
    and the odd grid points, `half` is half the sum of its two end terms, and
    `edge` is f(b) edge(omega b) - f(a) edge(omega a), negated for the sine
    kind (edge is sin for the cosine kind, cos for the sine kind).  Empty
    (panels 0) until filon_integral fills it with a first rule.
    """

    def __init__(self):
        self.panels = 0
        self.even = self.odd = self.half = self.edge = np.empty(0)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the omegas where mask is False."""
        self.even, self.odd, self.half, self.edge = (
            self.even[mask], self.odd[mask], self.half[mask], self.edge[mask]
        )


def _trig_rows(omega: np.ndarray, x: np.ndarray, fx: np.ndarray, trig):
    """Yield (rows, fg), fg = trig(omega x) f(x) for the omegas omega[rows],
    over row chunks of at most CHUNK_ELEMENTS elements (one row when a row
    is longer)."""
    step = max(1, CHUNK_ELEMENTS // len(x))
    for lo in range(0, len(omega), step):
        rows = slice(lo, lo + step)
        fg = np.multiply.outer(omega[rows], x)
        trig(fg, out=fg)
        fg *= fx
        yield rows, fg


def filon_integral(
    f: NestedSamples | Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega,
    kind: str,
    panels: int,
    sums: RuleSums | None = None,
) -> np.ndarray:
    """integral_a^b f(t) cos/sin(omega t) dt on 2*panels subintervals, for
    each omega of a 1-D array (a scalar is the length-1 case).

    f is a NestedSamples of [a, b], whose grid and samples are reused, or a
    vectorized callable, sampled afresh.  Without `sums`, or with an empty
    one, this is the first rule: trig(omega x) at every grid point.  A
    RuleSums of these omegas at panels // 2 panels is halved instead:
    trig(omega x) only at the new odd points, the old odd sum joining the
    even one.  Either way `sums` is left at `panels`.  Each value is
    bit-identical to the call for its omega alone (see the module docstring).
    """
    samples = f if isinstance(f, NestedSamples) else NestedSamples(f, a, b)
    if (samples.a, samples.b) != (a, b):
        raise ValueError(f"samples requested off the grids of [{samples.a}, {samples.b}]")
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    omega = _omegas(omega)
    sums = RuleSums() if sums is None else sums
    trig, edge, sign = (np.cos, math.sin, 1.0) if kind == "cos" else (np.sin, math.cos, -1.0)
    x, fx = samples.grid(panels)  # exact endpoints for one-sided limits
    if not sums.panels:
        sums.edge = np.array(
            [sign * (fx[-1] * edge(w * b) - fx[0] * edge(w * a)) for w in omega.tolist()]
        )
        sums.even, sums.odd, sums.half = np.empty((3, len(omega)))
        for rows, fg in _trig_rows(omega, x, fx, trig):
            sums.even[rows] = fg[:, ::2].sum(axis=1)
            sums.odd[rows] = fg[:, 1::2].sum(axis=1)
            sums.half[rows] = 0.5 * (fg[:, 0] + fg[:, -1])
    else:
        if 2 * sums.panels != panels or len(sums.odd) != len(omega):
            raise ValueError(
                f"sums of {len(sums.odd)} omegas at {sums.panels} panels cannot be "
                f"halved to {panels} panels for {len(omega)} omegas"
            )
        sums.even = sums.even + sums.odd
        sums.odd = np.empty(len(omega))
        for rows, fg in _trig_rows(omega, x[1::2], fx[1::2], trig):
            sums.odd[rows] = fg.sum(axis=1)
    sums.panels = panels
    h = (b - a) / (2 * panels)
    alpha, beta, gamma = _filon_weights(omega * h)
    return h * (alpha * sums.edge + beta * (sums.even - sums.half) + gamma * sums.odd)


def filon_adaptive(
    f: NestedSamples | Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega,
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Panel-doubling Filon integration for each omega of a 1-D array (a
    scalar is the length-1 case); returns arrays (value, error estimate).

    Panels start at 8 and double while they are at most MAX_PANELS, so the
    finest rule has up to 2 * MAX_PANELS panels.  Each doubling is one
    filon_integral call over the omegas still open, halving their running
    sums, and an omega is accepted at the first doubling whose increment
    falls under max(REL_TOL * |value|, ABS_FLOOR) and whose coarser rule has
    the phase omega h < pi, as a call for it alone would accept.  Raises
    QuadratureError, naming the smallest omega still open and carrying its
    achieved accuracy, when the cap is reached first.  A plain callable f is
    sampled once, on nested grids; pass a NestedSamples to keep the grid and
    samples for the next call.
    """
    samples = f if isinstance(f, NestedSamples) else NestedSamples(f, a, b)
    omega = _omegas(omega)
    panels, sums = 8, RuleSums()
    prev = filon_integral(samples, a, b, omega, kind, panels, sums)
    value, err = np.empty(len(omega)), np.empty(len(omega))
    live = np.arange(len(omega))
    while live.size and panels <= MAX_PANELS:
        # no acceptance from a coarser rule that may alias omega (theta >= pi)
        resolved = omega[live] * ((b - a) / (2 * panels)) < math.pi
        panels *= 2
        cur = filon_integral(samples, a, b, omega[live], kind, panels, sums)
        change = np.abs(cur - prev)
        done = (change <= np.maximum(REL_TOL * np.abs(cur), ABS_FLOOR)) & resolved
        value[live[done]], err[live[done]] = cur[done], change[done]
        live, prev, change = live[~done], cur[~done], change[~done]
        sums.keep(~done)
    if live.size:
        worst = np.argmin(omega[live])
        raise QuadratureError(
            f"Filon refinement did not converge on [{a}, {b}] at omega = {float(omega[live[worst]])}",
            float(change[worst]),
        )
    return value, err


def graded_edges(lo: float, hi: float) -> list[tuple[float, float]]:
    """Geometrically graded panels (as (a, b) pairs) from hi down toward lo.

    Used for integrable endpoint singularities: panels halve toward the
    endpoint and stop at GRADED_CUTOFF, below which the remaining mass of any
    f with |f(t)| <= 1 + |log t| is under 1e-16.
    """
    edges = [hi]
    while edges[-1] / 2.0 > max(lo, GRADED_CUTOFF):
        edges.append(edges[-1] / 2.0)
    edges.append(max(lo, GRADED_CUTOFF))
    return [(edges[i + 1], edges[i]) for i in range(len(edges) - 1)][::-1]
