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
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "NestedSamples",
    "QuadratureError",
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


def _filon_weights(theta: float) -> tuple[float, float, float]:
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


def filon_integral(
    f: NestedSamples | Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega: float,
    kind: str,
    panels: int,
) -> float:
    """integral_a^b f(t) cos/sin(omega t) dt on 2*panels subintervals.

    f is a NestedSamples of [a, b], whose grid and samples are reused, or a
    vectorized callable, sampled afresh.
    """
    samples = f if isinstance(f, NestedSamples) else NestedSamples(f, a, b)
    if (samples.a, samples.b) != (a, b):
        raise ValueError(f"samples requested off the grids of [{samples.a}, {samples.b}]")
    h = (b - a) / (2 * panels)
    theta = omega * h
    alpha, beta, gamma = _filon_weights(theta)
    x, fx = samples.grid(panels)  # exact endpoints for one-sided limits
    wx = omega * x
    if kind == "cos":
        g = np.cos(wx)
        endpoint = alpha * (fx[-1] * math.sin(omega * b) - fx[0] * math.sin(omega * a))
    elif kind == "sin":
        g = np.sin(wx)
        endpoint = -alpha * (fx[-1] * math.cos(omega * b) - fx[0] * math.cos(omega * a))
    else:
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    fg = fx * g
    even = fg[::2].sum() - 0.5 * (fg[0] + fg[-1])
    odd = fg[1::2].sum()
    return h * (endpoint + beta * even + gamma * odd)


def filon_adaptive(
    f: NestedSamples | Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega: float,
    kind: str,
) -> tuple[float, float]:
    """Panel-doubling Filon integration; returns (value, error estimate).

    Panels start at 8 and double while they are at most MAX_PANELS, so the
    finest rule has up to 2 * MAX_PANELS panels.  Raises QuadratureError when
    that cap is reached before the doubling increment falls under
    max(REL_TOL * |value|, ABS_FLOOR).  Pass a NestedSamples as f to keep the
    grid and samples for the next call.
    """
    panels = 8
    prev = filon_integral(f, a, b, omega, kind, panels)
    while panels <= MAX_PANELS:
        panels *= 2
        cur = filon_integral(f, a, b, omega, kind, panels)
        err = abs(cur - prev)
        if err <= max(REL_TOL * abs(cur), ABS_FLOOR):
            return cur, err
        prev = cur
    raise QuadratureError(
        f"Filon refinement did not converge on [{a}, {b}] at omega = {omega}", err
    )


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
