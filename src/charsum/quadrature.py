"""Oscillatory quadrature for integrals of f(t) cos/sin(omega t).

The workhorse is the composite Filon rule: f is interpolated by parabolas on
panel pairs while the oscillation is integrated exactly, so accuracy is
governed by f alone and does not degrade as omega grows.  As the panel phase
theta -> 0 the weights reduce to Simpson's rule, which covers the
non-oscillatory regime through the same code path; a Taylor branch keeps the
weights stable for small theta.

Panel doubling never samples a point twice.  The grid linspace(a, b, 2P + 1)
is bit-identical to the even entries of linspace(a, b, 4P + 1), because the
step (b - a)/4P is the step (b - a)/2P halved exactly.  NestedSamples keeps f
on the finest grid requested so far: a coarser request is a strided view of
it and a finer one evaluates f only at the new points.  One NestedSamples per
interval can therefore serve every omega, both kinds and every doubling, with
results bit-identical to sampling f afresh on each grid.
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


class QuadratureError(ArithmeticError):
    """Raised when panel refinement hits its cap; carries the achieved accuracy."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved accuracy {achieved:.3e})")
        self.achieved = achieved


class NestedSamples:
    """f on the nested grids linspace(a, b, 2P + 1) of one interval [a, b].

    Call it with such a grid, as filon_integral does, and it returns f on it
    as a read-only array.  Only the finest grid is held: a grid whose interval
    count divides the held one by a power of two is a strided view of it, and
    a grid that multiplies it by a power of two evaluates f only at the points
    the held grid lacks.  `values` is the held grid (None before any call).
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
        self.f, self.a, self.b = f, a, b
        self.values: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if len(x) < 2 or x[0] != self.a or x[-1] != self.b:
            raise ValueError(f"samples requested off the grids of [{self.a}, {self.b}]")
        held = self.values
        if held is None:
            values = np.array(self.f(x), dtype=float)
        else:
            coarse, fine = sorted((len(held) - 1, len(x) - 1))
            ratio, rest = divmod(fine, coarse)
            if rest or ratio & (ratio - 1):
                raise ValueError(
                    f"a grid of {len(x)} points does not nest with {len(held)} held points"
                )
            if len(x) <= len(held):
                return held[::ratio]
            values = np.empty(len(x))
            values[::ratio] = held
            new = np.ones(len(x), dtype=bool)
            new[::ratio] = False
            values[new] = self.f(x[new])
        values.flags.writeable = False
        self.values = values
        return values


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
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega: float,
    kind: str,
    panels: int,
) -> float:
    """integral_a^b f(t) cos/sin(omega t) dt on 2*panels subintervals."""
    h = (b - a) / (2 * panels)
    theta = omega * h
    alpha, beta, gamma = _filon_weights(theta)
    x = np.linspace(a, b, 2 * panels + 1)  # exact endpoints for one-sided limits
    fx = np.asarray(f(x), dtype=float)
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
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega: float,
    kind: str,
    rel_tol: float = 1e-12,
    abs_floor: float = 1e-14,
    max_panels: int = 2**15,
) -> tuple[float, float]:
    """Panel-doubling Filon integration; returns (value, error estimate).

    Panels start at 8 and double while they are at most max_panels, so the
    finest rule has up to 2 * max_panels panels.  Raises QuadratureError when
    that cap is reached before the doubling increment falls under
    max(rel_tol * |value|, abs_floor), and ValueError for max_panels < 8.
    Pass a NestedSamples as f to keep the samples for the next call.
    """
    if max_panels < 8:
        raise ValueError(f"max_panels must be at least 8, got {max_panels}")
    panels = 8
    prev = filon_integral(f, a, b, omega, kind, panels)
    while panels <= max_panels:
        panels *= 2
        cur = filon_integral(f, a, b, omega, kind, panels)
        err = abs(cur - prev)
        if err <= max(rel_tol * abs(cur), abs_floor):
            return cur, err
        prev = cur
    raise QuadratureError(
        f"Filon refinement did not converge on [{a}, {b}] at omega = {omega}", err
    )


def graded_edges(lo: float, hi: float, cutoff: float = 1e-18) -> list[tuple[float, float]]:
    """Geometrically graded panels (as (a, b) pairs) from hi down toward lo.

    Used for integrable endpoint singularities: panels halve toward the
    endpoint and stop at `cutoff`, below which the remaining mass of any
    f with |f(t)| <= 1 + |log t| is under 1e-16.
    """
    edges = [hi]
    while edges[-1] / 2.0 > max(lo, cutoff):
        edges.append(edges[-1] / 2.0)
    edges.append(max(lo, cutoff))
    return [(edges[i + 1], edges[i]) for i in range(len(edges) - 1)][::-1]
