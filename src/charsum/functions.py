"""Piecewise-smooth real functions on [0, 1] with midpoint jump convention.

A FunctionSpec carries everything the series engine needs: a pointwise
evaluator, the jump points with their one-sided limits, a flag for an
integrable singularity at 0, optional closed-form Fourier coefficients, a
proven coefficient envelope when one is known, optional rational atoms that
let the series tail be summed exactly, and the variation class that drives
truncation bounds.
The built-in family covers the squared/linear/exponential/logarithm
evaluands and indicator steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .analytic import EULER_GAMMA, cosine_integral_array, sine_integral_array

__all__ = [
    "VariationClass",
    "FunctionSpec",
    "fstar",
    "builtin_function",
    "BUILTIN_NAMES",
]

TWO_PI = 2.0 * math.pi


class VariationClass(enum.Enum):
    """Coefficient-decay regime declared for a function on [0, 1]."""

    SMOOTH_C2 = "smooth_c2"
    PIECEWISE_SMOOTH = "piecewise_smooth"
    INTEGRABLE_SINGULAR_AT_ZERO = "integrable_singular_at_zero"
    UNBOUNDED_VARIATION = "unbounded_variation"  # rejected by the series engine


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """A real function on [0, 1], with jump bookkeeping for the midpoint value.

    ``closed_form(n_array, kind)`` returns the Fourier coefficients
    integral_0^1 f(t) cos/sin(2 pi n t) dt when analytically known.
    ``envelope[kind] = (C, p)`` asserts |coefficient_n| <= C / n**p for all n.
    ``atoms[kind] = ((coef, c), ...)`` asserts coefficient_n equals
    sum coef / (n + c) exactly for all n >= 1; each c needs Re(c) >= 0.
    """

    name: str
    evaluator: Callable[[float], float]
    variation_class: VariationClass
    jump_points: tuple[tuple[float, float, float], ...] = ()  # (t, left, right)
    singular_at_zero: bool = False
    closed_form: Callable[[np.ndarray, str], np.ndarray] | None = None
    envelope: tuple[tuple[str, float, int], ...] = ()  # (kind, C, p)
    # (kind, ((coef, c), ...))
    atoms: tuple[tuple[str, tuple[tuple[complex, complex], ...]], ...] = ()

    def __post_init__(self):
        for kind, pairs in self.atoms:
            if kind not in ("cos", "sin"):
                raise ValueError(f"atom kind must be 'cos' or 'sin', got {kind!r}")
            for _, c in pairs:
                if complex(c).real < 0:
                    raise ValueError(
                        f"atom shift c = {c} has negative real part; the Abel tail needs Re(c) >= 0"
                    )

    def envelope_for(self, kind: str) -> tuple[float, int] | None:
        for k, c, p in self.envelope:
            if k == kind:
                return c, p
        return None

    def atoms_for(self, kind: str) -> tuple[tuple[complex, complex], ...]:
        for k, pairs in self.atoms:
            if k == kind:
                return pairs
        return ()


def fstar(f: FunctionSpec, x: float) -> float:
    """f*(x): the function value, or the mean of the one-sided limits at a jump."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"f* is defined on the open interval (0, 1); got x = {x}")
    for t, left, right in f.jump_points:
        if x == t:
            return 0.5 * (left + right)
    return f.evaluator(x)


# --- built-in family ---------------------------------------------------------


def _t2_closed(n: np.ndarray, kind: str) -> np.ndarray:
    if kind == "cos":
        return 1.0 / (2.0 * math.pi**2 * n.astype(float) ** 2)
    return -1.0 / (TWO_PI * n)


def _t_closed(n: np.ndarray, kind: str) -> np.ndarray:
    if kind == "cos":
        return np.zeros(len(n))
    return -1.0 / (TWO_PI * n)


def _exp_closed(n: np.ndarray, kind: str) -> np.ndarray:
    den = 1.0 + 4.0 * math.pi**2 * n.astype(float) ** 2
    if kind == "cos":
        return (math.e - 1.0) / den
    return -TWO_PI * n * (math.e - 1.0) / den


def _log_closed(n: np.ndarray, kind: str) -> np.ndarray:
    w = TWO_PI * n.astype(float)
    if kind == "cos":
        return -sine_integral_array(w) / w
    # integral of log(t) sin(w t): -(gamma + ln w - Ci(w)) / w
    return -(EULER_GAMMA + np.log(w) - cosine_integral_array(w)) / w


def _step_closed(y: float) -> Callable[[np.ndarray, str], np.ndarray]:
    def closed(n: np.ndarray, kind: str) -> np.ndarray:
        w = TWO_PI * n.astype(float)
        if kind == "cos":
            return np.sin(w * y) / w
        return (1.0 - np.cos(w * y)) / w

    return closed


# -1/(2 pi n): the sine coefficients of t and t2
_HARMONIC_SIN_ATOMS = (("sin", ((-1.0 / TWO_PI, 0.0),)),)
# 1 + 4 pi^2 n^2 = 4 pi^2 (n - i/2pi)(n + i/2pi), split into partial fractions
_EXP_ATOMS = (
    ("cos", ((-1j * (math.e - 1.0) / (4.0 * math.pi), -1j / TWO_PI),
             (1j * (math.e - 1.0) / (4.0 * math.pi), 1j / TWO_PI))),
    ("sin", ((-(math.e - 1.0) / (4.0 * math.pi), -1j / TWO_PI),
             (-(math.e - 1.0) / (4.0 * math.pi), 1j / TWO_PI))),
)

_SI_MAX = 1.8519370519824665  # Si(pi), the global maximum of Si


def _make_step(y: Fraction) -> FunctionSpec:
    yf = float(y)
    if not 0 < yf < 1:
        raise ValueError(f"step threshold must lie in (0, 1), got {y}")
    return FunctionSpec(
        name=f"step:{y}",
        evaluator=lambda t, _y=yf: 1.0 if t <= _y else 0.0,
        variation_class=VariationClass.PIECEWISE_SMOOTH,
        jump_points=((yf, 1.0, 0.0),),
        closed_form=_step_closed(yf),
        envelope=(("cos", 1.0 / TWO_PI, 1), ("sin", 1.0 / math.pi, 1)),
    )


@lru_cache(maxsize=64)
def builtin_function(name: str) -> FunctionSpec:
    """Built-in FunctionSpec by name: t2, t, exp, log, or step:<y> with y in (0,1).

    Step thresholds accept fractions ("step:1/4") or decimals ("step:0.25").
    """
    if name == "t2":
        return FunctionSpec(
            name="t2",
            evaluator=lambda t: t * t,
            variation_class=VariationClass.SMOOTH_C2,
            closed_form=_t2_closed,
            envelope=(("cos", 1.0 / (2.0 * math.pi**2), 2), ("sin", 1.0 / TWO_PI, 1)),
            atoms=_HARMONIC_SIN_ATOMS,
        )
    if name == "t":
        return FunctionSpec(
            name="t",
            evaluator=lambda t: t,
            variation_class=VariationClass.SMOOTH_C2,
            closed_form=_t_closed,
            envelope=(("cos", 0.0, 2), ("sin", 1.0 / TWO_PI, 1)),
            atoms=_HARMONIC_SIN_ATOMS,
        )
    if name == "exp":
        return FunctionSpec(
            name="exp",
            evaluator=math.exp,
            variation_class=VariationClass.SMOOTH_C2,
            closed_form=_exp_closed,
            envelope=(
                ("cos", (math.e - 1.0) / (4.0 * math.pi**2), 2),
                ("sin", (math.e - 1.0) / TWO_PI, 1),
            ),
            atoms=_EXP_ATOMS,
        )
    if name == "log":
        # The sine coefficients grow like ln(n)/n, so only the cosine side
        # carries a proven C/n envelope; the engine measures the other.
        return FunctionSpec(
            name="log",
            evaluator=math.log,
            variation_class=VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
            singular_at_zero=True,
            closed_form=_log_closed,
            envelope=(("cos", _SI_MAX / TWO_PI, 1),),
        )
    if name.startswith("step:"):
        try:
            y = Fraction(name[5:])
        except ZeroDivisionError:
            raise ValueError(f"step threshold {name[5:]!r} has a zero denominator") from None
        return _make_step(y)
    raise ValueError(f"unknown function name {name!r}; expected one of {BUILTIN_NAMES}")


BUILTIN_NAMES = ("t2", "t", "exp", "log", "step:<y>")
