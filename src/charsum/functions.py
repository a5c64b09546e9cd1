"""Piecewise-smooth real functions on [0, 1] with midpoint jump convention.

A FunctionSpec carries everything the series engine needs: a pointwise
evaluator, the jump points with their one-sided limits, a flag for an
integrable singularity at 0, optional closed-form Fourier coefficients,
optional rational atoms coef/(n + c), with coef a scalar or one period of
weights, whose series tail is summed exactly, a proven envelope of what the
atoms leave of the coefficient when one is known, and the variation class
that drives truncation bounds.
The built-in family covers the squared/linear/exponential/logarithm
evaluands and indicator steps; a step at y = a/b is exactly the atoms
w[n mod b]/n on both sides, so its denominator b may not exceed the modulus
ceiling.
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
from .characters import MODULUS_CEILING

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
    ``atoms[kind] = ((coef, c), ...)`` splits coefficient_n into
    sum coef / (n + c) plus a remainder; each c needs Re(c) >= 0.  A coef is
    a scalar or one period of weights: a non-empty, finite 1-D array w of
    length b (kept read-only), meaning w[n mod b] / (n + c).
    ``envelope[kind] = (C, p)`` asserts |coefficient_n - atoms| <= C / n**p
    for all n >= 1, with C finite and >= 0 and p an integer >= 1.  Atoms
    without an envelope for their kind are exact (zero remainder); a kind with
    neither gets an envelope measured from its first coefficients.
    """

    name: str
    evaluator: Callable[[float], float]
    variation_class: VariationClass
    jump_points: tuple[tuple[float, float, float], ...] = ()  # (t, left, right)
    singular_at_zero: bool = False
    closed_form: Callable[[np.ndarray, str], np.ndarray] | None = None
    envelope: tuple[tuple[str, float, int], ...] = ()  # (kind, C, p)
    # (kind, ((coef, c), ...)); coef a scalar or a 1-D array of weights
    atoms: tuple[tuple[str, tuple[tuple[complex | np.ndarray, complex], ...]], ...] = ()

    def __post_init__(self):
        for kind, pairs in self.atoms:
            if kind not in ("cos", "sin"):
                raise ValueError(f"atom kind must be 'cos' or 'sin', got {kind!r}")
            for coef, c in pairs:
                if np.ndim(coef) != 0 and not (
                    isinstance(coef, np.ndarray) and coef.ndim == 1 and coef.size
                ):
                    raise ValueError(
                        f"a periodic atom coef must be a non-empty 1-D array, got {coef!r}"
                    )
                if not np.isfinite(coef).all():
                    raise ValueError(f"atom coef {coef!r} is not finite")
                if complex(c).real < 0:
                    raise ValueError(
                        f"atom shift c = {c} has negative real part; the Abel tail needs Re(c) >= 0"
                    )
        for kind, c, p in self.envelope:
            if kind not in ("cos", "sin"):
                raise ValueError(f"envelope kind must be 'cos' or 'sin', got {kind!r}")
            if not (math.isfinite(c) and c >= 0):
                raise ValueError(f"envelope constant C = {c} must be finite and >= 0")
            if not (isinstance(p, (int, np.integer)) and p >= 1):
                raise ValueError(f"envelope power p = {p!r} must be an integer >= 1")

    def envelope_for(self, kind: str) -> tuple[float, int] | None:
        for k, c, p in self.envelope:
            if k == kind:
                return c, p
        return None

    def atoms_for(self, kind: str) -> tuple[tuple[complex | np.ndarray, complex], ...]:
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


# -1/(2 pi n): the sine coefficients of t and t2
_HARMONIC_SIN_ATOMS = (("sin", ((-1.0 / TWO_PI, 0.0),)),)
# 1 + 4 pi^2 n^2 = 4 pi^2 (n - i/2pi)(n + i/2pi), split into partial fractions
_EXP_ATOMS = (
    ("cos", ((-1j * (math.e - 1.0) / (4.0 * math.pi), -1j / TWO_PI),
             (1j * (math.e - 1.0) / (4.0 * math.pi), 1j / TWO_PI))),
    ("sin", ((-(math.e - 1.0) / (4.0 * math.pi), -1j / TWO_PI),
             (-(math.e - 1.0) / (4.0 * math.pi), 1j / TWO_PI))),
)


def _make_step(y: Fraction) -> FunctionSpec:
    """The step at y = a/b: coefficients w[n mod b]/n, w one period of
    sin(2 pi r a/b)/(2 pi) (cosine) or (1 - cos(2 pi r a/b))/(2 pi) (sine)."""
    if not 0 < y < 1:
        raise ValueError(f"step threshold must lie in (0, 1), got {y}")
    b = y.denominator
    if b > MODULUS_CEILING:
        raise ValueError(
            f"step threshold {y} has denominator {b}, above the modulus ceiling "
            f"{MODULUS_CEILING}; pass it as a fraction with a small denominator, such as 1/5"
        )
    angles = (TWO_PI / b) * ((np.arange(b) * y.numerator) % b)  # exact reduction of 2 pi r y
    weights = {"cos": np.sin(angles) / TWO_PI, "sin": (1.0 - np.cos(angles)) / TWO_PI}
    for w in weights.values():
        w.flags.writeable = False

    def closed(n: np.ndarray, kind: str) -> np.ndarray:
        return weights[kind][n % b] / n

    yf = float(y)
    return FunctionSpec(
        name=f"step:{y}",
        evaluator=lambda t, _y=yf: 1.0 if t <= _y else 0.0,
        variation_class=VariationClass.PIECEWISE_SMOOTH,
        jump_points=((yf, 1.0, 0.0),),
        closed_form=closed,
        atoms=tuple((kind, ((w, 0.0),)) for kind, w in weights.items()),
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
            envelope=(("cos", 1.0 / (2.0 * math.pi**2), 2),),
            atoms=_HARMONIC_SIN_ATOMS,
        )
    if name == "t":
        return FunctionSpec(
            name="t",
            evaluator=lambda t: t,
            variation_class=VariationClass.SMOOTH_C2,
            closed_form=_t_closed,
            envelope=(("cos", 0.0, 2),),
            atoms=_HARMONIC_SIN_ATOMS,
        )
    if name == "exp":
        return FunctionSpec(
            name="exp",
            evaluator=math.exp,
            variation_class=VariationClass.SMOOTH_C2,
            closed_form=_exp_closed,
            atoms=_EXP_ATOMS,
        )
    if name == "log":
        # The cosine coefficient -Si(2 pi n)/(2 pi n) is the atom -1/(4n) plus
        # eps_n = (pi/2 - Si(2 pi n))/(2 pi n), and |eps_n| <= 1/(2 pi^2 n^2)
        # since |pi/2 - Si(x)| <= 2/x.  The sine coefficients grow like
        # ln(n)/n and have neither; the engine measures their envelope.
        return FunctionSpec(
            name="log",
            evaluator=math.log,
            variation_class=VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
            singular_at_zero=True,
            closed_form=_log_closed,
            envelope=(("cos", 1.0 / (2.0 * math.pi**2), 2),),
            atoms=(("cos", ((-0.25, 0.0),)),),
        )
    if name.startswith("step:"):
        try:
            y = Fraction(name[5:])
        except ZeroDivisionError:
            raise ValueError(f"step threshold {name[5:]!r} has a zero denominator") from None
        return _make_step(y)
    raise ValueError(f"unknown function name {name!r}; expected one of {BUILTIN_NAMES}")


BUILTIN_NAMES = ("t2", "t", "exp", "log", "step:<y>")
