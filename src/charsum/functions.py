"""Piecewise-smooth real functions on [0, 1] with midpoint jump convention.

A FunctionSpec carries everything the series engine needs: a pointwise
evaluator, the jump points with their one-sided limits, a flag for an
integrable singularity at 0, optional closed-form Fourier coefficients,
optional atoms coef/(n + c)^m and coef ln(n)/n (coef a scalar or one period
of weights) whose series tail is summed to within a rigorous bound, a proven
envelope of what the atoms leave of the coefficient when one is known, and
the variation class that drives truncation bounds.  Of the built-ins, t2, t,
exp and the steps are exactly their atoms, and their closed form is the one
evaluator _atom_sum, so the series head and the tail read one description; a
step at y = a/b is the atoms w[n mod b]/n, so b may not exceed the modulus
ceiling.  log keeps its Si/Ci closed form, with the cosine atoms
-1/(4n) + 1/(4 pi^2 n^2) under the envelope 1/(8 pi^4 n^4), and the sine
atoms -(gamma + ln 2 pi)/(2 pi n) - ln(n)/(2 pi n) under 1/(8 pi^3 n^3).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .analytic import EULER_GAMMA, LOG_ATOM, cosine_integral_array, sine_integral_array
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
    ``atoms[kind] = ((coef, c), (coef, c, m), (coef, 0, "log"), ...)`` splits
    coefficient_n into the real part of sum coef / (n + c)^m, plus
    coef ln(n)/n for an atom whose exponent slot is LOG_ATOM ("log"), plus a
    remainder; m is an integer >= 1, 1 when omitted, each c needs
    Re(c) >= 0, and c = 0 when m > 1 and for ln(n)/n.  A coef is a scalar or
    one period of weights: a non-empty, finite 1-D array w of length b (kept
    read-only), meaning w[n mod b] / (n + c)^m or w[n mod b] ln(n)/n.
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
    # (kind, ((coef, c[, m]), ...)); coef a scalar or a 1-D array of weights
    atoms: tuple[tuple[str, tuple[tuple, ...]], ...] = ()

    def __post_init__(self):
        for kind, pairs in self.atoms:
            if kind not in ("cos", "sin"):
                raise ValueError(f"atom kind must be 'cos' or 'sin', got {kind!r}")
            for coef, c, *power in pairs:
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
                        f"atom shift c = {c} has negative real part; the tail bound needs Re(c) >= 0"
                    )
                m = power[0] if power else 1
                if isinstance(m, str) and m == LOG_ATOM and len(power) == 1:
                    if c != 0:
                        raise ValueError(f"the atom ln(n)/n needs c = 0, got c = {c}")
                    continue
                if len(power) > 1 or not (isinstance(m, (int, np.integer)) and m >= 1):
                    raise ValueError(
                        f"atom exponent {power!r} must be one integer m >= 1 or {LOG_ATOM!r}"
                    )
                if m > 1 and c != 0:
                    raise ValueError(f"a power atom 1/(n + c)^{m} needs c = 0, got c = {c}")
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

    def atoms_for(self, kind: str) -> tuple[tuple, ...]:
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


def _atom_sum(atoms, n: np.ndarray, kind: str) -> np.ndarray:
    """The real part of sum coef/(n + c)^m over the kind's (coef, c[, m]) atoms:
    the closed form of every built-in whose coefficients are exactly its atoms."""
    total = np.zeros(len(n))
    for coef, c, *power in dict(atoms).get(kind, ()):
        den = n + c if not power else (n + c) ** power[0]
        total += np.real((coef if np.ndim(coef) == 0 else coef[n % len(coef)]) / den)
    return total


def _log_closed(n: np.ndarray, kind: str) -> np.ndarray:
    w = TWO_PI * n.astype(float)
    if kind == "cos":
        return -sine_integral_array(w) / w
    # integral of log(t) sin(w t): -(gamma + ln w - Ci(w)) / w
    return -(EULER_GAMMA + np.log(w) - cosine_integral_array(w)) / w


# -1/(2 pi n): the sine coefficients of t and t2
_HARMONIC_SIN = ("sin", ((-1.0 / TWO_PI, 0.0),))
# (evaluator, atoms) of the smooth built-ins: t2's cosine side 1/(2 pi^2 n^2), and
# exp's 1 + 4 pi^2 n^2 = 4 pi^2 (n - i/2pi)(n + i/2pi) split into partial fractions
_SMOOTH = {
    "t2": (lambda t: t * t, (("cos", ((1.0 / (2.0 * math.pi**2), 0.0, 2),)), _HARMONIC_SIN)),
    "t": (lambda t: t, (_HARMONIC_SIN,)),
    "exp": (math.exp, (
        ("cos", ((-1j * (math.e - 1.0) / (4.0 * math.pi), -1j / TWO_PI),
                 (1j * (math.e - 1.0) / (4.0 * math.pi), 1j / TWO_PI))),
        ("sin", ((-(math.e - 1.0) / (4.0 * math.pi), -1j / TWO_PI),
                 (-(math.e - 1.0) / (4.0 * math.pi), 1j / TWO_PI))),
    )),
}


def _step_atoms(y: Fraction) -> tuple:
    """The atoms of the step at y = a/b: w[n mod b]/n, w one period of
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
    return tuple((kind, ((w, 0.0),)) for kind, w in weights.items())


@lru_cache(maxsize=64)
def builtin_function(name: str) -> FunctionSpec:
    """Built-in FunctionSpec by name: t2, t, exp, log, or step:<y> with y in (0,1).

    Step thresholds accept fractions ("step:1/4") or decimals ("step:0.25").
    """
    if name == "log":
        # The cosine coefficient -Si(2 pi n)/(2 pi n) is -1/(4n) + f(x)/x at
        # x = 2 pi n, with f(x) = pi/2 - Si(x) there (DLMF 6.2).  Since
        # f(x) - 1/x = -integral e^{-xt} t^2/(1 + t^2) dt lies in [-2/x^3, 0],
        # it is the atoms -1/(4n) + 1/(4 pi^2 n^2) plus at most 1/(8 pi^4 n^4).
        # The sine coefficient -(gamma + ln x - Ci(x))/x is the atoms
        # -(gamma + ln 2 pi)/(2 pi n) - ln(n)/(2 pi n) plus Ci(x)/x = -g(x)/x,
        # since sin x = 0 and cos x = 1 there, with 0 < g(x) <= 1/x^2: at most
        # 1/(8 pi^3 n^3).
        return FunctionSpec(
            name="log",
            evaluator=math.log,
            variation_class=VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
            singular_at_zero=True,
            closed_form=_log_closed,
            envelope=(("cos", 1.0 / (8.0 * math.pi**4), 4), ("sin", 1.0 / (8.0 * math.pi**3), 3)),
            atoms=(
                ("cos", ((-0.25, 0.0), (1.0 / (4.0 * math.pi**2), 0.0, 2))),
                ("sin", ((-(EULER_GAMMA + math.log(TWO_PI)) / TWO_PI, 0.0),
                         (-1.0 / TWO_PI, 0.0, LOG_ATOM))),
            ),
        )
    variation, jumps = VariationClass.SMOOTH_C2, ()
    if name in _SMOOTH:
        evaluator, atoms = _SMOOTH[name]
    elif name.startswith("step:"):
        try:
            y = Fraction(name[5:])
        except ZeroDivisionError:
            raise ValueError(f"step threshold {name[5:]!r} has a zero denominator") from None
        atoms, name, yf = _step_atoms(y), f"step:{y}", float(y)
        evaluator = lambda t: 1.0 if t <= yf else 0.0
        variation, jumps = VariationClass.PIECEWISE_SMOOTH, ((yf, 1.0, 0.0),)
    else:
        raise ValueError(f"unknown function name {name!r}; expected one of {BUILTIN_NAMES}")
    return FunctionSpec(
        name=name,
        evaluator=evaluator,
        variation_class=variation,
        jump_points=jumps,
        closed_form=partial(_atom_sum, atoms),
        envelope=(("cos", 0.0, 2),) if name == "t" else (),  # t's cosine side is 0
        atoms=atoms,
    )


BUILTIN_NAMES = ("t2", "t", "exp", "log", "step:<y>")
