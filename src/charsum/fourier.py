"""The Fourier-series evaluation of character sums sum chi(k) f*(k/q).

Two routes are provided and compared:

* direct_sum: math.fsum summation of chi(k) f*(k/q) over 1 <= k <= q-1;
* theorem_series: the equivalent single-parity coefficient series
  2 tau(chi) sum conj(chi)(n) a_n (even chi, cosine coefficients) or
  -2i tau(chi) sum conj(chi)(n) b_n (odd chi, sine coefficients),
  truncated with a rigorous tail bound.

Both are summed by one call of analytic.character_series, which takes the
coefficients folded by n mod q (cached_fold) and the tail kernel of the
spec's atoms (cached_tail): one fold and one kernel per spec, kind, modulus
and N serve every character with that N, and folds, not long coefficient
arrays, are what is kept (cached_coefficients retains at most RETAINED_TERMS
per spec and kind).  A spec holds its f* table, folds and kernels for the
modulus in use only, since every command runs one modulus at a time.  The
tail of the spec's atoms for the branch (every row of t2, exp, log and the
steps, odd rows of t) is one length-q dot product with the kernel, within a
rigorous Euler-Maclaurin bound; what the atoms leave (all of the coefficient
without them) is bounded by the Polya-Vinogradov partial-sum bound times the
total variation of its envelope.  Jump and log classes without atoms (user
specs) are Cesaro-averaged over the window [N, 2N].

Coefficients without a closed form come from piecewise Filon quadrature.  f is
sampled once per piece (an interval between jumps, or one interval of the
graded mesh toward a singular 0) on nested grids held per spec, shared by
every n, both kinds and every panel doubling; the coefficients are
bit-identical to sampling f afresh for each one.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import character_series, check_tolerance, reciprocal_tail, residue_fold
from .characters import DirichletCharacter
from .functions import FunctionSpec, VariationClass
from .gauss_sums import tau
from .quadrature import ABS_FLOOR, REL_TOL, NestedSamples, QuadratureError, filon_adaptive, graded_edges

__all__ = [
    "SeriesEvaluation",
    "TheoremCheck",
    "cached_coefficients",
    "cached_fold",
    "cached_tail",
    "direct_sum",
    "fourier_coefficient",
    "theorem_series",
    "verify_theorem",
]

DEFAULT_TERMS_CAP = 10**6
_QUADRATURE_TERMS_CAP = 4096
_MIN_TERMS = 32

# per-FunctionSpec caches, keyed by object identity; _modulus_cache holds
# (q, {"fstar": table, (kind, N, averaged): fold, (kind, N, "tail"): kernel})
# for the modulus in use
_coeff_cache: "weakref.WeakKeyDictionary[FunctionSpec, dict]" = weakref.WeakKeyDictionary()
_sample_cache: "weakref.WeakKeyDictionary[FunctionSpec, list]" = weakref.WeakKeyDictionary()
_modulus_cache: "weakref.WeakKeyDictionary[FunctionSpec, tuple]" = weakref.WeakKeyDictionary()
# the longest coefficient array cached_coefficients keeps per spec and kind
RETAINED_TERMS = 2**20


def _require_primitive(chi: DirichletCharacter) -> None:
    if chi.modulus < 3:
        raise ValueError(f"modulus {chi.modulus} < 3: no non-trivial summation range")
    if not chi.is_primitive:
        raise ValueError(
            f"character {chi.label} is not primitive (conductor {chi.conductor}); "
            "the series identity requires a primitive character"
        )


def _modulus_table(f: FunctionSpec, q: int, key, build) -> np.ndarray:
    """The spec's read-only table `key` for modulus q, from build() on a miss;
    a new modulus replaces the tables held for the last one."""
    held = _modulus_cache.get(f)
    if held is None or held[0] != q:
        held = _modulus_cache[f] = (q, {})
    table = held[1].get(key)
    if table is None:
        table = held[1][key] = build()
        table.flags.writeable = False
    return table


def _fstar_values(f: FunctionSpec, q: int) -> np.ndarray:
    """f*(k/q) for k = 1..q-1, equal to fstar(f, k/q) bit for bit: the evaluator
    at every point, then the midpoint value at each jump t that is some k/q."""

    def build():
        table = np.array([f.evaluator(k / q) for k in range(1, q)], dtype=float)
        for t, left, right in reversed(f.jump_points):  # fstar takes the first match
            k = round(t * q)
            if 0 < k < q and k / q == t:
                table[k - 1] = 0.5 * (left + right)
        return table

    return _modulus_table(f, q, "fstar", build)


def direct_sum(chi: DirichletCharacter, f: FunctionSpec) -> float | complex:
    """sum_{k=1}^{q-1} chi(k) f*(k/q) by math.fsum, real for real chi.

    For real chi every product is +-f*(k/q) exactly, so the sum is exactly
    rounded.  For complex chi it is not: rounding the q - 1 products before
    the fsum alone may move each component by up to (q - 1) 2^-53 max|f*|,
    and the rounding of the table values cos/sin(2 pi t/e) themselves can
    roughly double that.  Against 40-digit sums the error measured at most
    0.79 of (q - 1) 2^-53 max|f*| over the complex characters mod 7, 13
    and 29; no proven bound is claimed.
    """
    _require_primitive(chi)
    q = chi.modulus
    fs = _fstar_values(f, q)
    if chi.is_real:
        vals = chi.values_real()[1:]
        live = vals != 0.0
        return math.fsum((vals[live] * fs[live]).tolist())
    vals = chi.values_complex()[1:]
    live = vals != 0.0
    vals, fs = vals[live], fs[live]
    return complex(math.fsum((vals.real * fs).tolist()), math.fsum((vals.imag * fs).tolist()))


# --- Fourier coefficients -----------------------------------------------------


def _piece_evaluator(f: FunctionSpec, a: float, b: float):
    """Vectorized evaluator for one smooth piece, using one-sided limits at jumps."""
    base = np.vectorize(f.evaluator, otypes=[float])
    ends = [(a, right) for t, _, right in f.jump_points if t == a]
    ends += [(b, left) for t, left, _ in f.jump_points if t == b]
    if not ends:
        return base

    def piece(x: np.ndarray) -> np.ndarray:
        fx = base(x)
        for point, value in ends:
            fx = np.where(x == point, value, fx)
        return fx

    return piece


def _piece_samples(f: FunctionSpec) -> list[NestedSamples]:
    """The spec's quadrature pieces in summation order, each with its samples.

    A piece is an interval between jump points, or one interval of the graded
    mesh toward 0 when f is singular there.  Each piece holds its finest grid
    and the samples on it, shared by every n, both kinds and every doubling.
    """
    pieces = _sample_cache.get(f)
    if pieces is None:
        pieces = []
        breakpoints = [0.0] + [t for t, _, _ in f.jump_points] + [1.0]
        for a, b in zip(breakpoints[:-1], breakpoints[1:]):
            if b <= a:
                continue
            evaluator = _piece_evaluator(f, a, b)
            if f.singular_at_zero and a == 0.0:
                pieces += [NestedSamples(evaluator, lo, hi) for lo, hi in graded_edges(0.0, b)]
            else:
                pieces.append(NestedSamples(evaluator, a, b))
        _sample_cache[f] = pieces
    return pieces


def _coefficient_quadrature(f: FunctionSpec, n: int, kind: str) -> float:
    """One coefficient by piecewise Filon quadrature with a graded singular mesh."""
    omega = 2.0 * math.pi * n
    total = 0.0
    for piece in _piece_samples(f):
        total += filon_adaptive(piece, piece.a, piece.b, omega, kind)[0]
    return total


def fourier_coefficient(f: FunctionSpec, n: int, kind: str) -> float:
    """integral_0^1 f(t) cos/sin(2 pi n t) dt for n >= 1.

    Uses the closed form when the spec carries one, otherwise adaptive Filon
    quadrature to ~1e-12 relative accuracy (QuadratureError on failure, with
    the achieved accuracy attached).
    """
    if n < 1:
        raise ValueError(f"coefficient index must be a positive integer, got {n}")
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if f.closed_form is not None:
        return float(f.closed_form(np.array([n]), kind)[0])
    return _coefficient_quadrature(f, n, kind)


def cached_coefficients(f: FunctionSpec, kind: str, count: int) -> np.ndarray:
    """Coefficients for n = 1..count, cached per spec and kind and grown on demand.

    cached_fold and the envelope measurement share this cache.  The built-in
    closed forms are elementwise, so their values do not depend on how the
    cache grew.  An array longer than RETAINED_TERMS is returned but not
    kept: it is only needed to build a fold, which is cached instead.
    """
    per_f = _coeff_cache.setdefault(f, {})
    arr = per_f.get(kind)
    if arr is None or len(arr) < count:
        have = 0 if arr is None else len(arr)
        n_new = np.arange(have + 1, count + 1)
        if f.closed_form is not None:
            new = np.asarray(f.closed_form(n_new, kind), dtype=float)
        else:
            new = np.array([_coefficient_quadrature(f, int(n), kind) for n in n_new])
        arr = new if arr is None else np.concatenate([arr, new])
        arr.flags.writeable = False
        if count <= RETAINED_TERMS:
            per_f[kind] = arr
    return arr[:count]


def cached_fold(f: FunctionSpec, kind: str, m: int, n_terms: int, averaged: bool) -> np.ndarray:
    """The spec's coefficients of one kind folded by n mod m (analytic.residue_fold)
    for the head to N, or over the Cesaro window [N, 2N] when averaged.

    This is the fold callable of every theorem series (partial(cached_fold, f,
    kind)).  Folds are cached per spec and keyed by (kind, N, averaged), for
    the modulus in use only; a fold is a new (2, m) array and keeps no
    reference to the coefficients it was built from.
    """
    length = 2 * n_terms if averaged else n_terms
    return _modulus_table(f, m, (kind, n_terms, averaged),
                          lambda: residue_fold(cached_coefficients(f, kind, length), m, averaged))


def cached_tail(f: FunctionSpec, kind: str, m: int, n_terms: int) -> np.ndarray:
    """The tail kernel of the spec's atoms of one kind beyond N, folded by
    n mod m (analytic.reciprocal_tail).

    This is the tail callable of every theorem series (partial(cached_tail,
    f, kind)).  Kernels are cached next to the folds, keyed by (kind, N,
    "tail"), for the modulus in use only.
    """
    return _modulus_table(f, m, (kind, n_terms, "tail"),
                          lambda: reciprocal_tail(f.atoms_for(kind), m, n_terms))


# --- truncated series with tail bound ----------------------------------------


@dataclass(frozen=True)
class SeriesEvaluation:
    """A truncated evaluation of the coefficient series, prefactor included."""

    value: float | complex
    terms_used: int
    tail_bound: float
    parity_branch: str  # "cosine_even" or "sine_odd"
    averaged: bool
    best_effort: bool
    quadrature_budget: float
    tail_method: str  # "euler_maclaurin", "envelope" or "cesaro"


def _envelope(f: FunctionSpec, kind: str) -> tuple[float, int]:
    """(C, p) of the envelope of coefficient - atoms for the kind: declared,
    zero for exact atoms, or measured."""
    declared = f.envelope_for(kind)
    if declared is not None:
        return declared
    if f.atoms_for(kind):
        return 0.0, 1
    # measure C over an initial sample; the 1.1 inflation covers mild growth
    sample = cached_coefficients(f, kind, 256 if f.closed_form is not None else 64)
    p = 2 if (f.variation_class is VariationClass.SMOOTH_C2 and kind == "cos") else 1
    n = np.arange(1, len(sample) + 1)
    c = 1.1 * float(np.max(np.abs(sample) * n.astype(float) ** p))
    return c, p


def theorem_series(
    chi: DirichletCharacter,
    f: FunctionSpec,
    target_accuracy: float,
    terms: int | None = None,
    terms_cap: int = DEFAULT_TERMS_CAP,
) -> SeriesEvaluation:
    """Evaluate the theorem series for chi and f, choosing N from the tail bound.

    When f declares atoms for the branch's coefficient kind, the atoms' tail
    beyond N is the dot product of the character with the cached kernel of
    Euler-Maclaurin class sums (tail method "euler_maclaurin"), so N stays
    O(q) (O(lcm(q, b)) for atoms with weights of period b) unless the
    remainder envelope asks for more.  Otherwise N is picked from the
    envelope bound (tail method "envelope"); jump and singular variation
    classes are Cesaro-averaged over the window [N, 2N] (tail method
    "cesaro").  When the bound cannot reach target_accuracy within the cap the
    evaluation is best-effort with the bound reported as is.  An explicit
    `terms` overrides the choice of N and must not exceed terms_cap.  The head
    and tail are summed by one analytic.character_series call.
    target_accuracy obeys analytic.check_tolerance.
    """
    _require_primitive(chi)
    if f.variation_class is VariationClass.UNBOUNDED_VARIATION:
        raise ValueError(f"function {f.name!r} declares unbounded variation; series diverges")
    check_tolerance(target_accuracy, "target_accuracy")
    if terms is not None and not 1 <= terms <= terms_cap:
        raise ValueError(f"terms must be >= 1 and at most terms_cap = {terms_cap}, got {terms}")

    q = chi.modulus
    even = chi.is_even
    kind = "cos" if even else "sin"
    branch = "cosine_even" if even else "sine_odd"
    atoms = f.atoms_for(kind)
    averaged = not atoms and f.variation_class in (
        VariationClass.PIECEWISE_SMOOTH,
        VariationClass.INTEGRABLE_SINGULAR_AT_ZERO,
    )
    tail_method = "euler_maclaurin" if atoms else "cesaro" if averaged else "envelope"

    tau_value = tau(chi).value
    prefactor = 2.0 * tau_value if even else -2.0j * tau_value
    pref_abs = abs(prefactor)
    table = chi.values_real() if chi.is_real else np.conj(chi.values_complex())

    cap = terms_cap if f.closed_form is not None else min(terms_cap, _QUADRATURE_TERMS_CAP)
    start = max(_MIN_TERMS, 8 * q) if atoms else _MIN_TERMS
    value, n_terms, tail = character_series(
        table, partial(cached_fold, f, kind), prefactor, target_accuracy, start, cap,
        atoms, _envelope(f, kind), terms, averaged, partial(cached_tail, f, kind),
    )
    best_effort = tail > target_accuracy

    length = 2 * n_terms if averaged else n_terms
    if f.closed_form is not None:
        budget = 0.0
    else:  # a cache hit after the series, which folded the same coefficients
        coeffs = cached_coefficients(f, kind, length)
        budget = pref_abs * (REL_TOL * float(np.abs(coeffs).sum()) + length * ABS_FLOOR)

    if chi.is_real:
        imag = abs(value.imag)
        if imag > tail + 1e-9 + budget:
            raise ArithmeticError(
                f"series for real character {chi.label} kept imaginary part {imag:.3e}"
            )
        value = float(value.real)

    return SeriesEvaluation(
        value=value,
        terms_used=n_terms,
        tail_bound=float(tail),
        parity_branch=branch,
        averaged=averaged,
        best_effort=best_effort,
        quadrature_budget=float(budget),
        tail_method=tail_method,
    )


@dataclass(frozen=True)
class TheoremCheck:
    """Comparison of the direct sum against the truncated series."""

    character_label: str
    function_name: str
    direct: float | complex
    series: SeriesEvaluation
    abs_error: float
    pass_tolerance: float
    passed: bool


def verify_theorem(
    chi: DirichletCharacter,
    f: FunctionSpec,
    target_accuracy: float,
    terms: int | None = None,
    terms_cap: int = DEFAULT_TERMS_CAP,
) -> TheoremCheck:
    """Compare direct_sum and theorem_series; pass iff the difference is within
    tail_bound + 1e-9 + quadrature budget."""
    direct = direct_sum(chi, f)
    series = theorem_series(chi, f, target_accuracy, terms=terms, terms_cap=terms_cap)
    abs_error = abs(direct - series.value)
    tolerance = series.tail_bound + 1e-9 + series.quadrature_budget
    return TheoremCheck(
        character_label=chi.label,
        function_name=f.name,
        direct=direct,
        series=series,
        abs_error=float(abs_error),
        pass_tolerance=float(tolerance),
        passed=bool(abs_error <= tolerance),
    )
