"""The Fourier-series evaluation of character sums sum chi(k) f*(k/q).

Two routes are provided and compared:

* direct_sum: chi(k) f*(k/q) over 1 <= k <= q-1, by math.fsum for real chi
  (exactly rounded) and one pairwise sum for complex chi;
* theorem_series: the equivalent single-parity coefficient series
  2 tau(chi) sum conj(chi)(n) a_n (even chi, cosine coefficients) or
  -2i tau(chi) sum conj(chi)(n) b_n (odd chi, sine coefficients),
  truncated with a rigorous tail bound.

Both sums are linear in chi, so verify_theorem takes every complex
character of a group from one CharacterGroup.transform per table: the f*
table for the direct side, and W = fold + kernel for the series head, where
the fold is the coefficients folded by n mod q (cached_fold) and the kernel
the tail of the spec's atoms (cached_tail).  A table, its fold, kernel and
transforms serve every character with that N, so a row costs its tau, two
lookups and the scalar tail bound of analytic.series_truncation, which reads
chi only through |prefactor| and its magnitudes.  A real chi keeps the exact
one-character sums: direct_sum's math.fsum and fold_head, as
analytic.character_series sums them.  Folds, not long coefficient arrays,
are what is kept (cached_coefficients retains at most RETAINED_TERMS per spec
and kind).  A spec holds its f* table, folds, kernels and transforms for the
modulus in use only, since every command runs one modulus at a time.  The
tail of the spec's atoms for the branch (every row of t2, exp, log and the
steps, odd rows of t) is the kernel's share of W, within a rigorous
Euler-Maclaurin bound; what the atoms leave (all of the coefficient without
them) is bounded by the Polya-Vinogradov partial-sum bound times the total
variation of its envelope.  Jump and log classes without atoms (user specs)
take the Cesaro window instead of the head to N: theorem_series alone
chooses it, and its fold (_window_fold) weights a_1..a_2N into the mean of
the partial sums S_N .. S_2N, which the engine bounds as it bounds the tail
at N.

Coefficients without a closed form come from piecewise Filon quadrature.  f is
sampled once per piece (an interval between jumps, or one interval of the
graded mesh toward a singular 0) on nested grids held per spec, shared by
every n, both kinds and every panel doubling.  The new n of a cache growth
are one batch: one panel-doubling pass per piece (quadrature.filon_adaptive
over the array of omega = 2 pi n) serves all of them, and the pieces are
added in order.  Each doubling halves the last rule's running sums, so it
evaluates cos/sin(omega x) only at its new midpoints, and no n is accepted
from a rule whose grid may alias omega (phase omega h >= pi).  The
coefficients are bit-identical to the halving rule for each n alone,
sampling f afresh.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import (TERMS_CEILING, PeriodicSums, check_terms, check_tolerance, fold_head,
                       reciprocal_tail, residue_fold, series_truncation)
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

_QUADRATURE_TERMS_CAP = 4096  # the cap on N without a closed form: each coefficient is a Filon pass
_MIN_TERMS = 32
# the variation classes whose series without atoms take the Cesaro window
_WINDOW_CLASSES = (VariationClass.PIECEWISE_SMOOTH, VariationClass.INTEGRABLE_SINGULAR_AT_ZERO)

# per-FunctionSpec caches, keyed by object identity; _modulus_cache holds
# (q, {"fstar": table, ("fstar", "transform"): direct sums, (kind, N): fold,
# (kind, N, "cesaro"): window fold, (kind, N, "tail"): kernel,
# (kind, N, "transform"): series heads}) for the modulus in use
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
    """f*(k/q) for k = 1..q-1, equal to fstar(f, k/q) bit for bit: the points
    k/q as one array (a correctly rounded quotient, as in Python), the spec's
    array evaluator on them or else its evaluator mapped over them, then the
    midpoint value at each jump t that is some k/q."""

    def build():
        points = np.arange(1, q) / q
        if f.array_evaluator is not None:
            table = np.array(f.array_evaluator(points), dtype=float)
        else:
            table = np.fromiter(map(f.evaluator, points.tolist()), dtype=float, count=q - 1)
        for t, left, right in f.jump_points:
            k = round(t * q)
            if 0 < k < q and k / q == t:
                table[k - 1] = 0.5 * (left + right)
        return table

    return _modulus_table(f, q, "fstar", build)


def direct_sum(chi: DirichletCharacter, f: FunctionSpec) -> float | complex:
    """sum_{k=1}^{q-1} chi(k) f*(k/q), real for real chi.

    For real chi every product is 0 or +-f*(k/q), exact, and math.fsum
    returns their exactly rounded sum.  For complex chi the rounded products
    are one NumPy pairwise sum of their 2(q - 1) interleaved parts, adding at
    most gamma_k sum |products| per component, k = _pairwise_depth(2(q - 1))
    (the model of analytic.head_rounding_bound), to the rounding of the
    products and of the table values cos/sin(2 pi t/e).  Against 40-digit
    sums the error measured at most 1.13 of (q - 1) 2^-53 max|f*| over the
    complex characters mod 7, 13, 29 and 31 (0.93 mod 7, 13 and 29); no
    proven bound is claimed.  This is the one-character route of the
    identities and the tests' oracle; verify_theorem takes a complex chi's
    sum from its group's transform (_group_direct_sums).
    """
    _require_primitive(chi)
    products = chi.values()[1:] * _fstar_values(f, chi.modulus)
    if chi.is_real:
        return math.fsum(products.tolist())
    return complex(products.sum())


def _group_direct_sums(chi: DirichletCharacter, f: FunctionSpec) -> np.ndarray:
    """sum_k psi(k) f*(k/q) for every character psi of chi's group, in index
    order: one CharacterGroup.transform of the f* table, within its stated
    rounding bound of the exact sums, cached under ("fstar", "transform")."""
    _require_primitive(chi)
    q = chi.modulus
    return _modulus_table(f, q, ("fstar", "transform"),
                          lambda: chi.group.transform(np.append(0.0, _fstar_values(f, q))))


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
        for a, b in zip(breakpoints[:-1], breakpoints[1:]):  # increasing (FunctionSpec)
            evaluator = _piece_evaluator(f, a, b)
            if f.singular_at_zero and a == 0.0:
                pieces += [NestedSamples(evaluator, lo, hi) for lo, hi in graded_edges(0.0, b)]
            else:
                pieces.append(NestedSamples(evaluator, a, b))
        _sample_cache[f] = pieces
    return pieces


def _coefficient_quadrature(f: FunctionSpec, ns: np.ndarray, kind: str) -> np.ndarray:
    """The coefficients of every n in ns by piecewise Filon quadrature with a
    graded singular mesh: one filon_adaptive call per piece serves the whole
    array, and the pieces are added in order."""
    omega = 2.0 * math.pi * ns
    total = np.zeros(len(ns))
    for piece in _piece_samples(f):
        total += filon_adaptive(piece, piece.a, piece.b, omega, kind)[0]
    return total


def fourier_coefficient(f: FunctionSpec, n: int, kind: str) -> float:
    """integral_0^1 f(t) cos/sin(2 pi n t) dt for n >= 1.

    Uses the closed form when the spec carries one, otherwise adaptive Filon
    quadrature to ~1e-12 relative accuracy (QuadratureError on failure, with
    the achieved accuracy attached), as the batch of n alone.
    """
    if n < 1:
        raise ValueError(f"coefficient index must be a positive integer, got {n}")
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if f.closed_form is not None:
        return float(f.closed_form(np.array([n]), kind)[0])
    return float(_coefficient_quadrature(f, np.array([n]), kind)[0])


def cached_coefficients(f: FunctionSpec, kind: str, count: int) -> np.ndarray:
    """Coefficients for n = 1..count, cached per spec and kind and grown on demand.

    cached_fold and the envelope measurement share this cache.  The cache
    grows by one batch of the new n: one closed-form call, or one
    quadrature pass (one doubling pass per piece for every new n).  Both are
    elementwise, the quadrature bit-identical to the rule for each n alone,
    so the values do not depend on how the cache grew.  An array longer than
    RETAINED_TERMS is returned but not kept: it is only needed to build a
    fold, which is cached instead.
    """
    per_f = _coeff_cache.setdefault(f, {})
    arr = per_f.get(kind)
    if arr is None or len(arr) < count:
        have = 0 if arr is None else len(arr)
        n_new = np.arange(have + 1, count + 1)
        if f.closed_form is not None:
            new = np.asarray(f.closed_form(n_new, kind), dtype=float)
        else:
            new = _coefficient_quadrature(f, n_new, kind)
        arr = new if arr is None else np.concatenate([arr, new])
        arr.flags.writeable = False
        if count <= RETAINED_TERMS:
            per_f[kind] = arr
    return arr[:count]


def _cesaro_window(coeffs: np.ndarray) -> np.ndarray:
    """A copy of a_1..a_2N with a_n weighted by (2N - n + 1)/(N + 1) for
    n > N, so that its series head is the mean of the partial sums S_N ..
    S_2N.  Each weight costs two roundings, within 2^-52 |a_n| together."""
    n_terms = len(coeffs) // 2
    weighted = np.array(coeffs, dtype=float)
    upper = weighted[n_terms:]
    upper *= np.arange(n_terms, 0, -1)
    upper /= n_terms + 1
    return weighted


def cached_fold(f: FunctionSpec, kind: str, m: int, n_terms: int) -> np.ndarray:
    """The spec's coefficients a_1..a_N of one kind folded by n mod m
    (analytic.residue_fold).

    This is the fold of W in every theorem series without the Cesaro window,
    and the identities' fold callable (partial(cached_fold, f, kind)).  Folds
    are cached per spec and keyed by (kind, N), for the modulus in use only;
    a fold is a new (m,) array and keeps no reference to the coefficients it
    was built from.
    """
    return _modulus_table(f, m, (kind, n_terms),
                          lambda: residue_fold(cached_coefficients(f, kind, n_terms), m))


def _window_fold(f: FunctionSpec, kind: str, m: int, n_terms: int) -> np.ndarray:
    """cached_fold for the Cesaro window: a_1..a_2N weighted by
    _cesaro_window, folded by n mod m, cached under (kind, N, "cesaro")."""
    return _modulus_table(
        f, m, (kind, n_terms, "cesaro"),
        lambda: residue_fold(_cesaro_window(cached_coefficients(f, kind, 2 * n_terms)), m),
    )


def cached_tail(f: FunctionSpec, kind: str, m: int, n_terms: int) -> np.ndarray:
    """The tail kernel of the spec's atoms of one kind beyond N, folded by
    n mod m (analytic.reciprocal_tail).

    This is the kernel of W in every theorem series with atoms, and the
    identities' tail callable (partial(cached_tail, f, kind)).  Kernels are
    cached next to the folds, keyed by (kind, N, "tail"), for the modulus in
    use only.
    """
    return _modulus_table(f, m, (kind, n_terms, "tail"),
                          lambda: reciprocal_tail(f.atoms_for(kind), m, n_terms))


def _series_fold(f: FunctionSpec, kind: str, q: int, n_terms: int, atoms, windowed: bool) -> np.ndarray:
    """W, one period whose dot with conj(chi) is a theorem series head: the
    fold of a_1..a_N plus the atoms' tail kernel, or the Cesaro window's fold.
    A new array when the kernel is added, else the cached fold."""
    if windowed:
        return _window_fold(f, kind, q, n_terms)
    folded = cached_fold(f, kind, q, n_terms)
    return folded + cached_tail(f, kind, q, n_terms) if atoms else folded


def _period_absolute(chi: DirichletCharacter, weights: np.ndarray | None) -> float:
    """PeriodicSums(conj(chi) table, weights).absolute, bit for bit.  Without
    weights it is the sum of |chi| gathered from CharacterGroup.magnitudes,
    equal to np.abs of the table, and no mean-zero check is needed: a
    primitive chi mod q >= 3 is not principal."""
    if weights is None:
        return float(chi.group.magnitudes[chi.turns].sum())
    return PeriodicSums(np.conj(chi.values()), weights).absolute


# --- truncated series with tail bound ----------------------------------------


@dataclass(frozen=True)
class SeriesEvaluation:
    """A truncated evaluation of the coefficient series, prefactor included."""

    value: float | complex
    terms_used: int
    tail_bound: float
    parity_branch: str  # "cosine_even" or "sine_odd"
    best_effort: bool
    quadrature_budget: float
    tail_method: str  # "euler_maclaurin", "envelope" or "cesaro"

    @property
    def averaged(self) -> bool:
        """Whether the value is the Cesaro mean over the window [N, 2N]."""
        return self.tail_method == "cesaro"


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
) -> SeriesEvaluation:
    """Evaluate the theorem series for chi and f, choosing N from the tail bound.

    When f declares atoms for the branch's coefficient kind, the atoms' tail
    beyond N is the dot product of the character with the cached kernel of
    Euler-Maclaurin class sums (tail method "euler_maclaurin"), so N stays
    O(q) (O(lcm(q, b)) for atoms with weights of period b) unless the
    remainder envelope asks for more.  Otherwise N is picked from the
    envelope bound (tail method "envelope"); jump and singular variation
    classes take the mean of the partial sums over the window [N, 2N] under
    the same bound, N at most half the cap (tail method "cesaro").  The cap
    is analytic.TERMS_CEILING for a closed form and _QUADRATURE_TERMS_CAP
    without one.  When the bound cannot reach target_accuracy within the cap
    the evaluation is best-effort with the bound reported as is.  An explicit
    `terms` overrides the choice of N and obeys analytic.check_terms.  N and
    the bound come from analytic.series_truncation, which reads chi only
    through |prefactor| and its magnitudes.  The head and the atoms' tail are
    sum_r conj(chi)(r) W[r], W the fold plus the kernel (or the window's
    fold): a real chi sums it by fold_head, and a complex chi reads it from
    one CharacterGroup.transform of W for its whole group, cached under
    (kind, N, "transform") and within the transform's stated rounding bound.
    target_accuracy obeys analytic.check_tolerance.
    """
    _require_primitive(chi)
    if f.variation_class is VariationClass.UNBOUNDED_VARIATION:
        raise ValueError(f"function {f.name!r} declares unbounded variation; series diverges")
    check_tolerance(target_accuracy, "target_accuracy")
    check_terms(terms)

    q = chi.modulus
    even = chi.is_even
    kind = "cos" if even else "sin"
    branch = "cosine_even" if even else "sine_odd"
    atoms = f.atoms_for(kind)
    windowed = not atoms and f.variation_class in _WINDOW_CLASSES
    tail_method = "euler_maclaurin" if atoms else "cesaro" if windowed else "envelope"

    tau_value = tau(chi)
    prefactor = 2.0 * tau_value if even else -2.0j * tau_value

    cap = TERMS_CEILING if f.closed_form is not None else _QUADRATURE_TERMS_CAP
    if windowed:  # the window folds a_1 .. a_2N
        cap //= 2
    start = max(_MIN_TERMS, 8 * q) if atoms else _MIN_TERMS
    n_terms, tail = series_truncation(
        partial(_period_absolute, chi), q, abs(prefactor), target_accuracy, start, cap, atoms,
        _envelope(f, kind), terms,
    )
    if chi.is_real:  # conj(chi) = chi: the one-character head of analytic.character_series
        head = fold_head(chi.values_real(), _series_fold(f, kind, q, n_terms, atoms, windowed))
    else:
        head = complex(_modulus_table(
            f, q, (kind, n_terms, "transform"),
            lambda: chi.group.transform(_series_fold(f, kind, q, n_terms, atoms, windowed), conjugate=True),
        )[chi.index])
    value = prefactor * head
    best_effort = tail > target_accuracy

    length = 2 * n_terms if windowed else n_terms
    if f.closed_form is not None:
        budget = 0.0
    else:  # a cache hit after the series, which folded the same coefficients
        coeffs = cached_coefficients(f, kind, length)
        budget = abs(prefactor) * (REL_TOL * float(np.abs(coeffs).sum()) + length * ABS_FLOOR)

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
) -> TheoremCheck:
    """Compare the direct sum and theorem_series; pass iff the difference is
    within tail_bound + 1e-9 + quadrature budget.  A real chi's direct sum is
    direct_sum's exact math.fsum; a complex chi's is read from one transform
    of the f* table for its whole group (_group_direct_sums)."""
    direct = direct_sum(chi, f) if chi.is_real else complex(_group_direct_sums(chi, f)[chi.index])
    series = theorem_series(chi, f, target_accuracy, terms=terms)
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
