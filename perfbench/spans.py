"""In-memory span tracing of charsum, applied from outside the library.

`instrument` replaces the names each charsum module calls across a module
boundary (plus the few in-module calls a per-layer metric needs) with
wrappers that record a span: name, start, end, parent span and check id.
Spans stay in memory until the pass ends; `layer_metrics` then reduces them
to the per-layer metrics listed in BENCHMARK.json.  Span names are
"<layer>.<function>", the layer being the charsum module that owns the code.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module whose global is replaced, global name, span name)
SPANNED = (
    ("charsum.cli", "build_character_group", "characters.build_character_group"),
    ("charsum.cli", "real_primitive_character", "characters.real_primitive_character"),
    ("charsum.cli", "verify_theorem", "fourier.verify_theorem"),
    ("charsum.cli", "separability_residual", "gauss_sums.separability_residual"),
    ("charsum.cli", "quadratic_tau_residual", "gauss_sums.quadratic_tau_residual"),
    ("charsum.cli", "render_json", "reporting.render_json"),
    ("charsum.cli", "render_csv", "reporting.render_csv"),
    ("charsum.cli", "render_pretty", "reporting.render_pretty"),
    ("charsum.fourier", "verify_theorem", "fourier.verify_theorem"),
    ("charsum.fourier", "direct_sum", "fourier.direct_sum"),
    ("charsum.fourier", "theorem_series", "fourier.theorem_series"),
    ("charsum.fourier", "tau", "gauss_sums.tau"),
    ("charsum.fourier", "filon_adaptive", "quadrature.filon_adaptive"),
    ("charsum.fourier", "graded_edges", "quadrature.graded_edges"),
    ("charsum.functions", "sine_integral_array", "analytic.sine_integral_array"),
    ("charsum.functions", "cosine_integral_array", "analytic.cosine_integral_array"),
    ("charsum.gauss_sums", "real_primitive_character", "characters.real_primitive_character"),
    ("charsum.gauss_sums", "gauss_sum", "gauss_sums.gauss_sum"),
    ("charsum.identities", "real_primitive_character", "characters.real_primitive_character"),
    ("charsum.identities", "direct_sum", "fourier.direct_sum"),
    ("charsum.identities", "tau", "gauss_sums.tau"),
    ("charsum.identities", "l_one", "analytic.l_one"),
    ("charsum.identities", "PeriodicSums", "analytic.PeriodicSums"),
    ("charsum.identities", "reciprocal_tail", "analytic.reciprocal_tail"),
    ("charsum.identities", "si_complement_array", "analytic.si_complement_array"),
    ("charsum.analytic", "PeriodicSums", "analytic.PeriodicSums"),
    ("charsum.analytic", "reciprocal_tail", "analytic.reciprocal_tail"),
    ("charsum.quadrature", "filon_integral", "quadrature.filon_integral"),
)

# Per-layer metrics and their units.  Times are self times in seconds.
LAYER_METRICS = {
    "characters.build_s": "s",
    "characters.groups_built": "count",
    "characters.table_mb": "MB",
    "gauss_sums.gauss_sum_calls": "count",
    "gauss_sums.self_s": "s",
    "fourier.direct_sum_s": "s",
    "fourier.series_self_s": "s",
    "fourier.series_terms": "count",
    "functions.closed_form_s": "s",
    "functions.coeffs_generated": "count",
    "quadrature.self_s": "s",
    "quadrature.f_evals": "count",
    "quadrature.accept_ratio": "ratio",
    "quadrature.errors": "count",
    "analytic.l_one_s": "s",
    "analytic.l_one_terms": "count",
    "analytic.abel_tail_s": "s",
    "analytic.si_ci_s": "s",
    "identities.id1_s": "s",
    "identities.id2_s": "s",
    "identities.id3_s": "s",
    "identities.id4_s": "s",
    "reporting.render_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

_BUILD_SPANS = (
    "characters.build_character_group",
    "characters.real_primitive_character",
    "characters.values_table",
)
_SI_CI_SPANS = (
    "analytic.sine_integral_array",
    "analytic.cosine_integral_array",
    "analytic.si_complement_array",
)


class Tracer:
    """Records nested spans; one list entry per span, kept until the pass ends.

    A span is [name, start, end, parent index or -1, check id, raised].
    `check_id` is the report row in progress (-1 during set-up).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.groups: list = []
        self.check_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        span = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.check_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        """fn wrapped in a span; `name` may be a callable of the call's args."""

        def traced(*args, **kwargs):
            span = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                self.close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span minus its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def calls(self, name: str) -> tuple[int, int]:
        """(spans named `name`, how many of them raised)."""
        n = raised = 0
        for span in self.spans:
            if span[0] == name:
                n += 1
                raised += span[5]
        return n, raised


def _count(tracer: Tracer, key: str, amount):
    def on_result(args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)

    return on_result


def instrument(tracer: Tracer) -> None:
    """Wrap the charsum call boundaries for the rest of this process."""
    hooks = {
        "fourier.theorem_series": _count(
            tracer, "series_terms", lambda a, k, r: r.terms_used * (2 if r.averaged else 1)
        ),
        "analytic.l_one": _count(tracer, "l_one_terms", lambda a, k, r: r.terms_used),
        "quadrature.filon_integral": _count(
            tracer, "f_evals", lambda a, k, r: 2 * (a[5] if len(a) > 5 else k["panels"]) + 1
        ),
    }
    for module_name, attr, span_name in SPANNED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), hooks.get(span_name)))

    cli = importlib.import_module("charsum.cli")
    cli.run_identity = tracer.wrap(lambda args: f"identities.id{args[0]}", cli.run_identity)
    report_type = cli.VerificationReport

    def next_row(*args, **kwargs):
        report = report_type(*args, **kwargs)
        tracer.check_id += 1
        return report

    cli.VerificationReport = next_row

    characters = importlib.import_module("charsum.characters")
    group_init = characters.CharacterGroup.__init__

    def init(group, *args, **kwargs):
        group_init(group, *args, **kwargs)
        tracer.groups.append(group)

    characters.CharacterGroup.__init__ = init
    character = characters.DirichletCharacter
    character.values_complex = tracer.wrap("characters.values_table", character.values_complex)
    character.values_real = tracer.wrap("characters.values_table", character.values_real)


def instrument_spec(tracer: Tracer, spec) -> None:
    """Span the closed-form coefficients of a FunctionSpec, counting coefficients."""
    if spec.closed_form is not None:
        wrapped = tracer.wrap(
            "functions.closed_form",
            spec.closed_form,
            _count(tracer, "coeffs_generated", lambda a, k, r: len(a[0])),
        )
        object.__setattr__(spec, "closed_form", wrapped)


def _table_mb(groups) -> float:
    """Largest character group's tables: turn arrays plus cached value tables."""
    best = 0
    for group in groups:
        size = 0
        for chi in group._char_cache.values():
            size += chi.turns.nbytes
            size += sum(v.nbytes for v in chi._cache.values() if hasattr(v, "nbytes"))
        best = max(best, size)
    return best / 1e6


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_ratio is added by run.py)."""
    st = tracer.self_times()

    def total(*names):
        return sum(st.get(n, 0.0) for n in names)

    def layer(prefix):
        return sum(v for n, v in st.items() if n.startswith(prefix + "."))

    filon_calls, _ = tracer.calls("quadrature.filon_integral")
    adaptive_calls, adaptive_raised = tracer.calls("quadrature.filon_adaptive")
    return {
        "characters.build_s": total(*_BUILD_SPANS),
        "characters.groups_built": len(tracer.groups),
        "characters.table_mb": _table_mb(tracer.groups),
        "gauss_sums.gauss_sum_calls": tracer.calls("gauss_sums.gauss_sum")[0],
        "gauss_sums.self_s": layer("gauss_sums"),
        "fourier.direct_sum_s": total("fourier.direct_sum"),
        "fourier.series_self_s": total("fourier.theorem_series"),
        "fourier.series_terms": tracer.counts["series_terms"],
        "functions.closed_form_s": total("functions.closed_form"),
        "functions.coeffs_generated": tracer.counts["coeffs_generated"],
        "quadrature.self_s": layer("quadrature"),
        "quadrature.f_evals": tracer.counts["f_evals"],
        "quadrature.accept_ratio": (
            (adaptive_calls - adaptive_raised) / filon_calls if filon_calls else 0.0
        ),
        "quadrature.errors": adaptive_raised,
        "analytic.l_one_s": total("analytic.l_one"),
        "analytic.l_one_terms": tracer.counts["l_one_terms"],
        "analytic.abel_tail_s": total("analytic.PeriodicSums", "analytic.reciprocal_tail"),
        "analytic.si_ci_s": total(*_SI_CI_SPANS),
        "identities.id1_s": total("identities.id1"),
        "identities.id2_s": total("identities.id2"),
        "identities.id3_s": total("identities.id3"),
        "identities.id4_s": total("identities.id4"),
        "reporting.render_s": layer("reporting"),
        "trace.spans": len(tracer.spans),
    }
