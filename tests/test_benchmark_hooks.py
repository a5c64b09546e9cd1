"""The charsum names that the traced benchmark reads still exist.

perfbench/spans.py replaces charsum functions by (module, name) and reads a
few attributes of their results and tables, so a rename in the library
breaks the traced pass only when it runs.  These tests load spans.py by its
path, without instrumenting anything.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from charsum import cli, fourier, gauss_sums, quadrature
from charsum.characters import CharacterGroup, build_character_group
from charsum.fourier import theorem_series
from charsum.functions import builtin_function

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_names_resolve():
    spans = _load_spans()
    for module_name, attr, _ in spans.SPANNED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
    cli = importlib.import_module("charsum.cli")
    assert callable(cli.run_identity) and isinstance(cli.VerificationReport, type)


def test_series_results_expose_what_the_hooks_count():
    # fourier.series_terms reads terms_used and averaged of every result
    chi = build_character_group(5).character_by_index(1)
    log = builtin_function("log")
    bare = dataclasses.replace(log, name="log#hooks", atoms=(), envelope=())
    for f, averaged in ((log, False), (bare, True)):
        sev = theorem_series(chi, f, 1e-6, terms=64)
        assert (sev.averaged, sev.terms_used) == (averaged, 64)


def test_table_sizes_read_the_character_caches():
    # characters.table_mb sums the turns and the cached value tables; only
    # real tables are cached (mod 7: the principal and the quadratic character)
    spans = _load_spans()
    group = build_character_group(7)
    assert isinstance(group._char_cache, dict)
    for chi in group._char_cache.values():
        assert isinstance(chi._cache, dict)
        if chi.is_real:
            chi.values_real()
    assert spans._table_mb([group]) == (6 * 7 * 8 + 2 * 7 * 8) / 1e6


def test_user_spec_coefficients_go_through_the_spanned_quadrature_names(monkeypatch):
    # the traced theorem-quad pass proves that quadrature ran by counting
    # samples through these two names, so they must stay on the call path
    calls = {}
    for module, attr in ((fourier, "filon_adaptive"), (quadrature, "filon_integral")):
        inner = getattr(module, attr)

        def counted(*args, inner=inner, attr=attr, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    t2 = builtin_function("t2")  # fresh copies, so that both caches start cold
    closed = dataclasses.replace(t2, name="t2#closed")
    user = dataclasses.replace(t2, name="t2#user", closed_form=None, atoms=(), envelope=())
    fourier.cached_coefficients(closed, "cos", 16)
    assert calls == {}  # a closed form runs no quadrature
    fourier.cached_coefficients(user, "cos", 16)
    assert calls["filon_adaptive"] >= 1 and calls["filon_integral"] >= 2


def test_tau_calls_the_module_gauss_sum_once_per_character(monkeypatch):
    # the traced pass counts calls of the global charsum.gauss_sums.gauss_sum
    # and asserts one per character (gauss_sum_calls == characters), so tau
    # must reach it through the module global and cache what it returns
    calls = []
    inner = gauss_sums.gauss_sum

    def counted(chi, n):
        calls.append((chi.label, n))
        return inner(chi, n)

    monkeypatch.setattr(gauss_sums, "gauss_sum", counted)
    characters = CharacterGroup(13).characters()  # a fresh group: no tau cached yet
    first = [gauss_sums.tau(chi) for chi in characters]
    assert calls == [(chi.label, 1) for chi in characters]
    assert [gauss_sums.tau(chi) for chi in characters] == first
    assert len(calls) == len(characters)


def test_verify_theorem_calls_the_module_gauss_sum_once_per_primitive_character(monkeypatch, tmp_path):
    # the traced pass's bypass rule (gauss_sum_calls == characters) for a
    # verify-theorem run: the group's transforms give the direct sums and the
    # series heads, but each row's tau is still one call of the global
    # charsum.gauss_sums.gauss_sum, on a prime and on a composite group
    calls = []
    inner = gauss_sums.gauss_sum

    def counted(chi, n):
        calls.append((chi.label, n))
        return inner(chi, n)

    monkeypatch.setattr(gauss_sums, "gauss_sum", counted)
    for q in (101, 40):
        build_character_group.cache_clear()  # fresh characters: no tau cached yet
        calls.clear()
        out = tmp_path / f"{q}.csv"
        assert cli.main(["verify-theorem", "-q", str(q), "--function", "t", "--format", "csv",
                         "--output", str(out)]) == 0
        primitive = build_character_group(q).primitive_characters()
        assert any(not chi.is_real for chi in primitive)
        assert calls == [(chi.label, 1) for chi in primitive], q
        assert len(out.read_text().splitlines()) == 1 + len(primitive)
