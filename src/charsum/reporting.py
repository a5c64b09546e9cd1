"""Machine-readable verification reports: JSON, CSV, and console rendering.

All numbers are serialized with 17 significant digits so doubles round-trip
losslessly.  Field order is fixed; rerunning a command reproduces its output
byte for byte except for wall_time_ms.  Each renderer also renders a stretch
of a longer report (its `first` row number, and `final` for the last
stretch), so a caller can write rows one at a time and hold none of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_str

SCHEMA_VERSION = 1

CSV_HEADER = "d,q,label,parity,check,lhs_re,lhs_im,rhs_re,rhs_im,abs_error,tol,terms,tail_bound,pass"

__all__ = [
    "SCHEMA_VERSION",
    "CSV_HEADER",
    "VerificationReport",
    "render_json",
    "render_csv",
    "render_pretty",
]


@dataclass(frozen=True)
class VerificationReport:
    """One check outcome in the report schema (see README for field meanings)."""

    command: str
    discriminant: int | None
    modulus: int
    label: str
    parity: str
    check: str
    lhs_re: float
    lhs_im: float
    rhs_re: float
    rhs_im: float
    abs_error: float
    tolerance: float
    terms_used: int
    tail_bound: float
    passed: bool
    wall_time_ms: float
    schema_version: int = SCHEMA_VERSION


def _fmt(x: float) -> str:
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _report_json(r: VerificationReport) -> str:
    d = "null" if r.discriminant is None else r.discriminant
    return (
        f'{{"schema_version": {r.schema_version}, "command": {_json_str(r.command)}, '
        f'"discriminant": {d}, "modulus": {r.modulus}, "label": {_json_str(r.label)}, '
        f'"parity": {_json_str(r.parity)}, "check": {_json_str(r.check)}, '
        f'"lhs": {{"re": {_fmt(r.lhs_re)}, "im": {_fmt(r.lhs_im)}}}, '
        f'"rhs": {{"re": {_fmt(r.rhs_re)}, "im": {_fmt(r.rhs_im)}}}, '
        f'"abs_error": {_fmt(r.abs_error)}, "tolerance": {_fmt(r.tolerance)}, '
        f'"terms_used": {r.terms_used}, "tail_bound": {_fmt(r.tail_bound)}, '
        f'"pass": {_fmt(r.passed)}, "wall_time_ms": {_fmt(r.wall_time_ms)}}}'
    )


def render_json(reports: Sequence[VerificationReport], first: int = 0, final: bool = True) -> str:
    """The JSON array of `reports`, or the stretch of a longer array that holds
    them as its rows first, first + 1, ...: closed only when `final`, so
    render_json(a + b) == render_json(a, final=False) + render_json(b, len(a))."""
    text = "".join(("[\n  " if i == 0 else ",\n  ") + _report_json(r)
                   for i, r in enumerate(reports, first))
    if final:
        text += "\n]\n" if first + len(reports) else "[]\n"
    return text


def _report_csv(r: VerificationReport) -> str:
    d = "" if r.discriminant is None else r.discriminant
    return (
        f"{d},{r.modulus},{r.label},{r.parity},{r.check},{_fmt(r.lhs_re)},{_fmt(r.lhs_im)},"
        f"{_fmt(r.rhs_re)},{_fmt(r.rhs_im)},{_fmt(r.abs_error)},{_fmt(r.tolerance)},"
        f"{r.terms_used},{_fmt(r.tail_bound)},{_fmt(r.passed)}\n"
    )


def render_csv(reports: Sequence[VerificationReport], first: int = 0, final: bool = True) -> str:
    """The CSV of `reports`, or a stretch of a longer table as render_json has
    it: the header comes with row 0, or alone when the table is empty."""
    head = CSV_HEADER + "\n" if first == 0 and (reports or final) else ""
    return head + "".join(_report_csv(r) for r in reports)


def render_pretty(reports: Sequence[VerificationReport], first: int = 0, final: bool = True) -> str:
    """One console line per report; a stretch of a longer listing reads the
    same, so `first` and `final` change nothing."""
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        where = f"d={r.discriminant}" if r.discriminant is not None else f"q={r.modulus}"
        lines.append(
            f"{status} {r.check:<14} {where:>8} chi={r.label:<9} parity={r.parity:<4} "
            f"|lhs-rhs|={r.abs_error:.3e} tol={r.tolerance:.3e} terms={r.terms_used} "
            f"tail={r.tail_bound:.3e} [{r.wall_time_ms:.1f} ms]\n"
        )
    return "".join(lines)
