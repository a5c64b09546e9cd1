"""Machine-readable verification reports: JSON, CSV, and console rendering.

All numbers are serialized with 17 significant digits so doubles round-trip
losslessly.  Field order is fixed; rerunning a command reproduces its output
byte for byte except for wall_time_ms.
"""

from __future__ import annotations

import io
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
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")




def _report_json(r: VerificationReport) -> str:
    d = "null" if r.discriminant is None else str(r.discriminant)
    fields = [
        ("schema_version", str(r.schema_version)),
        ("command", _json_str(r.command)),
        ("discriminant", d),
        ("modulus", str(r.modulus)),
        ("label", _json_str(r.label)),
        ("parity", _json_str(r.parity)),
        ("check", _json_str(r.check)),
        ("lhs", f'{{"re": {_fmt(r.lhs_re)}, "im": {_fmt(r.lhs_im)}}}'),
        ("rhs", f'{{"re": {_fmt(r.rhs_re)}, "im": {_fmt(r.rhs_im)}}}'),
        ("abs_error", _fmt(r.abs_error)),
        ("tolerance", _fmt(r.tolerance)),
        ("terms_used", str(r.terms_used)),
        ("tail_bound", _fmt(r.tail_bound)),
        ("pass", _fmt(r.passed)),
        ("wall_time_ms", _fmt(r.wall_time_ms)),
    ]
    body = ", ".join(f"{_json_str(k)}: {v}" for k, v in fields)
    return "{" + body + "}"


def render_json(reports: list[VerificationReport]) -> str:
    return "[\n" + ",\n".join("  " + _report_json(r) for r in reports) + "\n]\n" if reports else "[]\n"


def render_csv(reports: list[VerificationReport]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in reports:
        row = [
            "" if r.discriminant is None else str(r.discriminant),
            str(r.modulus),
            r.label,
            r.parity,
            r.check,
            _fmt(r.lhs_re),
            _fmt(r.lhs_im),
            _fmt(r.rhs_re),
            _fmt(r.rhs_im),
            _fmt(r.abs_error),
            _fmt(r.tolerance),
            str(r.terms_used),
            _fmt(r.tail_bound),
            _fmt(r.passed),
        ]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def render_pretty(reports: list[VerificationReport]) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        where = f"d={r.discriminant}" if r.discriminant is not None else f"q={r.modulus}"
        lines.append(
            f"{status} {r.check:<14} {where:>8} chi={r.label:<9} parity={r.parity:<4} "
            f"|lhs-rhs|={r.abs_error:.3e} tol={r.tolerance:.3e} terms={r.terms_used} "
            f"tail={r.tail_bound:.3e} [{r.wall_time_ms:.1f} ms]"
        )
    return "\n".join(lines) + ("\n" if lines else "")
