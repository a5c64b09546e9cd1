"""Command-line interface: character listings, theorem sweeps, identity checks.

Subcommands
-----------
characters      list all characters mod q with conductor/parity/reality
verify-theorem  compare direct sum vs series for every primitive chi mod q
example         run one identity check (id 1..4) for a discriminant
sweep           run all applicable checks per fundamental discriminant

Exit code 0 iff every executed check passed; 1 if any failed; 2 on usage or
domain errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction

from .characters import (
    MODULUS_CEILING,
    build_character_group,
    fundamental_discriminants,
    real_primitive_character,
)
from .fourier import DEFAULT_TERMS_CAP, verify_theorem
from .functions import builtin_function
from .gauss_sums import GAUSS_TOLERANCE, quadratic_tau_residual, separability_residual
from .identities import run_identity
from .reporting import VerificationReport, render_csv, render_json, render_pretty


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p.add_argument("--output", help="write the report to this path instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Dirichlet character sums via Fourier coefficient series: "
        "verification sweeps and identity checks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("characters", help="list the character group mod q")
    p.add_argument("-q", "--modulus", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("verify-theorem", help="direct sum vs series for all primitive chi mod q")
    p.add_argument("-q", "--modulus", type=int, required=True)
    p.add_argument("--function", required=True,
                   help="one of t2, t, exp, log, step:<y> (y rational in (0,1))")
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--terms-cap", type=_positive_int, default=DEFAULT_TERMS_CAP)
    p.add_argument("--terms", type=_positive_int, default=None,
                   help="fix the truncation N instead of choosing it from the tail bound")
    _add_common(p)

    p = sub.add_parser("example", help="run one worked identity (1..4)")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("-d", "--discriminant", type=int, required=True)
    p.add_argument("--y", default=None, help="rational in (0,1), e.g. 1/5 (identity 4 only)")
    p.add_argument("--tol", type=_positive_float, default=None)
    p.add_argument("--terms", type=_positive_int, default=None, help="fix N (identity 4 only)")
    _add_common(p)

    p = sub.add_parser("sweep", help="all applicable checks per fundamental discriminant")
    p.add_argument("--max-abs-d", type=int, required=True)
    p.add_argument("--min-abs-d", type=int, default=2)
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="override the per-check default tolerances")
    _add_common(p)

    return parser


def _emit(reports, fmt: str, output: str | None, notice: str | None = None) -> int:
    if fmt == "json":
        text = render_json(reports)
    elif fmt == "csv":
        text = render_csv(reports)
    else:
        text = render_pretty(reports)
        if notice:
            text += notice + "\n"
    if not _write(text, output):
        return 2
    if notice and fmt != "pretty":
        print(notice, file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _write(text: str, output: str | None) -> bool:
    """Write to the output path, or stdout without one; False after an OSError."""
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not output:  # e.g. a closed pipe: keep the flush at exit from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {output or 'stdout'}: {exc}", file=sys.stderr)
        return False
    return True


def _row(command, started, d, q, label, even, check, lhs, rhs, error, tol, terms, tail, passed):
    """The one report-row builder: lhs and rhs may be complex, d is None for
    theorem rows, and the wall time runs from `started`."""
    lhs, rhs = complex(lhs), complex(rhs)
    return VerificationReport(
        command=command, discriminant=d, modulus=q, label=label,
        parity="even" if even else "odd", check=check,
        lhs_re=lhs.real, lhs_im=lhs.imag, rhs_re=rhs.real, rhs_im=rhs.imag,
        abs_error=error, tolerance=tol, terms_used=terms, tail_bound=tail, passed=passed,
        wall_time_ms=(time.perf_counter() - started) * 1000.0,
    )


def _cmd_characters(args) -> int:
    try:
        group = build_character_group(args.modulus)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for chi in group.characters():
        rows.append(
            {
                "q": chi.modulus,
                "label": chi.label,
                "conductor": chi.conductor,
                "parity": "even" if chi.is_even else "odd",
                "is_real": chi.is_real,
                "is_primitive": chi.is_primitive,
            }
        )
    if args.format == "json":
        import json

        text = json.dumps(rows, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["q,label,conductor,parity,is_real,is_primitive"]
        for r in rows:
            lines.append(
                f"{r['q']},{r['label']},{r['conductor']},{r['parity']},"
                f"{str(r['is_real']).lower()},{str(r['is_primitive']).lower()}"
            )
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{len(rows)} character(s) mod {args.modulus}:"]
        for r in rows:
            lines.append(
                f"  {r['label']:<9} conductor={r['conductor']:<5} parity={r['parity']:<4} "
                f"real={str(r['is_real']).lower():<5} primitive={str(r['is_primitive']).lower()}"
            )
        text = "\n".join(lines) + "\n"
    return 0 if _write(text, args.output) else 2


def _cmd_verify_theorem(args, command: str) -> int:
    if args.modulus < 3:
        print(f"error: the series identity needs modulus >= 3, got {args.modulus}", file=sys.stderr)
        return 2
    if args.terms is not None and args.terms > args.terms_cap:
        print(f"error: --terms {args.terms} exceeds --terms-cap {args.terms_cap}", file=sys.stderr)
        return 2
    try:
        f = builtin_function(args.function)
        group = build_character_group(args.modulus)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    try:  # a series period above the ceiling (step:a/b with lcm(q, b) too large)
        for chi in group.primitive_characters():
            started = time.perf_counter()
            chk = verify_theorem(chi, f, args.tol, terms=args.terms, terms_cap=args.terms_cap)
            reports.append(_row(
                command, started, None, args.modulus, chi.label, chi.is_even,
                f"theorem:{args.function}", chk.direct, chk.series.value, chk.abs_error,
                chk.pass_tolerance, chk.series.terms_used, chk.series.tail_bound, chk.passed,
            ))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    notice = None
    if not reports:
        notice = f"no primitive characters mod {args.modulus}"
    return _emit(reports, args.format, args.output, notice)


def _cmd_example(args, command: str) -> int:
    started = time.perf_counter()
    try:
        y = Fraction(args.y) if args.y is not None else None
        check = run_identity(args.id, args.discriminant, y=y, tol=args.tol, terms=args.terms)
        label = real_primitive_character(args.discriminant).label
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    d = args.discriminant
    report = _row(command, started, d, abs(d), label, d > 0, f"identity:{args.id}", check.lhs,
                  check.rhs, check.abs_error, check.tolerance, check.terms_used,
                  check.tail_bound, check.passed)
    return _emit([report], args.format, args.output)


def _cmd_sweep(args, command: str) -> int:
    if args.max_abs_d > MODULUS_CEILING:
        print(f"error: --max-abs-d {args.max_abs_d} exceeds the supported modulus ceiling "
              f"{MODULUS_CEILING}", file=sys.stderr)
        return 2
    if args.max_abs_d < args.min_abs_d:
        print("error: empty sweep range", file=sys.stderr)
        # header-only output for an empty range
        return _emit([], args.format, args.output)
    reports = []
    for d in fundamental_discriminants(args.max_abs_d, args.min_abs_d):
        chi = real_primitive_character(d)
        where = (d, abs(d), chi.label, d > 0)
        for check, residual_of in (
            ("separability", lambda: separability_residual(chi)),
            ("quadratic_tau", lambda: quadratic_tau_residual(d)),
        ):
            started = time.perf_counter()
            residual = residual_of()
            reports.append(_row(command, started, *where, check, residual, 0.0, residual,
                                GAUSS_TOLERANCE, abs(d), 0.0, residual <= GAUSS_TOLERANCE))
        for identity_id in (1 if d < 0 else 2, 3, 4):
            started = time.perf_counter()
            y = Fraction(1, 2) if identity_id == 4 else None
            c = run_identity(identity_id, d, y=y, tol=args.tol)
            reports.append(_row(command, started, *where, f"identity:{identity_id}", c.lhs, c.rhs,
                                c.abs_error, c.tolerance, c.terms_used, c.tail_bound, c.passed))
    return _emit(reports, args.format, args.output)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = "charsum " + " ".join(argv if argv is not None else sys.argv[1:])
    if args.cmd == "characters":
        return _cmd_characters(args)
    if args.cmd == "verify-theorem":
        return _cmd_verify_theorem(args, command)
    if args.cmd == "example":
        return _cmd_example(args, command)
    if args.cmd == "sweep":
        return _cmd_sweep(args, command)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
