"""Command-line interface: character listings, theorem sweeps, identity checks.

Subcommands
-----------
characters      list all characters mod q with conductor/parity/reality
verify-theorem  compare direct sum vs series for every primitive chi mod q
example         run one identity check (id 1..4) for a discriminant
sweep           run all applicable checks per fundamental discriminant

Exit code 0 iff every executed check passed; 1 if any failed; 2 on usage or
domain errors.  The subcommands raise ValueError for a domain error (an
argument, or a write that failed); main alone turns it into exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from fractions import Fraction

from .analytic import TERMS_CEILING, check_terms, check_tolerance
from .characters import (
    MODULUS_CEILING,
    build_character_group,
    fundamental_discriminants,
    real_primitive_character,
)
from .fourier import verify_theorem
from .functions import builtin_function
from .gauss_sums import GAUSS_TOLERANCE, quadratic_tau_residual, separability_residual
from .identities import run_identity
from .reporting import VerificationReport, render_csv, render_json, render_pretty


def _tolerance(text: str) -> float:
    """A --tol value that analytic.check_tolerance accepts, or argparse's error."""
    value = float(text)
    try:
        check_tolerance(value, "--tol")
    except ValueError:
        rule = ("> 0" if not value > 0 else "finite" if math.isinf(value)
                else f"at least {sys.float_info.min}, the smallest normal float")
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text}") from None
    return value


def _terms(text: str) -> int:
    """A --terms value that analytic.check_terms accepts, or argparse's error."""
    value = int(text)
    try:
        check_terms(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be >= 1 and at most {TERMS_CEILING}, got {text}") from None
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
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--terms", type=_terms, default=None,
                   help="fix the truncation N instead of choosing it from the tail bound")
    _add_common(p)

    p = sub.add_parser("example", help="run one worked identity (1..4)")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("-d", "--discriminant", type=int, required=True)
    p.add_argument("--y", default=None, help="rational in (0,1), e.g. 1/5 (identity 4 only)")
    p.add_argument("--tol", type=_tolerance, default=None)
    p.add_argument("--terms", type=_terms, default=None, help="fix N (identity 4 only)")
    _add_common(p)

    p = sub.add_parser("sweep", help="all applicable checks per fundamental discriminant")
    p.add_argument("--max-abs-d", type=int, required=True)
    p.add_argument("--min-abs-d", type=int, default=2)
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="override the per-check default tolerances")
    _add_common(p)

    return parser


@contextlib.contextmanager
def _output(path: str | None):
    """The report's destination, opened at once: the --output path, or stdout
    without one.  An OSError of the open, a write or the close is a ValueError
    naming the destination."""
    try:
        fh = open(path, "w", encoding="utf-8") if path else sys.stdout
        try:
            yield fh
        finally:
            if path:
                fh.close()
            else:
                fh.flush()
    except OSError as exc:
        if not path:  # e.g. a closed pipe: keep the flush at exit from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write {path or 'stdout'}: {exc}") from None


def _emit(rows, fmt: str, output: str | None, notice: str | None = None) -> int:
    """The one report path: opens the output, then writes each row of the
    iterable `rows` (VerificationReports, made as it is read) as soon as it
    is made, holding none; the exit code comes from the rows written, and
    `notice` follows an empty report."""
    render = {"json": render_json, "csv": render_csv, "pretty": render_pretty}[fmt]
    written = failed = 0
    with _output(output) as out:
        for row in rows:
            out.write(render((row,), written, final=False))
            written += 1
            failed |= not row.passed
        text = render((), written)
        if notice and not written and fmt == "pretty":
            text += notice + "\n"
        out.write(text)
    if notice and not written and fmt != "pretty":
        print(notice, file=sys.stderr)
    return 1 if failed else 0


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


def _cmd_characters(args, command: str) -> int:
    rows = []
    for chi in build_character_group(args.modulus).characters():
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
    with _output(args.output) as out:
        out.write(text)
    return 0


def _cmd_verify_theorem(args, command: str) -> int:
    if args.modulus < 3:
        raise ValueError(f"the series identity needs modulus >= 3, got {args.modulus}")
    f = builtin_function(args.function)

    def rows():
        for chi in build_character_group(args.modulus).primitive_characters():
            started = time.perf_counter()
            chk = verify_theorem(chi, f, args.tol, terms=args.terms)
            yield _row(
                command, started, None, args.modulus, chi.label, chi.is_even,
                f"theorem:{args.function}", chk.direct, chk.series.value, chk.abs_error,
                chk.pass_tolerance, chk.series.terms_used, chk.series.tail_bound, chk.passed,
            )

    notice = f"no primitive characters mod {args.modulus}"
    return _emit(rows(), args.format, args.output, notice)


def _cmd_example(args, command: str) -> int:
    started = time.perf_counter()
    try:
        y = Fraction(args.y) if args.y is not None else None
    except ZeroDivisionError:
        raise ValueError(f"--y {args.y!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"--y {args.y!r} is not a fraction such as 1/5") from None

    def rows():
        check = run_identity(args.id, args.discriminant, y=y, tol=args.tol, terms=args.terms)
        label = real_primitive_character(args.discriminant).label
        d = args.discriminant
        yield _row(command, started, d, abs(d), label, d > 0, f"identity:{args.id}", check.lhs,
                   check.rhs, check.abs_error, check.tolerance, check.terms_used,
                   check.tail_bound, check.passed)

    return _emit(rows(), args.format, args.output)


def _cmd_sweep(args, command: str) -> int:
    if args.max_abs_d > MODULUS_CEILING:
        raise ValueError(f"--max-abs-d {args.max_abs_d} exceeds the supported modulus ceiling "
                         f"{MODULUS_CEILING}")
    if args.max_abs_d > MODULUS_CEILING // 2:
        raise ValueError(f"--max-abs-d {args.max_abs_d} exceeds {MODULUS_CEILING // 2}: identity 4 "
                         f"at y = 1/2 needs the series period lcm(|d|, 2), which must not exceed "
                         f"the modulus ceiling {MODULUS_CEILING}")

    # one |d| at a time: a list of the window's discriminants would grow with it
    window = range(max(args.min_abs_d, 2), args.max_abs_d + 1)

    def rows():
        for d in (d for a in window for d in fundamental_discriminants(a, a)):
            chi = real_primitive_character(d)
            where = (d, abs(d), chi.label, d > 0)
            for check, residual_of in (
                ("separability", lambda: separability_residual(chi)),
                ("quadratic_tau", lambda: quadratic_tau_residual(d)),
            ):
                started = time.perf_counter()
                residual = residual_of()
                yield _row(command, started, *where, check, residual, 0.0, residual,
                           GAUSS_TOLERANCE, abs(d), 0.0, residual <= GAUSS_TOLERANCE)
            for identity_id in (1 if d < 0 else 2, 3, 4):
                started = time.perf_counter()
                y = Fraction(1, 2) if identity_id == 4 else None
                c = run_identity(identity_id, d, y=y, tol=args.tol)
                yield _row(command, started, *where, f"identity:{identity_id}", c.lhs, c.rhs,
                           c.abs_error, c.tolerance, c.terms_used, c.tail_bound, c.passed)

    notice = f"no fundamental discriminants with {args.min_abs_d} <= |d| <= {args.max_abs_d}"
    return _emit(rows(), args.format, args.output, notice)


_COMMANDS = {
    "characters": _cmd_characters,
    "verify-theorem": _cmd_verify_theorem,
    "example": _cmd_example,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = "charsum " + " ".join(argv if argv is not None else sys.argv[1:])
    try:
        return _COMMANDS[args.cmd](args, command)
    except (ValueError, ZeroDivisionError) as exc:  # the one exit for domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
