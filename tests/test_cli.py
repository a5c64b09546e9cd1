"""CLI behavior: listings, reports, formats, exit codes, and determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charsum.cli as cli
from charsum.cli import main
from charsum.identities import run_identity
from charsum.reporting import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_characters_q5(capsys):
    code, out, _ = run_cli(capsys, "characters", "-q", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip().startswith("5.")]
    assert len(lines) == 4
    real_nonprincipal = [l for l in lines if "real=true" in l and "conductor=5" in l]
    assert len(real_nonprincipal) == 1


def test_characters_q1(capsys):
    code, out, _ = run_cli(capsys, "characters", "-q", "1")
    assert code == 0
    assert "1 character(s) mod 1" in out


def test_characters_q12_conductors(capsys):
    code, out, _ = run_cli(capsys, "characters", "-q", "12", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert sorted(int(r["conductor"]) for r in rows) == [1, 3, 4, 12]


def test_characters_bad_modulus(capsys):
    code, _, err = run_cli(capsys, "characters", "-q", "0")
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("argv", [["characters"], ["verify-theorem", "--function", "t"]])
def test_full_group_above_desk_scale_exits_2_before_building(capsys, monkeypatch, argv):
    import charsum.characters as characters

    def no_group(q):
        raise AssertionError("the group must not be built")

    monkeypatch.setattr(characters, "CharacterGroup", no_group)
    code, _, err = run_cli(capsys, *argv, "-q", "10007")
    assert code == 2
    assert "10007 exceeds 10000" in err and "Traceback" not in err


def test_characters_output_file_matches_stdout(capsys, tmp_path):
    for fmt in ("pretty", "csv", "json"):
        _, out, _ = run_cli(capsys, "characters", "-q", "12", "--format", fmt)
        path = tmp_path / f"chars.{fmt}"
        code, written, _ = run_cli(capsys, "characters", "-q", "12", "--format", fmt,
                                   "--output", str(path))
        assert code == 0 and written == ""
        assert path.read_text(encoding="utf-8") == out


def test_characters_unwritable_path(capsys, tmp_path):
    code, _, err = run_cli(capsys, "characters", "-q", "5", "--output",
                           str(tmp_path / "missing" / "x.txt"))
    assert code == 2 and "cannot write" in err


def test_verify_theorem_q4_t2(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "-q", "4", "--function", "t2", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    r = reports[0]
    assert r["pass"] is True
    assert r["check"] == "theorem:t2"
    assert r["lhs"]["re"] == pytest.approx(-0.5, abs=1e-14)
    assert abs(r["rhs"]["re"] - -0.5) <= max(1e-8, r["tail_bound"])
    for key in ("schema_version", "command", "modulus", "label", "parity",
                "abs_error", "tolerance", "terms_used", "tail_bound", "wall_time_ms"):
        assert key in r, key


def test_verify_theorem_q9_exp_sweeps_all_primitive(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "-q", "9", "--function", "exp", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 4  # phi(9) = 6, of which 4 are primitive
    assert all(r["pass"] for r in reports)


@pytest.mark.parametrize("function", ["log", "step:1/4"])
def test_cesaro_with_terms_cap_below_two(capsys, monkeypatch, function):
    # the Cesaro window [N, 2N] keeps N >= 1 when the cap halves to 0: `log`
    # runs here as its closed form without atoms, so both parities take the
    # window; with atoms (the step) N stops at the cap, and the bound at N = 1
    # is still a bound
    methods = {"cesaro"} if function == "log" else {"euler_maclaurin"}
    checks = []
    verify_theorem = cli.verify_theorem
    builtin_function = cli.builtin_function

    def recording(*args, **kwargs):
        checks.append(verify_theorem(*args, **kwargs))
        return checks[-1]

    def without_atoms(name):
        f = builtin_function(name)
        return dataclasses.replace(f, name=f"{name}#noatoms", atoms=(), envelope=())

    monkeypatch.setattr(cli, "verify_theorem", recording)
    if function == "log":
        monkeypatch.setattr(cli, "builtin_function", without_atoms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "verify-theorem", "-q", "5", "--function", function,
                               "--terms-cap", "1", "--format", "json")
    rows = json.loads(out)
    assert code in (0, 1) and rows
    assert {chk.series.tail_method for chk in checks} == methods
    for row in rows:
        assert math.isfinite(row["rhs"]["re"]) and math.isfinite(row["rhs"]["im"])
        assert row["terms_used"] >= 1
    if methods == {"euler_maclaurin"}:
        assert all(row["terms_used"] == 1 for row in rows)
        assert all(chk.abs_error <= chk.series.tail_bound for chk in checks)


def test_verify_theorem_q6_no_primitive_characters(capsys):
    code, out, err = run_cli(capsys, "verify-theorem", "-q", "6", "--function", "t2")
    assert code == 0
    assert "no primitive characters" in out + err


def test_verify_theorem_unknown_function(capsys):
    code, _, err = run_cli(capsys, "verify-theorem", "-q", "5", "--function", "sinh")
    assert code == 2 and "unknown function" in err


def test_verify_theorem_tiny_modulus(capsys):
    code, _, err = run_cli(capsys, "verify-theorem", "-q", "1", "--function", "t2")
    assert code == 2 and "modulus >= 3" in err


def test_example_1_pretty(capsys):
    code, out, _ = run_cli(capsys, "example", "--id", "1", "-d", "-3")
    assert code == 0
    assert out.startswith("PASS identity:1")


def test_example_4_with_y(capsys):
    code, out, _ = run_cli(capsys, "example", "--id", "4", "-d", "-4", "--y", "0.5", "--format", "json")
    assert code == 0
    r = json.loads(out)[0]
    assert r["pass"] is True and r["lhs"]["re"] == 1.0


@pytest.mark.parametrize(
    "y, message",
    [("1/0", "error: --y '1/0' has a zero denominator"),
     ("abc", "error: --y 'abc' is not a fraction such as 1/5"),
     ("nan", "error: --y 'nan' is not a fraction such as 1/5")],
)
def test_example_y_that_is_not_a_fraction_exits_2(capsys, y, message):
    code, out, err = run_cli(capsys, "example", "--id", "4", "-d", "5", "--y", y)
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_example_2_below_the_l_one_floor_still_reports(capsys):
    # tol/8 = 1e-13 is l_one's floor; identity 2 asks l_one for more than that,
    # since the shift cancels from abs_error
    code, out, err = run_cli(capsys, "example", "--id", "2", "-d", "5", "--tol", "8e-13",
                             "--format", "json")
    assert code in (0, 1) and err == ""
    (row,) = json.loads(out)
    assert row["check"] == "identity:2" and row["tolerance"] == 8e-13


def test_example_4_rejects_long_period_before_allocating(capsys, monkeypatch):
    import charsum.identities as identities

    def no_series(*args, **kwargs):
        raise AssertionError("the series must not be set up")

    monkeypatch.setattr(identities, "character_series", no_series)
    code, _, err = run_cli(capsys, "example", "--id", "4", "-d", "-499", "--y", "1/99991")
    assert code == 2
    assert "denominator 99991" in err and "fraction" in err and "Traceback" not in err


def test_verify_theorem_rejects_step_period_above_ceiling(capsys):
    # lcm(1009, 997) = 1,005,973: the series engine refuses the twisted period
    code, out, err = run_cli(capsys, "verify-theorem", "-q", "1009", "--function", "step:1/997",
                             "--format", "csv")
    assert code == 2 and out == ""
    assert "lcm(1009, 997) = 1005973" in err and "Traceback" not in err


def test_example_4_rejects_terms_above_cap_before_allocating(capsys, monkeypatch):
    import charsum.identities as identities

    def no_series(*args, **kwargs):
        raise AssertionError("the series must not be set up")

    monkeypatch.setattr(identities, "character_series", no_series)
    code, _, err = run_cli(capsys, "example", "--id", "4", "-d", "5", "--y", "1/5",
                           "--terms", str(2**22 + 1))
    assert code == 2
    assert "at most 4194304" in err and "Traceback" not in err


def test_example_parity_gate(capsys):
    code, _, err = run_cli(capsys, "example", "--id", "1", "-d", "5")
    assert code == 2
    assert "chi(-1) = -1" in err


def test_sweep_small_range_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--max-abs-d", "15", "--format", "csv",
                         "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    rows = list(csv.DictReader(io.StringIO(text)))
    assert all(r["pass"] == "true" for r in rows)
    # ordering: by (|d|, sign, check id); spot-check the discriminant sequence
    ds = [int(r["d"]) for r in rows]
    keys = [(abs(d), d) for d in ds]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1]))
    checks = {r["check"] for r in rows}
    assert {"separability", "quadratic_tau", "identity:3", "identity:4"} <= checks


def test_sweep_empty_range(capsys):
    code, out, err = run_cli(capsys, "sweep", "--max-abs-d", "1", "--format", "csv")
    assert code == 0
    assert out.strip() == CSV_HEADER


def test_closed_stdout_pipe_exits_2_without_traceback():
    # the reader closes the pipe before the listing is written, so the write
    # meets a broken pipe (closing it after a read races with a writer that
    # some kernels let finish its blocked write)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "charsum.cli", "characters", "-q", "1009", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: cannot write stdout:") and len(err.splitlines()) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(capsys, "sweep", "--max-abs-d", "4", "--output",
                           "/nonexistent-dir/x.csv")
    assert code == 2 and "cannot write" in err


def test_csv_roundtrip_and_17_digit_floats(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-abs-d", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for r in rows:
        lhs = float(r["lhs_re"])  # parses cleanly
        assert format(lhs, ".17g") == r["lhs_re"]


def test_json_determinism_modulo_wall_time(capsys):
    seen = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "example", "--id", "3", "-d", "5", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        for r in reports:
            r["wall_time_ms"] = None
        seen.append(json.dumps(reports, sort_keys=True))
    assert seen[0] == seen[1]


def test_json_report_escapes_control_characters_in_command(capsys, tmp_path):
    path = str(tmp_path / "tab\tname.json")
    argv = ["example", "--id", "1", "-d", "-3", "--format", "json", "--output", path]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert "\t" not in text
    (report,) = json.loads(text)
    assert report["command"] == "charsum " + " ".join(argv)


def test_csv_determinism_bytes(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "sweep", "--max-abs-d", "12", "--format", "csv")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_exit_code_reflects_failures(capsys):
    # an absurdly tight tolerance forces a failing identity check
    code, out, _ = run_cli(capsys, "example", "--id", "2", "-d", "5", "--tol", "1e-30")
    assert code == 1
    assert out.startswith("FAIL")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-theorem", "-q", "5", "--function", "t", "--tol", "-1"), "--tol: must be > 0"),
        (("verify-theorem", "-q", "5", "--function", "t", "--tol", "0"), "--tol: must be > 0"),
        (("verify-theorem", "-q", "5", "--function", "t", "--terms", "0"), "--terms: must be >= 1"),
        (("verify-theorem", "-q", "5", "--function", "t", "--terms-cap", "0"),
         "--terms-cap: must be >= 1"),
        (("example", "--id", "1", "-d", "-3", "--tol", "-1"), "--tol: must be > 0"),
        (("example", "--id", "4", "-d", "5", "--y", "1/5", "--terms", "0"),
         "--terms: must be >= 1"),
        (("sweep", "--max-abs-d", "8", "--tol", "-1"), "--tol: must be > 0"),
        (("verify-theorem", "-q", "7", "--function", "t", "--tol", "inf"),
         "--tol: must be finite"),
        (("example", "--id", "1", "-d", "-3", "--tol", "nan"), "--tol: must be > 0"),
        (("sweep", "--max-abs-d", "8", "--tol", "inf"), "--tol: must be finite"),
        # a subnormal tolerance halves to 0 in the series engine
        (("verify-theorem", "-q", "7", "--function", "t", "--tol", "4.9e-324"),
         "--tol: must be at least 2.2250738585072014e-308"),
        (("example", "--id", "3", "-d", "5", "--tol", "4.9e-324"),
         "--tol: must be at least 2.2250738585072014e-308"),
        (("sweep", "--max-abs-d", "5", "--tol", "4.9e-324"),
         "--tol: must be at least 2.2250738585072014e-308"),
        (("sweep", "--max-abs-d", "5", "--tol", "1e-400"), "--tol: must be > 0"),
    ],
)
def test_invalid_numeric_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-theorem", "-q", "7", "--function", "step:1/0"), "zero denominator"),
        (("sweep", "--min-abs-d", "2999990", "--max-abs-d", "3000000"),
         "exceeds the supported modulus ceiling"),
        (("verify-theorem", "-q", "7", "--function", "t", "--terms", "11", "--terms-cap", "10"),
         "--terms 11 exceeds --terms-cap 10"),
        (("example", "--id", "3", "-d", "5", "--terms", "3"), "identity 3 does not take terms"),
        # identity 4 at y = 1/2 would need the period lcm(999997, 2) > 10^6
        (("sweep", "--min-abs-d", "999997", "--max-abs-d", "999997"),
         "identity 4 at y = 1/2 needs the series period lcm(|d|, 2)"),
    ],
)
def test_domain_errors_exit_2_before_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the argument was rejected")

    for name in ("fundamental_discriminants", "build_character_group", "verify_theorem"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err and "Traceback" not in err
    assert out == ""


def test_run_identity_rejects_zero_terms():
    with pytest.raises(ValueError, match="terms must be >= 1"):
        run_identity(4, 5, y="1/5", terms=0)


def _mostly(valid, malformed):
    """A valid value, or a malformed one in one draw of four."""
    return st.integers(0, 3).flatmap(lambda i: malformed if i == 0 else valid)


# strings that no numeric option accepts: zero, negative, not finite,
# subnormal, underflowing to 0, and not a number
_BAD_NUMBERS = st.sampled_from(("0", "-1", "nan", "inf", "4.9e-324", "1e-400", "1/0"))
# values in [-40, 40], or past the full-group and modulus ceilings and, for
# a sweep, past the bound that identity 4's period sets
_INTEGERS = _mostly(st.integers(-40, 40), st.sampled_from([10007, 1000001]))
_SWEEP_BOUNDS = _mostly(st.integers(-40, 40), st.sampled_from([500001, 1000001]))
_FUNCTIONS = _mostly(st.sampled_from(("t2", "t", "exp", "log", "step:1/4")),
                     st.sampled_from(("step:1/0", "step:3/2", "step:x", "foo")))


def _option(draw, flag, *valid, required=False):
    """[flag, value] with a valid or a malformed value, or [] unless required."""
    value = draw(_mostly(st.sampled_from(valid), _BAD_NUMBERS))
    return [flag, value] if required or draw(st.booleans()) else []


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["characters", "verify-theorem", "example", "sweep"]))
    if cmd in ("characters", "verify-theorem"):
        args = [cmd, "-q", str(draw(_INTEGERS))]
    elif cmd == "example":
        args = [cmd, "-d", str(draw(_INTEGERS))]
        args += _option(draw, "--id", "1", "2", "3", "4", required=True)
        if args[-1] == "4" or draw(st.booleans()):  # only identity 4 takes y and terms
            args += _option(draw, "--y", "1/2", "1/5", "0.25", required=True)
            args += _option(draw, "--terms", "64")
    else:
        args = [cmd, "--max-abs-d", str(draw(_SWEEP_BOUNDS))]
        args += ["--min-abs-d", str(draw(_SWEEP_BOUNDS))] if draw(st.booleans()) else []
    if cmd == "verify-theorem":
        args += ["--function", draw(_FUNCTIONS)]
        # the cap keeps every valid run short
        args += _option(draw, "--terms-cap", "64", "4096", required=True)
        args += _option(draw, "--terms", "1", "64")
    if cmd != "characters":
        args += _option(draw, "--tol", "1e-6", "0.01")
    return args + ["--format", draw(st.sampled_from(["json", "csv", "pretty"]))]


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_cli_exits_0_1_or_2_with_a_message(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2 and f"charsum {argv[0]}: error: " in err.getvalue()
            return
    assert code in (0, 1) or (code == 2 and err.getvalue().startswith("error: ")), err.getvalue()
