"""Acceptance suite: the eight exit criteria, each at its stated tolerance.

Every test prints one pass/fail line (run with `pytest -s` to see them live).
Runtime budgets are asserted as part of the criteria.
"""

import math
import time
from fractions import Fraction

import numpy as np

from charsum.analytic import sine_integral
from charsum.characters import (
    build_character_group,
    euler_phi,
    fundamental_discriminants,
    real_primitive_character,
)
from charsum.fourier import verify_theorem
from charsum.functions import builtin_function
from charsum.gauss_sums import quadratic_tau_residual, separability_residual, tau
from charsum.identities import (
    check_exp_identity,
    check_log_identity,
    check_partial_sum_identity,
    check_square_identity,
)


def _report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion} {status}: {detail} [{elapsed:.1f} s, budget {budget:.0f} s]")


def test_criterion_1_separability_sweep():
    budget = 10.0
    start = time.perf_counter()
    worst = 0.0
    for q in range(3, 51):
        for chi in build_character_group(q).primitive_characters():
            worst = max(worst, separability_residual(chi))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < budget
    _report(1, ok, f"max |G(n,chi) - conj(chi)(n) tau| = {worst:.3e} over q <= 50", elapsed, budget)
    assert worst <= 1e-9
    assert elapsed < budget


def test_criterion_2_tau_value_sweep():
    budget = 10.0
    start = time.perf_counter()
    worst = max(quadratic_tau_residual(d) for d in fundamental_discriminants(500))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < budget
    _report(2, ok, f"max |tau(chi_d) - sqrt(q)/i sqrt(q)| = {worst:.3e} over |d| <= 500", elapsed, budget)
    assert worst <= 1e-9
    assert elapsed < budget


def test_criterion_3_theorem_equivalence():
    budget = 300.0
    start = time.perf_counter()
    smooth = [builtin_function(n) for n in ("t2", "t", "exp")]
    # the steps' periodic atoms and log's atoms on both sides certify every
    # character on the tail kernel; the bound covers truncation, not the float
    # head's rounding (<= 6.5e-15 for the steps)
    certified = [builtin_function(n) for n in ("step:1/4", "step:1/2", "step:4/5", "log")]
    rounding = 1e-12

    worst_smooth_margin = 0.0  # max of err / max(1e-8, tail)
    worst_bound = {f.name: 0.0 for f in certified}
    failures = []
    n_chars = 0
    for q in range(3, 101):
        for chi in build_character_group(q).primitive_characters():
            n_chars += 1
            for f in smooth:
                chk = verify_theorem(chi, f, 1e-8)
                allowed = max(1e-8, chk.series.tail_bound)
                worst_smooth_margin = max(worst_smooth_margin, chk.abs_error / allowed)
            for f in certified:
                chk = verify_theorem(chi, f, 1e-8)
                sev = chk.series
                worst_bound[f.name] = max(worst_bound[f.name], sev.tail_bound)
                if not (
                    chk.passed and sev.tail_method != "cesaro" and not sev.best_effort
                    and sev.tail_bound <= 1e-8 and chk.abs_error <= sev.tail_bound + rounding
                ):
                    failures.append((chi.label, f.name))

    elapsed = time.perf_counter() - start
    ok = worst_smooth_margin <= 1.0 and not failures and elapsed < budget
    bounds = ", ".join(f"{name} <= {bound:.2e}" for name, bound in worst_bound.items())
    _report(
        3,
        ok,
        f"{n_chars} primitive chi, q <= 100: smooth err/bound <= {worst_smooth_margin:.3f}, "
        f"steps and log certified (tail bounds {bounds})",
        elapsed,
        budget,
    )
    assert worst_smooth_margin <= 1.0
    assert not failures, failures[:5]
    assert elapsed < budget


def test_criterion_4_square_identity_sweep():
    budget = 60.0
    start = time.perf_counter()
    worst = 0.0
    for d in fundamental_discriminants(500):
        if d >= 0:
            continue
        check = check_square_identity(d, tol=1e-7)
        worst = max(worst, check.abs_error)
        assert check.passed, d
    spot3 = check_square_identity(-3)
    spot4 = check_square_identity(-4)
    elapsed = time.perf_counter() - start
    spot_ok = (
        abs(spot3.lhs + 1 / 3) < 1e-12 and abs(spot3.rhs + 1 / 3) < 1e-8
        and abs(spot4.lhs + 0.5) < 1e-12 and abs(spot4.rhs + 0.5) < 1e-8
    )
    ok = worst <= 1e-7 and spot_ok and elapsed < budget
    _report(4, ok, f"max |lhs - rhs| = {worst:.3e} over -500 <= d < 0; spots -1/3, -1/2 hit", elapsed, budget)
    assert worst <= 1e-7
    assert spot_ok
    assert elapsed < budget


def test_criterion_5_log_identity_sweep():
    budget = 120.0
    start = time.perf_counter()
    worst = 0.0
    ratios = []
    for d in fundamental_discriminants(500):
        if d <= 1:
            continue
        check = check_log_identity(d, tol=1e-7)
        worst = max(worst, check.abs_error)
        ratios.append(check.notes["remainder_over_sqrt_q"])
        assert check.passed, d
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < budget
    _report(
        5,
        ok,
        f"max |R - R_series| = {worst:.3e} over 1 < d <= 500; "
        f"R(chi)/sqrt(q) in [{min(ratios):.6f}, {max(ratios):.6f}]",
        elapsed,
        budget,
    )
    assert worst <= 1e-7
    assert elapsed < budget


def test_criterion_6_exp_identity_sweep():
    budget = 60.0
    start = time.perf_counter()
    worst = 0.0
    for d in fundamental_discriminants(500):
        check = check_exp_identity(d, tol=1e-8)
        worst = max(worst, check.abs_error)
        assert check.passed, d
    spot = check_exp_identity(5)
    elapsed = time.perf_counter() - start
    spot_ok = abs(spot.lhs - 0.1330002) <= 1e-7
    ok = worst <= 1e-8 and spot_ok and elapsed < budget
    _report(6, ok, f"max |lhs - rhs| = {worst:.3e} over |d| <= 500, both parities", elapsed, budget)
    assert worst <= 1e-8
    assert spot_ok
    assert elapsed < budget


def test_criterion_7_partial_sum_identity():
    budget = 30.0
    start = time.perf_counter()
    worst = 0.0
    for d in (-3, -4, 5, 8):
        for y in (Fraction(1, 5), Fraction(1, 4), Fraction(1, 2)):
            check = check_partial_sum_identity(d, y, terms=10**4, tol=5e-4)
            worst = max(worst, check.abs_error)
            assert check.passed, (d, y)
    jump = check_partial_sum_identity(5, Fraction(1, 5), terms=10**4, tol=5e-4)
    elapsed = time.perf_counter() - start
    jump_ok = jump.lhs == 0.5
    ok = worst <= 5e-4 and jump_ok and elapsed < budget
    _report(7, ok, f"max |F* - series| = {worst:.3e} over d, y grid; jump case F* = 1/2", elapsed, budget)
    assert worst <= 5e-4
    assert jump_ok
    assert elapsed < budget


def test_criterion_8_property_suite():
    start = time.perf_counter()

    # exact multiplicativity and orthogonality, q <= 200
    for q in range(1, 201):
        group = build_character_group(q)
        units = np.flatnonzero(np.gcd(np.arange(q), q) == 1) if q > 1 else np.array([0])
        prod = (units[:, None] * units[None, :]) % q
        for chi in group.characters():
            t = chi.turns
            e = chi.turn_denominator
            assert np.array_equal((t[units][:, None] + t[units][None, :]) % e, t[prod]), chi.label
            turns = t[t >= 0]
            counts = np.bincount(turns)
            present = counts[counts > 0]
            if chi.is_principal:
                assert len(present) == 1 and present[0] == (euler_phi(q) if q > 1 else 1)
            else:
                assert len(set(present)) == 1, chi.label  # balanced values: sum exactly 0

    # |tau| = sqrt(q) for all primitive characters, q <= 200
    worst_tau = 0.0
    for q in range(3, 201):
        for chi in build_character_group(q).primitive_characters():
            worst_tau = max(worst_tau, abs(abs(tau(chi)) - math.sqrt(q)))
    assert worst_tau <= 1e-9

    # Si monotone on [0, pi]
    si_vals = [sine_integral(x) for x in np.linspace(0, math.pi, 800)]
    assert all(b >= a for a, b in zip(si_vals, si_vals[1:]))

    # |Si(x) - pi/2| <= 2/x on a grid x in [2, 1e4]
    worst_ratio = 0.0
    for x in np.geomspace(2, 1e4, 500):
        worst_ratio = max(worst_ratio, abs(sine_integral(float(x)) - math.pi / 2) * x / 2.0)
    assert worst_ratio <= 1.0

    elapsed = time.perf_counter() - start
    _report(
        8,
        True,
        f"exact group laws q <= 200; max ||tau|-sqrt(q)| = {worst_tau:.3e}; "
        f"Si monotone, complement bound ratio {worst_ratio:.3f}",
        elapsed,
        float("inf"),
    )
