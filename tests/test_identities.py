"""The four closed-form identity checks: spot values, gates, and small sweeps."""

import math
from fractions import Fraction

import pytest

from charsum import fourier
from charsum.characters import fundamental_discriminants, real_primitive_character
from charsum.fourier import theorem_series
from charsum.functions import builtin_function
from charsum.identities import (
    check_exp_identity,
    check_log_identity,
    check_partial_sum_identity,
    check_square_identity,
    run_identity,
)


def test_square_identity_hand_values():
    c = check_square_identity(-3)
    assert c.passed
    assert c.lhs == pytest.approx(-1 / 3, abs=1e-14)
    assert c.rhs == pytest.approx(-1 / 3, abs=1e-9)

    c = check_square_identity(-4)
    assert c.passed
    assert c.lhs == pytest.approx(-0.5, abs=1e-14)
    # rhs = -(2/pi) * (pi/4) = -1/2
    assert c.rhs == pytest.approx(-0.5, abs=1e-9)


def test_square_identity_d_minus7():
    c = check_square_identity(-7, tol=1e-8)
    assert c.passed and c.abs_error <= 1e-8


def test_square_identity_gates():
    with pytest.raises(ValueError, match="chi\\(-1\\) = -1"):
        check_square_identity(5)
    with pytest.raises(ValueError):
        check_square_identity(-7 * 9)  # not fundamental


def test_log_identity_small_discriminants():
    for d in (5, 8):
        c = check_log_identity(d, tol=1e-8)
        assert c.passed, d
        assert "remainder_over_sqrt_q" in c.notes


def test_log_identity_remainder_is_character_dependent():
    ratios = [check_log_identity(d).notes["remainder_over_sqrt_q"] for d in (5, 8, 497)]
    assert max(ratios) - min(ratios) > 1e-3  # visibly not a single constant


def test_log_identity_gates():
    with pytest.raises(ValueError, match="d > 1"):
        check_log_identity(-3)
    with pytest.raises(ValueError):
        check_log_identity(45)


def test_log_identity_shares_the_coefficient_cache():
    # identity 2 reads log's cosine coefficients from the cache theorem_series
    # fills; its result must not depend on how far or in what steps it grew
    log = builtin_function("log")
    fourier._coeff_cache.pop(log, None)
    cold = check_log_identity(497)
    fourier._coeff_cache.pop(log, None)
    check_log_identity(5)  # grows the cache in two steps: N for d = 5, then for 497
    assert check_log_identity(497) == cold
    theorem_series(real_primitive_character(101), log, 1e-8)
    assert len(fourier._coeff_cache[log]["cos"]) > cold.terms_used
    assert check_log_identity(497) == cold


def test_exp_identity_both_parities():
    c = check_exp_identity(5)
    assert c.passed and c.abs_error <= 1e-8
    assert c.lhs == pytest.approx(0.1330002, abs=1e-7)

    c = check_exp_identity(-4)
    assert c.passed
    assert c.lhs == pytest.approx(math.exp(0.25) - math.exp(0.75), abs=1e-14)

    assert check_exp_identity(-3).passed


def test_exp_identity_gate():
    with pytest.raises(ValueError):
        check_exp_identity(9)


def test_partial_sum_identity_spot_cases():
    c = check_partial_sum_identity(-4, Fraction(1, 2))
    assert c.passed and c.lhs == pytest.approx(1.0, abs=1e-15)

    # jump case: q*y = 1 exactly, so F* = (0 + chi(1))/2 = 1/2
    c = check_partial_sum_identity(5, Fraction(1, 5))
    assert c.passed and c.lhs == pytest.approx(0.5, abs=1e-15)

    c = check_partial_sum_identity(-3, Fraction(1, 2))
    assert c.passed and c.lhs == pytest.approx(1.0, abs=1e-15)
    assert c.abs_error <= 5e-4


def test_partial_sum_identity_y_gate():
    with pytest.raises(ValueError, match="y"):
        check_partial_sum_identity(5, Fraction(3, 2))


def test_partial_sum_identity_fixed_terms_bound():
    c = check_partial_sum_identity(8, Fraction(1, 4), terms=4000)
    assert c.passed and c.terms_used == 4000
    assert c.abs_error <= c.tail_bound + 1e-12
    assert c.tail_bound <= c.tolerance


def test_partial_sum_identity_long_range_bound():
    # y not a jump point; N = 10^5 fixed, far past the period lcm(8, 5) = 40
    c = check_partial_sum_identity(8, Fraction(1, 5), terms=10**5)
    assert c.passed and c.terms_used == 10**5
    assert c.abs_error <= c.tail_bound + 1e-12
    assert c.tail_bound <= c.tolerance


def test_run_identity_dispatch():
    assert run_identity(1, -3).passed
    assert run_identity(4, 5, y="1/5").passed
    with pytest.raises(ValueError):
        run_identity(5, -3)
    with pytest.raises(ValueError):
        run_identity(4, 5)  # missing y
    with pytest.raises(ValueError):
        run_identity(1, -3, y="1/2")  # y not accepted


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
@pytest.mark.parametrize(
    "identity_id, d, y", [(1, -3, None), (2, 5, None), (3, 5, None), (4, -3, "1/2")]
)
def test_identity_rejects_tolerance_not_finite_and_positive(identity_id, d, y, tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        run_identity(identity_id, d, y=y, tol=tol)


def test_identity_sweep_small():
    for d in fundamental_discriminants(50):
        if d < 0:
            assert check_square_identity(d).passed, d
        else:
            assert check_log_identity(d).passed, d
        assert check_exp_identity(d).passed, d
