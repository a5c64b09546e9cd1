import pytest

from workloads import WORKLOADS, check_rows, expected_rows, make_inputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    assert make_inputs(workload, 5) == make_inputs(workload, 5)
    assert len({str(make_inputs(workload, s)) for s in range(20)}) > 1
    assert expected_rows(workload, make_inputs(workload, 5)) > 0


def test_sweep_rows_follow_fundamental_discriminants():
    # fundamental discriminants with 2 <= |d| <= 12: -3, -4, 5, -7, -8, 8, -11, 12
    assert expected_rows("sweep", {"min_abs_d": 2, "max_abs_d": 12}) == 5 * 8


def _row(check, err, bound, passed=True):
    return {"check": check, "label": "7.1", "abs_error": err, "tail_bound": bound, "passed": passed}


def test_check_rows_against_requested_tolerance():
    inputs = {"modulus": 5, "function": "t", "tol": 1e-8}
    rows = [
        _row("theorem:t", 1e-10, 1e-9),  # tight
        _row("theorem:t", 2e-7, 1e-6),  # passes, but the bound is loose
        _row("theorem:t", 3e-6, 1e-6),  # misses its bound (and so does not pass)
    ]
    rows[2]["passed"] = False
    out = check_rows("theorem-smooth", inputs, rows)
    assert out["rows_match"] and out["attempted"] == 3
    assert out["failed"] == 1 and out["bound_misses"] == 1
    assert out["loose_share"] == pytest.approx(2 / 3)
    assert out["max_err_ratio"] == pytest.approx(300.0)
    assert out["bound_ratio"] == pytest.approx(100.0)


def test_missing_raised_and_unknown_rows_fail():
    inputs = {"modulus": 7, "function": "t", "tol": 1e-8}
    rows = [_row("theorem:t", 0.0, 0.0), {"check": "theorem:t", "raised": "boom"},
            _row("bogus", 0.0, 0.0)]
    out = check_rows("theorem-smooth", inputs, rows)
    assert not out["rows_match"]
    assert out["attempted"] == 5 and out["failed"] == 4
