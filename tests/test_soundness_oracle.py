"""High-precision oracle for the theorem series bounds.

S(chi, f) = sum_{k<q} chi(k) f(k/q) is evaluated to 30 digits with mpmath
from the exact character turns, independently of the float direct sum; the
truncated series must then lie within its reported tail bound of it.
"""

import mpmath
import pytest

from charsum.characters import build_character_group, real_primitive_character
from charsum.fourier import theorem_series
from charsum.functions import builtin_function

mp = mpmath.mp

FUNCTIONS = {
    "t": lambda x: x,
    "t2": lambda x: x * x,
    "exp": mpmath.exp,
}
# the oracle's own precision; far below every bound it is compared with
ORACLE_SLACK = 1e-25


def _characters():
    chars = [real_primitive_character(d) for d in (-3, -4, 5)]
    for q in (7, 13):
        chars += [c for c in build_character_group(q).primitive_characters() if not c.is_real]
    return chars


def exact_sum(chi, g):
    with mp.workdps(30):
        total = mp.mpc(0)
        for k in range(1, chi.modulus):
            turn = chi.turn(k)
            if turn is not None:
                total += mpmath.expjpi(2 * mp.mpf(turn.numerator) / turn.denominator) * g(
                    mp.mpf(k) / chi.modulus
                )
        return complex(total)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_series_within_bound_of_exact_sum(name):
    f = builtin_function(name)
    checked_odd = 0
    for chi in _characters():
        sev = theorem_series(chi, f, 1e-8)
        exact = exact_sum(chi, FUNCTIONS[name])
        assert abs(sev.value - exact) <= sev.tail_bound + ORACLE_SLACK, (chi.label, name)
        assert sev.tail_bound <= 1e-8 and not sev.best_effort, (chi.label, name)
        if chi.is_odd:
            checked_odd += 1
            assert sev.tail_method == "abel", (chi.label, name)
    assert checked_odd == 10  # odd mod 3 and 4, two complex mod 7, six mod 13
