"""High-precision oracle for the theorem series bounds and the direct sum.

S(chi, f) = sum_{k<q} chi(k) f(k/q) is evaluated to 30 digits (40 for log, both
parities, and the steps) with mpmath from the exact character turns, independently of the
float direct sum; the truncated series must then lie within its reported tail
bound of it, and for complex characters each component of the float direct sum
within (q - 1) 2^-53 max|f*| of it.  The same holds for identity 4 and for the
theorem series of step:y with real chi against the exact rational F*(y), and
for L(1, chi) against its finite closed forms (real chi) and its digamma form
(every chi).
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum.analytic import l_one
from charsum.characters import (
    build_character_group,
    fundamental_discriminants,
    kronecker_symbol,
    real_primitive_character,
)
from charsum.fourier import direct_sum, theorem_series
from charsum.functions import builtin_function, fstar
from charsum.identities import check_log_identity, check_partial_sum_identity, check_square_identity

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


def exact_sum_mp(chi, g):
    """S(chi, g) as an mpmath complex at the working precision."""
    total = mp.mpc(0)
    for k in range(1, chi.modulus):
        turn = chi.turn(k)
        if turn is not None:
            total += mpmath.expjpi(2 * mp.mpf(turn.numerator) / turn.denominator) * g(
                mp.mpf(k) / chi.modulus
            )
    return total


def exact_sum(chi, g):
    with mp.workdps(30):
        return complex(exact_sum_mp(chi, g))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_series_within_bound_of_exact_sum(name):
    # every row takes the tail kernel but the even rows of t, whose cosine side is 0
    f = builtin_function(name)
    checked_odd = 0
    for chi in _characters():
        sev = theorem_series(chi, f, 1e-8)
        exact = exact_sum(chi, FUNCTIONS[name])
        assert abs(sev.value - exact) <= sev.tail_bound + ORACLE_SLACK, (chi.label, name)
        assert sev.tail_bound <= 1e-8 and not sev.best_effort, (chi.label, name)
        checked_odd += chi.is_odd
        expected = "envelope" if name == "t" and chi.is_even else "euler_maclaurin"
        assert sev.tail_method == expected, (chi.label, name)
    assert checked_odd == 10  # odd mod 3 and 4, two complex mod 7, six mod 13


def _log_characters(even):
    return [
        chi
        for q in (5, 7, 8, 12, 13, 29, 37)
        for chi in build_character_group(q).primitive_characters()
        if chi.is_even == even
    ]


def test_even_log_series_within_bound_of_exact_sum():
    # log's cosine side: the atoms -1/(4n) + 1/(4 pi^2 n^2) on the tail kernel
    # plus the eps_n remainder under its declared envelope, real and complex
    # characters
    f = builtin_function("log")
    characters = _log_characters(even=True)
    assert len(characters) == 40
    for chi in characters:
        sev = theorem_series(chi, f, 1e-8)
        assert sev.tail_method == "euler_maclaurin" and not sev.best_effort, chi.label
        assert sev.tail_bound <= 1e-8, chi.label
        with mp.workdps(40):
            exact = complex(exact_sum_mp(chi, mpmath.log))
        assert abs(sev.value - exact) <= sev.tail_bound, chi.label


def test_odd_log_series_within_bound_of_exact_sum():
    # log's sine side: the atoms -(gamma + ln 2 pi)/(2 pi n) - ln(n)/(2 pi n)
    # on the tail kernel plus the Ci(2 pi n)/(2 pi n) remainder under its
    # declared envelope 1/(8 pi^3 n^3), real and complex characters
    f = builtin_function("log")
    characters = _log_characters(even=False)
    assert len(characters) == 44
    for chi in characters:
        sev = theorem_series(chi, f, 1e-8)
        assert sev.tail_method == "euler_maclaurin" and not sev.best_effort, chi.label
        # N is set by the envelope here: (2 K C |prefactor| / 5e-9)^(1/3) is 322 at q = 5
        assert sev.tail_bound <= 1e-8 and sev.terms_used <= 2000, chi.label
        with mp.workdps(40):
            exact = complex(exact_sum_mp(chi, mpmath.log))
        assert abs(sev.value - exact) <= sev.tail_bound, chi.label


def step_oracle(y):
    """step*(x) at 40 digits: 1, 1/2 or 0 as x <, = or > y.  x = k/q and y are
    rounded alike, so they compare equal exactly when the rationals do."""
    y_mp = mp.mpf(y.numerator) / y.denominator
    return lambda x: mp.mpf(1) if x < y_mp else mp.mpf(0.5) if x == y_mp else mp.mpf(0)


def test_step_series_within_bound_of_exact_sum():
    # per character: a y with b | q (then q y is an integer: the midpoint case)
    # and a y with gcd(b, q) = 1; real characters against the exact rational
    # F*(y), complex ones against 40-digit sums
    characters = [(d, real_primitive_character(d)) for d in (-3, -4, 5, -7, 8, 12, 13)]
    characters += [(None, chi) for chi in _characters() if not chi.is_real]
    cases = {"divides": 0, "coprime": 0}
    for d, chi in characters:
        q = chi.modulus
        coprime = Fraction(2, 9) if q % 5 == 0 else Fraction(2, 5)
        for y in (Fraction(1, q), Fraction(q - 1, q), coprime, Fraction(3, 11)):
            cases["divides" if q % y.denominator == 0 else "coprime"] += 1
            sev = theorem_series(chi, builtin_function(f"step:{y}"), 1e-8)
            assert sev.tail_method == "euler_maclaurin" and not sev.best_effort, (chi.label, y)
            assert sev.tail_bound <= 1e-8, (chi.label, y)
            allowed = sev.tail_bound + ORACLE_SLACK
            if d is not None:
                exact = exact_partial_sum(d, y)
                assert abs(Fraction(sev.value) - exact) <= Fraction(allowed), (chi.label, y)
            else:
                with mp.workdps(40):
                    exact = complex(exact_sum_mp(chi, step_oracle(y)))
                assert abs(sev.value - exact) <= allowed, (chi.label, y)
    assert cases == {"divides": 42, "coprime": 42}


@pytest.mark.parametrize("q", (7, 13, 29))
def test_complex_direct_sum_within_product_rounding(q):
    # each product chi(k) f*(k/q) is rounded once, then the products are summed pairwise
    functions = {
        **FUNCTIONS,
        "step:1/4": lambda x: mp.mpf(1) if x <= mp.mpf(1) / 4 else mp.mpf(0),
        "log": mpmath.log,
    }
    characters = [c for c in build_character_group(q).primitive_characters() if not c.is_real]
    assert characters
    for name in ("t2", "exp", "step:1/4", "log"):
        f = builtin_function(name)
        bound = (q - 1) * 2.0**-53 * max(abs(fstar(f, k / q)) for k in range(1, q))
        for chi in characters:
            direct = direct_sum(chi, f)
            with mp.workdps(40):
                exact = exact_sum_mp(chi, functions[name])
                assert abs(mp.mpf(direct.real) - exact.real) <= bound, (chi.label, name)
                assert abs(mp.mpf(direct.imag) - exact.imag) <= bound, (chi.label, name)


def exact_partial_sum(d, y):
    """F*(y) = sum_{k <= qy} chi_d(k), with half the last term at a jump."""
    qy = abs(d) * y
    whole = qy.numerator // qy.denominator
    total = Fraction(sum(kronecker_symbol(d, k) for k in range(1, whole + 1)))
    if qy.denominator == 1:
        total -= Fraction(kronecker_symbol(d, whole), 2)
    return total


# b | q, b coprime to q, and the jump case q y in Z, for both parities
PARTIAL_SUM_CASES = [
    (-3, Fraction(1, 3)), (-3, Fraction(2, 7)), (-4, Fraction(1, 2)), (-4, Fraction(3, 5)),
    (5, Fraction(1, 5)), (5, Fraction(1, 2)), (8, Fraction(3, 8)), (8, Fraction(1, 3)),
    (-23, Fraction(5, 23)), (-23, Fraction(1, 6)), (12, Fraction(1, 4)), (13, Fraction(4, 9)),
]


@pytest.mark.parametrize("d, y", PARTIAL_SUM_CASES)
def test_partial_sum_identity_within_bound_of_exact(d, y):
    check = check_partial_sum_identity(d, y)
    exact = exact_partial_sum(d, y)
    assert check.lhs == float(exact)
    assert abs(check.rhs - exact) <= check.tail_bound + 1e-12, (d, y)
    assert check.passed and check.tail_bound <= check.tolerance


def exact_l_one(d):
    """L(1, chi_d) from its finite closed form, to 30 digits."""
    q = abs(d)
    with mp.workdps(30):
        if d < 0:
            total = -mp.pi * mp.mpf(q) ** mp.mpf(-1.5) * sum(
                k * kronecker_symbol(d, k) for k in range(1, q)
            )
        else:
            total = -mp.fsum(
                kronecker_symbol(d, k) * mp.log(mp.sin(mp.pi * k / q)) for k in range(1, q)
            ) / mp.sqrt(q)
        return float(total)


@pytest.mark.parametrize("d", [-3, -4, -7, -8, -163, -499, 5, 8, 12, 13, 497])
def test_l_one_within_bound_of_closed_form(d):
    lval = l_one(real_primitive_character(d), 1e-12)
    assert abs(lval.value - exact_l_one(d)) <= lval.tail_bound, d


def test_square_identity_within_bound_of_exact():
    # lhs: each f*(k/q) = fl(fl(k/q)^2) is within 3.01 u (k/q)^2 of (k/q)^2, and
    # fsum rounds once more, u = 2^-53.  rhs: the series sums to -(sqrt(q)/pi) L(1, chi)
    discriminants = [d for d in fundamental_discriminants(500) if d < 0]
    assert len(discriminants) == 153
    u = 2.0**-53
    for d in discriminants:
        q = -d
        check = check_square_identity(d)
        exact = Fraction(sum(kronecker_symbol(d, k) * k * k for k in range(1, q)), q * q)
        squares = (q - 1) * (2 * q - 1) / (6 * q)  # sum of (k/q)^2 over 1 <= k < q
        assert abs(Fraction(check.lhs) - exact) <= u * (3.01 * squares + abs(float(exact))), d
        l_value = -math.sqrt(q) / math.pi * exact_l_one(d)
        assert abs(check.rhs - l_value) <= check.tail_bound + 1e-12, d
        assert check.passed and check.tail_bound <= check.tolerance, d


@pytest.mark.parametrize("d", [5, 8, 12, 13, 497])
def test_log_identity_within_bound_of_exact(d):
    # lhs is the remainder R = sum chi(k) log k + (sqrt(q)/2) L(1, chi), and rhs
    # the correction series, which reproduces R within the theorem's tail bound
    check = check_log_identity(d)
    with mp.workdps(30):
        log_sum = mp.fsum(kronecker_symbol(d, k) * mp.log(k) for k in range(2, d))
        remainder = log_sum + mp.sqrt(d) / 2 * exact_l_one(d)
        assert abs(check.lhs - remainder) <= 1e-9, d
        assert abs(check.rhs - remainder) <= check.tail_bound + 1e-9, d
    assert check.abs_error <= check.tail_bound + 1e-12, d
    assert check.passed and check.tail_bound <= check.tolerance, d


def digamma_l_one(chi):
    """L(1, chi) = -(1/q) sum_{k<q} chi(k) psi(k/q) for non-principal chi, to 40 digits."""
    with mp.workdps(40):
        return complex(-exact_sum_mp(chi, mpmath.digamma) / chi.modulus)


def test_complex_l_one_within_bound_of_digamma_form():
    # the digamma form itself against the real closed form
    assert abs(digamma_l_one(real_primitive_character(-163)) - exact_l_one(-163)) < 1e-15
    checked = 0
    for q in (7, 13, 29, 37):
        for chi in build_character_group(q).primitive_characters():
            lval = l_one(chi, 1e-12)
            assert abs(lval.value - digamma_l_one(chi)) <= lval.tail_bound, chi.label
            checked += 1
    assert checked == 78


@settings(deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from(fundamental_discriminants(300)),
    y=st.integers(2, 30).flatmap(lambda b: st.builds(Fraction, st.integers(1, b - 1), st.just(b))),
)
def test_partial_sum_identity_property(d, y):
    check = check_partial_sum_identity(d, y)
    assert check.passed and check.tail_bound <= check.tolerance, (d, y)
