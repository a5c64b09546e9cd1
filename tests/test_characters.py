"""Character construction, enumeration, conductor, and Kronecker symbol tests.

Oracles here are independent of the package internals: character groups are
re-derived by brute-force enumeration of completely multiplicative maps, and
conductors by testing every divisor directly against the value table.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from charsum.characters import (
    CharacterGroup,
    Parity,
    build_character_group,
    euler_phi,
    fundamental_discriminants,
    is_fundamental_discriminant,
    kronecker_symbol,
    real_primitive_character,
)


def units_mod(q):
    if q == 1:
        return [0]
    return [k for k in range(1, q) if math.gcd(k, q) == 1]


def brute_force_characters(q):
    """All completely multiplicative maps units -> roots of unity, as exact
    turn-numerator tables over the group exponent; independent re-derivation."""
    us = units_mod(q)
    lam = 1
    for u in us:
        order = 1
        x = u
        while x != 1 % q:
            x = (x * u) % q
            order += 1
        lam = math.lcm(lam, order)
    found = set()
    for assignment in product(range(lam), repeat=len(us)):
        t = dict(zip(us, assignment))
        if t[1 % q] != 0:
            continue
        if all((t[a] + t[b]) % lam == t[(a * b) % q] for a in us for b in us):
            found.add(tuple(Fraction(t[u], lam) for u in us))
    return found


@pytest.mark.parametrize("q,count", [(1, 1), (4, 2), (5, 4)])
def test_group_matches_brute_force_enumeration(q, count):
    oracle = brute_force_characters(q)
    assert len(oracle) == count
    group = build_character_group(q)
    ours = set()
    for chi in group.characters():
        ours.add(tuple(chi.turn(u) for u in units_mod(q)))
    assert ours == oracle


def test_group_q4_explicit():
    group = build_character_group(4)
    principal, odd = group.characters()
    assert principal.is_principal and odd.turn(1) == 0 and odd.turn(3) == Fraction(1, 2)
    assert odd(3) == -1 and odd.parity is Parity.ODD


def test_group_q5_one_real_nonprincipal():
    group = build_character_group(5)
    real_np = [c for c in group.characters() if c.is_real and not c.is_principal]
    assert len(real_np) == 1
    legendre = real_np[0]
    squares = {(k * k) % 5 for k in range(1, 5)}
    for k in range(1, 5):
        assert legendre(k) == (1 if k in squares else -1)


def test_group_q1_principal_value_convention():
    chi = build_character_group(1).characters()[0]
    assert chi(0) == 1 and chi.conductor == 1 and chi.parity is Parity.EVEN


def test_group_sizes_and_determinism():
    for q in (3, 8, 12, 24, 45):
        group = build_character_group(q)
        assert len(group.characters()) == euler_phi(q)
        labels = [c.label for c in group.characters()]
        again = [c.label for c in build_character_group(q).characters()]
        assert labels == again
        assert group.characters()[0].is_principal


def test_invalid_modulus():
    with pytest.raises(ValueError):
        CharacterGroup(0)
    with pytest.raises(ValueError):
        build_character_group(-3)


# --- conductor ----------------------------------------------------------------


def conductor_brute(chi):
    """Smallest f | q such that chi(a) = chi(b) whenever a = b mod f (units only)."""
    q = chi.modulus
    for f in sorted(d for d in range(1, q + 1) if q % d == 0):
        classes = {}
        ok = True
        for k in units_mod(q):
            r = k % f
            if r in classes and classes[r] != chi.turns[k]:
                ok = False
                break
            classes[r] = chi.turns[k]
        if ok:
            return f
    raise AssertionError("unreachable")


def test_conductor_principal_mod_12():
    chi = build_character_group(12).characters()[0]
    assert chi.conductor == 1 == conductor_brute(chi)


def test_conductor_mod8_induced_from_mod4():
    # the mod-8 character whose values repeat the odd character mod 4
    odd4 = build_character_group(4).character_by_index(1)
    group = build_character_group(8)
    induced = [
        c
        for c in group.characters()
        if all(c(k) == odd4(k % 4) for k in units_mod(8))
    ]
    assert len(induced) == 1
    assert induced[0].conductor == 4 == conductor_brute(induced[0])


def test_conductor_odd_real_mod3():
    chi = real_primitive_character(-3)
    assert chi.conductor == 3 == conductor_brute(chi)


def test_conductor_against_brute_force_sweep():
    for q in range(1, 61):
        for chi in build_character_group(q).characters():
            assert chi.conductor == conductor_brute(chi), chi.label


# --- Kronecker symbol -----------------------------------------------------------


def test_kronecker_spot_values():
    assert kronecker_symbol(-3, 2) == -1  # d = -3 = 5 mod 8
    for d in (-11, -1, 0, 1, 7, 40):
        assert kronecker_symbol(d, 1) == 1
    assert kronecker_symbol(-4, 3) == -1
    odd4 = build_character_group(4).character_by_index(1)
    assert odd4(3) == kronecker_symbol(-4, 3)


def test_kronecker_two_rule():
    # (d/2) = 0 for even d, +1 for d = +-1 mod 8, -1 for d = +-3 mod 8
    for d in range(-50, 51):
        expected = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        assert kronecker_symbol(d, 2) == expected, d


def test_kronecker_completely_multiplicative_in_n():
    for d in (-8, -4, -3, 5, 12, 21):
        vals = [kronecker_symbol(d, n) for n in range(1001)]
        for a in range(1, 40):
            for b in range(1, 1001 // max(a, 1)):
                if a * b <= 1000:
                    assert vals[a * b] == vals[a] * vals[b], (d, a, b)


def test_kronecker_total_function():
    assert kronecker_symbol(5, 0) == 0
    assert kronecker_symbol(1, 0) == 1 and kronecker_symbol(-1, 0) == 1
    assert kronecker_symbol(6, 4) == 0
    # negative n
    assert kronecker_symbol(5, -1) == 1 and kronecker_symbol(-5, -1) == -1


# --- real primitive characters ---------------------------------------------------


def test_fundamental_discriminant_predicate():
    assert is_fundamental_discriminant(-4) and is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(12)  # 12 = 4*3, 3 = 3 mod 4 squarefree
    assert not is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(7)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(-18)


def test_real_primitive_character_examples():
    chi = real_primitive_character(-4)
    assert chi.parity is Parity.ODD and chi.is_real and chi.is_primitive
    assert chi.label == build_character_group(4).character_by_index(1).label

    chi5 = real_primitive_character(5)
    assert chi5.parity is Parity.EVEN
    for k in range(5):
        assert chi5(k) == kronecker_symbol(5, k)

    chi12 = real_primitive_character(12)
    assert chi12.conductor == 12 and chi12.parity is Parity.EVEN

    # repeated calls share one character, and with it the cached tau
    assert real_primitive_character(12) is chi12


def test_real_primitive_character_rejects_non_fundamental():
    for bad in (1, 7, 9, -18, 45):
        with pytest.raises(ValueError):
            real_primitive_character(bad)


def test_real_primitive_character_sweep():
    for d in fundamental_discriminants(500):
        chi = real_primitive_character(d)
        assert chi.conductor == abs(d)
        assert chi.is_real and chi.is_primitive
        assert (chi.parity is Parity.EVEN) == (d > 0), d


def test_real_primitive_character_values_match_kronecker():
    for d in (-163, -20, 8, 13, 60, -499, 497):
        chi = real_primitive_character(d)
        q = abs(d)
        for k in range(q):
            assert chi(k) == kronecker_symbol(d, k), (d, k)


# --- structural invariants -------------------------------------------------------


def test_multiplicativity_exact_small_sweep():
    for q in range(1, 41):
        group = build_character_group(q)
        us = units_mod(q)
        for chi in group.characters():
            t = chi.turns
            e = chi.turn_denominator
            for a in us:
                for b in us:
                    assert (t[a % q] + t[b % q]) % e == t[(a * b) % q], (q, chi.label)


def test_orthogonality_exact_small_sweep():
    # non-principal characters take each value in their image equally often,
    # so the value sum is exactly zero; principal sums to phi(q)
    for q in range(2, 61):
        for chi in build_character_group(q).characters():
            turns = chi.turns[chi.turns >= 0]
            counts = np.bincount(turns)
            present = counts[counts > 0]
            if chi.is_principal:
                assert len(present) == 1 and present[0] == euler_phi(q)
            else:
                assert len(set(present)) == 1, (q, chi.label)
                order = len(present)
                assert sorted(np.flatnonzero(counts)) == [
                    j * chi.turn_denominator // order for j in range(order)
                ]


def test_periodicity_and_zero_pattern():
    for q in (7, 12, 16):
        for chi in build_character_group(q).characters():
            for k in range(q):
                assert chi(k) == chi(k + q) == chi(k - q)
                if math.gcd(k, q) > 1:
                    assert chi(k) == 0
                else:
                    assert abs(abs(chi(k)) - 1) < 1e-15


def test_parity_matches_value_at_minus_one():
    for q in (3, 4, 5, 8, 15, 16, 21):
        for chi in build_character_group(q).characters():
            # chi(-1) = chi(q-1) is exactly +1 (turn 0) or -1 (turn e/2)
            minus_one_turn = chi.turn(q - 1)
            if chi.parity is Parity.EVEN:
                assert minus_one_turn == 0
            else:
                assert minus_one_turn == Fraction(1, 2)


def test_conjugate_character():
    group = build_character_group(7)
    for chi in group.characters():
        conj = chi.conjugate()
        for k in range(7):
            assert abs(conj(k) - chi(k).conjugate()) < 1e-15
