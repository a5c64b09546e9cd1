"""Dirichlet characters modulo q with exact root-of-unity value tables.

A character value is stored as an exact "turn": an integer t meaning the value
exp(2*pi*i * t / e), where e is the exponent of the unit group (Z/qZ)*.  The
sentinel -1 marks residues with gcd(k, q) > 1, where the character vanishes.
All structural checks (multiplicativity, orthogonality, conductor) can
therefore be carried out in exact integer arithmetic; complex values are
materialized only when a sum has to be evaluated numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "Parity",
    "DirichletCharacter",
    "CharacterGroup",
    "build_character_group",
    "kronecker_symbol",
    "is_fundamental_discriminant",
    "fundamental_discriminants",
    "real_primitive_character",
    "MODULUS_CEILING",
]

# Full-group construction is O(phi(q) * q); intended desk scale is q <= 10^4.
MODULUS_CEILING = 10**6


class Parity(enum.Enum):
    EVEN = 1
    ODD = -1


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, multiplicity) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _is_squarefree(n: int) -> bool:
    return all(a == 1 for _, a in _factorize(abs(n)))


def euler_phi(n: int) -> int:
    result = n
    for p, _ in _factorize(n):
        result -= result // p
    return result


def _smallest_primitive_root(pk: int, p: int) -> int:
    """Smallest primitive root modulo the odd prime power pk = p**a."""
    phi = euler_phi(pk)
    prime_divs = [r for r, _ in _factorize(phi)]
    for g in range(2, pk):
        if g % p == 0:
            continue
        if all(pow(g, phi // r, pk) != 1 for r in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root modulo {pk}")


@dataclass(frozen=True)
class _UnitFactor:
    """One cyclic factor of (Z/qZ)*: modulus piece, generator, order, dlog table."""

    piece: int          # the prime power p**a this factor lives in
    generator: int      # generator residue, lifted mod q (== 1 mod all other pieces)
    order: int
    dlog: np.ndarray    # index r mod piece -> discrete log of r, -1 for non-units


def _dlog_table(piece: int, gen: int, order: int) -> np.ndarray:
    table = np.full(piece, -1, dtype=np.int64)
    x = 1
    for j in range(order):
        table[x] = j
        x = (x * gen) % piece
    return table


def _crt_lift(residue: int, piece: int, q: int) -> int:
    """Residue mod q that is `residue` mod piece and 1 mod q // piece."""
    other = q // piece
    if other == 1:
        return residue % q
    inv = pow(other % piece, -1, piece)
    return (1 + other * ((residue - 1) * inv % piece)) % q


def _unit_factors(q: int) -> list[_UnitFactor]:
    factors: list[_UnitFactor] = []
    for p, a in _factorize(q):
        piece = p**a
        if p == 2:
            if a == 1:
                continue  # (Z/2)* is trivial
            if a == 2:
                factors.append(_UnitFactor(4, _crt_lift(3, 4, q), 2, _dlog_table(4, 3, 2)))
            else:
                # (Z/2^a)* = <-1> x <5>: split dlogs onto the two generators
                half_order = 2 ** (a - 2)
                sign = np.full(piece, -1, dtype=np.int64)
                five = np.full(piece, -1, dtype=np.int64)
                x = 1
                for j in range(half_order):
                    sign[x], five[x] = 0, j
                    sign[piece - x], five[piece - x] = 1, j
                    x = (x * 5) % piece
                factors.append(_UnitFactor(piece, _crt_lift(piece - 1, piece, q), 2, sign))
                factors.append(_UnitFactor(piece, _crt_lift(5, piece, q), half_order, five))
        else:
            order = euler_phi(piece)
            g = _smallest_primitive_root(piece, p)
            factors.append(_UnitFactor(piece, _crt_lift(g, piece, q), order, _dlog_table(piece, g, order)))
    return factors


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """A Dirichlet character mod q as an exact value table plus metadata.

    ``turns[k]`` is the integer t with chi(k) = exp(2*pi*i*t/turn_denominator),
    or -1 when gcd(k, q) > 1 (chi(k) = 0).  For q = 1 the single slot k = 0
    carries the value 1.
    """

    modulus: int
    index: int
    exponents: tuple[int, ...]
    turn_denominator: int
    turns: np.ndarray = field(repr=False)
    conductor: int = field(default=0)
    parity: Parity = field(default=Parity.EVEN)
    is_real: bool = field(default=False)
    group: "CharacterGroup" = field(default=None, repr=False)  # type: ignore[assignment]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def label(self) -> str:
        """Stable identifier: modulus and index in group enumeration order."""
        return f"{self.modulus}.{self.index}"

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def is_even(self) -> bool:
        return self.parity is Parity.EVEN

    @property
    def is_odd(self) -> bool:
        return self.parity is Parity.ODD

    def turn(self, k: int) -> Fraction | None:
        """Exact angle of chi(k) as a fraction of a full turn, or None if chi(k) = 0."""
        t = int(self.turns[k % self.modulus])
        if t < 0:
            return None
        return Fraction(t, self.turn_denominator)

    def __call__(self, k: int) -> complex:
        t = int(self.turns[k % self.modulus])
        if t < 0:
            return 0j
        if self.is_real:
            return complex(1.0 if t == 0 else -1.0)
        angle = 2.0 * math.pi * t / self.turn_denominator
        return complex(math.cos(angle), math.sin(angle))

    def values_complex(self) -> np.ndarray:
        """Length-q complex table of chi(0..q-1).  Cached, read-only."""
        arr = self._cache.get("complex")
        if arr is None:
            mask = self.turns >= 0
            angles = 2.0 * np.pi * np.where(mask, self.turns, 0) / self.turn_denominator
            arr = np.where(mask, np.exp(1j * angles), 0.0)
            arr.flags.writeable = False
            self._cache["complex"] = arr
        return arr

    def values_real(self) -> np.ndarray:
        """Length-q real table; only valid for real characters."""
        if not self.is_real:
            raise ValueError(f"character {self.label} is not real-valued")
        arr = self._cache.get("real")
        if arr is None:
            arr = np.where(self.turns < 0, 0.0, np.where(self.turns == 0, 1.0, -1.0))
            arr.flags.writeable = False
            self._cache["real"] = arr
        return arr

    def conjugate(self) -> "DirichletCharacter":
        exps = tuple(
            (f.order - e) % f.order for f, e in zip(self.group._factors, self.exponents)
        )
        return self.group.character(exps)


class CharacterGroup:
    """The group of Dirichlet characters mod q, enumerated deterministically.

    Characters are indexed by their exponent vector on a fixed generator list
    (factors ordered 2-part first, then odd primes ascending; smallest
    primitive root per odd prime power, {-1, 5} for 2^a with a >= 3), sorted
    lexicographically.  Index 0 is always the principal character.
    """

    def __init__(self, q: int):
        if q < 1:
            raise ValueError(f"modulus must be a positive integer, got {q}")
        if q > MODULUS_CEILING:
            raise ValueError(f"modulus {q} exceeds the supported ceiling {MODULUS_CEILING}")
        self.modulus = q
        self._factors = _unit_factors(q)
        self.phi = euler_phi(q) if q > 1 else 1
        self.exponent = 1
        for f in self._factors:
            self.exponent = math.lcm(self.exponent, f.order)
        self.generators = [(f.generator, f.order) for f in self._factors]
        self._char_cache: dict[tuple[int, ...], DirichletCharacter] = {}
        # per-factor dlog tables lifted to index k mod q
        k = np.arange(q, dtype=np.int64)
        self._dlogs = [f.dlog[k % f.piece] for f in self._factors]
        self._unit_mask = np.gcd(k, q) == 1

    def __len__(self) -> int:
        return self.phi

    def index_of(self, exponents: tuple[int, ...]) -> int:
        idx = 0
        for f, e in zip(self._factors, exponents):
            idx = idx * f.order + e
        return idx

    def _exponents_at(self, index: int) -> tuple[int, ...]:
        exps = []
        for f in reversed(self._factors):
            exps.append(index % f.order)
            index //= f.order
        return tuple(reversed(exps))

    def character(self, exponents: tuple[int, ...]) -> DirichletCharacter:
        exponents = tuple(int(e) % f.order for f, e in zip(self._factors, exponents))
        cached = self._char_cache.get(exponents)
        if cached is not None:
            return cached
        q = self.modulus
        e = self.exponent
        turns = np.zeros(q, dtype=np.int64)
        for f, dlog, exp in zip(self._factors, self._dlogs, exponents):
            turns = (turns + exp * (e // f.order) * np.where(dlog >= 0, dlog, 0)) % e
        turns = np.where(self._unit_mask, turns, -1)
        turns.flags.writeable = False
        is_real = bool(np.all((turns <= 0) | (2 * turns == e)))
        parity = Parity.EVEN
        if q > 2 and turns[q - 1] != 0:
            parity = Parity.ODD
        chi = DirichletCharacter(
            modulus=q,
            index=self.index_of(exponents),
            exponents=exponents,
            turn_denominator=e,
            turns=turns,
            conductor=self._conductor(exponents),
            parity=parity,
            is_real=is_real,
            group=self,
        )
        self._char_cache[exponents] = chi
        return chi

    def character_by_index(self, index: int) -> DirichletCharacter:
        if not 0 <= index < self.phi:
            raise ValueError(f"character index {index} out of range for modulus {self.modulus}")
        return self.character(self._exponents_at(index))

    def characters(self) -> list[DirichletCharacter]:
        """All phi(q) characters in enumeration order."""
        return [self.character_by_index(i) for i in range(self.phi)]

    def primitive_characters(self) -> list[DirichletCharacter]:
        return [chi for chi in self.characters() if chi.is_primitive]

    def _conductor(self, exponents: tuple[int, ...]) -> int:
        """Conductor from the per-factor orders of the character components."""
        cond = 1
        i = 0
        factors = self._factors
        while i < len(factors):
            f = factors[i]
            if f.piece % 2 == 0 and f.order == 2 and i + 1 < len(factors) and factors[i + 1].piece == f.piece:
                # two-generator 2-part <-1> x <5>
                e_sign, e_five = exponents[i], exponents[i + 1]
                o5 = factors[i + 1].order // math.gcd(factors[i + 1].order, e_five) if e_five else 1
                if o5 > 1:
                    cond *= 4 * o5
                elif e_sign:
                    cond *= 4
                i += 2
                continue
            e = exponents[i]
            if e:
                o = f.order // math.gcd(f.order, e)
                p = _factorize(f.piece)[0][0]
                v = 0
                oo = o
                while oo % p == 0:
                    oo //= p
                    v += 1
                cond *= p ** (v + 1)
            i += 1
        return cond


@lru_cache(maxsize=256)
def build_character_group(q: int) -> CharacterGroup:
    """Construct the full character group mod q with all characters materialized.

    Deterministic ordering: characters sorted by exponent vector on the fixed
    canonical generators.  Raises ValueError for q < 1 or beyond the ceiling.
    """
    group = CharacterGroup(q)
    group.characters()
    return group


# --- Kronecker symbol and real primitive characters -------------------------

def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d/n), totally defined for all integers d, n.

    For a fundamental discriminant d, n -> (d/n) is the primitive real
    character of modulus |d|, even exactly when d > 0.
    """
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 0:
        k = 1
    else:
        k = 1 if d % 8 in (1, 7) else -1  # d odd here; (d/2) rule
    if n < 0:
        n = -n
        if d < 0:
            k = -k
    return k * _jacobi(d % n, n)


def is_fundamental_discriminant(d: int) -> bool:
    """True when d indexes a primitive real character of modulus |d|.

    The degenerate value d = 1 (trivial character mod 1) is excluded.
    """
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def fundamental_discriminants(max_abs: int, min_abs: int = 2) -> list[int]:
    """All fundamental discriminants with min_abs <= |d| <= max_abs, sorted by (|d|, sign)."""
    out = []
    for a in range(max(min_abs, 2), max_abs + 1):
        for d in (-a, a):
            if is_fundamental_discriminant(d):
                out.append(d)
    return out


@lru_cache(maxsize=32)
def real_primitive_character(d: int) -> DirichletCharacter:
    """The primitive real character mod |d| attached to a fundamental discriminant d.

    Parity is odd exactly when d < 0; values agree with kronecker_symbol(d, .).
    The last few characters are cached, so checks on one d share the character
    and its cached tau; the full group is not built or kept.
    """
    if d == 1:
        raise ValueError("d = 1 is excluded: it would give the trivial character mod 1")
    if d % 4 == 1:
        if not _is_squarefree(d):
            raise ValueError(f"{d} is not a fundamental discriminant: d = 1 mod 4 but not squarefree")
    elif d % 4 == 0:
        m = d // 4
        if m % 4 not in (2, 3):
            raise ValueError(f"{d} is not a fundamental discriminant: d/4 = {m} is not 2 or 3 mod 4")
        if not _is_squarefree(m):
            raise ValueError(f"{d} is not a fundamental discriminant: d/4 = {m} is not squarefree")
    else:
        raise ValueError(f"{d} is not a fundamental discriminant: d is not 1 mod 4 nor divisible by 4")

    q = abs(d)
    group = CharacterGroup(q)
    exps = []
    for gen, order in group.generators:
        v = kronecker_symbol(d, gen)
        if v == 1:
            exps.append(0)
        elif v == -1:
            if order % 2:
                raise ArithmeticError(f"inconsistent sign at generator {gen} mod {q}")
            exps.append(order // 2)
        else:
            raise ArithmeticError(f"generator {gen} not coprime to {q}")
    chi = group.character(tuple(exps))
    return chi
