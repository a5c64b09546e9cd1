"""Dirichlet characters modulo q with exact root-of-unity value tables.

A character value is stored as an exact "turn": an integer t meaning the value
exp(2*pi*i * t / e), where e is the exponent of the unit group (Z/qZ)*.  The
sentinel -1 marks residues with gcd(k, q) > 1, where the character vanishes.
Multiplicativity and orthogonality can therefore be checked in exact integer
arithmetic; complex tables are gathered from the group's roots of unity and
not kept.  A character's structure is read from its exponent vector on the
cyclic factors of (Z/qZ)*: the conductor is the lcm of one conductor per
factor, realness is an exponent test, and parity is the turn at k = q - 1, so
no fact needs a scan of the table.  The same discrete logs lay (Z/qZ)* out as
a tensor with one axis per cyclic factor, on which sum_k chi(k) h[k] for
every character of the group at once is one multidimensional FFT of h
(CharacterGroup.transform).  Each command runs one modulus, so only the last
group and the last real character are cached.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import fftn, ifftn

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

MODULUS_CEILING = 10**6  # one character's table is O(q)
# Full-group construction is O(phi(q) * q): int64 turns are 0.8 GB near 10^4; q = 9973 peaks at 810 MiB.
_GROUP_CEILING = 10**4


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
    """One cyclic factor of (Z/qZ)*: modulus piece, generator, order, conductor base, dlog table."""

    piece: int          # the prime power p**a this factor lives in
    generator: int      # generator residue, lifted mod q (== 1 mod all other pieces)
    order: int
    base: int           # p for an odd p**a; 2 for the factor holding -1 mod 2**a; 4 for <5>
    dlog: np.ndarray    # index r mod piece -> discrete log of r, -1 for non-units

    def conductor(self, exponent: int) -> int:
        """Conductor of the character with this exponent here and 0 on every other factor.

        A character of order o > 1 on the factor has conductor base * gcd(o, piece):
        p**(v+1) for an odd prime power when p**v || o, 4 on the factor holding
        -1, and 2**(v+2) for order 2**v on <5>.
        """
        o = self.order // math.gcd(exponent, self.order)
        return 1 if o == 1 else self.base * math.gcd(o, self.piece)


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
                factors.append(_UnitFactor(4, _crt_lift(3, 4, q), 2, 2, _dlog_table(4, 3, 2)))
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
                factors.append(_UnitFactor(piece, _crt_lift(piece - 1, piece, q), 2, 2, sign))
                factors.append(_UnitFactor(piece, _crt_lift(5, piece, q), half_order, 4, five))
        else:
            order = euler_phi(piece)
            g = _smallest_primitive_root(piece, p)
            factors.append(_UnitFactor(piece, _crt_lift(g, piece, q), order, p, _dlog_table(piece, g, order)))
    return factors


@dataclass(frozen=True, eq=False)
class DirichletCharacter:
    """A Dirichlet character mod q as an exact value table plus metadata.

    ``turns[k]`` is the integer t with chi(k) = exp(2*pi*i*t/turn_denominator),
    or -1 when gcd(k, q) > 1 (chi(k) = 0).  For q = 1 the single slot k = 0
    carries the value 1.  Built only by `CharacterGroup.character`, which
    reads conductor, parity and realness from the exponent vector.
    """

    modulus: int
    index: int
    exponents: tuple[int, ...]
    turn_denominator: int
    turns: np.ndarray = field(repr=False)
    conductor: int
    parity: Parity
    is_real: bool
    group: "CharacterGroup" = field(repr=False)
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
        """Length-q complex table of chi(0..q-1), gathered from the group's roots.  Not cached."""
        arr = self.group.roots[self.turns]  # turn -1 gathers the trailing 0
        arr.flags.writeable = False
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

    def values(self) -> np.ndarray:
        """chi(0..q-1): the cached real table for a real chi, else the complex one."""
        if self.is_real:
            return self.values_real()
        return self.values_complex()

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
        orders = [f.order for f in self._factors]
        self.phi = math.prod(orders)
        self.exponent = math.lcm(*orders)
        self._char_cache: dict[tuple[int, ...], DirichletCharacter] = {}
        # per-factor dlog tables lifted to index k mod q
        k = np.arange(q, dtype=np.int64)
        self._dlogs = [f.dlog[k % f.piece] for f in self._factors]
        self._unit_mask = np.gcd(k, q) == 1

    def __len__(self) -> int:
        return self.phi

    @cached_property
    def roots(self) -> np.ndarray:
        """exp(2 pi i j / e) for j = 0..e-1 (e the group exponent), then the 0 that turn -1 gathers; read-only."""
        roots = np.append(np.exp(1j * (2.0 * np.pi * np.arange(self.exponent) / self.exponent)), 0.0)
        roots.flags.writeable = False
        return roots

    @cached_property
    def twiddles(self) -> np.ndarray:
        """e(k/q) = exp(2 pi i k / q) for k = 0..q-1, 16q bytes; read-only, shared by the group's Gauss sums."""
        twiddles = np.exp(1j * (2.0 * np.pi * np.arange(self.modulus) / self.modulus))
        twiddles.flags.writeable = False
        return twiddles

    @cached_property
    def _dlog_order(self) -> np.ndarray:
        """The unit k at each entry of the dlog tensor of shape (order_1, ..., order_r),
        flattened in C order: entry (m_1, ..., m_r) holds the k whose discrete
        log on factor i is m_i.  8 phi bytes, read-only."""
        units = np.flatnonzero(self._unit_mask)
        position = np.zeros(len(units), dtype=np.int64)
        for f, dlog in zip(self._factors, self._dlogs):
            position = position * f.order + dlog[units]
        residues = np.empty(self.phi, dtype=np.int64)
        residues[position] = units
        residues.flags.writeable = False
        return residues

    def transform(self, h: np.ndarray, conjugate: bool = False) -> np.ndarray:
        """sum_k chi(k) h[k] (conj(chi)(k) h[k] when `conjugate`) for every
        character, in index_of order, from one FFT of the length-q table h.

        chi(k) = e(sum_i e_i m_i/order_i) for the exponents e_i of chi and the
        discrete logs m_i of k, so laid out on the tensor of dlogs (one axis
        per cyclic factor; Rader's reindexing for a prime q) the sums are the
        unnormalized inverse DFT of h (ifftn, norm "forward"), and their
        conjugates the forward one (fftn).  Entries of h at k with
        gcd(k, q) > 1 are not read.

        Rounding: Higham (Accuracy and Stability of Numerical Algorithms, 2nd
        ed., Theorem 24.2) bounds a computed FFT y' of x by
        |y' - y|_2 <= eps |y|_2 with eps = t eta/(1 - t eta),
        eta = u + gamma_4 (sqrt(2) + u) for twiddles within u, u = 2^-53 and t
        butterfly levels, here t = sum_i ceil(log2 order_i).  With
        |y|_2 = sqrt(phi) |x|_2 (Parseval), each entry, and each of its real
        and imaginary parts, is within eps sqrt(phi) |h|_2 of the exact sum
        (|h|_2 over the units), which is at least u log2(phi) sum |h|.  The
        theorem is proved for radix 2; NumPy's pocketfft also takes other
        radices and Bluestein's algorithm, where the bound is the model that
        the tests check against 40-digit sums.
        """
        shape = tuple(f.order for f in self._factors) or (1,)
        tensor = np.asarray(h)[self._dlog_order].reshape(shape)
        sums = fftn(tensor) if conjugate else ifftn(tensor, norm="forward")
        return sums.reshape(-1)

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
        if len(exponents) != len(self._factors):
            raise ValueError(
                f"modulus {self.modulus} has {len(self._factors)} cyclic factors, "
                f"got {len(exponents)} exponents"
            )
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
        chi = DirichletCharacter(
            modulus=q,
            index=self.index_of(exponents),
            exponents=exponents,
            turn_denominator=e,
            turns=turns,
            conductor=math.lcm(*(f.conductor(exp) for f, exp in zip(self._factors, exponents))),
            parity=Parity.ODD if turns[q - 1] != 0 else Parity.EVEN,
            is_real=all(2 * exp % f.order == 0 for f, exp in zip(self._factors, exponents)),
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


_held_group: list[CharacterGroup] = []  # the last full group, at most one


def build_character_group(q: int) -> CharacterGroup:
    """Construct the full character group mod q with all characters materialized.

    Deterministic ordering: characters sorted by exponent vector on the fixed
    canonical generators.  Each character costs one O(q) turn table; its
    conductor, parity and realness are O(number of factors) on top.  Raises
    ValueError for q < 1 or q > 10^4 (before any table is built).  Only the
    last group is kept: a group near the ceiling holds 0.8 GB of turns, and
    every command runs one modulus.  The group it replaces is released
    (build_character_group.cache_clear) before the new characters are built.
    """
    if _held_group and _held_group[0].modulus == q:
        return _held_group[0]
    if q > _GROUP_CEILING:
        raise ValueError(f"modulus {q} exceeds {_GROUP_CEILING}, the ceiling for a full character group")
    group = CharacterGroup(q)
    _release_group()
    group.characters()
    _held_group.append(group)
    return group


def _release_group() -> None:
    """Drop the held group and empty its character cache.  The cache and the
    characters' `group` field form a cycle; breaking it frees a group that
    nothing else holds at once, not at the next full collection.  A caller
    still holding the group gets its characters rebuilt on demand."""
    if _held_group:
        _held_group.pop()._char_cache.clear()


build_character_group.cache_clear = _release_group  # the name functools.lru_cache gives it


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


def _not_fundamental_reason(d: int) -> str | None:
    """Why d is not a fundamental discriminant, or None when it is one."""
    if d == 1:
        return "d = 1 is excluded: it would give the trivial character mod 1"
    if d % 4 == 1:
        if not _is_squarefree(d):
            return f"{d} is not a fundamental discriminant: d = 1 mod 4 but not squarefree"
    elif d % 4 == 0:
        m = d // 4
        if m % 4 not in (2, 3):
            return f"{d} is not a fundamental discriminant: d/4 = {m} is not 2 or 3 mod 4"
        if not _is_squarefree(m):
            return f"{d} is not a fundamental discriminant: d/4 = {m} is not squarefree"
    else:
        return f"{d} is not a fundamental discriminant: d is not 1 mod 4 nor divisible by 4"
    return None


def is_fundamental_discriminant(d: int) -> bool:
    """True when d indexes a primitive real character of modulus |d|.

    The degenerate value d = 1 (trivial character mod 1) is excluded.
    """
    return _not_fundamental_reason(d) is None


def fundamental_discriminants(max_abs: int, min_abs: int = 2) -> list[int]:
    """All fundamental discriminants with min_abs <= |d| <= max_abs, sorted by (|d|, sign)."""
    out = []
    for a in range(max(min_abs, 2), max_abs + 1):
        for d in (-a, a):
            if is_fundamental_discriminant(d):
                out.append(d)
    return out


@lru_cache(maxsize=1)
def real_primitive_character(d: int) -> DirichletCharacter:
    """The primitive real character mod |d| attached to a fundamental discriminant d.

    Parity is odd exactly when d < 0; values agree with kronecker_symbol(d, .).
    The last character is cached, so the checks on one d, which run in a row,
    share the character and its cached tau; the full group is not built or
    kept.  The group holds the character weakly (no cycle), so a replaced
    character frees its group's tables at once, not at a full collection.
    """
    reason = _not_fundamental_reason(d)
    if reason is not None:
        raise ValueError(reason)

    q = abs(d)
    group = CharacterGroup(q)
    exps = []
    for f in group._factors:
        v = kronecker_symbol(d, f.generator)
        if v == 1:
            exps.append(0)
        elif v == -1:
            if f.order % 2:
                raise ArithmeticError(f"inconsistent sign at generator {f.generator} mod {q}")
            exps.append(f.order // 2)
        else:
            raise ArithmeticError(f"generator {f.generator} not coprime to {q}")
    chi = group.character(tuple(exps))
    group._char_cache = weakref.WeakValueDictionary(group._char_cache)
    return chi
