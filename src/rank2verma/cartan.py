"""Rank-2 Cartan data, root sequences, Weyl reflections and orbits.

The algebra is parameterized by a pair of positive integers (p, q) with
pq >= 4, Cartan matrix a11 = a22 = 2, a12 = -p, a21 = -q.  The simple-root
orbits are governed by the sequence a_0 = 0, a_1 = 1, a_n = s*a_{n-1} -
a_{n-2} with s^2 = pq.  Odd-index terms are integers; even-index terms are
integer multiples of s, kept exact through the parity-split sequences

    c_n = a_{2n+1},   d_n = sigma * a_{2n},   e_n = sigma^{-1} * a_{2n},

where sigma^2 = q/p.  All three satisfy X_{n+1} = (pq-2) X_n - X_{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class FiniteTypeError(ValueError):
    """Raised for pq <= 3, where the algebra is finite-dimensional."""


@dataclass(frozen=True)
class CartanData:
    """The pair (p, q) with p, q >= 1 and pq >= 4."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("p and q must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")
        if self.p * self.q < 4:
            raise FiniteTypeError(f"pq = {self.p * self.q} < 4 is finite-dimensional")

    @property
    def pq(self) -> int:
        return self.p * self.q


@dataclass(frozen=True)
class RootVector:
    """Integer lattice point k1*alpha1 + k2*alpha2."""

    k1: int
    k2: int

    def curve_value(self, cartan: CartanData) -> int:
        """q*k1^2 - pq*k1*k2 + p*k2^2, the reflection-invariant quadratic."""
        p, q = cartan.p, cartan.q
        return q * self.k1 * self.k1 - p * q * self.k1 * self.k2 + p * self.k2 * self.k2

    def scaled(self, m: int) -> "RootVector":
        return RootVector(m * self.k1, m * self.k2)

    def as_pair(self) -> tuple[int, int]:
        return (self.k1, self.k2)


@dataclass(frozen=True)
class ReflectionWord:
    """Alternating word S_i(count): begins and ends with s_i, 2*count-1 letters."""

    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start not in (1, 2):
            raise ValueError("start must be 1 or 2")
        if self.count < 1:
            raise ValueError("count must be positive")

    @property
    def letters(self) -> tuple[int, ...]:
        """Letters right to left: letters[0] is the first reflection applied."""
        other = 3 - self.start
        return tuple(self.start if j % 2 == 0 else other for j in range(2 * self.count - 1))

    def __len__(self) -> int:
        return 2 * self.count - 1

    def __str__(self) -> str:
        # displayed left to right, composition order
        return " ".join(f"s{i}" for i in reversed(self.letters))


class SequenceTable:
    """Parity-split values of a_n for one (p, q), extended on demand."""

    def __init__(self, cartan: CartanData):
        self.cartan = cartan
        pq = cartan.pq
        self._c = [1, pq - 1]
        self._d = [0, cartan.q]
        self._e = [0, cartan.p]

    def _extend(self, seq: list[int], n: int) -> None:
        coef = self.cartan.pq - 2
        while len(seq) <= n:
            seq.append(coef * seq[-1] - seq[-2])

    def c(self, n: int) -> int:
        """a_{2n+1} as an exact integer."""
        if n < 0:
            raise ValueError("index must be >= 0")
        self._extend(self._c, n)
        return self._c[n]

    def d(self, n: int) -> int:
        """sigma * a_{2n} as an exact integer (a multiple of q)."""
        if n < 0:
            raise ValueError("index must be >= 0")
        self._extend(self._d, n)
        return self._d[n]

    def e(self, n: int) -> int:
        """sigma^{-1} * a_{2n} as an exact integer (a multiple of p)."""
        if n < 0:
            raise ValueError("index must be >= 0")
        self._extend(self._e, n)
        return self._e[n]


def seq_a(n: int, cartan: CartanData) -> int | tuple[int, int]:
    """a_n in parity-split form.

    Odd n: the integer a_n itself.  Even n: the pair (d_{n/2}, e_{n/2}) of
    sigma-scaled variants, since a_n itself is irrational for pq > 4.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    table = SequenceTable(cartan)
    if n % 2 == 1:
        return table.c((n - 1) // 2)
    return (table.d(n // 2), table.e(n // 2))


def seq_a_closed_form(n: int, cartan: CartanData) -> float:
    """Floating a_n = (phi^n - psi^n)/sqrt(pq-4), phi,psi = (sqrt(pq) +- sqrt(pq-4))/2.

    Defined only for pq > 4; the surd vanishes at pq = 4.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    pq = cartan.pq
    if pq == 4:
        raise ValueError("closed form degenerates at pq = 4")
    root = math.sqrt(pq - 4)
    phi = (math.sqrt(pq) + root) / 2
    psi = (math.sqrt(pq) - root) / 2
    return (phi**n - psi**n) / root


def seq_a_surd(n: int, cartan: CartanData) -> float:
    """Reference value of a_n as a float from the exact parity-split integers."""
    if n % 2 == 1:
        return float(seq_a(n, cartan))
    d = SequenceTable(cartan).d(n // 2)
    return d * math.sqrt(Fraction(cartan.p, cartan.q))


def reflect(point: RootVector, i: int, cartan: CartanData) -> RootVector:
    """Simple reflection s_i extended linearly from
    s1(a1) = -a1, s1(a2) = p*a1 + a2, s2(a1) = a1 + q*a2, s2(a2) = -a2.
    """
    if i == 1:
        return RootVector(-point.k1 + cartan.p * point.k2, point.k2)
    if i == 2:
        return RootVector(point.k1, cartan.q * point.k1 - point.k2)
    raise ValueError("generator index must be 1 or 2")


def apply_word(word: ReflectionWord, point: RootVector, cartan: CartanData) -> RootVector:
    """Apply the composition: letters[0] first."""
    for i in word.letters:
        point = reflect(point, i, cartan)
    return point


# Orbit family labels follow the order of the closed-form exponent cases:
# family 1: (a_{2n-1}, sigma a_{2n-2}) = (c_{n-1}, d_{n-1})
# family 2: (a_{2n-1}, sigma a_{2n})   = (c_{n-1}, d_n)
# family 3: (sigma^{-1} a_{2n-2}, a_{2n-1}) = (e_{n-1}, c_{n-1})
# family 4: (sigma^{-1} a_{2n},   a_{2n-1}) = (e_n,     c_{n-1})
FAMILY_SEED = {1: RootVector(1, 0), 2: RootVector(1, 0), 3: RootVector(0, 1), 4: RootVector(0, 1)}


def family_root(case: int, n: int, cartan: CartanData) -> RootVector:
    """The n-th root of one of the four orbit families (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = SequenceTable(cartan)
    if case == 1:
        return RootVector(table.c(n - 1), table.d(n - 1))
    if case == 2:
        return RootVector(table.c(n - 1), table.d(n))
    if case == 3:
        return RootVector(table.e(n - 1), table.c(n - 1))
    if case == 4:
        return RootVector(table.e(n), table.c(n - 1))
    raise ValueError("case must be 1, 2, 3, or 4")


@dataclass(frozen=True)
class OrbitPoint:
    point: RootVector
    case: int
    n: int
    word: ReflectionWord


def orbit(start: RootVector, depth: int, cartan: CartanData) -> list[OrbitPoint]:
    """First `depth` points of the positive half-orbit of (1,0) or (0,1).

    The chain alternates the two families of the seed: for (1,0) it is
    (c_{n-1}, d_{n-1}), (c_{n-1}, d_n), (c_n, d_n), ...; for (0,1) it is
    (e_{n-1}, c_{n-1}), (e_n, c_{n-1}), (e_n, c_n), ...
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if start.as_pair() == (1, 0):
        cases = (1, 2)
    elif start.as_pair() == (0, 1):
        cases = (3, 4)
    else:
        raise ValueError("start must be the root (1,0) or (0,1)")
    points = []
    for j in range(depth):
        case = cases[j % 2]
        n = j // 2 + 1
        pt = family_root(case, n, cartan)
        points.append(OrbitPoint(pt, case, n, reflection_word(pt, cartan)))
    return points


def identify_family(point: RootVector, cartan: CartanData) -> tuple[int, int]:
    """Return (case, n) such that point = family_root(case, n), or raise."""
    k1, k2 = point.k1, point.k2
    if k1 < 0 or k2 < 0 or (k1, k2) == (0, 0):
        raise ValueError(f"{point} is not on a positive half-orbit")
    table = SequenceTable(cartan)
    n = 1
    while True:
        candidates = {
            (table.c(n - 1), table.d(n - 1)): (1, n),
            (table.c(n - 1), table.d(n)): (2, n),
            (table.e(n - 1), table.c(n - 1)): (3, n),
            (table.e(n), table.c(n - 1)): (4, n),
        }
        if (k1, k2) in candidates:
            return candidates[(k1, k2)]
        # every level-n family pair contains c_{n-1}, and c is increasing
        if table.c(n - 1) > max(k1, k2):
            raise ValueError(f"{point} is not on the orbit of (1,0) or (0,1)")
        n += 1


def reflection_word(point: RootVector, cartan: CartanData) -> ReflectionWord:
    """Decomposition of the reflection about an orbit point, whose family
    identify_family finds."""
    return word_for_family(*identify_family(point, cartan))


def word_for_family(case: int, n: int) -> ReflectionWord:
    """Reflection word of family_root(case, n): family 1 -> S1(2n-1),
    family 2 -> S2(2n), family 3 -> S2(2n-1), family 4 -> S1(2n)."""
    if case == 1:
        return ReflectionWord(1, 2 * n - 1)
    if case == 2:
        return ReflectionWord(2, 2 * n)
    if case == 3:
        return ReflectionWord(2, 2 * n - 1)
    if case == 4:
        return ReflectionWord(1, 2 * n)
    raise ValueError("case must be 1, 2, 3, or 4")
