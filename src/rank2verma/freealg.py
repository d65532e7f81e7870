"""Graded slices of the free algebra on the two lowering generators.

Words are tuples over {1, 2}, compared lexicographically with 1 < 2, and a
grade (g1, g2) counts occurrences of each letter.  The ideal slice spanned
by framed Serre relators, and the matrices whose kernels are asked for, go
through one exact core: sparse fraction-free elimination of integer rows.
Quotient bases and reductions are read off the reduced echelon form with
each row led at its lowest column.  Kernels take only the forward phase,
with each row led at its highest column (far fewer steps on e-action
matrices), and back-solve each free column in ints; the few vectors this
gives are brought to the lowest-lead normalization by the full form, and
are returned in integer form together with the rows that led the pivots,
which a caller may solve on alone at a later weight.  Pivot sets are
canonical, so all of these are deterministic and exact.
Slices grow like binomial(g1+g2, g1); the grade cap keeps accidental
blowups from hanging a run and can be raised through the VERMA_GRADE_CAP
environment variable.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

from .cartan import CartanData

Word = tuple[int, ...]

DEFAULT_GRADE_CAP = 14


class GradeCapExceeded(RuntimeError):
    pass


def grade_cap() -> int:
    raw = os.environ.get("VERMA_GRADE_CAP")
    if raw is None:
        return DEFAULT_GRADE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"VERMA_GRADE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("VERMA_GRADE_CAP must be >= 1")
    return cap


def check_grade(g1: int, g2: int) -> None:
    if g1 < 0 or g2 < 0:
        raise ValueError("grades must be nonnegative")
    cap = grade_cap()
    if g1 + g2 > cap:
        raise GradeCapExceeded(
            f"grade ({g1}, {g2}) exceeds the cap {cap}; "
            "set VERMA_GRADE_CAP to raise it"
        )


def word_grade(word: Word) -> tuple[int, int]:
    g1 = sum(1 for i in word if i == 1)
    return (g1, len(word) - g1)


def words_of_grade(g1: int, g2: int) -> list[Word]:
    """All words with the given letter counts, in lexicographic order."""
    length = g1 + g2
    out = []
    for positions in itertools.combinations(range(length), g2):
        w = [1] * length
        for pos in positions:
            w[pos] = 2
        out.append(tuple(w))
    out.sort()
    return out


_WORD_STR_CACHE: dict[Word, str] = {}  # word -> its display string


def word_str(word: Word) -> str:
    """Compressed display, e.g. (1,1,2) -> 'f1^2 f2', rendered once per word."""
    word = tuple(word)
    if word not in _WORD_STR_CACHE:
        runs = ((a, sum(1 for _ in run)) for a, run in itertools.groupby(word))
        _WORD_STR_CACHE[word] = " ".join(f"f{a}" if k == 1 else f"f{a}^{k}" for a, k in runs) or "1"
    return _WORD_STR_CACHE[word]


class FreeElement:
    """Finitely supported rational combination of words of one grade."""

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: dict[Word, Fraction] | None = None):
        self._ints: tuple[int, dict[Word, int]] | None = None
        self.coeffs: dict[Word, Fraction] = {}
        if coeffs:
            for w, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    self.coeffs[w] = c

    @classmethod
    def from_word(cls, word: Word, coeff: Fraction | int = 1) -> "FreeElement":
        return cls({word: Fraction(coeff)})

    @classmethod
    def _from_ints(cls, den: int, nums: dict[Word, int]) -> "FreeElement":
        """The element sum(nums[w]/den * w), keeping that integer form; den
        is positive and no numerator is zero.  `nums` is kept, not copied."""
        elem = cls.__new__(cls)
        elem.coeffs = {w: Fraction(v, den) for w, v in nums.items()}
        elem._ints = (den, nums)
        return elem

    def is_zero(self) -> bool:
        return not self.coeffs

    def integer_form(self) -> tuple[int, dict[Word, int]]:
        """(den, {word: numerator}): the form the element was built from by
        `_from_ints`, else one over the lcm of the denominators.  Equality,
        hash and display read only `coeffs`."""
        if self._ints is not None:
            return self._ints
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        return den, {w: c.numerator * (den // c.denominator) for w, c in self.coeffs.items()}

    def grade(self) -> tuple[int, int] | None:
        grades = {word_grade(w) for w in self.coeffs}
        if len(grades) > 1:
            raise ValueError("element mixes grades")
        return grades.pop() if grades else None

    def items(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.coeffs.items())

    def __add__(self, other: "FreeElement") -> "FreeElement":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return FreeElement(out)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-1) * other

    def __mul__(self, scalar) -> "FreeElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return FreeElement({w: c * scalar for w, c in self.coeffs.items()})

    __rmul__ = __mul__

    def framed(self, left: Word, right: Word) -> "FreeElement":
        """left * self * right with words acting by concatenation."""
        return FreeElement({left + w + right: c for w, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{word_str(w)}" for w, c in self.items())


def serre_element(which: int, cartan: CartanData) -> FreeElement:
    """(ad f_i)^{k+1} f_j expanded in the free algebra, with k = p for
    which = 1 and k = q for which = 2."""
    if which == 1:
        i, j, k = 1, 2, cartan.p
    elif which == 2:
        i, j, k = 2, 1, cartan.q
    else:
        raise ValueError("which must be 1 or 2")
    coeffs = {}
    for r in range(k + 2):
        w = (i,) * (k + 1 - r) + (j,) + (i,) * r
        coeffs[w] = Fraction((-1) ** r * math.comb(k + 1, r))
    return FreeElement(coeffs)


def serre_grade(which: int, cartan: CartanData) -> tuple[int, int]:
    if which == 1:
        return (cartan.p + 1, 1)
    if which == 2:
        return (1, cartan.q + 1)
    raise ValueError("which must be 1 or 2")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {j: a // g for j, a in row.items()}


def _integer_row(entries) -> dict[int, int]:
    """Sparse primitive integer row proportional to the (column, rational)
    pairs given: denominators cleared, content divided out, zeros dropped."""
    entries = [(j, v) for j, v in entries if v]
    if not entries:
        return {}
    den = math.lcm(*(v.denominator for _, v in entries))
    return _primitive({j: v.numerator * (den // v.denominator) for j, v in entries})


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """The primitive integer combination of row and prow that is 0 at col."""
    a, b = prow[col], row[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in prow.items():
        x = out.get(j, 0) - b * v
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out) if out else out


def _forward(rows) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """Row echelon form of sparse integer rows, fraction-free, and for each
    lead the index of the input row stored there.

    Rows stay integer: each step cross-multiplies two rows so that one
    column cancels, then divides out the content (integer-preserving
    elimination in the sense of Bareiss 1968, with the content in place of
    his exact divisor).  Rows go in sparsest first, which keeps fill-in
    down; a row is eliminated at its lowest column while that column leads
    a stored row, and is stored under it as {lead: primitive integer row}
    otherwise, or dropped when it vanishes.  A stored row is its input row
    less earlier stored rows, so the input rows stored are independent over
    Q and span the rest.
    """
    pivots: dict[int, dict[int, int]] = {}
    origin: dict[int, int] = {}
    for k, row in sorted(enumerate(rows), key=lambda kr: len(kr[1])):
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                origin[lead] = k
                break
            row = _eliminate(row, prow, lead)
    return pivots, origin


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Reduced row echelon form: `_forward`, then, from the highest lead
    down, each stored row cleared at the other leads.  Each row is its
    lead's reduced row echelon row up to a scalar, so the leads (the pivot
    columns) and everything read off the rows do not depend on row order.
    """
    pivots = _forward(rows)[0]
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        # the rows led by higher columns are already cleared, so removing
        # one of their leads here brings in no other lead
        for col in [j for j in row if j != lead and j in pivots]:
            row = _eliminate(row, pivots[col], col)
        pivots[lead] = row
    return pivots


def kernel_basis(rows: list[dict[int, int]], ncols: int) -> tuple[list[tuple[int, list[int]]], list[int]]:
    """Basis of the right kernel of the matrix of sparse {column: nonzero
    int} rows, and the indices, in increasing order, of the rows that lead
    its pivots: they are independent over Q and span the others.

    There is one vector per free column, with a 1 in its free coordinate
    and 0 in the other free coordinates, which fixes it uniquely.  Each is
    given in integer form (den, nums): den > 0 and a dense list of ints
    with nums[j] / den the vector's j-th entry, in lowest terms overall.

    The free columns are those of the reduced echelon form with rows led
    at their lowest column, so each basis vector ends at its free column.
    The elimination leads each row at its highest column instead, by
    feeding `_forward` the columns relabelled j -> ncols - 1 - j (far fewer
    steps on e-action matrices), and each free column is back-substituted
    through its rows in ints.  `_echelon`, relabelled the same way, brings
    those few vectors to the normalization above: each led at its highest
    column and scaled to lead 1.
    """
    last = ncols - 1
    pivots, origin = _forward([{last - j: v for j, v in _primitive(row).items()} for row in rows])
    kernel = []
    for free in (j for j in range(ncols) if j not in pivots):
        # 1 at the free column, 0 at the others, and from the highest lead
        # down each lead below it solved from its row, kept integral
        vec = [0] * ncols
        vec[free] = 1
        for lead in sorted((j for j in pivots if j < free), reverse=True):
            prow = pivots[lead]
            s = sum(v * vec[j] for j, v in prow.items())
            if s:
                d = prow[lead]
                g = math.gcd(s, d)
                if g != d:
                    vec[lead:free + 1] = [d // g * v for v in vec[lead:free + 1]]
                vec[lead] = -s // g
        kernel.append(_primitive({j: v for j, v in enumerate(vec) if v}))
    basis = []
    for lead, row in sorted(_echelon(kernel).items(), reverse=True):
        # the row is primitive, so its lead is the least common denominator
        sign = 1 if row[lead] > 0 else -1
        nums = [0] * ncols
        for j, v in row.items():
            nums[last - j] = sign * v
        basis.append((sign * row[lead], nums))
    return basis, sorted(origin.values())


class GradedQuotient:
    """One grade of the free algebra modulo the framed Serre relators.

    `words` lists the full monomial basis, `basis_words` the surviving
    quotient basis (the columns of the ideal slice that lead no echelon row)
    and `basis_index` the position of each basis word.
    """

    def __init__(self, g1: int, g2: int, cartan: CartanData):
        check_grade(g1, g2)
        self.grade = (g1, g2)
        self.cartan = cartan
        self.words = words_of_grade(g1, g2)
        self.index = {w: k for k, w in enumerate(self.words)}
        self._pivots = _echelon(
            _integer_row((self.index[w], c) for w, c in el.coeffs.items())
            for el in self._ideal_elements(g1, g2, cartan)
        )
        self.basis_words = [w for k, w in enumerate(self.words) if k not in self._pivots]
        self.basis_index = {w: k for k, w in enumerate(self.basis_words)}

    @staticmethod
    def _ideal_elements(g1: int, g2: int, cartan: CartanData) -> list[FreeElement]:
        out = []
        for which in (1, 2):
            s1, s2 = serre_grade(which, cartan)
            if s1 > g1 or s2 > g2:
                continue
            rel = serre_element(which, cartan)
            for l1 in range(g1 - s1 + 1):
                for l2 in range(g2 - s2 + 1):
                    r1, r2 = g1 - s1 - l1, g2 - s2 - l2
                    for lw in words_of_grade(l1, l2):
                        for rw in words_of_grade(r1, r2):
                            out.append(rel.framed(lw, rw))
        return out

    @property
    def dim(self) -> int:
        return len(self.basis_words)

    def reduce(self, elem: FreeElement) -> dict[Word, Fraction]:
        """Coordinates of the element's image on the quotient basis: each
        word at a pivot column is replaced by its row's other columns, which
        are all basis words."""
        out: dict[int, Fraction] = {}
        for w, c in elem.coeffs.items():
            col = self.index[w]
            prow = self._pivots.get(col)
            if prow is None:
                out[col] = out.get(col, 0) + c
                continue
            f = c / prow[col]
            for j, a in prow.items():
                if j != col:
                    out[j] = out.get(j, 0) - f * a
        return {self.words[k]: c for k, c in sorted(out.items()) if c}

    def in_ideal(self, elem: FreeElement) -> bool:
        return not self.reduce(elem)


_QUOTIENT_CACHE: dict[tuple[int, int, int, int], GradedQuotient] = {}


def graded_quotient(g1: int, g2: int, cartan: CartanData) -> GradedQuotient:
    key = (cartan.p, cartan.q, g1, g2)
    if key not in _QUOTIENT_CACHE:
        _QUOTIENT_CACHE[key] = GradedQuotient(g1, g2, cartan)
    return _QUOTIENT_CACHE[key]
