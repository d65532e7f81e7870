"""Graded slices of the free algebra on the two lowering generators.

Words are tuples over {1, 2}, compared lexicographically with 1 < 2, and a
grade (g1, g2) counts occurrences of each letter.  `IntegerForm` is the
number format of free and PBW elements: one positive denominator and an
integer numerator per key, with the Fraction coefficients built only when
they are read; `FreeElement` is that form over words, and `_fraction_str`
renders one coefficient of such a form as `Fraction` does.
The ideal slice spanned by framed Serre relators, and the matrices whose
kernels are asked for, go through one exact core: sparse fraction-free
elimination of integer rows.  Quotient bases and reductions are read off
the reduced echelon form with each row led at its lowest column; a
reduction runs in ints and only its result is in Fractions.  Kernels take
only the forward phase, with each row led at its highest column (far fewer
steps on e-action matrices), and back-solve each free column in ints; the
few vectors this gives are brought to the lowest-lead normalization by the
full form, and are returned in integer form together with the rows that
led the pivots, which a caller may solve on alone at a later weight.  Pivot
sets are canonical, so all of these are deterministic and exact.
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


def _fraction_str(num: int, den: int) -> str:
    """The text of Fraction(num, den), den > 0, as `Fraction.__str__` gives
    it, with one gcd and no Fraction built."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class IntegerForm:
    """Finitely supported rational combination of keys, the number format
    shared by free and PBW elements.

    The value is held as an integer form (den, {key: numerator}) with
    den > 0 and no zero numerator; `coeffs` is its Fraction dict, built the
    first time it is read.  Arithmetic, equality and display read only the
    integer form, which need not be reduced; the display text is rendered
    once per element.  Operands of another class make the operators return
    NotImplemented.  A subclass names its key renderer `_key_str`; its
    `_space` are the arguments that `_from_ints` takes before den (the
    target of a PBW element), which two operands must share.
    """

    __slots__ = ("_ints", "_coeffs", "_text")

    def __init__(self, coeffs: dict | None = None):
        self._coeffs = {}
        self._text = None
        if coeffs:
            for k, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    self._coeffs[k] = c
        den = math.lcm(*(c.denominator for c in self._coeffs.values()))
        self._ints = (den, {k: c.numerator * (den // c.denominator) for k, c in self._coeffs.items()})

    @classmethod
    def _from_ints(cls, den: int, nums: dict):
        """The element sum(nums[k]/den * k), without building a Fraction; den
        is positive and no numerator is zero.  `nums` is kept, not copied."""
        elem = cls.__new__(cls)
        elem._ints = (den, nums)
        elem._coeffs = elem._text = None
        return elem

    def _space(self) -> tuple:
        return ()

    def _peer(self, other) -> bool:
        """Whether other is an operand of this element's class; one in
        another space raises ValueError."""
        if type(other) is not type(self):
            return False
        if other._space() != self._space():
            raise ValueError("mixed targets")
        return True

    def integer_form(self) -> tuple[int, dict]:
        """(den, {key: numerator}), possibly unreduced; shared with the
        element, so nothing may mutate it."""
        return self._ints

    @property
    def coeffs(self) -> dict:
        """{key: Fraction}, built from the integer form once."""
        if self._coeffs is None:
            den, nums = self._ints
            self._coeffs = {k: Fraction(v, den) for k, v in nums.items()}
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._ints[1]

    def items(self) -> list[tuple]:
        return sorted(self.coeffs.items())

    def _add(self, other, sign: int):
        if not self._peer(other):
            return NotImplemented
        (d1, n1), (d2, n2) = self._ints, other._ints
        den = math.lcm(d1, d2)
        s1, s2 = den // d1, sign * (den // d2)
        out = {k: v * s1 for k, v in n1.items()}
        for k, v in n2.items():
            out[k] = out.get(k, 0) + v * s2
        return self._from_ints(*self._space(), den, {k: v for k, v in out.items() if v})

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        den, nums = self._ints
        a = scalar.numerator
        nums = {k: v * a for k, v in nums.items()} if a else {}
        return self._from_ints(*self._space(), den * scalar.denominator, nums)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other._space() != self._space():
            return False
        (d1, n1), (d2, n2) = self._ints, other._ints
        # n1[k]/d1 == n2[k]/d2 at every k, cross-multiplied
        return n1.keys() == n2.keys() and all(v * d2 == n2[k] * d1 for k, v in n1.items())

    def __hash__(self):
        return hash((self._space(), frozenset(self.coeffs.items())))

    def _zero_text(self) -> str:
        return "0"

    def __repr__(self):
        if self._text is None:
            den, nums = self._ints
            key_str = self._key_str
            self._text = " + ".join(f"({_fraction_str(nums[k], den)})*{key_str(k)}" for k in sorted(nums)) or self._zero_text()
        return self._text


class FreeElement(IntegerForm):
    """Finitely supported rational combination of words of one grade, an
    integer form keyed by words."""

    __slots__ = ()

    _key_str = staticmethod(word_str)

    @classmethod
    def from_word(cls, word: Word, coeff: Fraction | int = 1) -> "FreeElement":
        return cls._from_ints(coeff.denominator, {word: coeff.numerator} if coeff else {})

    def grade(self) -> tuple[int, int] | None:
        grades = {word_grade(w) for w in self._ints[1]}
        if len(grades) > 1:
            raise ValueError("element mixes grades")
        return grades.pop() if grades else None

    def framed(self, left: Word, right: Word) -> "FreeElement":
        """left * self * right with words acting by concatenation."""
        den, nums = self._ints
        return FreeElement._from_ints(den, {left + w + right: v for w, v in nums.items()})


def serre_element(which: int, cartan: CartanData) -> FreeElement:
    """(ad f_i)^{k+1} f_j expanded in the free algebra, with k = p for
    which = 1 and k = q for which = 2."""
    if which == 1:
        i, j, k = 1, 2, cartan.p
    elif which == 2:
        i, j, k = 2, 1, cartan.q
    else:
        raise ValueError("which must be 1 or 2")
    nums = {}
    for r in range(k + 2):
        w = (i,) * (k + 1 - r) + (j,) + (i,) * r
        nums[w] = (-1) ** r * math.comb(k + 1, r)
    return FreeElement._from_ints(1, nums)


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
            _primitive({self.index[w]: v for w, v in el.integer_form()[1].items()})
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
        are all basis words.  Worked in ints over den * L, with den the
        element's denominator and L the lcm of the pivot leads it hits."""
        den, nums = elem.integer_form()
        pivots, index = self._pivots, self.index
        hits = [(index[w], v) for w, v in nums.items()]
        scale = math.lcm(*(pivots[col][col] for col, _ in hits if col in pivots))
        out: dict[int, int] = {}
        for col, v in hits:
            prow = pivots.get(col)
            if prow is None:
                out[col] = out.get(col, 0) + v * scale
                continue
            f = v * (scale // prow[col])
            for j, a in prow.items():
                if j != col:
                    out[j] = out.get(j, 0) - f * a
        den *= scale
        return {self.words[k]: Fraction(v, den) for k, v in sorted(out.items()) if v}

    def in_ideal(self, elem: FreeElement) -> bool:
        return not self.reduce(elem)


_QUOTIENT_CACHE: dict[tuple[int, int, int, int], GradedQuotient] = {}


def graded_quotient(g1: int, g2: int, cartan: CartanData) -> GradedQuotient:
    key = (cartan.p, cartan.q, g1, g2)
    if key not in _QUOTIENT_CACHE:
        _QUOTIENT_CACHE[key] = GradedQuotient(g1, g2, cartan)
    return _QUOTIENT_CACHE[key]
