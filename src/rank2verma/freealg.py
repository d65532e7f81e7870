"""Graded slices of the free algebra on the two lowering generators.

Words are tuples over {1, 2}, compared lexicographically with 1 < 2, and a
grade (g1, g2) counts occurrences of each letter.  `IntegerForm` is the
number format of free and PBW elements: one positive denominator and an
integer numerator per key, with the Fraction coefficients built only when
they are read; `FreeElement` is that form over words, and
`IntegerForm.coefficient_texts` renders the coefficients of such a form as
`Fraction` does, for its repr and for the CLI's reports.
The ideal slice spanned by framed Serre relators, and the matrices whose
kernels are asked for, go through one exact core: sparse fraction-free
elimination of integer rows.  Quotient bases and reductions are read off
the reduced echelon form with each row led at its lowest column; a
reduction runs in ints and only its result is in Fractions.  Kernels take
only the forward phase, with each row led at its highest column (far fewer
steps on e-action matrices), and solve each free column entry by entry as
reduced integer pairs; a single vector is scaled to its normal form
directly, several go through the full form.  They are returned in integer
form together with the rows that led the pivots, which a caller may solve
on alone at a later weight.  The same forward phase, with each row tagged
by a column of its own, gives the signed maximal minors of n - 1 rows.
Pivot sets are canonical, so all of these are deterministic and exact,
whatever the order and scale of the input rows.
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
    it, with one gcd and no Fraction built: what
    `IntegerForm.coefficient_texts` writes for one coefficient, kept as the
    tests' reference."""
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
    NotImplemented.  A subclass names its key renderer `_key_str` and the
    dict of key texts it fills, `_key_text`; its `_space` are the arguments
    that `_from_ints` takes before den (the target of a PBW element), which
    two operands must share.
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

    def _peer(self, other) -> tuple | None:
        """This element's `_space` when other is an operand of its class,
        None otherwise; one in another space raises ValueError."""
        if type(other) is not type(self):
            return None
        space = self._space()
        if other._space() != space:
            raise ValueError("mixed targets")
        return space

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
        space = self._peer(other)
        if space is None:
            return NotImplemented
        (d1, n1), (d2, n2) = self._ints, other._ints
        den = math.lcm(d1, d2)
        s1, s2 = den // d1, sign * (den // d2)
        out = {k: v * s1 for k, v in n1.items()}
        for k, v in n2.items():
            out[k] = out.get(k, 0) + v * s2
        return self._from_ints(*space, den, {k: v for k, v in out.items() if v})

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

    def coefficient_texts(self, terms: bool = False) -> tuple[list, list[str]]:
        """The keys in order, and each one's coefficient as `Fraction` writes
        it (`_fraction_str`), or with terms, the repr's term (c)*key for it,
        the key's text read from the class's `_key_text` dict (`_key_str`
        fills it).  One pass over the keys with one gcd each; the
        denominator's text is written once per reducing gcd."""
        den, nums = self._ints
        gcd = math.gcd
        known, key_str = self._key_text, self._key_str
        close = ")*" if terms else ""
        tails = {den: close}
        keys = sorted(nums)
        texts = []
        for k in keys:
            v = nums[k]
            g = gcd(v, den)
            tail = tails.get(g)
            if tail is None:
                tail = tails[g] = f"/{den // g}{close}"
            texts.append(f"({v // g}{tail}{known.get(k) or key_str(k)}" if terms else f"{v // g}{tail}")
        return keys, texts

    def __repr__(self):
        """The terms of `coefficient_texts` joined by " + ", rendered once
        per element."""
        if self._text is None:
            self._text = " + ".join(self.coefficient_texts(terms=True)[1]) or self._zero_text()
        return self._text


class FreeElement(IntegerForm):
    """Finitely supported rational combination of words of one grade, an
    integer form keyed by words.

    `_line` is set only on a kernel vector answered by a built reducibility
    line (`lines.Line.kernel_at`): (line, w, g), the line with its power
    vector and gcd at that point, which `pbw.project` reads in place of the
    vector's words.  Arithmetic results carry none."""

    __slots__ = ("_line",)

    _key_str = staticmethod(word_str)
    _key_text = _WORD_STR_CACHE

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


def _forward(rows, lead_of=min) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """Row echelon form of sparse integer rows, fraction-free, each row led
    at the column `lead_of` picks (min or max), and for each lead the index
    of the input row stored there.

    Rows stay integer: each step cross-multiplies two rows so that one
    column cancels, then divides out the content (integer-preserving
    elimination in the sense of Bareiss 1968, with the content in place of
    his exact divisor).  Rows go in sparsest first, which keeps fill-in
    down; a row is eliminated at its lead while that column leads a stored
    row, and is stored under it otherwise, or dropped when it vanishes.  A
    stored row is its input row less earlier stored rows, so the input rows
    stored are independent over Q and span the rest.
    """
    pivots: dict[int, dict[int, int]] = {}
    origin: dict[int, int] = {}
    for k, row in sorted(enumerate(rows), key=lambda kr: len(kr[1])):
        while row:
            lead = lead_of(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                origin[lead] = k
                break
            row = _eliminate(row, prow, lead)
    return pivots, origin


def _echelon(rows, lead_of=min) -> dict[int, dict[int, int]]:
    """Reduced row echelon form: `_forward`, then each stored row cleared at
    the other leads, from the last lead the rows run towards (the highest
    down when rows are led at their lowest column, the lowest up for the
    highest).  Each row is its lead's reduced row echelon row up to a
    scalar, so the leads (the pivot columns) and everything read off the
    rows do not depend on row order.
    """
    pivots = _forward(rows, lead_of)[0]
    for lead in sorted(pivots, reverse=lead_of is min):
        row = pivots[lead]
        # the rows led by the columns this row holds are already cleared,
        # so removing one of their leads here brings in no other lead
        for col in [j for j in row if j != lead and j in pivots]:
            row = _eliminate(row, pivots[col], col)
        pivots[lead] = row
    return pivots


def _solve_free(pivots: dict[int, dict[int, int]], leads: list[int], free: int) -> dict[int, int]:
    """The kernel vector of `_forward` rows led at their highest column
    with 1 at the free column and 0 at the other free columns.  Each lead
    above the free column, lowest first, is solved from its row as a
    reduced fraction; over the lcm of their denominators the vector is
    primitive, so its free entry is that lcm."""
    x = {free: (1, 1)}
    for lead in leads:
        if lead < free:
            continue
        prow = pivots[lead]
        num, den = 0, 1
        for j, a in prow.items():
            e = x.get(j)
            if e is not None:
                n, d = e
                g = math.gcd(den, d)
                num = num * (d // g) + a * n * (den // g)
                den = den // g * d
        if num:
            num, den = -num, den * prow[lead]
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            x[lead] = (num // g, den // g)
    den = math.lcm(*(d for _, d in x.values()))
    return {j: n * (den // d) for j, (n, d) in x.items()}


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
    The elimination leads each row at its highest column instead (far
    fewer steps on e-action matrices), and solves each of its own free
    columns up through the rows led above it, one reduced integer pair per
    entry, put over their lcm at the end.  One such vector is scaled to 1
    at its highest column; several go through `_echelon` led at their
    highest columns, and each row is scaled to lead 1.  That normal form
    depends only on the kernel, so not on the order or scale of the rows.
    """
    pivots, origin = _forward(rows, max)
    leads = sorted(pivots)
    kernel = [_solve_free(pivots, leads, free) for free in range(ncols) if free not in pivots]
    if len(kernel) > 1:
        kernel = [row for _, row in sorted(_echelon(kernel, max).items())]
    basis = []
    for row in kernel:
        # the row is primitive, so its lead is the least common denominator
        top = row[max(row)]
        sign = 1 if top > 0 else -1
        nums = [0] * ncols
        for j, v in row.items():
            nums[j] = sign * v
        basis.append((sign * top, nums))
    return basis, sorted(origin.values())


def maximal_minors(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """The signed maximal minors of ncols - 1 sparse integer rows,
    w[j] = (-1)^j times the determinant of the rows without column j.

    w is in the rows' right kernel, and nonzero exactly when they have rank
    ncols - 1.  One `_forward`, led at the highest column as in
    `kernel_basis`, gives it: row k carries a tag, a 1 at column -1 - k,
    which no lead reaches while the row holds another entry, so a tag lead
    means the rank is short.  Each stored row is c times its own input row
    plus earlier stored rows, c its entry at its own tag.  Ordered by lead,
    the stored rows are triangular off the free column, so that minor is
    the product of the leads over the product of the c, signed by the
    order of the leads; Cramer's rule scales the kernel vector solved at
    the free column to w.
    """
    tagged = [{**row, -1 - k: 1} for k, row in enumerate(rows)]
    pivots, origin = _forward(tagged, max)
    if min(pivots, default=0) < 0:
        return [0] * ncols
    leads = sorted(pivots)
    free = next(j for j in range(ncols) if j not in pivots)
    # the determinant's sign: the parity of the permutation sending each
    # input row to its lead's position
    where = dict(zip(leads, range(len(leads))))
    perm = {origin[lead]: where[lead] for lead in leads}
    num, den, parity = (-1) ** free, 1, 0
    for lead in leads:
        row = pivots[lead]
        num *= row[lead]
        den *= row[-1 - origin[lead]]
    for k in perm:
        while perm[k] != k:
            j = perm[k]
            perm[k], perm[j] = perm[j], j
            parity ^= 1
    x = _solve_free(pivots, leads, free)
    scale = (-num if parity else num) // (den * x[free])
    w = [0] * ncols
    for j, v in x.items():
        w[j] = v * scale
    return w


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
