"""Brute-force singular vectors of Verma modules over the rank-2 algebras.

A grade of the module is the matching quotient slice of the free algebra
on the lowering generators, applied to the highest-weight vector.  Raising
generators act by deleting one letter at a time, weighted by the
h-eigenvalue of the weight lowered by the letter's suffix; a singular
vector at grade m*root is a nonzero quotient class killed by both raising
generators.  Everything is exact rational linear algebra.

The weight enters the e-action matrix of a grade only affinely, through
lambda(h1) in the e1 block and lambda(h2) in the e2 block, while the
quotient reduction does not depend on it.  So each grade's matrix is built
once per process, as two weight-independent integer parts per block, and a
weight costs one integer row assembly plus a kernel (see
`freealg.kernel_basis`) on the rows that led the pivots of the grade's first
one-dimensional kernel, checked in ints against the others.  Each vector,
with coefficient 1 at its lexicographically largest word, is the kernel's
integer form; the raising action also runs on integer forms.

SingularVectorResult is an immutable namedtuple: hashed and compared as its
field tuple, so also iterable, orderable and equal to a plain tuple.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .cartan import CartanData, RootVector
from .freealg import (
    FreeElement,
    GradedQuotient,
    graded_quotient,
    kernel_basis,
)
from .gamma import WeightParam, kac_kazhdan


def e_action(i: int, elem: FreeElement, weight: WeightParam, cartan: CartanData) -> FreeElement:
    """Raising generator e_i on a free-word combination times the
    highest-weight vector.

    Deleting the letter i at one position contributes the h_i-eigenvalue of
    (weight - suffix grade), i.e. x - 2*g1 + p*g2 for i = 1 and
    y + q*g1 - 2*g2 for i = 2 with (g1, g2) the grade of the suffix and
    (x, y) the unshifted weight coordinates.
    """
    if i not in (1, 2):
        raise ValueError("generator index must be 1 or 2")
    w = weight.to_unshifted()
    z = Fraction(w.x if i == 1 else w.y)
    # with z = X/D, X + a1*g1 + a2*g2 is D times the eigenvalue
    X, D = z.numerator, z.denominator
    a1, a2 = (-2 * D, cartan.p * D) if i == 1 else (cartan.q * D, -2 * D)
    den, nums = elem.integer_form()
    out: dict[tuple[int, ...], int] = {}
    for word, c in nums.items():
        g1 = g2 = 0
        for r in range(len(word) - 1, -1, -1):
            if word[r] == i:
                coeff = X + a1 * g1 + a2 * g2
                if coeff:
                    reduced = word[:r] + word[r + 1 :]
                    out[reduced] = out.get(reduced, 0) + c * coeff
            if word[r] == 1:
                g1 += 1
            else:
                g2 += 1
    return FreeElement._from_ints(den * D, {w: v for w, v in out.items() if v})


def annihilates(elem: FreeElement, weight: WeightParam, cartan: CartanData) -> bool:
    """True when both raising generators send the element into the ideal."""
    g = elem.grade()
    if g is None:
        return True
    g1, g2 = g
    for i, tg in ((1, (g1 - 1, g2)), (2, (g1, g2 - 1))):
        img = e_action(i, elem, weight, cartan)
        if tg[0] < 0 or tg[1] < 0:
            if not img.is_zero():
                return False
            continue
        if graded_quotient(tg[0], tg[1], cartan).reduce(img):
            return False
    return True


def ideal_e_stable(g1: int, g2: int, weight: WeightParam, cartan: CartanData) -> bool:
    """Check that the raising action sends the ideal slice into lower ideal
    slices, so it descends to the quotient.  True mathematically; this is
    the computational witness."""
    for rel in GradedQuotient._ideal_elements(g1, g2, cartan):
        if not annihilates(rel, weight, cartan):
            return False
    return True


class SingularVectorResult(
    namedtuple("SingularVectorResult", "root m weight grade quotient_dim kernel_dim vectors on_line")
):
    """Kernel at grade m*root for an unshifted rational WeightParam;
    `vectors` is a tuple of FreeElement, `on_line` the Kac-Kazhdan test."""

    __slots__ = ()

    @property
    def vector(self) -> FreeElement | None:
        return self.vectors[0] if self.vectors else None


# one block per raising generator i: its index and one row per target basis
# word, {source column: (a, b)}
EActionBlocks = list[tuple[int, list[dict[int, tuple[int, int]]]]]

# (p, q, g1, g2) -> that grade's e-action blocks; weight-independent, shared
# and never mutated
_E_ACTION_CACHE: dict[tuple[int, int, int, int], EActionBlocks] = {}


def _e_action_blocks(g1: int, g2: int, cartan: CartanData) -> EActionBlocks:
    """The e-action on grade (g1, g2) as weight-independent integer rows.

    On a fixed quotient the e_i block is M(z) = M(0) + z*(M(1) - M(0)) with
    z = lambda(h_i) in unshifted coordinates, since each deletion is weighted
    by z plus a constant.  Both parts come from `e_action` at the weights
    (0, 0) and (1, 1), reduced on the target quotient.  Each row is scaled
    by the lcm of its denominators, so its entry (a, b) is an integer pair
    with the row proportional to a*z + b.  Built once per (p, q, g1, g2).
    """
    key = (cartan.p, cartan.q, g1, g2)
    blocks = _E_ACTION_CACHE.get(key)
    if blocks is not None:
        return blocks
    source = graded_quotient(g1, g2, cartan)
    weights = (WeightParam(0, 0), WeightParam(1, 1))
    blocks = []
    for i, tg in ((1, (g1 - 1, g2)), (2, (g1, g2 - 1))):
        if tg[0] < 0 or tg[1] < 0:
            continue
        target = graded_quotient(tg[0], tg[1], cartan)
        parts: list[dict[int, list[Fraction]]] = [{} for _ in range(target.dim)]
        for col, w in enumerate(source.basis_words):
            word = FreeElement.from_word(w)
            for k, weight in enumerate(weights):
                for tw, c in target.reduce(e_action(i, word, weight, cartan)).items():
                    parts[target.basis_index[tw]].setdefault(col, [Fraction(0)] * 2)[k] = c
        rows = []
        for part in parts:
            # entry (c0, c1) is z -> (c1 - c0)*z + c0
            affine = [(col, c1 - c0, c0) for col, (c0, c1) in part.items()]
            den = math.lcm(*(v.denominator for _, a, b in affine for v in (a, b)))
            rows.append({col: (int(a * den), int(b * den)) for col, a, b in affine})
        blocks.append((i, rows))
    _E_ACTION_CACHE[key] = blocks
    return blocks


def _e_action_rows(g1: int, g2: int, weight: WeightParam, cartan: CartanData) -> list[dict[int, int]]:
    """The e-action matrix of grade (g1, g2) at the weight, from the cached
    blocks: one sparse integer row per target basis word, the e1 block
    first, each row a positive multiple of the exact row.  With z = X/D the
    entry a*z + b scales to the integer a*X + b*D."""
    w = weight.to_unshifted()
    rows = []
    for i, block in _e_action_blocks(g1, g2, cartan):
        z = Fraction(w.x if i == 1 else w.y)
        X, D = z.numerator, z.denominator
        for row in block:
            entries = {}
            for col, (a, b) in row.items():
                v = a * X + b * D
                if v:
                    entries[col] = v
            rows.append(entries)
    return rows


# (p, q, g1, g2) -> (chosen, rest): the rows of a grade's e-action matrix
# that led the pivots of its first one-dimensional kernel, and the other row
# indices; set once, never replaced
_INDEPENDENT_ROWS_CACHE: dict[tuple[int, int, int, int], tuple[list[int], list[int]]] = {}


def _kernel(g1: int, g2: int, weight: WeightParam, cartan: CartanData, words: list) -> list[FreeElement]:
    """`kernel_basis` of grade (g1, g2)'s e-action matrix at the weight, as elements on the words.

    The first weight whose kernel on all rows is one vector fixes the rows
    that led its pivots, ncols - 1 of them, for the grade.  A later weight
    is solved on those rows alone, and the answer is kept when it is one
    vector that every other row kills, checked in ints: the chosen rows then
    have rank ncols - 1 and the full matrix kills their kernel vector, so
    both have the same row space and the same reduced echelon form.
    Anything else, a larger kernel or a row that fails, is solved on all
    rows.  Each vector keeps the integer form the kernel gives it.
    """
    rows = _e_action_rows(g1, g2, weight, cartan)
    key = (cartan.p, cartan.q, g1, g2)
    split = _INDEPENDENT_ROWS_CACHE.get(key)
    if split is not None:
        chosen, rest = split
        kern = kernel_basis([rows[k] for k in chosen], len(words))[0]
        if len(kern) == 1:
            x = kern[0][1]
            if all(sum(v * x[j] for j, v in rows[k].items()) == 0 for k in rest):
                return _elements(kern, words)
    kern, led = kernel_basis(rows, len(words))
    if split is None and len(kern) == 1:
        taken = set(led)
        _INDEPENDENT_ROWS_CACHE[key] = (led, [k for k in range(len(rows)) if k not in taken])
    return _elements(kern, words)


def _elements(kern: list[tuple[int, list[int]]], words: list) -> list[FreeElement]:
    return [FreeElement._from_ints(den, {w: v for w, v in zip(words, nums) if v}) for den, nums in kern]


def singular_vectors(
    weight: WeightParam, root: RootVector, m: int, cartan: CartanData
) -> SingularVectorResult:
    """All singular vectors at grade m*root for the given highest weight."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    g1, g2 = m * root.k1, m * root.k2
    if (g1, g2) == (0, 0) or g1 < 0 or g2 < 0:
        raise ValueError(f"grade ({g1}, {g2}) is not a valid search grade")
    source = graded_quotient(g1, g2, cartan)
    # each kernel vector has a 1 at its highest nonzero column: the largest word
    vectors = _kernel(g1, g2, weight, cartan, source.basis_words)
    return SingularVectorResult(
        root=root,
        m=m,
        weight=weight.to_unshifted(),
        grade=(g1, g2),
        quotient_dim=source.dim,
        kernel_dim=len(vectors),
        vectors=tuple(vectors),
        on_line=kac_kazhdan(weight, root, m, cartan),
    )


def raising_commutator_witness(weight: WeightParam, cartan: CartanData) -> tuple[Fraction, Fraction, Fraction]:
    """Scalars of e1(e2(f1 f2)) and e2(e1(f1 f2)) on the highest-weight
    vector, and their difference.

    The difference is -p*y in unshifted coordinates: the raising operators
    do not commute, their bracket is the raising operator of the composite
    root.  Kept as a first-class witness because it is easy to assume away.
    """
    start = FreeElement.from_word((1, 2))
    e12 = e_action(1, e_action(2, start, weight, cartan), weight, cartan)
    e21 = e_action(2, e_action(1, start, weight, cartan), weight, cartan)
    c12 = e12.coeffs.get((), Fraction(0))
    c21 = e21.coeffs.get((), Fraction(0))
    return (c12, c21, c12 - c21)
