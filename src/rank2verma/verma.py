"""Brute-force singular vectors of Verma modules over the rank-2 algebras.

A grade of the module is the matching quotient slice of the free algebra
on the lowering generators, applied to the highest-weight vector.  Raising
generators act by deleting one letter at a time, weighted by the
h-eigenvalue of the weight lowered by the letter's suffix; a singular
vector at grade m*root is a nonzero quotient class killed by both raising
generators.  Everything is exact rational linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    x, y = Fraction(w.x), Fraction(w.y)
    p, q = cartan.p, cartan.q
    out: dict[tuple[int, ...], Fraction] = {}
    for word, c in elem.coeffs.items():
        g1 = g2 = 0
        for r in range(len(word) - 1, -1, -1):
            if word[r] == i:
                if i == 1:
                    coeff = x - 2 * g1 + p * g2
                else:
                    coeff = y + q * g1 - 2 * g2
                if coeff:
                    reduced = word[:r] + word[r + 1 :]
                    out[reduced] = out.get(reduced, Fraction(0)) + c * coeff
            if word[r] == 1:
                g1 += 1
            else:
                g2 += 1
    return FreeElement(out)


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


@dataclass(frozen=True)
class SingularVectorResult:
    root: RootVector
    m: int
    weight: WeightParam  # unshifted rational coordinates
    grade: tuple[int, int]
    quotient_dim: int
    kernel_dim: int
    vectors: tuple[FreeElement, ...]
    on_line: bool

    @property
    def vector(self) -> FreeElement | None:
        return self.vectors[0] if self.vectors else None


def _normalize(elem: FreeElement) -> FreeElement:
    """Scale so the lexicographically largest support word has coefficient 1."""
    if elem.is_zero():
        return elem
    top = max(elem.coeffs)
    return elem * (1 / elem.coeffs[top])


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
    targets: list[tuple[int, GradedQuotient]] = []
    if g1 >= 1:
        targets.append((1, graded_quotient(g1 - 1, g2, cartan)))
    if g2 >= 1:
        targets.append((2, graded_quotient(g1, g2 - 1, cartan)))

    ncols = source.dim
    nrows = sum(t.dim for _, t in targets)
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for col, w in enumerate(source.basis_words):
        offset = 0
        for i, target in targets:
            img = e_action(i, FreeElement.from_word(w), weight, cartan)
            coords = target.reduce(img)
            for tw, c in coords.items():
                rows[offset + target.basis_index[tw]][col] = c
            offset += target.dim
    kern = kernel_basis(rows, ncols)
    vectors = []
    for vec in kern:
        elem = FreeElement(
            {w: c for w, c in zip(source.basis_words, vec) if c}
        )
        vectors.append(_normalize(elem))
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
