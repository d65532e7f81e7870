"""The kernel of a grade's e-action matrix along a reducibility line, as
polynomials in the line parameter.

Along the line of (root, m) the weight has one free parameter s
(`gamma.line_parameter`), and each e-action row of grade m*root, scaled by
a constant, is a pencil row {column: (A, B)} with entries A*s + B
(`verma._line_pencil`).  `line_form` turns the rows that a grade's split
chose into D(s), their determinant without their free column, and v(s),
the kernel vector of least degree, and keeps them only if every row kills
v(s) coefficient by coefficient.  Everything is in integers: the rows'
maximal minors at s = 0..n-1 (`freealg.maximal_minors`), Newton
interpolation, and a primitive pseudo-remainder gcd.

`kernel_at` answers a weight on a built line: D(s) != 0, shown by the
rational root theorem or else by evaluation, certifies that the kernel has
dimension at most 1, and the nonzero v(s) spans it.  The projection into a
target is linear, so v(s) projects to polynomials P(s), one per output
monomial; `_projected` builds them once per form and target from
`pbw.project` of v's coefficient vectors, and the vector `kernel_at`
returns carries the point (`LinePoint`), so that `pbw.project` evaluates
P(s) on the same power vector as v(s) instead of reading the vector's
words.  A form is a tuple that `verma` only stores and hands back.

`verma` imports this module on a line's first build, so that a process
that never builds one, a cold job most of all, does not compile it.
"""

from __future__ import annotations

import math
from operator import mul

from .freealg import FreeElement, maximal_minors


def line_form(pencil: list[dict[int, tuple[int, int]]], chosen: list[int]) -> tuple | None:
    """(D, v, d, projections) from the pencil rows at the indices `chosen`
    (`line_polynomials`), or None where the build is refused: there, or
    where some row of the pencil, chosen or not, does not kill v(s)
    coefficient by coefficient.  A kept form has M(s)v(s) = 0 for every s.
    `projections` starts empty; `LinePoint.project` fills it, one target
    at a time.
    """
    form = line_polynomials([pencil[k] for k in chosen])
    if form is None or not all(_kills_identically(row, form) for row in pencil):
        return None
    return (*form, {})


def kernel_at(form: tuple, S: int, E: int, words: list) -> FreeElement | None:
    """The kernel at the line parameter s = S/E, in lowest terms with E > 0
    (as `gamma.line_parameter` gives it), from a kept form, as its one
    vector on the grade's basis `words` in `freealg.kernel_basis`'s normal
    form, or None where D(s) = 0 or v(s) = 0.

    D(s) != 0 gives the chosen rows rank len(words) - 1, so the kernel has
    dimension at most 1, and every row kills v(s), so v(s) != 0 spans it.
    D(s) != 0 is certified by divisibility where it can be
    (`_not_a_root`), and otherwise by Horner's rule in ints.  v's entries,
    all of degree d, are dot products with one power vector
    w_k = S^k * E^(d-k), so their common factor E^d goes with the normal
    form's gcd g.  The vector carries w and g (`LinePoint`), from which
    `pbw.project` reads its projections.
    """
    D, v, d, _ = form
    if not (_not_a_root(D, S, E) or _poly_at(D, S, E)):
        return None
    w = [S**k * E ** (d - k) for k in range(d + 1)]
    nums = {j: c for j, poly in v.items() if (c := sum(map(mul, poly, w)))}
    if not nums:
        return None
    top = nums[max(nums)]
    g = math.gcd(*nums.values())
    g = g if top > 0 else -g
    vec = FreeElement._from_ints(top // g, {words[j]: c // g for j, c in nums.items()})
    vec._line = LinePoint(form, words, w, g)
    return vec


class LinePoint:
    """A kept form at one point s = S/E, as the vector `kernel_at` gives
    there carries it: the grade's basis words, the power vector w and the
    gcd g that v(s) was divided by."""

    __slots__ = ("form", "words", "w", "g")

    def __init__(self, form: tuple, words: list, w: list[int], g: int):
        self.form, self.words, self.w, self.g = form, words, w, g

    def project(self, target: str) -> dict:
        """The vector's `pbw.project` numerators over its own denominator:
        {monomial: P(S, E) // g}, nonzero only, with P(s) the projection of
        v(s) (`_projected`), built once per form and target."""
        projections = self.form[3]
        P = projections.get(target)
        if P is None:
            P = projections[target] = _projected(self.form, self.words, target)
        w, g = self.w, self.g
        return {key: c // g for key, poly in P.items() if (c := sum(map(mul, poly, w)))}


def _projected(form: tuple, words: list, target: str) -> dict:
    """P(s), the projection of v(s) into the target, as {monomial: d + 1
    integer coefficients}: `pbw.project` of each coefficient vector v_k of
    v(s) = sum(v_k * s^k) gives the coefficients of s^k, since projecting
    is linear.  So P(s) = project(v(s)) identically, and the projection
    rule stays written once, in `pbw`."""
    from .pbw import project

    _, v, d, _ = form
    P: dict = {}
    for k in range(d + 1):
        nums = {words[j]: poly[k] for j, poly in v.items() if poly[k]}
        if nums:
            for key, c in project(FreeElement._from_ints(1, nums), target).integer_form()[1].items():
                P.setdefault(key, [0] * (d + 1))[k] = c
    return P


def line_polynomials(chosen: list[dict[int, tuple[int, int]]]) -> tuple | None:
    """D(s) and the least-degree kernel vector v(s) of n - 1 pencil rows.

    At each node s = 0..n-1 the rows' signed maximal minors w(s)
    (`maximal_minors`) are ints; each is a polynomial of degree at most
    n - 1, so n nodes fix it.  D is the minor without f, the highest column
    where w is not identically 0; no f means the rows are dependent all
    along the line.  g, the gcd of D with one combination of w's entries,
    is a multiple of w's content c, and v = w / g, of degree d at most
    n - 1 - deg g, is read off that many + 1 nodes where g is not 0; a
    division there that is not exact returns None.  If every row kills v,
    v is a polynomial multiple of w / c, the kernel vector of least degree,
    while its entry at f is c/g times that vector's: so g = c, and v is
    that vector.  Returns (D, v, d), D constant first, v as
    {column: d + 1 coefficients} on the columns where it is not 0.
    """
    n = len(chosen) + 1
    nodes = range(n)
    w = []
    for s in nodes:
        rows = [{col: v for col, (a, b) in row.items() if (v := a * s + b)} for row in chosen]
        w.append(maximal_minors(rows, n))
    cols = [j for j in range(n) if any(ws[j] for ws in w)]
    if not cols:
        return None
    D = _interpolate(nodes, [ws[cols[-1]] for ws in w])
    g = _poly_gcd(D, _interpolate(nodes, [sum(k * c for k, c in enumerate(ws, 1)) for ws in w]))
    at = [(s, gs) for s in nodes if (gs := _poly_at(g, s))][: n - len(g) + 1]
    v = {}
    for j in cols:
        ys = []
        for s, gs in at:
            y, r = divmod(w[s][j], gs)
            if r:
                return None
            ys.append(y)
        poly = _interpolate([s for s, _ in at], ys)
        if poly is None:
            return None
        v[j] = poly
    d = max(map(len, v.values())) - 1
    content = math.gcd(*(c for poly in v.values() for c in poly))
    return (D, {j: [c // content for c in poly] + [0] * (d + 1 - len(poly)) for j, poly in v.items()}, d)


def _kills_identically(row: dict[int, tuple[int, int]], form: tuple) -> bool:
    """Whether sum((A*s + B) * v_col(s)) over the pencil row is the zero
    polynomial."""
    _, v, d = form
    acc = [0] * (d + 2)
    for col, (A, B) in row.items():
        for k, c in enumerate(v.get(col, ())):
            acc[k] += B * c
            acc[k + 1] += A * c
    return not any(acc)


def _interpolate(xs, ys: list[int]) -> list[int] | None:
    """The polynomial through the points (xs[i], ys[i]) at distinct
    integer xs, by Newton's divided differences, as integer coefficients
    constant first with no trailing zero; None when a difference does not
    divide, as then no integer polynomial of lower degree than the number
    of points passes through them."""
    c = list(ys)
    for k in range(1, len(c)):
        for i in range(len(c) - 1, k - 1, -1):
            c[i], r = divmod(c[i] - c[i - 1], xs[i] - xs[i - k])
            if r:
                return None
    poly = [c[-1]]
    for k in range(len(c) - 2, -1, -1):
        # poly * (s - xs[k]) + c[k]
        x, nxt = xs[k], [0] + poly
        for i, a in enumerate(poly):
            nxt[i] -= x * a
        nxt[0] += c[k]
        poly = nxt
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _not_a_root(poly: list[int], S: int, E: int) -> bool:
    """Whether divisibility alone shows that s = S/E, in lowest terms with
    E > 0, is no root of the nonzero poly.  By the rational root theorem a
    root s != 0 has S dividing poly's lowest nonzero coefficient and E its
    leading one; False leaves the question open (Horner decides), as it
    always is at s = 0."""
    return S != 0 and (next(filter(None, poly)) % S != 0 or poly[-1] % E != 0)


def _poly_at(poly: list[int], S: int, E: int = 1) -> int:
    """poly(S/E) * E^(len(poly) - 1), by Horner's rule in ints."""
    acc, e = 0, 1
    for c in reversed(poly):
        acc = acc * S + c * e
        e *= E
    return acc


def _primitive_poly(poly: list[int]) -> list[int]:
    """The polynomial over the gcd of its coefficients."""
    g = math.gcd(*poly)
    return [c // g for c in poly]


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd of two integer polynomials, a not 0, primitive and up to sign,
    by primitive pseudo-remainder sequences."""
    a = _primitive_poly(a)
    b = _primitive_poly(b) if b else b
    while b:
        if len(a) < len(b):
            a, b = b, a
        # a's pseudo-remainder by b, kept primitive
        lead, shift = b[-1], len(a) - len(b)
        while a and shift >= 0:
            top = a[-1]
            a = [lead * c for c in a]
            for i, c in enumerate(b):
                a[i + shift] -= top * c
            while a and not a[-1]:
                a.pop()
            shift = len(a) - len(b)
        a, b = b, _primitive_poly(a) if a else a
    return a
