"""A reducibility line's kernel as polynomials in the line parameter.

Along the line of (root, m) the weight has one free parameter s
(`gamma.line_parameter`), and each e-action row of grade m*root, scaled by
a constant, is a pencil row {column: (A, B)} with entries A*s + B
(`_pencil`).  `build` makes the line's `Line` on demand, in a cold process
as well as a warm one: its n - 1 rows are those that led the pivots of one
all-rows `freealg.kernel_basis` at the first node s = 0, 1, 2, ... whose
kernel is one vector, so D(s), their determinant without their free
column, depends only on (p, q, root, m).  v(s), the kernel vector of least
degree, comes from the same rows, and the line is kept only if every row
kills v(s) coefficient by coefficient.  Everything is in integers: the
rows' maximal minors at s = 0..n-1 (`freealg.maximal_minors`), Newton
interpolation, and a primitive pseudo-remainder gcd.

`Line.kernel_at` answers a weight on a built line: D(s) != 0, shown by the
rational root theorem or else by evaluation, certifies that the kernel has
dimension at most 1, and the nonzero v(s) spans it.  The projection into a
target is linear, so v(s) projects to polynomials P(s), one per output
monomial; `Line.project` builds them once per target from `pbw.project` of
v's coefficient vectors.  The vector `kernel_at` returns carries the line,
its power vector and its gcd, so that `pbw.project` evaluates P(s) on the
same power vector as v(s) instead of reading the vector's words.  No other
module reads a line's polynomials.

`verma` imports this module on a line's first build, so that a process
that never builds one, a cold job most of all, does not compile it.
"""

from __future__ import annotations

import math
from operator import mul

from .cartan import CartanData, RootVector
from .freealg import FreeElement, graded_quotient, kernel_basis, maximal_minors
from .gamma import line_coordinates
from .verma import _e_action_blocks


class Line:
    """The kernel of grade m*root along the reducibility line of (root, m):
    D(s) and v(s) (`line_polynomials`), v's degree d, the grade's basis
    words, and the projections P(s) per target, built on first use."""

    __slots__ = ("D", "v", "d", "words", "projections")

    def __init__(self, D: list[int], v: dict[int, list[int]], d: int, words: list):
        self.D, self.v, self.d, self.words = D, v, d, words
        self.projections: dict[str, dict] = {}

    def kernel_at(self, S: int, E: int) -> FreeElement | None:
        """The kernel at the line parameter s = S/E, in lowest terms with
        E > 0 (as `gamma.line_parameter` gives it), as its one vector on
        the grade's basis words in `freealg.kernel_basis`'s normal form, or
        None where D(s) = 0 or v(s) = 0.

        D(s) != 0 gives the line's rows rank len(words) - 1, so the kernel
        has dimension at most 1, and every row kills v(s), so v(s) != 0
        spans it.  D(s) != 0 is certified by divisibility where it can be
        (`_not_a_root`), and otherwise by Horner's rule in ints.  v's
        entries, all of degree d, are dot products with one power vector
        w_k = S^k * E^(d-k), so their common factor E^d goes with the
        normal form's gcd g.  The vector carries (line, w, g), from which
        `pbw.project` reads its projections (`project`).
        """
        D, d = self.D, self.d
        if not (_not_a_root(D, S, E) or _poly_at(D, S, E)):
            return None
        w = [S**k * E ** (d - k) for k in range(d + 1)]
        nums = {j: c for j, poly in self.v.items() if (c := sum(map(mul, poly, w)))}
        if not nums:
            return None
        top = nums[max(nums)]
        g = math.gcd(*nums.values())
        g = g if top > 0 else -g
        words = self.words
        vec = FreeElement._from_ints(top // g, {words[j]: c // g for j, c in nums.items()})
        vec._line = (self, w, g)
        return vec

    def project(self, target: str, w: list[int], g: int) -> dict:
        """The `pbw.project` numerators of the vector `kernel_at` gave at
        the power vector w, over its own denominator: {monomial:
        P(S, E) // g}, nonzero only, with P(s) the projection of v(s)
        (`_projected`), built once per target."""
        P = self.projections.get(target)
        if P is None:
            P = self.projections[target] = self._projected(target)
        return {key: c // g for key, poly in P.items() if (c := sum(map(mul, poly, w)))}

    def _projected(self, target: str) -> dict:
        """P(s), the projection of v(s) into the target, as {monomial:
        d + 1 integer coefficients}: `pbw.project` of each coefficient
        vector v_k of v(s) = sum(v_k * s^k) gives the coefficients of s^k,
        since projecting is linear.  So P(s) = project(v(s)) identically,
        and the projection rule stays written once, in `pbw`."""
        from .pbw import project

        v, d, words = self.v, self.d, self.words
        P: dict = {}
        for k in range(d + 1):
            nums = {words[j]: poly[k] for j, poly in v.items() if poly[k]}
            if nums:
                for key, c in project(FreeElement._from_ints(1, nums), target).integer_form()[1].items():
                    P.setdefault(key, [0] * (d + 1))[k] = c
        return P


def build(root: RootVector, m: int, cartan: CartanData) -> Line | None:
    """The line of (root, m), or None where the build is refused.

    Its rows are the n - 1 pencil rows that led the pivots of
    `kernel_basis` on every row at the first node s = 0..n-1 whose kernel
    is one vector; without such a node the build is refused.  Where the
    kernel is one vector generically, some (n-1)-minor is a nonzero
    polynomial of degree at most n - 1, so some node among n is such a
    node.  The build is also refused where
    `line_polynomials` refuses those rows, or where some row, led or not,
    does not kill v(s) coefficient by coefficient.  A kept line has
    M(s)v(s) = 0 for every s.
    """
    words = graded_quotient(m * root.k1, m * root.k2, cartan).basis_words
    n = len(words)
    pencil = _pencil(root, m, cartan)
    for s in range(n):
        kern, led = kernel_basis(_rows_at(pencil, s), n)
        if len(kern) == 1:
            break
    else:
        return None
    polys = line_polynomials([pencil[k] for k in led])
    if polys is None or not all(_kills_identically(row, polys) for row in pencil):
        return None
    return Line(*polys, words)


def _pencil(root: RootVector, m: int, cartan: CartanData) -> list[dict[int, tuple[int, int]]]:
    """Every cached e-action row of grade m*root (`verma._e_action_blocks`),
    e1 block first, along the reducibility line of (root, m), as
    {column: (A, B)}: on the line z = (alpha*s + beta)/gamma
    (`line_coordinates`), so an entry a*z + b times gamma is A*s + B with
    A = a*alpha and B = a*beta + b*gamma."""
    coords = line_coordinates(root, m, cartan)
    rows = []
    for i, block in _e_action_blocks(m * root.k1, m * root.k2, cartan):
        alpha, beta, gamma = coords[i - 1]
        rows += [{col: (a * alpha, a * beta + b * gamma) for col, (a, b) in row.items()} for row in block]
    return rows


def _rows_at(pencil: list[dict[int, tuple[int, int]]], s: int) -> list[dict[int, int]]:
    """The pencil's rows at the integer s, as sparse {column: nonzero int}."""
    return [{col: v for col, (a, b) in row.items() if (v := a * s + b)} for row in pencil]


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
    w = [maximal_minors(_rows_at(chosen, s), n) for s in nodes]
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


def _kills_identically(row: dict[int, tuple[int, int]], polys: tuple) -> bool:
    """Whether sum((A*s + B) * v_col(s)) over the pencil row is the zero
    polynomial, with v and d from `line_polynomials`' (D, v, d)."""
    _, v, d = polys
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
