"""Two three-dimensional projection targets with exact PBW arithmetic.

Both targets are generated by f1, f2 with [f1, f2] = h.  In target "H" the
bracket h is central (Heisenberg); in target "L" it acts by [h, f1] = f1
and [h, f2] = -f2.  Writing e = 0 in "H" and e = 1 in "L", both obey
h f1 = f1 (h+e) and h f2 = f2 (h-e).  Elements live on the ordered monomial
basis f2^a f1^b h^c: a `PBWElement` is the integer form of `freealg` (one
positive denominator and an integer numerator per monomial, its Fraction
`coeffs` built only when first read) in one target.  Two monomials
multiply by one closed form, the same for both targets up to e, with no
recursion.  The structure constants are integers, so every such product
is integral and is memoized per process as integers; element products,
sums and equality run on integers only.  A slow rewriting engine reduces
the same products one adjacent swap at a time and doubles as an
independent check.

Free words project into a target through a per-process cache of word
images keyed by (target, word): each image is built once, from its longest
cached prefix, and kept as integer coefficients.  `project` sums a
vector's integer numerators times the images of their words; a vector
that a built reducibility line answered projects through that line's
polynomials instead (`lines.Line.project`).

The quadratic factors are X_u = f2 f1 + u*h in "H" and
X_u = f2 f1 + u*h - u(u-1)/2 in "L"; the identity suites at the bottom
exercise their shift and sandwich laws.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cartan import CartanData
from .freealg import FreeElement, IntegerForm

Monomial = tuple[int, int, int]  # exponents of f2, f1, h

TARGETS = ("H", "L")


# (k1, k2, target) -> _mono_mul(k1, k2, target).  The products are shared,
# so nothing may mutate them.
_MONO_PRODUCTS: dict[tuple[Monomial, Monomial, str], dict[Monomial, int]] = {}


def _mono_mul(k1: Monomial, k2: Monomial, target: str) -> dict[Monomial, int]:
    """(f2^a1 f1^b1 h^c1)(f2^a2 f1^b2 h^c2) on the ordered basis, in closed form.

    Moving f1^b1 past f2^a2 gives, for k = 0..min(b1, a2), the term
    k! C(b1,k) C(a2,k) f2^{a2-k} f1^{b1-k} P_k(h), with P_k(h) = h^k in "H"
    and prod_{j<k} (h - (a2-b1+j)/2) in "L".  Every h then moves right by
    h f1 = f1 (h+e) and h f2 = f2 (h-e), with e = 0 in "H" and e = 1 in "L":
    P_k(h) becomes P_k(h + e*b2) and h^c1 becomes (h + e(b2-a2))^c1.  The
    h-polynomial of term k is kept as integer coefficients (degree -> int)
    over the common denominator 2^k.  The bracket relations have integer
    structure constants, so 2^k divides every term and each coefficient is
    an integer.  Memoized per process.
    """
    key = (k1, k2, target)
    out = _MONO_PRODUCTS.get(key)
    if out is not None:
        return out
    a1, b1, c1 = k1
    a2, b2, c2 = k2
    e = 1 if target == "L" else 0
    s = e * (b2 - a2)
    # (h + s)^c1 h^c2, a single power of h when s == 0 (always in "H")
    poly = {c2 + i: math.comb(c1, i) * s ** (c1 - i) for i in range(c1 + 1)} if s else {c1 + c2: 1}
    out = {}
    for k in range(min(b1, a2) + 1):
        if k:
            # next factor of 2^k P_k(h + e*b2): 2h + e(2*b2 - a2 + b1 - (k-1))
            r = e * (2 * b2 - a2 + b1 - k + 1)
            nxt: dict[int, int] = {}
            for d, v in poly.items():
                nxt[d + 1] = nxt.get(d + 1, 0) + 2 * v
                if r:
                    nxt[d] = nxt.get(d, 0) + r * v
            poly = nxt
        weight = math.factorial(k) * math.comb(b1, k) * math.comb(a2, k)
        for d, v in poly.items():
            if v:
                out[(a1 + a2 - k, b1 + b2 - k, d)] = weight * v >> k
    _MONO_PRODUCTS[key] = out
    return out


# monomial -> its text in PBWElement.__repr__, rendered once per process
_MONO_STR: dict[Monomial, str] = {}


def _mono_str(key: Monomial) -> str:
    text = _MONO_STR.get(key)
    if text is None:
        a, b, c = key
        parts = []
        if a:
            parts.append(f"f2^{a}" if a > 1 else "f2")
        if b:
            parts.append(f"f1^{b}" if b > 1 else "f1")
        if c:
            parts.append(f"h^{c}" if c > 1 else "h")
        text = _MONO_STR[key] = " ".join(parts) or "1"
    return text


class PBWElement(IntegerForm):
    """Rational combination of ordered monomials f2^a f1^b h^c in one target,
    an integer form keyed by monomials.  Elements of two targets are never
    equal, and adding or multiplying them raises ValueError."""

    __slots__ = ("target",)

    _key_str = staticmethod(_mono_str)
    _key_text = _MONO_STR

    def __init__(self, target: str, coeffs: dict[Monomial, Fraction] | None = None):
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        self.target = target
        super().__init__(coeffs)

    @classmethod
    def _from_ints(cls, target: str, den: int, nums: dict[Monomial, int]) -> "PBWElement":
        """`IntegerForm._from_ints` in the given target."""
        elem = cls.__new__(cls)
        elem._ints = (den, nums)
        elem._coeffs = elem._text = None
        elem.target = target
        return elem

    def _space(self) -> tuple[str]:
        return (self.target,)

    def _zero_text(self) -> str:
        return f"PBWElement({self.target}, 0)"

    @classmethod
    def one(cls, target: str) -> "PBWElement":
        return cls.generator(1, target, 0)

    @classmethod
    def generator(cls, letter: int, target: str, power: int = 1) -> "PBWElement":
        if power < 0:
            raise ValueError("power must be nonnegative")
        if letter not in (1, 2):
            raise ValueError("letter must be 1 or 2")
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        return cls._from_ints(target, 1, {(0, power, 0) if letter == 1 else (power, 0, 0): 1})

    def __mul__(self, other):
        if self._peer(other) is None:
            return super().__mul__(other)
        target = self.target
        (d1, n1), (d2, n2) = self._ints, other._ints
        out: dict[Monomial, int] = {}
        get = out.get
        for k1, v1 in n1.items():
            for k2, v2 in n2.items():
                v12 = v1 * v2
                for k, c in _mono_mul(k1, k2, target).items():
                    out[k] = get(k, 0) + v12 * c
        return PBWElement._from_ints(target, d1 * d2, {k: v for k, v in out.items() if v})


# --- independent route: step-by-step rewriting -----------------------------

# symbols ordered f2 < f1 < h; a pair is reducible when out of order
_RANK = {2: 0, 1: 1, 3: 2}


def _rewrite_pair(u: int, v: int, target: str) -> dict[tuple[int, ...], Fraction]:
    if (u, v) == (1, 2):
        return {(2, 1): Fraction(1), (3,): Fraction(1)}
    if (u, v) == (3, 2):
        if target == "H":
            return {(2, 3): Fraction(1)}
        return {(2, 3): Fraction(1), (2,): Fraction(-1)}
    if (u, v) == (3, 1):
        if target == "H":
            return {(1, 3): Fraction(1)}
        return {(1, 3): Fraction(1), (1,): Fraction(1)}
    raise ValueError(f"pair {(u, v)} is not reducible")


def naive_normal_form(word: tuple[int, ...], target: str, strategy: str = "left") -> dict[Monomial, Fraction]:
    """Reduce a word over {f1=1, f2=2, h=3} to the ordered basis one adjacent
    swap at a time.  `strategy` picks the leftmost or rightmost reducible
    pair; both must agree, which is itself a useful confluence check."""
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    if strategy not in ("left", "right"):
        raise ValueError("strategy must be 'left' or 'right'")
    pending: dict[tuple[int, ...], Fraction] = {tuple(word): Fraction(1)}
    done: dict[Monomial, Fraction] = {}
    while pending:
        w, coeff = pending.popitem()
        positions = [r for r in range(len(w) - 1) if _RANK[w[r]] > _RANK[w[r + 1]]]
        if not positions:
            key = (
                sum(1 for s in w if s == 2),
                sum(1 for s in w if s == 1),
                sum(1 for s in w if s == 3),
            )
            done[key] = done.get(key, Fraction(0)) + coeff
            continue
        r = positions[0] if strategy == "left" else positions[-1]
        for repl, c in _rewrite_pair(w[r], w[r + 1], target).items():
            nw = w[:r] + repl + w[r + 2 :]
            pending[nw] = pending.get(nw, Fraction(0)) + coeff * c
    return {k: v for k, v in done.items() if v}


def monomial_word(key: Monomial) -> tuple[int, ...]:
    a, b, c = key
    return (2,) * a + (1,) * b + (3,) * c


def naive_product(k1: Monomial, k2: Monomial, target: str, strategy: str = "left") -> dict[Monomial, Fraction]:
    return naive_normal_form(monomial_word(k1) + monomial_word(k2), target, strategy)


# --- projections ------------------------------------------------------------


def projection_defined(target: str, cartan: CartanData) -> bool:
    """Whether the Serre relators die in the target, so that the projection
    factors through the quotient.  In "H" the double bracket
    [f1, [f1, f2]] = [f1, h] already vanishes; in "L" it is -f1 resp. f2,
    and only the triple bracket vanishes, so both p and q must be >= 2."""
    if target == "H":
        return True
    return cartan.p >= 2 and cartan.q >= 2


# (target, word) -> image of the word in the target as {monomial: int}.  The
# bracket relations have integer structure constants, so every word's image
# has integer coefficients in both targets.  The images are shared, so
# nothing may mutate them.
_PROJECTION_CACHE: dict[tuple[str, tuple[int, ...]], dict[Monomial, int]] = {}

_GENERATOR = {1: (0, 1, 0), 2: (1, 0, 0)}


def _word_image(word: tuple[int, ...], target: str) -> dict[Monomial, int]:
    """Cached integer image of a free word.  A new word starts from its
    longest cached prefix and costs one multiplication by a generator per
    remaining letter; every prefix it passes is cached."""
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    k = len(word)
    while k and (target, word[:k]) not in _PROJECTION_CACHE:
        k -= 1
    image = _PROJECTION_CACHE[(target, word[:k])] if k else {(0, 0, 0): 1}
    for j in range(k, len(word)):
        gen = _GENERATOR[word[j]]
        nxt: dict[Monomial, int] = {}
        for mono, v in image.items():
            for key, c in _mono_mul(mono, gen, target).items():
                nxt[key] = nxt.get(key, 0) + v * c
        image = {key: c for key, c in nxt.items() if c}
        _PROJECTION_CACHE[(target, word[: j + 1])] = image
    return image


def project_word(word: tuple[int, ...], target: str) -> PBWElement:
    """Image of a free word in the target, as an element over the cached
    integer image."""
    return PBWElement._from_ints(target, 1, _word_image(tuple(word), target))


def project(elem: FreeElement, target: str) -> PBWElement:
    """Push a free-word combination into the target algebra: the sum of
    the element's integer numerators times their words' cached images,
    kept over the element's denominator.  A vector answered by a built
    reducibility line carries the line, its power vector w and its gcd g
    there (`FreeElement._line`), and its numerators are the line's
    projected polynomials at that point, over the same denominator: the
    same integer form, with no word read."""
    den, nums = elem.integer_form()
    point = getattr(elem, "_line", None)
    if point is not None:
        line, w, g = point
        return PBWElement._from_ints(target, den, line.project(target, w, g))
    out: dict[Monomial, int] = {}
    get = out.get
    for word, x in nums.items():
        for key, c in _word_image(word, target).items():
            out[key] = get(key, 0) + x * c
    return PBWElement._from_ints(target, den, {key: v for key, v in out.items() if v})


# --- quadratic factors and their identity suites ----------------------------


def quadratic_factor(u: Fraction | int, target: str) -> PBWElement:
    """X_u = f2 f1 + u*h, with the extra constant -u(u-1)/2 in target L.

    For u = a/b that is b f2 f1 + a h over b in "H", and
    2b^2 f2 f1 + 2ab h - a(a-b) over 2b^2 in "L"."""
    a, b = u.numerator, u.denominator
    if target == "L":
        den, nums = 2 * b * b, {(1, 1, 0): 2 * b * b, (0, 0, 1): 2 * a * b, (0, 0, 0): -a * (a - b)}
    elif target == "H":
        den, nums = b, {(1, 1, 0): b, (0, 0, 1): a}
    else:
        raise ValueError(f"target must be one of {TARGETS}")
    return PBWElement._from_ints(target, den, {k: v for k, v in nums.items() if v})


def f_power(letter: int, k: int, target: str) -> PBWElement:
    return PBWElement.generator(letter, target, k)


def shift_left(u: Fraction | int, alpha: int, target: str) -> bool:
    """f2^alpha X_u == X_{u-alpha} f2^alpha."""
    u = Fraction(u)
    lhs = f_power(2, alpha, target) * quadratic_factor(u, target)
    rhs = quadratic_factor(u - alpha, target) * f_power(2, alpha, target)
    return lhs == rhs


def shift_right(u: Fraction | int, beta: int, target: str) -> bool:
    """f1^beta X_u == X_{u+beta} f1^beta."""
    u = Fraction(u)
    lhs = f_power(1, beta, target) * quadratic_factor(u, target)
    rhs = quadratic_factor(u + beta, target) * f_power(1, beta, target)
    return lhs == rhs


def sandwich_falling(alpha: int, n: int, target: str) -> bool:
    """f1^alpha f2^n f1^{n-alpha} == X_alpha X_{alpha-1} ... X_{alpha-n+1}
    for 0 <= alpha <= n."""
    if not 0 <= alpha <= n:
        raise ValueError("need 0 <= alpha <= n")
    lhs = f_power(1, alpha, target) * f_power(2, n, target) * f_power(1, n - alpha, target)
    rhs = PBWElement.one(target)
    for k in range(n):
        rhs = rhs * quadratic_factor(alpha - k, target)
    return lhs == rhs


def sandwich_rising(alpha: int, n: int, target: str) -> bool:
    """f2^alpha f1^n f2^{n-alpha} == X_{1-alpha} X_{2-alpha} ... X_{n-alpha}
    for 0 <= alpha <= n."""
    if not 0 <= alpha <= n:
        raise ValueError("need 0 <= alpha <= n")
    lhs = f_power(2, alpha, target) * f_power(1, n, target) * f_power(2, n - alpha, target)
    rhs = PBWElement.one(target)
    for k in range(1, n + 1):
        rhs = rhs * quadratic_factor(k - alpha, target)
    return lhs == rhs


def factors_commute(u: Fraction | int, v: Fraction | int, target: str) -> bool:
    a = quadratic_factor(u, target)
    b = quadratic_factor(v, target)
    return a * b == b * a


def full_ladder(n: int, target: str) -> bool:
    """f1^n f2^n == X_1 X_2 ... X_n."""
    return sandwich_rising(0, n, target)


def factor_shift_identities(alpha: int, beta: int, u: Fraction | int, n: int, target: str) -> dict[str, bool]:
    """Run all factor identities for one parameter tuple."""
    a = min(alpha, n)
    return {
        "shift_left": shift_left(u, alpha, target),
        "shift_right": shift_right(u, beta, target),
        "sandwich_falling": sandwich_falling(a, n, target),
        "sandwich_rising": sandwich_rising(a, n, target),
        "factors_commute": factors_commute(u, Fraction(u) + Fraction(beta, max(alpha, 1)), target),
        "full_ladder": full_ladder(n, target),
    }
