"""Products of quadratic factors matching projected singular vectors.

For each orbit family the projection of the singular vector into a
three-dimensional target factors as a product of quadratic factors X_u,
with subscripts given by alternating partial sums of the Gamma columns,
followed by a single trailing generator power.  Subscripts are affine in
the rewrite variable xi; multiplicities and the trailing exponent are
integer multiples of m.  The product is multiplied out once per family and
target with xi left free, as integer polynomials in xi on each monomial, and
evaluated at each sample's xi.  end_to_end() checks the factorization
against the brute-force singular vector, exactly, at generic rational t
samples, with the family's weight and xi kept as integer forms in t.

The records here are immutable namedtuples: hashed and compared as their
field tuples, so also iterable, orderable and equal to a plain tuple.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .cartan import CartanData, RootVector, family_root
from .freealg import grade_cap
from .gamma import (
    GENERIC_T_SAMPLES,
    AffineForm,
    GammaTable,
    WeightParam,
    case_weight,
    xi_of_mt,
)
from .pbw import Monomial, PBWElement, _mono_mul, project, projection_defined
from .verma import singular_vectors


def alt_sum(table: GammaTable, which: int, start: int, stop: int, first_sign: int) -> int:
    """first_sign * (Gamma^start - Gamma^{start+1} + ...) through stop,
    on column `which`; empty when start > stop."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if first_sign not in (1, -1):
        raise ValueError("first_sign must be +1 or -1")
    total = 0
    sign = first_sign
    for i in range(start, stop + 1):
        total += sign * table.entry(i)[which - 1]
        sign = -sign
    return total


class FactorBlock(namedtuple("FactorBlock", "family w count subscripts")):
    """One run of factors X_{u(1)} ... X_{u(count)}, `family` "plain" or
    "tilde"; subscripts are AffineForms in xi."""

    __slots__ = ()


def _block(family: str, w: int, r: int, s: int, m: int, table: GammaTable) -> FactorBlock:
    """Block w of the product with superscripts (r, s).

    plain, odd w:  count (G2^{w+1}-G1^{w-1})m, u(k) = alt2(w+1..r,-)xi + alt1(w-1..s,+)m + k
    plain, even w: count (G1^w-G2^w)m,        u(k) = alt2(w+1..r,+)xi + alt1(w-1..s,-)m - (k-1)
    tilde, odd w:  count (G2^{w+1}-G2^w)m,    u(k) = alt1(w..r,+)xi + alt2(w..s,-)m - (k-1)
    tilde, even w: count (G2^{w+1}-G2^w)m,    u(k) = alt1(w..r,-)xi + alt2(w..s,+)m + k

    A negative count gives no subscripts; `build_product` refuses it.
    """
    odd = w % 2 == 1
    if family == "plain":
        if odd:
            count = (table.g2(w + 1) - table.g1(w - 1)) * m
            a = alt_sum(table, 2, w + 1, r, -1)
            b = alt_sum(table, 1, w - 1, s, 1)
            ks = range(1, count + 1)
        else:
            count = (table.g1(w) - table.g2(w)) * m
            a = alt_sum(table, 2, w + 1, r, 1)
            b = alt_sum(table, 1, w - 1, s, -1)
            ks = range(0, -count, -1)
    elif family == "tilde":
        count = (table.g2(w + 1) - table.g2(w)) * m
        if odd:
            a = alt_sum(table, 1, w, r, 1)
            b = alt_sum(table, 2, w, s, -1)
            ks = range(0, -count, -1)
        else:
            a = alt_sum(table, 1, w, r, -1)
            b = alt_sum(table, 2, w, s, 1)
            ks = range(1, count + 1)
    else:
        raise ValueError("family must be 'plain' or 'tilde'")
    subs = tuple(AffineForm(b * m + k, 0, a, "xi") for k in ks)
    return FactorBlock(family, w, count, subs)


class ProductSpec(namedtuple("ProductSpec", "case n m blocks tail_letter tail_power")):
    """Factor product of family (case, n) at multiplicity m: FactorBlocks,
    then f_{tail_letter}^tail_power."""

    __slots__ = ()

    def factor_count(self) -> int:
        return sum(b.count for b in self.blocks)


def build_product(case: int, n: int, m: int, cartan: CartanData) -> ProductSpec:
    """Factor product for family (case, n) at multiplicity m.

    Multiplicities telescope to the bidegree of grade m*root, which is
    asserted.  They can go negative off the verified regime (min(p, q) = 1
    at deeper families); such products are refused rather than guessed.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    g = GammaTable(cartan)
    if case == 1:
        family, top, r, s = "plain", 2 * n - 2, 2 * n - 1, 2 * n - 3
        tail_letter, tail_power = 1, (g.g1(2 * n - 1) - g.g1(2 * n - 2)) * m
    elif case == 2:
        family, top, r, s = "plain", 2 * n - 1, 2 * n, 2 * n - 2
        tail_letter, tail_power = 2, (g.g1(2 * n) - g.g1(2 * n - 1)) * m
    elif case == 3:
        family, top, r, s = "tilde", 2 * n - 2, 2 * n - 2, 2 * n - 2
        tail_letter, tail_power = 2, (g.g2(2 * n) - g.g2(2 * n - 1)) * m
    elif case == 4:
        family, top, r, s = "tilde", 2 * n - 1, 2 * n - 1, 2 * n - 1
        tail_letter, tail_power = 1, (g.g2(2 * n + 1) - g.g2(2 * n)) * m
    else:
        raise ValueError("case must be 1, 2, 3, or 4")
    where = f"case {case}, n = {n}, m = {m} at (p, q) = ({cartan.p}, {cartan.q})"
    if tail_power < 0:
        raise ValueError(f"{where}: negative trailing exponent; factorization undefined here")
    blocks = tuple(_block(family, w, r, s, m, g) for w in range(1, top + 1))
    for block in blocks:
        if block.count < 0:
            raise ValueError(f"{where}: negative factor multiplicity in block {block.w}")
    spec = ProductSpec(case, n, m, blocks, tail_letter, tail_power)

    root = family_root(case, n, cartan)
    factors = spec.factor_count()
    deg1 = factors + (tail_power if tail_letter == 1 else 0)
    deg2 = factors + (tail_power if tail_letter == 2 else 0)
    assert (deg1, deg2) == (m * root.k1, m * root.k2), "block multiplicities do not telescope"
    return spec


def _product_polynomial(spec: ProductSpec, target: str) -> tuple[int, int, dict[Monomial, tuple[int, ...]]]:
    """The factor product with xi left free, as (den, degree, {monomial:
    integer coefficients of a polynomial in xi, constant first}) over the
    common denominator den.

    Each subscript is u = c + a*xi with integer c and a, so X_u is
    f2 f1 + (c + a*xi) h, minus (c + a*xi)(c - 1 + a*xi)/2 in "L": twice
    that has integer polynomials in xi on each monomial.  The factors are
    multiplied one by one through the closed-form monomial product, which
    is integral (the structure constants are integers), on integer
    polynomials over the common denominator 2^(number of factors) in "L".
    The result is reduced by the gcd of everything and kept with the
    largest degree that occurs.
    """
    # each factor as {monomial: polynomial in xi, constant first}, twice
    # X_u in "L"
    factors: list[dict[Monomial, list[int]]] = []
    for block in spec.blocks:
        for sub in block.subscripts:
            c, a = int(sub.c0), int(sub.cv)
            if target == "L":
                factors.append({
                    (1, 1, 0): [2],
                    (0, 0, 1): [2 * c, 2 * a],
                    (0, 0, 0): [-c * (c - 1), -a * (2 * c - 1), -a * a],
                })
            else:
                factors.append({(1, 1, 0): [1], (0, 0, 1): [c, a]})
    den = 1 << len(factors) if target == "L" else 1
    if spec.tail_power:
        tail = (0, spec.tail_power, 0) if spec.tail_letter == 1 else (spec.tail_power, 0, 0)
        factors.append({tail: [1]})
    out: dict[Monomial, list[int]] = {(0, 0, 0): [1]}
    for factor in factors:
        width = max(map(len, out.values())) + max(map(len, factor.values())) - 1
        nxt: dict[Monomial, list[int]] = {}
        for k1, p1 in out.items():
            for k2, p2 in factor.items():
                for k, c in _mono_mul(k1, k2, target).items():
                    poly = nxt.setdefault(k, [0] * width)
                    for d1, v1 in enumerate(p1):
                        if v1:
                            fv = c * v1
                            for d2, v2 in enumerate(p2):
                                poly[d1 + d2] += fv * v2
        out = {}
        for k, poly in nxt.items():
            while poly and not poly[-1]:
                poly.pop()
            if poly:
                out[k] = poly
    g = math.gcd(den, *(v for poly in out.values() for v in poly))
    polys = {k: tuple(v // g for v in poly) for k, poly in out.items()}
    degree = max((len(poly) - 1 for poly in polys.values()), default=0)
    return (den // g, degree, polys)


def expand_product(
    spec: ProductSpec, xi_value: Fraction, target: str, *, polynomial: tuple | None = None
) -> PBWElement:
    """The product of the factors at a concrete xi in the target algebra:
    its polynomial in xi evaluated at xi = X/D in ints, as D^degree times
    each polynomial, over den * D^degree.  A caller that keeps
    `_product_polynomial(spec, target)` passes it as `polynomial`;
    otherwise the factors are multiplied out here."""
    den, degree, polys = polynomial or _product_polynomial(spec, target)
    X, D = xi_value.numerator, xi_value.denominator
    weights = [X**i * D ** (degree - i) for i in range(degree + 1)]
    out = {k: v for k, coeffs in polys.items() if (v := sum(map(mul, coeffs, weights)))}
    return PBWElement._from_ints(target, den * D**degree, out)


def proportionality(left: PBWElement, right: PBWElement) -> Fraction | None:
    """Scalar s with left == s * right, or None.  Zero elements never count
    as proportional to nonzero ones; s must be nonzero."""
    (dl, nl), (dr, nr) = left.integer_form(), right.integer_form()
    if not nr or left.target != right.target or nl.keys() != nr.keys():
        return None
    # s = (nl[key]/dl) / (nr[key]/dr); left[k] == s * right[k] at every k
    # is nl[k] * nr[key] == nl[key] * nr[k], as the denominators cancel
    key = next(iter(nr))
    a, b = nl[key], nr[key]
    for k, v in nl.items():
        if v * b != a * nr[k]:
            return None
    return Fraction(a * dr, b * dl)


class VerificationRecord(
    namedtuple(
        "VerificationRecord",
        "case n m p q target t xi grade quotient_dim kernel_dim status scalar"
        " reason weight vector projection product",
        defaults=(None,) * 5,
    )
):
    """One (t, target) check of end_to_end, with `status` "ok", "failed",
    "nongeneric" or "skipped"; t, xi and scalar are Fractions.  Witnesses:
    the sampled WeightParam, the oracle FreeElement `vector` and the two
    PBWElement sides of the proportionality check.  Fields that do not
    apply are None.
    """

    __slots__ = ()


# (case, n, m, cartan) -> (whether the weight is shifted, lambda(h1),
# lambda(h2) and xi (0 if none) at this m as `_in_t` integers, product
# spec, {target: `_product_polynomial(spec, target)`}), built once per
# process, the last dict one target at a time; shared and otherwise never
# mutated
_FAMILY_CACHE: dict[tuple[int, int, int, CartanData], tuple[bool, tuple[tuple[int, int, int], ...], ProductSpec, dict]] = {}


def _in_t(form: AffineForm | None, m: int) -> tuple[int, int, int]:
    """The form at this m as integers (c, a, d), with value (c + a*t)/d."""
    if form is None:
        return (0, 0, 1)
    c, a = form.c0 + form.cm * m, form.cv
    d = math.lcm(c.denominator, a.denominator)
    return (c.numerator * (d // c.denominator), a.numerator * (d // a.denominator), d)


def default_targets(cartan: CartanData) -> list[str]:
    targets = ["H"]
    if projection_defined("L", cartan):
        targets.append("L")
    return targets


def end_to_end(
    case: int,
    n: int,
    m: int,
    cartan: CartanData,
    targets: list[str] | None = None,
    t_samples: tuple[Fraction, ...] | None = None,
    cap: int | None = None,
) -> list[VerificationRecord]:
    """Compare the factor product against the projected brute-force singular
    vector for every (t, target) pair, exactly.

    Each record carries the proportionality scalar when the check passes.
    t values where the kernel is not one-dimensional are reported as
    nongeneric instead of being interpreted.  A target whose projection is
    undefined, and every target when g1 + g2 exceeds `cap` (default: the
    grade cap), gets one skipped record and nothing is computed for it.
    """
    if targets is None:
        targets = default_targets(cartan)
    if t_samples is None:
        t_samples = GENERIC_T_SAMPLES
    if cap is None:
        cap = grade_cap()
    root = family_root(case, n, cartan)
    grade = (m * root.k1, m * root.k2)
    over_cap = sum(grade) > cap

    records: list[VerificationRecord] = []
    base = dict(case=case, n=n, m=m, p=cartan.p, q=cartan.q, grade=grade)
    live = [tg for tg in targets if projection_defined(tg, cartan)]
    for tg in targets:
        if tg not in live:
            reason = "projection undefined: Serre relator does not vanish"
        elif over_cap:
            reason = f"grade {grade} exceeds cap {cap}"
        else:
            continue
        records.append(
            VerificationRecord(
                **base, target=tg, t=None, xi=None, quotient_dim=None,
                kernel_dim=None, status="skipped", scalar=None, reason=reason,
            )
        )
    if over_cap or not live:
        return records

    key = (case, n, m, cartan)
    if key not in _FAMILY_CACHE:
        weight = case_weight(case, n, cartan)
        forms = (weight.x, weight.y, xi_of_mt(case, n, cartan))
        _FAMILY_CACHE[key] = (weight.shifted, tuple(_in_t(f, m) for f in forms), build_product(case, n, m, cartan), {})
    shifted, forms, spec, polynomials = _FAMILY_CACHE[key]
    for tg in live:
        if tg not in polynomials:
            polynomials[tg] = _product_polynomial(spec, tg)

    for t in t_samples:
        t = Fraction(t)
        T, E = t.numerator, t.denominator
        x, y, xi_val = [Fraction(c * E + a * T, d * E) for c, a, d in forms]
        w_val = WeightParam(x, y, shifted)
        res = singular_vectors(w_val, root, m, cartan)
        if res.kernel_dim != 1:
            for tg in live:
                records.append(
                    VerificationRecord(
                        **base, target=tg, t=t, xi=xi_val,
                        quotient_dim=res.quotient_dim, kernel_dim=res.kernel_dim,
                        status="nongeneric", scalar=None,
                        reason=f"kernel dimension {res.kernel_dim} at this t",
                        weight=w_val,
                    )
                )
            continue
        for tg in live:
            proj = project(res.vector, tg)
            prod = expand_product(spec, xi_val, tg, polynomial=polynomials[tg])
            s = proportionality(proj, prod)
            if s is not None:
                status, reason = "ok", None
            elif proj.is_zero() and prod.is_zero():
                status, reason = "nongeneric", "projection and product both vanish at this t"
            else:
                status, reason = "failed", "projection is not a scalar multiple of the product"
            records.append(
                VerificationRecord(
                    **base, target=tg, t=t, xi=xi_val,
                    quotient_dim=res.quotient_dim, kernel_dim=res.kernel_dim,
                    status=status, scalar=s, reason=reason,
                    weight=w_val, vector=res.vector, projection=proj, product=prod,
                )
            )
    return records
