"""Products of quadratic factors matching projected singular vectors.

For each orbit family the projection of the singular vector into a
three-dimensional target factors as a product of quadratic factors X_u,
with subscripts given by alternating partial sums of the Gamma columns,
followed by a single trailing generator power.  Subscripts are affine in
the rewrite variable xi; multiplicities and the trailing exponent are
integer multiples of m.  end_to_end() checks the factorization against the
brute-force singular vector, exactly, at generic rational t samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import CartanData, RootVector, family_root
from .freealg import FreeElement, grade_cap
from .gamma import (
    GENERIC_T_SAMPLES,
    AffineForm,
    GammaTable,
    WeightParam,
    case_weight,
    xi_of_mt,
)
from .pbw import PBWElement, f_power, project, projection_defined, quadratic_factor
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


@dataclass(frozen=True)
class FactorBlock:
    """One run of factors X_{u(1)} ... X_{u(count)}; subscripts affine in xi."""

    family: str  # "plain" or "tilde"
    w: int
    count: int
    subscripts: tuple[AffineForm, ...]


def _block(family: str, w: int, r: int, s: int, m: int, table: GammaTable) -> FactorBlock:
    """Block w of the product with superscripts (r, s).

    plain, odd w:  count (G2^{w+1}-G1^{w-1})m, u(k) = alt2(w+1..r,-)xi + alt1(w-1..s,+)m + k
    plain, even w: count (G1^w-G2^w)m,        u(k) = alt2(w+1..r,+)xi + alt1(w-1..s,-)m - (k-1)
    tilde, odd w:  count (G2^{w+1}-G2^w)m,    u(k) = alt1(w..r,+)xi + alt2(w..s,-)m - (k-1)
    tilde, even w: count (G2^{w+1}-G2^w)m,    u(k) = alt1(w..r,-)xi + alt2(w..s,+)m + k
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
    if count < 0:
        raise ValueError(f"negative factor multiplicity in block {w}")
    subs = tuple(AffineForm(b * m + k, 0, a, "xi") for k in ks)
    return FactorBlock(family, w, count, subs)


@dataclass(frozen=True)
class ProductSpec:
    case: int
    n: int
    m: int
    blocks: tuple[FactorBlock, ...]
    tail_letter: int
    tail_power: int

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
    if tail_power < 0:
        raise ValueError("negative trailing exponent; factorization undefined here")
    blocks = tuple(_block(family, w, r, s, m, g) for w in range(1, top + 1))
    spec = ProductSpec(case, n, m, blocks, tail_letter, tail_power)

    root = family_root(case, n, cartan)
    factors = spec.factor_count()
    deg1 = factors + (tail_power if tail_letter == 1 else 0)
    deg2 = factors + (tail_power if tail_letter == 2 else 0)
    assert (deg1, deg2) == (m * root.k1, m * root.k2), "block multiplicities do not telescope"
    return spec


def expand_product(spec: ProductSpec, xi_value: Fraction, target: str) -> PBWElement:
    """Multiply the factors at a concrete xi into the target algebra."""
    out = PBWElement.one(target)
    for block in spec.blocks:
        for sub in block.subscripts:
            out = out * quadratic_factor(sub.at(0, xi_value), target)
    if spec.tail_power:
        out = out * f_power(spec.tail_letter, spec.tail_power, target)
    return out


def proportionality(left: PBWElement, right: PBWElement) -> Fraction | None:
    """Scalar s with left == s * right, or None.  Zero elements never count
    as proportional to nonzero ones; s must be nonzero."""
    if left.is_zero() or right.is_zero():
        return None
    key = min(right.coeffs)
    if key not in left.coeffs:
        return None
    s = left.coeffs[key] / right.coeffs[key]
    if s and left == right * s:
        return s
    return None


@dataclass(frozen=True)
class VerificationRecord:
    case: int
    n: int
    m: int
    p: int
    q: int
    target: str
    t: Fraction | None
    xi: Fraction | None
    grade: tuple[int, int]
    quotient_dim: int | None
    kernel_dim: int | None
    status: str  # "ok", "failed", "nongeneric", "skipped"
    scalar: Fraction | None
    reason: str | None = None
    # witnesses: the sampled weight, the oracle vector and both sides of the
    # proportionality check; None where they do not apply
    weight: WeightParam | None = None
    vector: FreeElement | None = None
    projection: PBWElement | None = None
    product: PBWElement | None = None


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

    weight = case_weight(case, n, cartan)
    xi_form = xi_of_mt(case, n, cartan)
    spec = build_product(case, n, m, cartan)

    for t in t_samples:
        t = Fraction(t)
        w_val = weight.at(m, t)
        res = singular_vectors(w_val, root, m, cartan)
        xi_val = xi_form.at(m, t) if xi_form is not None else Fraction(0)
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
            prod = expand_product(spec, xi_val, tg)
            if proj.is_zero() and prod.is_zero():
                records.append(
                    VerificationRecord(
                        **base, target=tg, t=t, xi=xi_val,
                        quotient_dim=res.quotient_dim, kernel_dim=res.kernel_dim,
                        status="nongeneric", scalar=None,
                        reason="projection and product both vanish at this t",
                        weight=w_val, vector=res.vector, projection=proj, product=prod,
                    )
                )
                continue
            s = proportionality(proj, prod)
            records.append(
                VerificationRecord(
                    **base, target=tg, t=t, xi=xi_val,
                    quotient_dim=res.quotient_dim, kernel_dim=res.kernel_dim,
                    status="ok" if s is not None else "failed",
                    scalar=s,
                    reason=None if s is not None else "projection is not a scalar multiple of the product",
                    weight=w_val, vector=res.vector, projection=proj, product=prod,
                )
            )
    return records
