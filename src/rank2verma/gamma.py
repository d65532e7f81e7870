"""Gamma coefficient tables, weight parameterizations, the reducibility
predicate, and closed-form exponent words for the four orbit families.

Exponents and weights are exact affine forms c0 + cm*m + cv*v in a free
parameter v (named "t", or "xi" after the change of variable).  There are
two independent routes to every exponent word: the position-indexed
formulas built from the Gamma tables, and the shifted-reflection
trajectory; tests compare them exactly.

The records here are immutable namedtuples: hashed and compared as their
field tuples, so also iterable, orderable and equal to a plain tuple.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .cartan import CartanData, ReflectionWord, RootVector, family_root, word_for_family

Rat = int | Fraction

# Fixed generic parameter samples used by verification suites; a seeded random
# rational is added per run on top of these.
GENERIC_T_SAMPLES: tuple[Fraction, ...] = (
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(7, 11),
    Fraction(-3, 2),
    Fraction(13, 7),
)


def random_rational(rng, bound: int = 10**6) -> Fraction:
    """A random rational with large numerator and denominator, for generic sampling."""
    num = rng.randint(bound, 2 * bound)
    den = rng.randint(bound, 2 * bound)
    sign = rng.choice((-1, 1))
    return Fraction(sign * num, den)


class AffineForm:
    """Exact affine expression c0 + cm*m + cv*<variable>.

    The variable name is significant only when cv is nonzero.  Supports the
    linear arithmetic needed by trajectories and displays: +, -, scalar *.
    """

    __slots__ = ("c0", "cm", "cv", "variable")

    def __init__(self, c0: Rat = 0, cm: Rat = 0, cv: Rat = 0, variable: str = "t"):
        self.c0 = Fraction(c0)
        self.cm = Fraction(cm)
        self.cv = Fraction(cv)
        self.variable = variable if self.cv else ""

    @classmethod
    def const(cls, c: Rat) -> "AffineForm":
        return cls(c0=c)

    @classmethod
    def m_term(cls, coeff: Rat = 1) -> "AffineForm":
        return cls(cm=coeff)

    @classmethod
    def var_term(cls, variable: str, coeff: Rat = 1) -> "AffineForm":
        return cls(cv=coeff, variable=variable)

    def _coerce(self, other) -> "AffineForm | None":
        if isinstance(other, AffineForm):
            return other
        if isinstance(other, (int, Fraction)):
            return AffineForm.const(other)
        return None

    def _join_variable(self, other: "AffineForm") -> str:
        if self.variable and other.variable and self.variable != other.variable:
            raise ValueError(f"mixed variables {self.variable!r} and {other.variable!r}")
        return self.variable or other.variable or "t"

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        var = self._join_variable(o)
        return AffineForm(self.c0 + o.c0, self.cm + o.cm, self.cv + o.cv, var)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(-self.c0, -self.cm, -self.cv, self.variable or "t")

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return AffineForm(self.c0 * scalar, self.cm * scalar, self.cv * scalar, self.variable or "t")

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self.c0 == o.c0
            and self.cm == o.cm
            and self.cv == o.cv
            and (self.cv == 0 or self.variable == o.variable)
        )

    def __hash__(self):
        # a constant form equals its c0, so it hashes as c0
        if not (self.cm or self.cv):
            return hash(self.c0)
        return hash((self.c0, self.cm, self.cv, self.variable))

    def at(self, m: Rat, value: Rat = 0) -> Fraction:
        """Evaluate at concrete m and variable value."""
        return self.c0 + self.cm * Fraction(m) + self.cv * Fraction(value)

    def substitute_var(self, replacement: "AffineForm") -> "AffineForm":
        """Replace the variable by another affine form in (m, new variable)."""
        base = AffineForm(self.c0, self.cm, 0, replacement.variable or "t")
        return base + replacement * self.cv

    def __repr__(self):
        return f"AffineForm({self})"

    def __str__(self):
        parts = []
        if self.c0:
            parts.append(str(self.c0))
        for coeff, name in ((self.cm, "m"), (self.cv, self.variable)):
            if not coeff:
                continue
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{coeff}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts) if parts else "0"


def gamma(k: int, cartan: CartanData) -> tuple[int, int]:
    """(Gamma_1^k, Gamma_2^k) from the alternating binomial sums in pq."""
    if k < 0:
        raise ValueError("index must be >= 0")
    p, q, pq = cartan.p, cartan.q, cartan.pq
    if k % 2 == 0:
        mm = k // 2
        g1 = q * sum(
            (-1) ** i * math.comb(2 * mm - i - 1, 2 * mm - 2 * i - 1) * pq ** (mm - i - 1)
            for i in range(mm)
        )
        g2 = sum(
            (-1) ** i * math.comb(2 * (mm - 1) - i, 2 * (mm - 1) - 2 * i) * pq ** (mm - i - 1)
            for i in range(mm)
        )
    else:
        mm = (k - 1) // 2
        g1 = sum(
            (-1) ** i * math.comb(2 * mm - i, 2 * mm - 2 * i) * pq ** (mm - i)
            for i in range(mm + 1)
        )
        g2 = p * sum(
            (-1) ** i * math.comb(2 * mm - i - 1, 2 * mm - 2 * i - 1) * pq ** (mm - i - 1)
            for i in range(mm)
        )
    return (g1, g2)


class GammaTable:
    """Gamma entries via the two-term recurrences
    Gamma^{2n+1} = p*Gamma^{2n} - Gamma^{2n-1},
    Gamma^{2n+2} = q*Gamma^{2n+1} - Gamma^{2n},
    seeded with Gamma^0 = (0,0), Gamma^1 = (1,0), Gamma^2 = (q,1); the
    second recurrence only holds from Gamma^3 on.

    Independent of the binomial-sum route in gamma(); tests compare the two.
    """

    def __init__(self, cartan: CartanData):
        self.cartan = cartan
        self._entries: list[tuple[int, int]] = [(0, 0), (1, 0), (cartan.q, 1)]

    def entry(self, k: int) -> tuple[int, int]:
        if k < 0:
            raise ValueError("index must be >= 0")
        e = self._entries
        p, q = self.cartan.p, self.cartan.q
        while len(e) <= k:
            j = len(e)  # computing Gamma^j
            coef = p if j % 2 == 1 else q
            prev, prev2 = e[j - 1], e[j - 2]
            e.append((coef * prev[0] - prev2[0], coef * prev[1] - prev2[1]))
        return e[k]

    def g1(self, k: int) -> int:
        return self.entry(k)[0]

    def g2(self, k: int) -> int:
        return self.entry(k)[1]


class WeightParam(namedtuple("WeightParam", "x y shifted", defaults=(False,))):
    """Highest-weight coordinates (x, y) = (lambda(h1), lambda(h2)).

    `shifted` records whether the x+1 -> x, y+1 -> y change of variable has
    been applied.  Coordinates may be exact rationals or affine forms.
    """

    __slots__ = ()

    def to_shifted(self) -> "WeightParam":
        if self.shifted:
            return self
        return WeightParam(self.x + 1, self.y + 1, True)

    def to_unshifted(self) -> "WeightParam":
        if not self.shifted:
            return self
        return WeightParam(self.x - 1, self.y - 1, False)

    def at(self, m: Rat, value: Rat) -> "WeightParam":
        """Evaluate affine-form coordinates at concrete (m, t-or-xi)."""
        x = self.x.at(m, value) if isinstance(self.x, AffineForm) else Fraction(self.x)
        y = self.y.at(m, value) if isinstance(self.y, AffineForm) else Fraction(self.y)
        return WeightParam(x, y, self.shifted)


def kac_kazhdan(weight: WeightParam, root: RootVector, m: int, cartan: CartanData) -> bool:
    """Reducibility line for (root, m): in shifted coordinates,
    q*a*x + p*b*y = m*(q*a^2 - pq*a*b + p*b^2).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    w = weight.to_shifted()
    p, q = cartan.p, cartan.q
    a, b = root.k1, root.k2
    lhs = q * a * w.x + p * b * w.y
    rhs = m * (q * a * a - p * q * a * b + p * b * b)
    return lhs - rhs == 0


class TrajectoryStep(namedtuple("TrajectoryStep", "generator theta weight_after")):
    """One reflection s_generator, its collinearity coefficient and the
    shifted WeightParam after it."""

    __slots__ = ()


class LambdaTrajectory(namedtuple("LambdaTrajectory", "start steps")):
    """The shifted start WeightParam and a tuple of TrajectorySteps."""

    __slots__ = ()

    def thetas(self) -> tuple:
        """Collinearity coefficients theta_1..theta_N, in application order."""
        return tuple(s.theta for s in self.steps)


def lambda_trajectory(weight: WeightParam, word: ReflectionWord, cartan: CartanData) -> LambdaTrajectory:
    """Run the shifted affine reflections along the word.

    In shifted coordinates s1: (x, y) -> (-x, y + q*x) and
    s2: (x, y) -> (x + p*y, -y); the step's collinearity coefficient is the
    current x (s1 step) or y (s2 step).  Works on rational or affine-form
    coordinates.
    """
    w = weight.to_shifted()
    x, y = w.x, w.y
    p, q = cartan.p, cartan.q
    steps = []
    for i in word.letters:
        if i == 1:
            theta = x
            x, y = -1 * x, y + q * x
        else:
            theta = y
            x, y = x + p * y, -1 * y
        steps.append(TrajectoryStep(i, theta, WeightParam(x, y, True)))
    return LambdaTrajectory(w, tuple(steps))


def _case_letters(case: int, length: int) -> tuple[int, ...]:
    """Letters left to right; families 1,4 start (rightmost) with f1, 2,3 with f2."""
    first = 1 if case in (1, 4) else 2
    rtl = [first if r % 2 == 1 else 3 - first for r in range(1, length + 1)]
    return tuple(reversed(rtl))


class ExponentWord(
    namedtuple("ExponentWord", "case n variable letters exponents degenerate_rewrite", defaults=(False,))
):
    """Word of generators with exact affine-form exponents, left to right.

    `exponents` holds one AffineForm per letter, and `len` counts letters.
    `variable` is "t" for the orbit-family displays, "xi" after the change
    of variable.  `degenerate_rewrite` marks length-1 words where the
    change of variable has no referent.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.letters)

    # namedtuple's own _make, which _replace calls, checks the field count by len
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def center_index(self) -> int:
        return (len(self.letters) - 1) // 2

    def at(self, m: int, value: Rat) -> tuple[tuple[int, Fraction], ...]:
        """Concrete (letter, exponent) pairs at given (m, t-or-xi)."""
        return tuple((g, e.at(m, value)) for g, e in zip(self.letters, self.exponents))

    def column_sums(self) -> tuple[AffineForm, AffineForm]:
        """(total f1 exponent, total f2 exponent) as affine forms."""
        tot1 = AffineForm.const(0)
        tot2 = AffineForm.const(0)
        for g, e in zip(self.letters, self.exponents):
            if g == 1:
                tot1 = tot1 + e
            else:
                tot2 = tot2 + e
        return (tot1, tot2)

    def __str__(self):
        return " ".join(f"f{g}^({e})" for g, e in zip(self.letters, self.exponents))


def _display_params(case: int, n: int) -> tuple[int, int]:
    """(word length, center position from the right)."""
    if case in (1, 3):
        return (4 * n - 3, 2 * n - 1)
    return (4 * n - 1, 2 * n)


def exponent_word(case: int, n: int, cartan: CartanData) -> ExponentWord:
    """Position-indexed display of the exponent word for family (case, n),
    symbolic in (m, t).

    With positions r = 1..N counted from the right and center C, the
    exponent at r is (m-coefficient)*m + (t-coefficient)*t where the
    m-coefficients are a Gamma column divided by the center Gamma value and
    the t-coefficients are mirrored Gamma values, negative right of center.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1, 2, 3, or 4")
    if n < 1:
        raise ValueError("n must be >= 1")
    g = GammaTable(cartan)
    length, center = _display_params(case, n)
    exps_rtl: list[AffineForm] = []
    for r in range(1, length + 1):
        if case == 1:
            mc = Fraction(g.g1(r), g.g1(2 * n - 1))
            tc = -g.g2(2 * n - r) if r <= center else g.g2(r - 2 * n + 2)
        elif case == 2:
            mc = Fraction(g.g2(r + 1), g.g2(2 * n + 1))
            tc = -g.g2(2 * n + 1 - r) if r <= center else g.g2(r + 1 - 2 * n)
        elif case == 3:
            mc = Fraction(g.g2(r + 1), g.g1(2 * n - 1))
            tc = -g.g1(2 * n - 1 - r) if r <= center else g.g1(r + 1 - 2 * n)
        else:
            mc = Fraction(g.g1(r), g.g1(2 * n))
            tc = -g.g1(2 * n - r) if r <= center else g.g1(r - 2 * n)
        exps_rtl.append(AffineForm(0, mc, tc, "t"))
    return ExponentWord(
        case=case,
        n=n,
        variable="t",
        letters=_case_letters(case, length),
        exponents=tuple(reversed(exps_rtl)),
    )


def case_weight(case: int, n: int, cartan: CartanData) -> WeightParam:
    """Shifted weight attached to family (case, n), symbolic in (m, t).

    Chosen so the reducibility line for (root, m) holds identically in t and
    the centermost trajectory exponent equals m; for families 1 and 4 this
    is the displayed weight, for 2 and 3 the displayed one fails both
    conditions and the corrected form below is used.
    """
    g = GammaTable(cartan)
    mvar = AffineForm.m_term()
    t = AffineForm.var_term("t")
    if case == 1:
        d = g.g1(2 * n - 1)
        return WeightParam(mvar * Fraction(1, d) - t * g.g2(2 * n - 1), t * d, True)
    if case == 2:
        d = g.g2(2 * n + 1)
        return WeightParam(t * d, mvar * Fraction(1, d) - t * g.g2(2 * n), True)
    if case == 3:
        d = g.g1(2 * n - 1)
        return WeightParam(t * d, mvar * Fraction(1, d) - t * g.g1(2 * n - 2), True)
    if case == 4:
        d = g.g1(2 * n)
        return WeightParam(mvar * Fraction(1, d) - t * g.g2(2 * n), t * d, True)
    raise ValueError("case must be 1, 2, 3, or 4")


class FamilyData(namedtuple("FamilyData", "case n root word exponents weight")):
    """Everything attached to one orbit family instance; `exponents` and
    the shifted `weight` are symbolic in (m, t)."""

    __slots__ = ()


def ffm_exponents(case: int, n: int, cartan: CartanData) -> FamilyData:
    """Exponent word plus attached weight, root, and reflection word."""
    return FamilyData(
        case=case,
        n=n,
        root=family_root(case, n, cartan),
        word=word_for_family(case, n),
        exponents=exponent_word(case, n, cartan),
        weight=case_weight(case, n, cartan),
    )


def trajectory_exponent_word(case: int, n: int, cartan: CartanData) -> ExponentWord:
    """Oracle route: exponents as trajectory collinearity coefficients.

    Runs the shifted reflections symbolically from the family weight; the
    resulting thetas, read right to left, are the exponents.
    """
    word = word_for_family(case, n)
    traj = lambda_trajectory(case_weight(case, n, cartan), word, cartan)
    thetas = traj.thetas()
    letters_rtl = word.letters
    return ExponentWord(
        case=case,
        n=n,
        variable="t",
        letters=tuple(reversed(letters_rtl)),
        exponents=tuple(reversed(thetas)),
    )


def xi_of_mt(case: int, n: int, cartan: CartanData) -> AffineForm | None:
    """The rewrite variable xi as an affine form in (m, t): the exponent
    immediately left of the centermost letter.  None when no such letter
    exists (families 1 and 3 at n = 1).
    """
    if case in (1, 3) and n == 1:
        return None
    g = GammaTable(cartan)
    if case == 1:
        kappa = Fraction(g.g1(2 * n), g.g1(2 * n - 1))
    elif case == 2:
        kappa = Fraction(g.g2(2 * n + 2), g.g2(2 * n + 1))
    elif case == 3:
        kappa = Fraction(g.g2(2 * n + 1), g.g1(2 * n - 1))
    elif case == 4:
        kappa = Fraction(g.g1(2 * n + 1), g.g1(2 * n))
    else:
        raise ValueError("case must be 1, 2, 3, or 4")
    return AffineForm(0, kappa, 1, "t")


def _xi_word_13(case: int, n: int, cartan: CartanData) -> ExponentWord:
    """Families 1 and 3 in the xi variable, from the mirrored two-column pattern."""
    g = GammaTable(cartan)
    xi = AffineForm.var_term("xi")
    mvar = AffineForm.m_term()
    length, center = _display_params(case, n)
    exps_rtl: list[AffineForm] = [AffineForm.const(0)] * length
    exps_rtl[center - 1] = AffineForm.m_term()
    for d in range(1, center):
        odd = d % 2 == 1
        use_g1_on_odd = case == 1  # family 3 swaps the two Gamma columns
        if odd == use_g1_on_odd:
            left = xi * g.g1(d) - mvar * g.g1(d - 1)
            right = -1 * (xi * g.g1(d)) + mvar * g.g1(d + 1)
        else:
            left = xi * g.g2(d + 1) - mvar * g.g2(d)
            right = -1 * (xi * g.g2(d + 1)) + mvar * g.g2(d + 2)
        exps_rtl[center - 1 + d] = left
        exps_rtl[center - 1 - d] = right
    return ExponentWord(
        case=case,
        n=n,
        variable="xi",
        letters=_case_letters(case, length),
        exponents=tuple(reversed(exps_rtl)),
    )


def xi_word(case: int, n: int, cartan: CartanData) -> ExponentWord:
    """Exponent word in the (m, xi) parameterization.

    Families 2 and 4 wrap the same-n family 1 resp. 3 word in one extra
    letter on each side.  Families 1 and 3 at n = 1 have no letter left of
    center; they are returned unchanged with degenerate_rewrite set.
    """
    if case in (1, 3):
        if n == 1:
            center_only = ExponentWord(
                case=case,
                n=n,
                variable="xi",
                letters=(1,) if case == 1 else (2,),
                exponents=(AffineForm.m_term(),),
                degenerate_rewrite=True,
            )
            return center_only
        return _xi_word_13(case, n, cartan)
    g = GammaTable(cartan)
    xi = AffineForm.var_term("xi")
    mvar = AffineForm.m_term()
    if case == 2:
        inner = xi_word(1, n, cartan)
        outer_letter = 2
        left = xi * g.g1(2 * n - 1) - mvar * g.g1(2 * n - 2)
        right = -1 * (xi * g.g1(2 * n - 1)) + mvar * g.g1(2 * n)
    elif case == 4:
        inner = xi_word(3, n, cartan)
        outer_letter = 1
        left = xi * g.g2(2 * n) - mvar * g.g2(2 * n - 1)
        right = -1 * (xi * g.g2(2 * n)) + mvar * g.g2(2 * n + 1)
    else:
        raise ValueError("case must be 1, 2, 3, or 4")
    return ExponentWord(
        case=case,
        n=n,
        variable="xi",
        letters=(outer_letter,) + inner.letters + (outer_letter,),
        exponents=(left,) + inner.exponents + (right,),
    )


def change_of_variable(word: ExponentWord, cartan: CartanData) -> tuple[ExponentWord, AffineForm | None]:
    """Rewrite a (m, t) exponent word in the (m, xi) parameterization.

    Returns the xi-form word together with xi as an affine form in (m, t);
    the xi form is None exactly when the rewrite is degenerate.
    """
    if word.variable != "t":
        raise ValueError("expected a word in the t parameterization")
    return xi_word(word.case, word.n, cartan), xi_of_mt(word.case, word.n, cartan)
