"""Exact-arithmetic singular vectors of rank-2 Kac-Moody Verma modules and
their quadratic-factor projections.

The public surface groups into four layers: root orbits and integer
sequences (cartan), Gamma tables with exponent words and weights (gamma),
the brute-force Verma oracle (freealg, verma, and lines for its
polynomial form along a reducibility line), and the projection targets
with their factor products (pbw, products).
"""

from .cartan import (
    CartanData,
    FiniteTypeError,
    OrbitPoint,
    ReflectionWord,
    RootVector,
    SequenceTable,
    apply_word,
    family_root,
    identify_family,
    orbit,
    reflect,
    reflection_word,
    seq_a,
    seq_a_closed_form,
    seq_a_surd,
    word_for_family,
)
from .freealg import (
    DEFAULT_GRADE_CAP,
    FreeElement,
    GradeCapExceeded,
    GradedQuotient,
    graded_quotient,
    serre_element,
    word_str,
    words_of_grade,
)
from .gamma import (
    GENERIC_T_SAMPLES,
    AffineForm,
    ExponentWord,
    FamilyData,
    GammaTable,
    WeightParam,
    case_weight,
    change_of_variable,
    exponent_word,
    ffm_exponents,
    gamma,
    kac_kazhdan,
    lambda_trajectory,
    trajectory_exponent_word,
    xi_of_mt,
    xi_word,
)
from .pbw import (
    PBWElement,
    factor_shift_identities,
    factors_commute,
    full_ladder,
    naive_normal_form,
    project,
    projection_defined,
    quadratic_factor,
    sandwich_falling,
    sandwich_rising,
    shift_left,
    shift_right,
)
from .products import (
    ProductSpec,
    VerificationRecord,
    alt_sum,
    build_product,
    end_to_end,
    expand_product,
    proportionality,
)
from .verma import (
    SingularVectorResult,
    annihilates,
    e_action,
    ideal_e_stable,
    raising_commutator_witness,
    singular_vectors,
)

__version__ = "0.1.0"
