"""
Brute-force singular vectors
============================

Build the graded slice of the Verma module as a quotient of free words,
act with the raising generators by deleting letters, and read the kernel
off sparse fraction-free elimination: each grade's e-action matrix is built
once as integer rows affine in the weight, evaluated at the weight, brought
to reduced echelon form exactly, and each free column gives one kernel
vector.  The rows that led the pivots of a grade's first one-dimensional
kernel are kept; a later weight is solved on those and the answer checked
against every other row.
"""

from fractions import Fraction

from rank2verma import (
    CartanData,
    WeightParam,
    annihilates,
    case_weight,
    family_root,
    raising_commutator_witness,
    singular_vectors,
    word_str,
)

cartan = CartanData(2, 3)

# the family with root (1, q): weight on the reducibility line at m = 1
m, t = 1, Fraction(1, 3)
root = family_root(2, 1, cartan)
weight = case_weight(2, 1, cartan).at(m, t)
res = singular_vectors(weight, root, m, cartan)
print(f"root {root.as_pair()}, m = {m}, grade {res.grade}")
print(f"quotient dimension {res.quotient_dim}, kernel dimension {res.kernel_dim}")
for word, coeff in res.vector.items():
    print(f"    {str(coeff):>6s} * {word_str(word)}")
assert annihilates(res.vector, weight, cartan)
print("both raising generators kill the vector exactly")

# an off-line weight has nothing at this grade
generic = WeightParam(Fraction(13, 9), Fraction(4, 7), shifted=True)
empty = singular_vectors(generic, root, m, cartan)
print(f"\noff the line: on_line={empty.on_line}, kernel dimension {empty.kernel_dim}")

# the raising operators do not commute; their bracket raises by a1+a2
w = WeightParam(Fraction(5, 7), Fraction(-2, 3))
c12, c21, diff = raising_commutator_witness(w, cartan)
print(f"\ne1 e2 (f1 f2 u) = {c12} u,  e2 e1 (f1 f2 u) = {c21} u,  difference {diff} = -p*y")
