"""Graded membership questions, answered by exact GF(p) linear algebra.

Two recurring subspaces of each degree: the span of products of
positive-degree invariants (whose quotient counts the minimal
generators), and the span of products of elementary multisymmetric
generators (the polarization algebra).  Both are echelonized over the
orbit-sum coordinate system.
"""

from multisym import (
    GradedDimReport, format_tuple, gamma_basis, in_p_algebra, p_algebra_span,
    power_sum, square_ideal_quotient,
)

p, n = 2, 2

print("== minimal generators, degree by degree ==")
print(GradedDimReport.CSV_HEADER)
for d in range(1, 5):
    print(square_ideal_quotient(d, n, p).csv_row())
print("(the quotient dimension matches the predicted generator count:")
print(" power sums with entries < p, plus full column products in degree p)")

print()
print("== membership in the polarization algebra ==")
f = power_sum((1, 1), 3, 2)
result = in_p_algebra(f)
print("M(1,1) at p=3 lies in the generator algebra:", result is not None)
for coldegs, combo in result:
    for factors, coeff in sorted(combo.items()):
        pretty = " * ".join(f"E{format_tuple(b)}" for b in factors)
        print(f"   {coeff} * {pretty}")

print()
print("== the generator algebra is a proper subring ==")
print("dim of generator products, degree 3, width 3, p=2:",
      p_algebra_span(3, 3, 2).dim)
print("dim of all invariants there:", gamma_basis(3, 3, 2).dim)
missing = power_sum((1, 1, 1), 2, 3)
print("the all-ones power sum M(1,1,1) is the missing direction:",
      in_p_algebra(missing) is None)
