"""The Rademacher expectation and its Khinchine-type lower bound F(s).

E|sum a_k e_k| (signs e_k = +/-1 equiprobable) is computed exactly up to
n = 40 by meet in the middle (sorted signed sums of one half of the weights,
one binary search per signed sum of the other), with a stated round-off
bound, and by seeded Monte Carlo beyond.  The function
F(s), increasing to sqrt(2/pi), gives the chain
    F(a_n^-2)  <=  sum a_k^2 F(a_k^-2)  <=  E|sum a_k e_k|,
which is the expectation half of the Mahler-gap inequality.
"""

import math

from boxgap import (
    FamilySpec,
    exact_expectation,
    f_function,
    generate,
    khinchine_bounds,
    mc_expectation,
)

print("F(s) rises to sqrt(2/pi) ~ %.7f:" % math.sqrt(2 / math.pi))
for s in (1, 2, 4, 16, 64, 1024, 10**4):
    v, err = f_function(float(s))
    print(f"  F({s:>6}) = {v:.7f}  (certified quadrature error {err:.1e})")

print("\nfor even integer s, F(s) equals the equal-weight expectation exactly:")
for s in (2, 4, 6):
    v, _ = f_function(float(s))
    e = exact_expectation(generate(FamilySpec("equal", s))).expectation
    print(f"  F({s}) = {v:.9f}   E(equal n={s}) = {e:.9f}")

print("\nexact vs Monte Carlo (n = 22):")
A = generate(FamilySpec("random", 22, c0=3.0, seed=11))
exact = exact_expectation(A)
mc = mc_expectation(A, samples=500_000, seed=1)
print(f"  exact = {exact.expectation:.7f}  (round-off bound {exact.error:.1e})")
print(f"  MC    = {mc.expectation:.7f} +/- {mc.stderr:.7f}"
      f"  ({abs(mc.expectation - exact.expectation) / mc.stderr:.1f} sigma)")

print("\nbound chain on random vectors:")
for n in (3, 8, 15):
    A = generate(FamilySpec("random", n, c0=4.0, seed=n))
    kb = khinchine_bounds(A)
    e = exact_expectation(A).expectation
    print(f"  n = {n:2d}: F(a_n^-2) = {kb.f_of_an:.5f} <= weighted sum = "
          f"{kb.weighted_sum:.5f} <= E = {e:.5f}")
