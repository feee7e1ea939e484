"""Box splines converge to a fixed Gaussian as n grows.

For unit weight vectors the variance of sum a_i U_i is exactly 1/12, so as
n -> infinity the density B(.|A) approaches
    sqrt(6/pi) exp(-6 (x - center)^2),
with peak sqrt(6/pi) ~ 1.3819766.  The saddle-point approximation equals
that peak *exactly* at the center for every n, and its relative error off
the peak shrinks like O(1/n).
"""

import math

import numpy as np

from boxgap import (
    FamilySpec,
    convergence_report,
    generate,
    max_value,
    saddle_density,
    solve_saddle,
    truncated_power_raw,
)
from boxgap.weights import center

GAUSS_PEAK = math.sqrt(6.0 / math.pi)
print(f"Gaussian peak sqrt(6/pi) = {GAUSS_PEAK:.7f}\n")

print("peak of B(.|A) along the equal-weight family:")
for n in (4, 8, 16, 32, 64):
    peak, err, method = max_value(generate(FamilySpec("equal", n)))
    print(f"  n = {n:3d}: max = {peak:.7f} +/- {err:.0e} by {method:15s}"
          f" (gap to limit {GAUSS_PEAK - peak:+.5f})")

print("\nsup-distance to the Gaussian limit (halves when n doubles):")
for rep in convergence_report([FamilySpec("equal", n) for n in (8, 16, 32)]):
    print(f"  n = {rep.n:3d}: sup = {rep.sup_distance:.6f}, "
          f"L2 = {rep.l2_distance:.6f}")

print("\nsaddle-point approximation at the center is exact in the limit")
print("and its slope there is exactly 12 for every unit A:")
A = generate(FamilySpec("random", 10, c0=3.0, seed=7))
c, h = center(A), 1e-3
slope = (solve_saddle(A, c + h).s0 - solve_saddle(A, c - h).s0) / (2 * h)
print(f"  random n=10: saddle density(center) = {saddle_density(A, c):.12f}")
print(f"               FD slope of s0 at c    = {slope:.6f}")

print("\nsaddle vs exact relative error at the center ~ 3/(20 n):")
for n in (6, 12, 24):
    A = generate(FamilySpec("equal", n))
    exact = truncated_power_raw(A.a, center(A))
    rel = abs(saddle_density(A, center(A)) - exact) / exact
    print(f"  n = {n:3d}: rel err = {rel:.5f}  (3/(20n) = {3 / (20 * n):.5f})")
