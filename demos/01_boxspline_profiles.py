"""Evaluate a univariate box spline three independent ways.

B(x|A) is the density of a_1 U_1 + ... + a_n U_n with U_i iid uniform on
[0,1); geometrically it is the (n-1)-volume of the slice of the unit cube
by the hyperplane <A, y> = x, divided by |A|.  This script tabulates one
profile with the closed-form truncated-power formula, the sliding-window
convolution oracle, and numerical Fourier inversion, and shows they agree.
"""

import numpy as np

from boxgap import (
    density_profile,
    eval_convolution,
    make_unit,
    max_value,
    phi,
    section_volume_mc,
)
from boxgap.weights import center

A = make_unit([1.0, 2.0, 3.0, 4.0])
print(f"weights (unit-normalized): {np.round(A.a, 6)}")
print(f"support [0, {A.total:.6f}], center {center(A):.6f}\n")

grid = np.linspace(0.0, A.total, 9)[1:-1]
tp = density_profile(A, grid, method="truncated_power")
cv = eval_convolution(A, grid_step=1e-4)
fr = density_profile(A, grid, method="fourier")

print(f"{'x':>10} {'truncated_power':>16} {'convolution':>14} {'fourier':>14}")
for x, v_tp, v_fr in zip(grid, tp.values, fr.values):
    print(f"{x:10.4f} {v_tp:16.10f} {cv.value_at(x):14.10f} {v_fr:14.10f}")

print(f"\nmax |tp - conv|    = {np.max(np.abs(np.asarray(tp.values) - cv.value_at(grid))):.2e}")
print(f"max |tp - fourier| = {np.max(np.abs(np.asarray(tp.values) - np.asarray(fr.values))):.2e}")

# the maximum sits at the center; phi recentres the profile there
peak, err, method = max_value(A)
print(f"\nmax_value          = {peak:.10f} +/- {err:.1e} ({method})")
print(f"phi(0)             = {phi(A, 0.0):.10f}")

# Monte Carlo slab volume as a model-independent sanity check
est, se = section_volume_mc(A, 0.0, half_width=A.a[0] / 8, samples=400_000,
                            seed=1)
print(f"MC slab estimate   = {est:.6f} +/- {se:.6f} (phi(0) within noise)")
