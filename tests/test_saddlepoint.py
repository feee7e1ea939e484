import math
import warnings

import numpy as np
import pytest

from boxgap.boxspline import eval_truncated_power
from boxgap.errors import DomainError
from boxgap.saddlepoint import (
    GAUSS_PEAK,
    cgf,
    cgf_derivs,
    convergence_report,
    gaussian_limit,
    saddle_density,
    saddle_third_derivative_check,
    solve_saddle,
)
from boxgap.weights import FamilySpec, center, generate, make_unit


def _random_A(n, seed):
    return generate(FamilySpec("random", n, c0=4.0, seed=seed))


# ---------------------------------------------------------------------------
# CGF and derivatives


def test_cgf_at_zero():
    A = _random_A(6, seed=1)
    assert cgf(A, 0.0) == 0.0
    kp, kpp, kppp = cgf_derivs(A, 0.0)
    assert kp == pytest.approx(center(A), abs=1e-14)
    assert kpp == pytest.approx(1.0 / 12.0, abs=1e-14)  # unit norm
    assert kppp == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("s", [-40.0, -1.0, -1e-3, -1e-6, 1e-6, 1e-3, 0.03,
                               1.0, 40.0, 650.0])
def test_derivs_match_finite_differences(s):
    A = _random_A(5, seed=2)
    h = 1e-5
    kp, kpp, kppp = cgf_derivs(A, s)
    fd1 = (cgf(A, s + h) - cgf(A, s - h)) / (2 * h)
    fd2 = (cgf(A, s + h) - 2 * cgf(A, s) + cgf(A, s - h)) / h**2
    kp_p = cgf_derivs(A, s + h)[1]
    kp_m = cgf_derivs(A, s - h)[1]
    fd3 = (kp_p - kp_m) / (2 * h)
    assert abs(kp - fd1) <= 1e-6 * max(1.0, abs(kp))
    # second differences of K are roundoff-limited by |K| eps / h^2
    round_off = 4.0 * abs(cgf(A, s)) * 2.2e-16 / h**2
    assert abs(kpp - fd2) <= 1e-5 * max(1.0, abs(kpp)) + round_off
    assert abs(kppp - fd3) <= 1e-6 * max(1.0, abs(kppp))


def test_cgf_convex():
    A = _random_A(7, seed=3)
    grid = np.linspace(-30.0, 30.0, 61)
    kps = [cgf_derivs(A, s)[0] for s in grid]
    assert all(b >= a - 1e-12 for a, b in zip(kps, kps[1:]))
    assert all(cgf_derivs(A, s)[1] > 0.0 for s in grid)


# ---------------------------------------------------------------------------
# saddle equation


def test_solve_saddle_center_is_zero():
    A = _random_A(8, seed=4)
    sol = solve_saddle(A, center(A))
    assert sol.s0 == pytest.approx(0.0, abs=1e-10)
    assert sol.residual <= 1e-12 * max(1.0, center(A))


def test_solve_saddle_off_center():
    A = _random_A(4, seed=5)
    for x in [0.1 * A.total, 0.5 * A.total, 0.93 * A.total]:
        sol = solve_saddle(A, x)
        assert sol.Kp == pytest.approx(x, abs=1e-11)
        assert sol.Kpp > 0.0


def test_solve_saddle_domain_errors():
    A = make_unit([1.0, 1.0])
    for x in [0.0, -0.3, A.total, A.total + 1.0]:
        with pytest.raises(DomainError):
            solve_saddle(A, x)


def _bisect_saddle(A, x):
    """Test-only oracle: bisection on K' inside a doubled bracket."""
    lo, hi = -1.0, 1.0
    while cgf_derivs(A, lo)[0] >= x:
        lo *= 2.0
    while cgf_derivs(A, hi)[0] <= x:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if cgf_derivs(A, mid)[0] < x:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("n", [1, 2, 8, 26])
def test_solve_saddle_matches_bisection_oracle(n):
    A = _random_A(n, seed=n) if n > 1 else make_unit([1.0])
    for frac in [1e-9, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-9]:
        x = frac * A.total
        sol = solve_saddle(A, x)
        tol = 1e-12 * max(1.0, abs(x))
        assert abs(sol.Kp - x) <= tol
        s_ref = _bisect_saddle(A, x)
        # a residual within tol pins s0 only to tol / K''(s0); that width
        # exceeds 1e-9 |s0| within 1e-9 of the support ends, where K'' ~ n/s^2
        assert abs(sol.s0 - s_ref) <= max(1e-9 * abs(s_ref), tol / sol.Kpp)


def test_saddle_density_near_support_end_is_warning_free():
    # factors with |a s| in (474, 600] used to overflow sinh^3 in the third
    # derivative of the CGF
    A = generate(FamilySpec("equal", 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = saddle_density(A, A.total - 8.0 / 1500.0)
    assert 0.0 < value < 1e-10


def test_saddle_density_center_identity():
    # s0 = 0, K = 0, K'' = 1/12 give exactly sqrt(6/pi) for any unit A
    for seed in range(5):
        A = _random_A(3 + seed * 5, seed=seed + 10)
        assert saddle_density(A, center(A)) == pytest.approx(GAUSS_PEAK,
                                                             abs=1e-12)


def test_saddle_density_relative_error_rate():
    # relative error at the center shrinks like O(1/n) (approx 3/(20 n))
    errs = {}
    for n in (8, 12, 16):
        A = generate(FamilySpec("equal", n))
        exact = eval_truncated_power(A, center(A))
        errs[n] = abs(saddle_density(A, center(A)) - exact) / exact
    assert errs[12] <= 0.03
    assert 1.6 <= errs[8] / errs[16] <= 2.4


def test_saddle_slope_twelve():
    A = _random_A(6, seed=21)
    c, h = center(A), 1e-3
    sp = solve_saddle(A, c + h).s0
    sm = solve_saddle(A, c - h).s0
    assert (sp - sm) / (2 * h) == pytest.approx(12.0, abs=1e-3)
    assert (sp + sm) / h**2 == pytest.approx(0.0, abs=1e-2)


# ---------------------------------------------------------------------------
# Gaussian limit


def test_gaussian_limit_peak_and_normalization():
    A = generate(FamilySpec("equal", 9))
    c = center(A)
    assert gaussian_limit(A, c) == pytest.approx(GAUSS_PEAK, abs=1e-15)
    grid = np.linspace(c - 3.0, c + 3.0, 20001)
    total = float(np.trapezoid(gaussian_limit(A, grid), grid))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_convergence_report_decreasing():
    reports = convergence_report([FamilySpec("equal", n) for n in (8, 16, 32)])
    sups = [r.sup_distance for r in reports]
    assert sups[0] > sups[1] > sups[2]
    assert 1.7 <= sups[0] / sups[1] <= 2.3
    assert 1.7 <= sups[1] / sups[2] <= 2.3
    assert all(r.l2_distance > 0 for r in reports)


def test_third_derivative_check_agrees():
    A = generate(FamilySpec("equal", 6))
    chk = saddle_third_derivative_check(A)
    assert not chk.flagged
    assert chk.formula_value == pytest.approx(864.0 / 5.0 * float(np.sum(A.a**4)),
                                              rel=1e-12)
