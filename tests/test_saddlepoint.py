import math
import warnings

import numpy as np
import pytest

from boxgap.boxspline import truncated_power_raw
from boxgap.errors import DomainError, NumericalError
from boxgap.saddlepoint import (
    GAUSS_PEAK,
    _factor_terms,
    cgf,
    cgf_derivs,
    convergence_report,
    gaussian_limit,
    saddle_density,
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
    """Test-only oracle: bisection on K'(s) = y inside a doubled bracket.

    y = x up to the center.  Past it y = total - x and s0 = -s, by the mirror
    K'(-s) = total - K'(s), so the equation is formed without cancellation.
    """
    mirror = x > 0.5 * A.total
    y = A.total - x if mirror else x
    lo, hi = -1.0, 1.0
    while cgf_derivs(A, lo)[0] >= y:
        lo *= 2.0
    while cgf_derivs(A, hi)[0] <= y:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        kp = cgf_derivs(A, mid)[0]
        # K' is flat in floats around s = 0; an exact float root ends the search
        if kp == y or not lo < mid < hi:
            return -mid if mirror else mid
        if kp < y:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("n", [1, 2, 8, 26, 200])
def test_solve_saddle_matches_bisection_oracle(n):
    A = _random_A(n, seed=n) if n > 1 else make_unit([1.0])
    # from 1e-50 total on, Halley's denominator would cancel to zero on the
    # way from the Gaussian start; the far-tail start -n/x must reach s0
    fracs = [1e-300, 1e-100, 1e-50, 1e-15, 1e-12, 1e-9, 1e-3, 0.5,
             1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 1e-12]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for frac in fracs:
            x = frac * A.total
            sol = solve_saddle(A, x)
            assert sol.residual <= 1e-12 * min(x, A.total - x)
            assert abs(sol.s0 - _bisect_saddle(A, x)) <= 1e-9 * abs(sol.s0)
            assert sol.iterations <= 8


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("cut, bounds", [
    # at 5e-2 the closed forms of g'' and g''' lose digits to cancellation
    # (about 1e-13 and 3e-8 there); g''' only steers Halley's step
    (5e-2, (1e-14, 1e-14, 1e-11, 3e-7)),
    (600.0, (1e-14, 1e-14, 1e-14, 1e-14)),
])
def test_factor_terms_continuous_at_cutovers(cut, bounds, sign):
    inside = _factor_terms(sign * float(np.nextafter(cut, 0.0)))
    outside = _factor_terms(sign * float(np.nextafter(cut, np.inf)))
    for j, bound in enumerate(bounds):
        assert abs(inside[j] - outside[j]) <= bound * abs(outside[j]), j


_SMALL, _LARGE = 5e-2, 600.0
# the cut-over test's bounds on g, g', g'', g''': the closed forms of g'' and
# g''' cancel near |u| = 5e-2
_ORACLE_BOUNDS = (1e-14, 1e-14, 1e-11, 3e-7)


def _factor_terms_vectorised(u):
    """Test-only oracle: rows g, g', g'', g''' of g(u) = ln((e^u - 1)/u).

    The numpy array form of the scalar _factor_terms: closed forms on the
    whole array, patched by the Taylor series below _SMALL and by the
    asymptotes above _LARGE.
    """
    au = np.abs(u)
    small = au < _SMALL
    big = au > _LARGE
    w = np.where(small | big, 1.0, u)
    e = np.expm1(w)
    qe = 1.0 / e
    qm = 1.0 / np.expm1(-w)
    r = 1.0 / w
    c = qe * qm
    g = np.array([np.log(e * r), -qm - r, r * r + c,
                  -(1.0 + 2.0 * qe) * c - 2.0 * r**3])
    us = u[small]
    u2 = us * us
    g[:, small] = [us * (0.5 + us * (1 / 24 + u2 * (-1 / 2880 + u2 / 181440))),
                   0.5 + us * (1 / 12 + u2 * (-1 / 720 + u2 / 30240)),
                   1 / 12 + u2 * (-1 / 240 + u2 / 6048),
                   us * (-1 / 120 + u2 / 1512)]
    ub = u[big]
    rb = 1.0 / ub
    pos = ub > 0.0
    g[:, big] = [np.where(pos, ub, 0.0) - np.log(np.abs(ub)), pos - rb,
                 rb * rb, -2.0 * rb * rb * rb]
    return g


def test_factor_terms_match_vectorised_oracle():
    # both cut-overs, both signs, and u = 0
    mags = np.concatenate([np.geomspace(1e-8, 1e4, 400),
                           np.linspace(0.04, 0.06, 101),
                           np.linspace(590.0, 610.0, 101),
                           [0.0, np.nextafter(_SMALL, 0.0), _SMALL,
                            _LARGE, np.nextafter(_LARGE, np.inf)]])
    u = np.concatenate([mags, -mags])
    want = _factor_terms_vectorised(u)
    got = np.array([_factor_terms(float(v)) for v in u]).T
    for j, bound in enumerate(_ORACLE_BOUNDS):
        assert np.all(np.abs(got[j] - want[j]) <= bound * np.abs(want[j])), j


@pytest.mark.parametrize("n", [1, 8, 26, 200])
def test_cumulants_match_vectorised_oracle(n):
    A = _random_A(n, seed=100 + n)
    P = A.a ** np.arange(4.0)[:, None]
    mags = np.geomspace(1e-6, 1e4, 41)
    for s in np.concatenate([mags, -mags]):
        terms = P * _factor_terms_vectorised(P[1] * s)
        scale = np.abs(terms).sum(axis=1)
        want = terms.sum(axis=1)
        got = (cgf(A, s),) + tuple(cgf_derivs(A, s))
        for j, bound in enumerate(_ORACLE_BOUNDS):
            # relative to the sum of |terms|: K''' sums terms of both signs
            assert abs(got[j] - want[j]) <= bound * scale[j], (s, j)


def test_saddle_density_near_support_end_is_warning_free():
    # factors with |a s| in (474, 600] used to overflow sinh^3 in the third
    # derivative of the CGF
    A = generate(FamilySpec("equal", 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = saddle_density(A, A.total - 8.0 / 1500.0)
    assert 0.0 < value < 1e-10


@pytest.mark.parametrize("raw, fracs", [
    # one factor in its tail and one near its center: Halley's denominator
    # turns negative on the second step
    ([1e-6, 1.0], (0.25, 0.5, 1.0, 4.0)),
    ([10.0**k for k in range(4)], (1e-3, 0.25, 1.0, 4.0)),
])
def test_solve_saddle_weights_of_different_sizes(raw, fracs):
    A = make_unit(raw)
    for frac in fracs:
        x = frac * A.a[0]
        sol = solve_saddle(A, x)
        assert sol.residual <= 1e-12 * x
        assert abs(sol.s0 - _bisect_saddle(A, x)) <= 1e-9 * abs(sol.s0)


@pytest.mark.parametrize("n", [1, 8])
def test_saddle_density_far_tail(n):
    A = _random_A(n, seed=n)
    # K'' ~ y^2/n is still normal at 1e-100 total: the density is finite
    assert 0.0 <= saddle_density(A, 1e-100 * A.total) < np.inf
    # at 1e-200 total K'' is 0 in floats; NumericalError, not a division by 0
    with pytest.raises(NumericalError):
        saddle_density(A, 1e-200 * A.total)


def _reference_density(A, x):
    """Saddle density from the bisection root, free of cancellation.

    With t = -s0 solving K'(t) = total - x, K(s0) - s0 x = K(t) - t (total - x)
    by K(-t) = K(t) - t total; the direct form cancels above the center.
    """
    t = -_bisect_saddle(A, x)
    kpp = cgf_derivs(A, t)[1]
    return math.exp(cgf(A, t) - t * (A.total - x)) / math.sqrt(2 * math.pi * kpp)


def test_saddle_density_above_center():
    A = _random_A(8, seed=8)
    for frac in (0.25, 1e-3, 1e-6, 1e-9, 1e-12):
        x = A.total - frac * A.total
        value = saddle_density(A, x)
        assert abs(value - _reference_density(A, x)) <= 1e-12 * value
    # away from the end the direct form, from the bisection root at x itself,
    # loses at most about 5e-13 and checks the identity the reference uses
    for frac in (0.25, 1e-3):
        x = A.total - frac * A.total
        s0 = _bisect_saddle(A, x)
        direct = (math.exp(cgf(A, s0) - s0 * x)
                  / math.sqrt(2 * math.pi * cgf_derivs(A, s0)[1]))
        assert abs(saddle_density(A, x) - direct) <= 1e-11 * direct


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
        exact = truncated_power_raw(A.a, center(A))
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
    # finite-difference s0'''(center) against the closed-form candidate
    # 864/5 sum(a^4), which holds to 20 %
    A = generate(FamilySpec("equal", 6))
    c, h = center(A), 0.02
    s = [solve_saddle(A, c + k * h).s0 for k in (-2, -1, 1, 2)]
    fd = (s[3] - 2.0 * s[2] + 2.0 * s[1] - s[0]) / (2.0 * h**3)
    formula = 864.0 * float(np.sum(A.a**4)) / 5.0
    assert abs(fd - formula) <= 0.2 * abs(formula)
