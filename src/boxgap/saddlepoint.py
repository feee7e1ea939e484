"""Cumulant generating function, saddle equation, and the Gaussian limit.

K(s) = ln prod_i (exp(a_i s) - 1)/(a_i s) is the CGF of sum a_i U_i.  The
saddle point s0(x) solves K'(s0) = x and yields the density approximation
(2 pi K''(s0))^(-1/2) exp(K(s0) - s0 x), which tends (for unit A, n -> inf)
to sqrt(6/pi) exp(-6 (x - sum(a)/2)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boxspline import density_profile
from .errors import DomainError, NumericalError
from .weights import FamilySpec, WeightVector, center, generate

_SERIES_CUT = 1e-4   # |a_i s| below which the CGF uses its Taylor series
_DERIV_CUT = 5e-2    # wider series window for derivatives (cancellation)
_OVERFLOW = 700.0

GAUSS_PEAK = math.sqrt(6.0 / math.pi)


def _per_factor_log(u: np.ndarray) -> np.ndarray:
    """ln((e^u - 1)/u) with series, asymptotic, and overflow branches."""
    out = np.empty_like(u)
    small = np.abs(u) < _SERIES_CUT
    big = u > _OVERFLOW
    neg = u < -_OVERFLOW
    mid = ~(small | big | neg)
    us = u[small]
    out[small] = us / 2.0 + us**2 / 24.0 - us**4 / 2880.0
    um = u[mid]
    out[mid] = np.log(np.expm1(um) / um)
    out[big] = u[big] - np.log(u[big])
    out[neg] = -np.log(-u[neg])
    return out


def cgf(A: WeightVector, s: float) -> float:
    """K(s); K(0) = 0 by the removable-singularity convention."""
    u = A.a * float(s)
    return float(np.sum(_per_factor_log(u)))


def _factor_derivs(u: np.ndarray):
    """First three derivatives of ln((e^u - 1)/u) per factor."""
    g1 = np.empty_like(u)
    g2 = np.empty_like(u)
    g3 = np.empty_like(u)
    small = np.abs(u) < _DERIV_CUT
    big = np.abs(u) > 600.0
    mid = ~(small | big)
    us = u[small]
    g1[small] = 0.5 + us / 12.0 - us**3 / 720.0 + us**5 / 30240.0
    g2[small] = 1.0 / 12.0 - us**2 / 240.0 + us**4 / 6048.0
    g3[small] = -us / 120.0 + us**3 / 1512.0
    um = u[mid]
    half = 0.5 * um
    sh = np.sinh(half)
    g1[mid] = 1.0 / -np.expm1(-um) - 1.0 / um
    g2[mid] = 1.0 / um**2 - 0.25 / sh**2
    g3[mid] = -2.0 / um**3 + 0.25 / (np.tanh(half) * sh**2)
    ub = u[big]
    g1[big] = np.where(ub > 0, 1.0 - 1.0 / ub, -1.0 / ub)
    g2[big] = 1.0 / ub**2
    g3[big] = -2.0 / ub**3
    return g1, g2, g3


def cgf_derivs(A: WeightVector, s: float):
    """(K'(s), K''(s), K'''(s)); at s = 0: (sum(a)/2, 1/12, 0) for unit A."""
    a = A.a
    g1, g2, g3 = _factor_derivs(a * float(s))
    return (float(np.sum(a * g1)),
            float(np.sum(a * a * g2)),
            float(np.sum(a * a * a * g3)))


@dataclass(frozen=True)
class SaddleSolution:
    x: float
    s0: float
    K: float
    Kp: float
    Kpp: float
    iterations: int
    residual: float


def solve_saddle(A: WeightVector, x: float, max_iter: int = 100) -> SaddleSolution:
    """Solve K'(s0) = x by Newton's method from the Gaussian start 12 (x - c).

    No bracket is needed.  K''(s) is the variance of the exponentially tilted
    sum and falls as |s| grows, so K' is concave for s > 0 and convex for
    s < 0.  The start 12 (x - c) is the first Newton step from s = 0
    (K'(0) = c, K''(0) = 1/12), which lands between 0 and s0; from there the
    iterates move monotonically to s0 without overshooting (Fourier's
    condition).
    """
    x = float(x)
    total = A.total
    if not (0.0 < x < total):
        raise DomainError(f"no saddle point: x must lie in (0, {total:g})")
    tol = 1e-12 * max(1.0, abs(x))
    s = 12.0 * (x - center(A))
    for it in range(1, max_iter + 1):
        kp, kpp, _ = cgf_derivs(A, s)
        f = kp - x
        if abs(f) <= tol:
            return SaddleSolution(x=x, s0=s, K=cgf(A, s), Kp=kp, Kpp=kpp,
                                  iterations=it, residual=abs(f))
        s -= f / kpp
    raise NumericalError(
        f"saddle solve did not converge in {max_iter} iterations at x = {x:g}")


def saddle_density(A: WeightVector, x: float) -> float:
    """Saddle-point approximation (2 pi K''(s0))^(-1/2) exp(K(s0) - s0 x)."""
    sol = solve_saddle(A, x)
    return math.exp(sol.K - sol.s0 * sol.x) / math.sqrt(2.0 * math.pi * sol.Kpp)


def gaussian_limit(A: WeightVector, x) -> float | np.ndarray:
    """Limit density sqrt(6/pi) exp(-6 (x - sum(a)/2)^2) (variance 1/12)."""
    t = np.asarray(x, dtype=np.float64) - center(A)
    v = GAUSS_PEAK * np.exp(-6.0 * t * t)
    return float(v) if np.isscalar(x) else v


# ---------------------------------------------------------------------------
# convergence diagnostics


@dataclass
class ConvergenceReport:
    n: int
    sup_distance: float
    l2_distance: float
    method_pair: tuple[str, str]
    grid: str


def convergence_report(family: Sequence[FamilySpec], points: int = 121,
                       sigmas: float = 3.0) -> list[ConvergenceReport]:
    """Sup and L2 distance between B(.|A) and its Gaussian limit.

    The grid covers center +/- sigmas standard deviations (sigma = 1/sqrt(12)).
    """
    sigma = 1.0 / math.sqrt(12.0)
    out = []
    for spec in family:
        A = generate(spec)
        c = center(A)
        grid = np.linspace(c - sigmas * sigma, c + sigmas * sigma, points)
        exact = density_profile(A, grid, method="auto")
        gauss = gaussian_limit(A, grid)
        diff = np.asarray(exact.values) - gauss
        sup = float(np.max(np.abs(diff)))
        l2 = float(np.sqrt(np.trapezoid(diff * diff, grid)))
        out.append(ConvergenceReport(
            n=A.n, sup_distance=sup, l2_distance=l2,
            method_pair=(exact.method, "gaussian"),
            grid=f"center +/- {sigmas:g} sigma, {points} points"))
    return out


@dataclass
class ThirdDerivativeCheck:
    """Finite-difference s0'''(center) against the closed-form candidate.

    The closed form 864/5 * sum(a^4) is reported alongside the measured value;
    disagreement beyond 20% is flagged rather than asserted either way.
    """

    fd_value: float
    formula_value: float
    rel_disagreement: float
    flagged: bool


def saddle_third_derivative_check(A: WeightVector,
                                  h: float = 0.02) -> ThirdDerivativeCheck:
    c = center(A)
    s = [solve_saddle(A, c + k * h).s0 for k in (-2, -1, 1, 2)]
    fd = (s[3] - 2.0 * s[2] + 2.0 * s[1] - s[0]) / (2.0 * h**3)
    formula = 864.0 * float(np.sum(A.a**4)) / 5.0
    rel = abs(fd - formula) / max(abs(formula), 1e-30)
    return ThirdDerivativeCheck(fd_value=fd, formula_value=formula,
                                rel_disagreement=rel, flagged=rel > 0.2)
