"""Cumulant generating function, saddle equation, and the Gaussian limit.

K(s) = ln prod_i (exp(a_i s) - 1)/(a_i s) is the CGF of sum a_i U_i.  The
saddle point s0(x) solves K'(s0) = x and yields the density approximation
(2 pi K''(s0))^(-1/2) exp(K(s0) - s0 x), which tends (for unit A, n -> inf)
to sqrt(6/pi) exp(-6 (x - sum(a)/2)^2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boxspline import density_profile
from .errors import DomainError, NumericalError, ValidationError
from .weights import FamilySpec, WeightVector, center, generate

_SMALL = 5e-2     # |u| below which g(u) = ln((e^u - 1)/u) uses its series
_LARGE = 600.0    # |u| above which g(u) uses its asymptote (e^-|u| < 1e-260)
_MAX_ITER = 100   # saddle solve steps before NumericalError
_SIGMAS = 3.0     # convergence grids span center +/- _SIGMAS sigma

GAUSS_PEAK = math.sqrt(6.0 / math.pi)


def _factor_terms(u: float) -> tuple[float, float, float, float]:
    """(g, g', g'', g''') of g(u) = ln((e^u - 1)/u) at one float u.

    Closed forms for |u| in [_SMALL, _LARGE]; below, the Taylor series (its
    u^6 term keeps g within 3e-16 at the cut); above, the asymptotes
    max(u, 0) - ln|u|, [u > 0] - 1/u, 1/u^2, -2/u^3.
    """
    au = abs(u)
    if au < _SMALL:
        u2 = u * u
        return (u * (0.5 + u * (1 / 24 + u2 * (-1 / 2880 + u2 / 181440))),
                0.5 + u * (1 / 12 + u2 * (-1 / 720 + u2 / 30240)),
                1 / 12 + u2 * (-1 / 240 + u2 / 6048),
                u * (-1 / 120 + u2 / 1512))
    if au > _LARGE:
        r = 1.0 / u
        if u > 0.0:
            return u - math.log(u), 1.0 - r, r * r, -2.0 * r * r * r
        return -math.log(au), -r, r * r, -2.0 * r * r * r
    e = math.expm1(u)
    qe = 1.0 / e
    qm = 1.0 / math.expm1(-u)
    r = 1.0 / u
    c = qe * qm                       # -1/(4 sinh^2(u/2))
    return (math.log(e * r), -qm - r, r * r + c,
            -(1.0 + 2.0 * qe) * c - 2.0 * r * r * r)


def _cumulants(a: list[float], s: float) -> tuple[float, float, float, float]:
    """(K, K', K'', K''') at s, summed left to right over the weights a.

    At s = 0 every g'(a s) is 1/2, so K'(0) is half of the left-to-right sum
    that WeightVector.total forms, bit for bit.
    """
    k0 = k1 = k2 = k3 = 0.0
    for ak in a:
        g0, g1, g2, g3 = _factor_terms(ak * s)
        k0 += g0
        k1 += ak * g1
        a2 = ak * ak
        k2 += a2 * g2
        k3 += a2 * ak * g3
    return k0, k1, k2, k3


def cgf(A: WeightVector, s: float) -> float:
    """K(s); K(0) = 0 by the removable-singularity convention."""
    return _cumulants(A.a.tolist(), float(s))[0]


def cgf_derivs(A: WeightVector, s: float):
    """(K'(s), K''(s), K'''(s)); at s = 0: (sum(a)/2, 1/12, 0) for unit A."""
    return _cumulants(A.a.tolist(), float(s))[1:]


@dataclass(frozen=True)
class SaddleSolution:
    x: float
    s0: float
    K: float
    Kp: float
    Kpp: float
    iterations: int
    residual: float


def solve_saddle(A: WeightVector, x: float) -> SaddleSolution:
    """Solve K'(s0) = x by Halley's method from the Gaussian start 12 (x - c)
    or, far in a tail, from s = -n/x.

    With f = K' - x and r = f/K'', Halley's step s -= r / (1 - r K'''/(2 K''))
    is Newton's step on f/sqrt(f').  That function is close to linear in s
    wherever the solve goes, so the step is nearly exact and is not clamped:
    near the center K' is linear (K'' ~ 1/12), and in the tails
    K' - x ~ -n/s - x, for which f/sqrt(f') = (n + x s)/sqrt(n) exactly.  The
    ratio form never forms K''^2, which underflows in the tails.

    Where weights of very different sizes put some factors in their tails
    and others near their centers, f/sqrt(f') is not monotone and Halley's
    denominator can turn negative (for A ~ (1e-6, 1) at x = a_1/4 it does
    on the second step).  There Newton's step is taken instead.  A
    denominator <= 0 needs r K''' > 0, and K''' > 0 for s < 0, so such an
    s < 0 lies above s0, where K' is convex and Newton's step moves toward
    s0 without passing it.

    Far in a tail the denominator cancels, as 1 - (1 + x s/n), to zero, and
    Newton's steps from the Gaussian start only double s.  So where
    x < n a_1/40 the solve starts at s = -n/x instead: there every
    |a_k s| >= 40, and K'(-n/x) = x (1 + O(e^-40)) is already converged.
    Each step is one scalar pass over the weights.

    x > total/2 is solved at total - x and mapped back with
    K(-s) = K(s) - s total, K'(-s) = total - K'(s) and K'' even, so the
    residual is formed at the nearer support end without cancellation and
    the stop test |K' - x| <= 1e-12 min(x, total - x) is relative.  Where K''
    underflows, or the solve has not converged in _MAX_ITER steps,
    NumericalError is raised.
    """
    x = float(x)
    total = A.total
    if not (0.0 < x < total):
        raise DomainError(f"no saddle point: x must lie in (0, {total:g})")
    mirror = x > 0.5 * total
    y = total - x if mirror else x
    a = A.a.tolist()
    n = len(a)
    tol = 1e-12 * y
    s = -n / y if y < n * a[0] / 40.0 else 12.0 * (y - 0.5 * total)
    for it in range(1, _MAX_ITER + 1):
        k, kp, kpp, kppp = _cumulants(a, s)
        f = kp - y
        if abs(f) <= tol:
            if mirror:
                s, k, kp = -s, k - s * total, total - kp
            return SaddleSolution(x=x, s0=s, K=k, Kp=kp, Kpp=kpp,
                                  iterations=it, residual=abs(f))
        if not kpp > 0.0:
            raise NumericalError(f"saddle solve: K'' underflows at x = {x:g}")
        r = f / kpp
        den = 1.0 - 0.5 * r * kppp / kpp
        s -= r / den if den > 0.0 else r
    raise NumericalError(
        f"saddle solve did not converge in {_MAX_ITER} iterations at x = {x:g}")


def saddle_density(A: WeightVector, x: float) -> float:
    """Saddle-point approximation (2 pi K''(s0))^(-1/2) exp(K(s0) - s0 x).

    It is symmetric about the center, and is evaluated at the lower of x and
    total - x: above the center K(s0) ~ s0 total, so K(s0) - s0 x would cancel.
    NumericalError is raised where K''(s0) is subnormal, from about
    min(x, total - x) = 1.5e-154 sqrt(n) on.
    """
    sol = solve_saddle(A, min(x, A.total - x))
    if not sol.Kpp >= sys.float_info.min:
        # far in a tail K'' ~ y^2/n with y = min(x, total - x)
        raise NumericalError(f"saddle density: K'' underflows at x = {x:g}")
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


def convergence_report(family: Sequence[FamilySpec],
                       points: int = 121) -> list[ConvergenceReport]:
    """Sup and L2 distance between B(.|A) and its Gaussian limit.

    The grid has `points` >= 2 points over center +/- _SIGMAS standard
    deviations (sigma = 1/sqrt(12)).
    """
    if points < 2:
        raise ValidationError("points must be >= 2")
    sigma = 1.0 / math.sqrt(12.0)
    out = []
    for spec in family:
        A = generate(spec)
        c = center(A)
        grid = np.linspace(c - _SIGMAS * sigma, c + _SIGMAS * sigma, points)
        exact = density_profile(A, grid, method="auto")
        gauss = gaussian_limit(A, grid)
        diff = np.asarray(exact.values) - gauss
        sup = float(np.max(np.abs(diff)))
        l2 = float(np.sqrt(np.trapezoid(diff * diff, grid)))
        out.append(ConvergenceReport(
            n=A.n, sup_distance=sup, l2_distance=l2,
            method_pair=(exact.method, "gaussian"),
            grid=f"center +/- {_SIGMAS:g} sigma, {points} points"))
    return out
