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

_SMALL = 5e-2     # |u| below which g(u) = ln((e^u - 1)/u) uses its series
_LARGE = 600.0    # |u| above which g(u) uses its asymptote (e^-|u| < 1e-260)
_POWERS = np.arange(4.0)[:, None]

GAUSS_PEAK = math.sqrt(6.0 / math.pi)


def _factor_terms(u: np.ndarray) -> np.ndarray:
    """Rows g, g', g'', g''' of g(u) = ln((e^u - 1)/u), one column per u.

    The closed forms run on the whole array in one pass.  Entries with |u|
    outside [_SMALL, _LARGE], if any, are set to 1 there and patched: by
    the Taylor series below (its u^6 term keeps g within 3e-16 at the cut)
    and by the asymptotes max(u, 0) - ln|u|, [u > 0] - 1/u, 1/u^2, -2/u^3
    above.
    """
    au = np.abs(u)
    edge = not (_SMALL <= np.minimum.reduce(au)
                and np.maximum.reduce(au) <= _LARGE)
    if edge:
        small = au < _SMALL
        big = au > _LARGE
        w = np.where(small | big, 1.0, u)
    else:
        w = u
    e = np.expm1(w)
    qe = 1.0 / e
    qm = 1.0 / np.expm1(-w)
    r = 1.0 / w
    c = qe * qm                       # -1/(4 sinh^2(w/2))
    g = np.array([np.log(e * r), -qm - r, r * r + c,
                  -(1.0 + 2.0 * qe) * c - 2.0 * r**3])
    if edge:
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


def _cumulants(P: np.ndarray, s: float) -> list[float]:
    """[K, K', K'', K'''] at s; row j of P = a ** _POWERS weighs g^(j)(a s)."""
    return (P * _factor_terms(P[1] * s)).sum(axis=1).tolist()


def cgf(A: WeightVector, s: float) -> float:
    """K(s); K(0) = 0 by the removable-singularity convention."""
    return _cumulants(A.a ** _POWERS, float(s))[0]


def cgf_derivs(A: WeightVector, s: float):
    """(K'(s), K''(s), K'''(s)); at s = 0: (sum(a)/2, 1/12, 0) for unit A."""
    return tuple(_cumulants(A.a ** _POWERS, float(s))[1:])


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
    """Solve K'(s0) = x by Halley's method from the Gaussian start 12 (x - c).

    With f = K' - x and r = f/K'', Halley's step s -= r / (1 - r K'''/(2 K''))
    is Newton's step on f/sqrt(f').  That function is close to linear in s
    wherever the solve goes, so the step is nearly exact and is not clamped:
    near the center K' is linear (K'' ~ 1/12), and in the tails
    K' - x ~ -n/s - x, for which f/sqrt(f') = (n + x s)/sqrt(n) exactly.  The
    ratio form never forms K''^2, which underflows in the tails.

    Where weights of very different sizes put some factors in their tails
    and others near their centers, f/sqrt(f') is not monotone and Halley's
    denominator can turn negative (for A ~ (1e-6, 1) at x = a_1/4 it does
    on the second step); in a far tail it also cancels, as 1 - (1 + x s/n),
    to zero.  There Newton's step is taken instead.  A denominator <= 0
    needs r K''' > 0, and K''' > 0 for s < 0, so such an s < 0 lies above
    s0, where K' is convex and Newton's step moves toward s0 without
    passing it.

    x > total/2 is solved at total - x and mapped back with
    K(-s) = K(s) - s total, K'(-s) = total - K'(s) and K'' even, so the
    residual is formed at the nearer support end without cancellation and
    the stop test |K' - x| <= 1e-12 min(x, total - x) is relative.  Where K''
    underflows, or the solve has not converged in max_iter steps,
    NumericalError is raised.
    """
    x = float(x)
    total = A.total
    if not (0.0 < x < total):
        raise DomainError(f"no saddle point: x must lie in (0, {total:g})")
    mirror = x > 0.5 * total
    y = total - x if mirror else x
    P = A.a ** _POWERS
    tol = 1e-12 * y
    s = 12.0 * (y - 0.5 * total)
    for it in range(1, max_iter + 1):
        k, kp, kpp, kppp = _cumulants(P, s)
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
        f"saddle solve did not converge in {max_iter} iterations at x = {x:g}")


def saddle_density(A: WeightVector, x: float) -> float:
    """Saddle-point approximation (2 pi K''(s0))^(-1/2) exp(K(s0) - s0 x).

    It is symmetric about the center, and is evaluated at the lower of x and
    total - x: above the center K(s0) ~ s0 total, so K(s0) - s0 x would cancel.
    """
    sol = solve_saddle(A, min(x, A.total - x))
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
