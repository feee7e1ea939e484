"""Evaluation of the univariate box spline B(x|A) and the section function.

B(.|A) is the density of sum_j a_j U_j with U_j i.i.d. uniform on [0,1);
equivalently the (n-1)-volume of the central hyperplane slice of the unit
cube, shifted so the support is [0, sum a_j].  Three independent routes are
provided:

* truncated_power - the inclusion-exclusion closed form, n <= 24, by one
                    integer sweep per call that returns correctly rounded
                    values,
* convolution     - n sliding-window convolutions of uniform cell masses,
* fourier         - numerical inversion of the product-of-sinc transform.

The center value alone, phi0 = max B, also comes from center_integral: one
integral of the sinc product with a proved error bound, which
max_value(auto) takes from n = _INTEGRAL_FROM on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from ._num import fsum, gauss_legendre, gl_panels
from .errors import CapabilityError, DomainError, NumericalError, ValidationError
from .weights import WeightVector, center

TRUNCATED_POWER_CAP = 24
_U = 0.5 * np.finfo(np.float64).eps  # unit round-off
_METHODS = ("auto", "truncated_power", "convolution", "fourier")
_TAIL_TOL = 1e-7  # Fourier tail bound for n > 11 that sets the cutoff T
_CONV_ALLOWANCE = 1e-5  # charged for convolution's unstated O(step^2) bias
_INTEGRAL_FROM = 14  # max_value(auto) takes center_integral from this n on
_INTEGRAL_TOL = 1e-13  # the error center_integral aims at
_INTEGRAL_NODES = 2**16  # node budget of center_integral
_PANEL_NODES = 24  # Gauss-Legendre nodes per panel
_GL_WEIGHT_ERR = 16 * _U  # bound on leggauss(_PANEL_NODES)'s weight errors
_SINC_SWITCH = 2.0794  # the tail majorant of |sinc u| is 1/u past this u
_TAIL_RATIO = 1.01  # geometric step of the tail bound's grid
_TAIL_STEPS = 3000  # at most this many steps ...
_TAIL_SPAN = 1e6  # ... and cuts up to this multiple of the largest T


# ---------------------------------------------------------------------------
# truncated-power closed form


def _check_points(xs) -> None:
    if not np.all(np.isfinite(xs)):
        raise DomainError("evaluation points must be finite")


def _signed_subset_sums(w: list[int]) -> list[tuple[int, int]]:
    """All (sum of S, (-1)^|S|) over the subsets S of the integers w."""
    out = [(0, 1)]
    for v in w:
        out += [(s + v, -g) for s, g in out]
    return out


def _truncated_power(a: np.ndarray, xs) -> np.ndarray:
    """B(x|a) at every x of xs, each the correctly rounded value.

    Every float is a dyadic rational, so on the common scale D (the largest
    denominator among the weights and the points) the weights W_k and a
    point X are integers, and
        (n-1)! prod(W) B(x) / D = N(X) = sum_S (-1)^|S| (X - s_S)_+^(n-1)
    is an integer.  The weights are split into the first k and the rest
    (Horowitz-Sahni 1974).  For a subset sum s1 of the first part, the
    subsets of the rest with s2 < Y = X - s1 contribute
    sum_j C(n-1, j) (-1)^j M_j Y^(n-1-j), where M_j = sum (-1)^|S2| s2^j
    runs over those s2.  One query (Y, sign, point) per point and s1 < X,
    sorted by Y, lets a single walk over the rest's sorted sums grow the
    moments M_j for every point of the call: about
    n (2^(n-k) + points 2^k) integer multiply-adds, least near
    k = (n - log2 points)/2, with no rounding until the final division.
    A point within a_1 of a support end has only the empty subset below
    it, so B = y^(n-1)/((n-1)! prod a) there; such points are evaluated on
    their own scale and keep tiny points from lengthening every integer.
    """
    n = a.size
    if n > TRUNCATED_POWER_CAP:
        raise CapabilityError(
            f"truncated-power form capped at n = {TRUNCATED_POWER_CAP} "
            "(the exact sweep grows like 2^(n/2)); use fourier or convolution"
        )
    ratios = [float(w).as_integer_ratio() for w in a]
    Dw = max(den for _, den in ratios)  # a power of two: every den divides it
    W = [num * (Dw // den) for num, den in ratios]
    total, least = sum(W), min(W)
    denom = math.factorial(n - 1) * math.prod(W)
    out = np.zeros(len(xs))
    inner = []  # (index, num, den) of the points that need the sweep
    for i, x in enumerate(map(float, xs)):
        if x <= 0.0:
            continue
        num, den = x.as_integer_ratio()
        D = den if den > Dw else Dw
        s = D // Dw
        X = num * (D // den)
        Y = min(X, total * s - X)  # B is symmetric about total/2
        if Y <= 0:
            continue
        if Y <= least * s:
            out[i] = Y ** (n - 1) * D / (denom * s**n)
        else:
            inner.append((i, num, den))
    if not inner:
        return out

    D = max(Dw, max(den for _, _, den in inner))
    s = D // Dw
    W = [w * s for w in W]
    total *= s
    denom *= s**n
    k = min(max(round((n - math.log2(len(inner))) / 2), 0), n // 2)
    p_sums = _signed_subset_sums(W[:k])
    q_asc = sorted(_signed_subset_sums(W[k:]))
    queries = []
    for i, num, den in inner:
        X = num * (D // den)
        X = min(X, total - X)
        queries += [(X - s1, g1, i) for s1, g1 in p_sums if s1 < X]
    queries.sort()
    coef = [(-1) ** j * math.comb(n - 1, j) for j in range(n)]
    moments = [0] * n
    terms = []  # C(n-1, j) (-1)^j M_j, refreshed when a moment moves
    N = [0] * len(xs)
    it = iter(q_asc)
    nxt = next(it, None)
    for Y, g1, i in queries:
        if nxt is not None and nxt[0] < Y:
            while nxt is not None and nxt[0] < Y:
                s2, p = nxt
                for j in range(n):
                    moments[j] += p
                    p *= s2
                nxt = next(it, None)
            terms = [c * m for c, m in zip(coef, moments)]
        h = 0
        for t in terms:
            h = h * Y + t
        N[i] += h if g1 > 0 else -h
    for i, _, _ in inner:
        out[i] = N[i] * D / denom
    return out


def truncated_power_raw(weights, x: float) -> float:
    """Closed-form evaluation for arbitrary positive weights (no unit norm)."""
    a = np.asarray(weights, dtype=np.float64)
    if a.size == 0 or not np.all(np.isfinite(a) & (a > 0)):
        raise ValidationError("weights must be positive and finite")
    xs = np.array([float(x)])
    _check_points(xs)
    return float(_truncated_power(a, xs)[0])


# ---------------------------------------------------------------------------
# density profiles


@dataclass
class DensityProfile:
    """Tabulated B(.|A) on an ascending grid, tagged with its method."""

    grid: np.ndarray
    values: np.ndarray
    method: str
    A: WeightVector
    tolerance: float | None = None

    def integral(self) -> float:
        g = np.asarray(self.grid)
        steps = np.diff(g)
        if steps.size and np.allclose(steps, steps[0], rtol=1e-9):
            return float(np.sum(self.values) * steps[0])
        return float(np.trapezoid(self.values, g))

    def value_at(self, x) -> np.ndarray | float:
        v = np.interp(x, self.grid, self.values, left=0.0, right=0.0)
        return float(v) if np.isscalar(x) else v

    def exported_values(self) -> np.ndarray:
        """Values clipped at 0; raises below -max(stated tolerance, 1e-10)."""
        v = np.asarray(self.values)
        floor = max(self.tolerance or 0.0, 1e-10)
        if np.any(v < -floor):
            raise NumericalError("density profile has negative values beyond round-off")
        return np.maximum(v, 0.0)

    def to_json_dict(self) -> dict:
        return {
            "A": self.A.to_json(),
            "method": self.method,
            "grid": np.asarray(self.grid, dtype=np.float64).tolist(),
            "values": self.exported_values().tolist(),
            "tolerance": self.tolerance,
        }

    def to_csv_rows(self):
        for x, v in zip(self.grid, self.exported_values()):
            yield (float(x), float(v), self.method)


# ---------------------------------------------------------------------------
# convolution oracle


def _moving_sum(p: np.ndarray, m: int) -> np.ndarray:
    """Full convolution of p with a window of m ones, via cumulative sums."""
    c = np.cumsum(p)
    size = p.size + m - 1
    out = np.empty(size)
    out[: p.size] = c
    out[p.size:] = c[-1]
    out[m:] -= c[: size - m]
    return out


def _uniform_cell_masses(a: float, h: float) -> np.ndarray:
    m = int(np.floor(a / h + 1e-9))
    rem = a - m * h
    if rem <= 1e-12 * a:
        return np.full(m, h / a)
    k = np.full(m + 1, h / a)
    k[-1] = rem / a
    return k


def eval_convolution(A: WeightVector, grid_step: float) -> DensityProfile:
    """B(.|A) as the n-fold convolution of uniform cell masses.

    Midpoint-cell discretization: O(grid_step^2) bias, exact normalization.
    """
    a = A.a
    h = float(grid_step)
    if h <= 0:
        raise ValidationError("grid_step must be positive")
    if h > a[0] / 8:
        raise ValidationError(f"grid_step too coarse: need <= a_1/8 = {a[0]/8:g}")
    p = _uniform_cell_masses(a[0], h)
    for w in a[1:]:
        m = int(np.floor(w / h + 1e-9))
        rem = w - m * h
        has_rem = rem > 1e-12 * w
        out = np.zeros(p.size + m - 1 + (1 if has_rem else 0))
        out[: p.size + m - 1] += (h / w) * _moving_sum(p, m)
        if has_rem:
            out[m : m + p.size] += (rem / w) * p
        p = out
    grid = (np.arange(p.size) + 0.5 * A.n) * h
    return DensityProfile(grid=grid, values=p / h, method="convolution", A=A)


# ---------------------------------------------------------------------------
# Fourier inversion


def _gamma(k: int) -> float:
    """Round-off bound k u / (1 - k u) of k chained float operations."""
    return k * _U / (1.0 - k * _U)


@dataclass
class FourierResult:
    values: np.ndarray
    quad_error: float
    tail_error: float


def _tail_exponentials(order: int, mu: np.ndarray, T: float):
    """G_k(mu, T) = int_T^inf exp(i mu z) z^-k dz by integration-by-parts,
    with a bound E on the round-off in G.

    G_1 uses Si/Ci; near-zero frequencies are dropped (their contributions
    cancel pairwise in the surrounding sine-product expansion).  Si and Ci
    come within a few ulps of their size, and the phase exp(i m T) within
    u (1 + m T).  Since |G_k| <= T^(1-k)/(k-1) and m |G_(k-1)| <= 2 T^(1-k),
    step k adds at most T^(1-k)/(k-1) (2u (1 + m T) + 14u) to the error it
    inherits times m/(k-1).
    """
    m = np.abs(mu)
    tiny = m * T < 1e-12
    si, ci = sici(np.where(tiny, 1.0, m * T))
    G = np.where(tiny, 0.0, -ci) + 1j * np.where(tiny, 0.0, 0.5 * np.pi - si)
    E = np.where(tiny, 0.0, 4.0 * _U * (np.abs(ci) + np.abs(si) + 0.5 * np.pi))
    phase = np.exp(1j * m * T)
    for k in range(2, order + 1):
        step = T ** (1 - k) / (k - 1)
        G = phase * step + (1j * m / (k - 1)) * G
        E = (m / (k - 1)) * E + step * (2.0 * _U * (1.0 + m * T) + 14.0 * _U)
    G = np.where(mu < 0, np.conj(G), G)
    return G, E


def fourier_values(A: WeightVector, xs) -> FourierResult:
    """Fourier inversion of the sinc-product transform on a batch of points.

    [0, T] is integrated by composite Gauss-Legendre panels sized to the
    fastest oscillation; the tail is evaluated exactly for n <= 11 via the
    sine-product expansion and Si/Ci, and bounded analytically for larger n
    (where the integrand decays like z^-n and a short range suffices).
    The stated errors also bound the round-off of both parts.
    """
    a = A.a
    n = A.n
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    theta = xs_arr - center(A)
    use_si_tail = n <= 11
    if use_si_tail:
        T = max(20.0, 4.0 / a[0])
        tail_err = 0.0
    else:
        # log of prod(2/a_k): the product itself overflows from n ~ 210 on
        log_inv = float(np.sum(np.log(2.0 / a)))
        T = math.exp((log_inv - math.log(0.5 * (n - 1) * np.pi * _TAIL_TOL))
                     / (n - 1))
        T = max(T, 2.0 / a[0], 20.0)
        tail_err = math.exp(log_inv - (n - 1) * math.log(T)) / ((n - 1) * np.pi)

    wmax = 0.5 * float(np.sum(a)) + float(np.max(np.abs(theta))) + 1.0
    panels = int(np.ceil(T * 2.0 * wmax / np.pi))
    edges = np.linspace(0.0, T, panels + 1)

    def bulk(order: int) -> tuple[np.ndarray, float]:
        """The [0, T] integral at each point, and a bound on its round-off."""
        z, w = gl_panels(edges, order)
        rows = max(1, 2**20 // n)  # blocks of about 2^20 (z, a) pairs
        wg = w * np.concatenate([
            np.prod(np.sinc(np.outer(z[lo:lo + rows], a) / (2.0 * np.pi)), axis=1)
            for lo in range(0, z.size, rows)])
        # a dot product of z.size terms, each a product of n + 3 rounded
        # factors, plus the final division by pi; cos(theta z) also feels
        # the rounding of its argument theta z
        size = np.abs(wg)
        err = (_gamma(z.size + n + 5) * float(np.sum(size))
               + _U * float(np.max(np.abs(theta))) * float(z @ size))
        # blocks of about 2^20 (theta, z) pairs keep the cos matrix bounded
        out = np.empty(theta.size)
        block = max(1, 2**20 // z.size)
        for lo in range(0, theta.size, block):
            out[lo:lo + block] = np.cos(np.outer(theta[lo:lo + block], z)) @ wg
        return out, err

    b_hi, round_err = bulk(12)
    b_lo, _ = bulk(8)
    quad_err = (float(np.max(np.abs(b_hi - b_lo))) + round_err) / np.pi

    if use_si_tail:
        b = 0.5 * a
        mus = np.zeros(1)
        coef = np.ones(1)
        for bj in b:
            mus = np.concatenate([mus + bj, mus - bj])
            coef = np.concatenate([coef, -coef])
        pref = 0.5 * (-1j) ** n / float(np.prod(a))
        sign = (-1) ** n
        tail = np.empty(theta.size)
        # blocks of about 2^17 (mu, theta) pairs keep the arrays bounded
        block = max(1, 2**17 >> n)
        for lo in range(0, theta.size, block):
            th = theta[lo:lo + block]
            # the mus are symmetric in floats, mu -> -mu flips all n signs
            # (coef -> (-1)^n coef) and G(-m) = conj G(m), so the G(mu - theta)
            # half of the sum is (-1)^n conj of the G(mu + theta) half
            g, e = _tail_exponentials(n, mus[:, None] + th, T)
            half = coef @ g
            tail[lo:lo + block] = np.real(pref * (half + sign * np.conj(half)))
            # the G's own round-off, then a sum of 2^(n+1) terms scaled by
            # pref; the mirrored half has the same E's and |G|'s
            err = 2.0 * (np.sum(e, axis=0) + _gamma(2 ** (n + 1) + n + 2)
                         * np.sum(np.abs(g), axis=0))
            tail_err = max(tail_err, abs(pref) * float(np.max(err)) / np.pi)
        values = (b_hi + tail) / np.pi
    else:
        values = b_hi / np.pi

    return FourierResult(values=values, quad_error=quad_err,
                         tail_error=tail_err)


# ---------------------------------------------------------------------------
# the center value as one integral with a proved error


def _log_majorant(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log g(t) for t > 0 and ascending a, where g(t) = prod b(a_k t/2) with
    b(u) = exp(-u^2/6) for u <= _SINC_SWITCH and 1/u beyond: b is a
    nonincreasing majorant of |sinc u| (log sinc has only negative Taylor
    coefficients below pi), so g is one of |prod sinc(a_k t/2)|."""
    n = a.size
    sq = np.concatenate(([0.0], np.cumsum(a * a)))
    lg = np.concatenate(([0.0], np.cumsum(np.log(a))))
    s = np.searchsorted(a, 2.0 * _SINC_SWITCH / t, side="right")  # Gaussian
    return -t**2 / 24.0 * sq[s] - (lg[n] - lg[s]) - (n - s) * np.log(0.5 * t)


def _tail_cutoff(a: np.ndarray, target: float, t_max: float) -> tuple[float, float] | None:
    """(T, bound): the least T <= t_max on a geometric grid whose bound on
    int_T^inf |f| is at most target, for f(t) = prod sinc(a_k t/2); None if
    no such T exists.

    The integral over [T, t_cut] is bounded by the upper Riemann sum of the
    majorant g (_log_majorant) at the left ends of the grid steps, and the
    one past t_cut by
    int prod_(k in S) 2/(a_k t) = prod_S (2/a_k) t_cut^(1-|S|)/(|S| - 1)
    with S = {k : a_k t_cut >= 2}: the other factors are at most 1 and are
    dropped, so a tiny weight does not push t_cut out.  The best cut at or
    beyond each T is taken.
    """
    n = a.size
    lg = np.concatenate(([0.0], np.cumsum(np.log(a))))
    t0 = 0.5 * math.sqrt(24.0 * math.log(2.0 / target) / float(a @ a))
    t_end = max(t_max, min(2.0 * _SINC_SWITCH / a[0], _TAIL_SPAN * t_max))
    steps = min(max(math.ceil(math.log(t_end / t0) / math.log(_TAIL_RATIO)), 1),
                _TAIL_STEPS)
    tau = t0 * _TAIL_RATIO ** np.arange(steps + 1)
    log_g = _log_majorant(a, tau)
    before = np.concatenate(([0.0], np.cumsum(np.diff(tau) * np.exp(log_g[:-1]))))
    c = n - np.searchsorted(a, 2.0 / tau, side="left")  # |S| at each cut
    log_c = (c * math.log(2.0) - (lg[n] - lg[n - c]) - (c - 1) * np.log(tau)
             - np.log(np.maximum(c - 1, 1)))
    closed = np.where(c >= 2, np.exp(np.minimum(log_c, 700.0)), np.inf)
    # the best cut j >= i: min_j (sum of steps i..j-1 + closed form at j)
    tail = np.minimum.accumulate((before + closed)[::-1])[::-1] - before
    ok = np.flatnonzero((tail <= target) & (tau <= t_max))
    if ok.size == 0:
        return None
    return float(tau[ok[0]]), float(tail[ok[0]])


def center_integral(A: WeightVector) -> tuple[float, float]:
    """(B(center|A), a proved bound on its error), from
    B(center) = (1/pi) int_0^inf prod sinc(a_k t/2) dt.

    [0, T] is integrated by Gauss-Legendre panels of _PANEL_NODES nodes,
    each bounded by Trefethen's Thm 19.3 on a Bernstein ellipse; the tail
    past T by a majorant (_tail_cutoff); round-off as set out below.  The
    error aims at _INTEGRAL_TOL.  Raises CapabilityError when that needs
    more than _INTEGRAL_NODES nodes: at n <= 5, or with fewer than two
    weights of the largest's order.
    """
    a = A.a
    n = a.size
    total = float(np.sum(a))
    N = _PANEL_NODES
    # Bernstein ellipses with rho^(-2N) = 1e-3 tol; the half-width eta0 makes
    # the ellipse's height y satisfy y sum(a)/2 = 1
    rho = (1e-3 * _INTEGRAL_TOL) ** (-1.0 / (2 * N))
    eta0 = 4.0 / (total * (rho - 1.0 / rho))
    cut = _tail_cutoff(a, 0.5 * np.pi * _INTEGRAL_TOL,
                       2.0 * eta0 * (_INTEGRAL_NODES // N))
    if cut is None:
        raise CapabilityError(
            f"center integral needs more than {_INTEGRAL_NODES} nodes for "
            f"an error of {_INTEGRAL_TOL:g}; use truncated_power or fourier")
    T, tail_err = cut
    panels = math.ceil(T / (2.0 * eta0))
    eta = T / (2.0 * panels)
    y = 0.5 * eta * (rho - 1.0 / rho)
    x_min = (2.0 * np.arange(panels) + 1.0) * eta - 0.5 * eta * (rho + 1.0 / rho)
    edges = np.linspace(0.0, T, panels + 1)
    z, w = gl_panels(edges, N)
    v = 0.5 * y * a
    log_cosh = v + np.log1p(np.exp(-2.0 * v)) - math.log(2.0)
    log_half_a = np.log(0.5 * a)
    # sin(u)/u rounds to 1 for u < 2^-27, and such factors are left out
    used = a[a * T >= 2.0**-26]
    h = 0.5 * used
    # blocks of about 2^20 (weight, node) pairs, whole panels each
    step = max(1, 2**20 // (N * n))
    wf = np.empty(z.size)
    log_m = np.empty(panels)
    for lo in range(0, panels, step):
        nodes = slice(lo * N, (lo + step) * N)
        u = np.multiply.outer(h, z[nodes])
        f = np.sin(u)
        f /= u
        wf[nodes] = w[nodes] * np.prod(f, axis=0)
        # on the ellipse |sinc(a t/2)| <= min(e^v, cosh v/(a x_min/2))
        xm = x_min[lo:lo + step, None]
        bound = np.where(xm > 0.0, log_cosh - log_half_a
                         - np.log(np.where(xm > 0.0, xm, 1.0)), np.inf)
        log_m[lo:lo + step] = np.sum(np.minimum(v, bound), axis=1)
    # Trefethen, ATAP Thm 19.3, with N - 1 in place of N in the exponent
    quad_err = ((64.0 / 15.0) * rho ** (-2 * (N - 1)) / (rho**2 - 1.0) * eta
                * float(np.sum(np.exp(log_m))))
    total_wf = fsum(wf)
    # Round-off, against the exact Gauss rule on the float edges:
    # * the correctly rounded sum, np.pi and the division: 3u |sum|;
    # * each term's relative rounding: per factor sin (one ulp) and the
    #   division, the n - 1 products, the weight's two roundings; a factor
    #   left out is 1 within u/24: gamma(4n + 2) sum |w f|;
    # * leggauss's weights on [-1, 1] are within _GL_WEIGHT_ERR of the
    #   exact ones (absolute: the end ones are 13u, about 1e3 u relatively,
    #   off), and are scaled by the half-width: _GL_WEIGHT_ERR times
    #   sum |w_i f_i| / w_j(i);
    # * leggauss's nodes are within 2u, so a computed node is within
    #   7u hi of the exact one (hi the upper edge of its panel) and h_k z
    #   rounds once more: every argument/h_k is off by at most d = 8u hi.
    #   |sinc'| <= 1.5 b, so d moves the product by at most
    #   1.5 d sum(h) g(z - d), with g the majorant over the factors used;
    #   g is nonincreasing and at most 1, so each panel takes g(lo - d) at
    #   its lower edge lo, and 1 on the first panel.
    g = np.concatenate(([1.0], np.exp(_log_majorant(
        used, edges[1:-1] - 8.0 * _U * edges[2:]))))
    size = np.abs(wf)
    round_err = (3.0 * _U * abs(total_wf)
                 + _gamma(4 * n + 2) * float(np.sum(size))
                 + _GL_WEIGHT_ERR * float(np.sum(size.reshape(panels, N)
                                                 / gauss_legendre(N)[1]))
                 + 12.0 * _U * float(np.sum(h))
                 * float(np.sum(np.diff(edges) * edges[1:] * g)))
    return total_wf / np.pi, float(tail_err + quad_err + round_err) / np.pi


# ---------------------------------------------------------------------------
# unified evaluation, section function, maximum


def _resolve_method(A: WeightVector, method: str) -> str:
    if method not in _METHODS:
        raise ValidationError(f"unknown method {method!r}; one of {_METHODS}")
    if method == "auto":
        return "truncated_power" if A.n <= TRUNCATED_POWER_CAP else "fourier"
    return method


def density_profile(A: WeightVector, grid, method: str = "auto") -> DensityProfile:
    """Evaluate B(.|A) on an explicit grid with the chosen method."""
    m = _resolve_method(A, method)
    grid = np.asarray(grid, dtype=np.float64)
    _check_points(grid)
    if m == "truncated_power":
        vals = _truncated_power(A.a, grid)
        # each value is rounded once from the exact one
        tol = float(np.max(np.spacing(vals), initial=0.0)) / 2.0
    elif m == "convolution":
        prof = eval_convolution(A, min(A.a[0] / 8.0, 2.5e-4))  # step <= a_1/8
        vals = prof.value_at(grid)
        tol = prof.tolerance
    else:
        res = fourier_values(A, grid)
        vals = res.values
        tol = res.quad_error + res.tail_error
    return DensityProfile(grid=grid, values=np.asarray(vals), method=m, A=A,
                          tolerance=tol)


def phi(A: WeightVector, r: float, method: str = "auto") -> float:
    """Central-section function: phi_A(r) = B(r + sum(a)/2 | A)."""
    prof = density_profile(A, [center(A) + float(r)], method)
    return float(prof.values[0])


def max_value(A: WeightVector, method: str = "auto") -> tuple[float, float, str]:
    """(B(center|A), its stated error, the method used): B is symmetric and
    log-concave, so its maximum is at the center.  From n = _INTEGRAL_FROM
    on, auto takes center_integral unless that would exceed its node budget;
    convolution states no error and is charged _CONV_ALLOWANCE."""
    if method == "auto" and A.n >= _INTEGRAL_FROM:
        try:
            value, err = center_integral(A)
        except CapabilityError:
            pass
        else:
            return value, err, "center_integral"
    prof = density_profile(A, [center(A)], method)
    err = _CONV_ALLOWANCE if prof.tolerance is None else prof.tolerance
    return float(prof.values[0]), err, prof.method


def section_volume_mc(A: WeightVector, r: float, half_width: float,
                      samples: int, seed: int):
    """Monte Carlo slab volume vol{x in Q_n : |<A,x> - r| <= d}/(2d).

    Returns (estimate, stderr); estimate -> phi_A(r) as the half width d -> 0.
    """
    delta = float(half_width)
    if not (0.0 < delta <= A.a[0] / 4.0):
        raise ValidationError("half_width must lie in (0, a_1/4]")
    if samples < 10**4:
        raise ValidationError("need at least 1e4 samples")
    rng = np.random.Generator(np.random.Philox(seed=[int(seed), 0]))
    hits = 0
    done = 0
    chunk = 1 << 16
    while done < samples:
        k = min(chunk, samples - done)
        z = rng.random((k, A.n)) @ A.a - 0.5 * A.total
        hits += int(np.count_nonzero(np.abs(z - r) <= delta))
        done += k
    p = hits / samples
    est = p / (2.0 * delta)
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / samples) / (2.0 * delta)
    return est, stderr
