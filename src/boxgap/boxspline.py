"""Evaluation of the univariate box spline B(x|A) and the section function.

B(.|A) is the density of sum_j a_j U_j with U_j i.i.d. uniform on [0,1);
equivalently the (n-1)-volume of the central hyperplane slice of the unit
cube, shifted so the support is [0, sum a_j].  Three independent routes are
provided:

* truncated_power - the inclusion-exclusion closed form, n <= 24: float
                    terms summed exactly for n <= 12, and from n = 13 on an
                    integer sweep that returns correctly rounded values,
* convolution     - n sliding-window convolutions of uniform cell masses,
* fourier         - numerical inversion of the product-of-sinc transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import sici

from ._num import fsum, gl_panels
from .errors import CapabilityError, DomainError, NumericalError, ValidationError
from .weights import WeightVector, center

TRUNCATED_POWER_CAP = 24
_EXACT_FROM = 13  # exact integer sweep from this n on; plain floats below
_METHODS = ("auto", "truncated_power", "convolution", "fourier")


# ---------------------------------------------------------------------------
# truncated-power closed form


def _check_points(xs) -> None:
    if not np.all(np.isfinite(xs)):
        raise DomainError("evaluation points must be finite")


def _float_truncated_power(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """B(x|a) from the 2^n float subset sums, each term rounded once.

    math.fsum adds the terms exactly, so the error is the rounding of the
    terms (x - s)^(n-1), which the ~n^n/n! cancellation amplifies: fine for
    n < _EXACT_FROM, where this is faster than the integer sweep.
    """
    n = a.size
    total = float(np.sum(a))
    sums = np.zeros(1)
    signs = np.ones(1, dtype=np.int8)
    for w in a:
        sums = np.concatenate([sums, sums + w])
        signs = np.concatenate([signs, -signs])
    norm = math.factorial(n - 1) * float(np.prod(a))

    def value(x: float) -> float:
        if x <= 0.0 or x >= total:
            return 0.0
        mask = sums < x
        acc = fsum(signs[mask] * (x - sums[mask]) ** (n - 1))
        return max(acc / norm, 0.0)

    return np.array([value(float(x)) for x in xs])


def _signed_subset_sums(w: list[int]) -> list[tuple[int, int]]:
    """All (sum of S, (-1)^|S|) over the subsets S of the integers w."""
    out = [(0, 1)]
    for v in w:
        out += [(s + v, -g) for s, g in out]
    return out


def _exact_truncated_power(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """B(x|a) at every x of xs, each the correctly rounded value.

    Every float is a dyadic rational, so on the common scale D (the largest
    denominator among the weights and the points) the weights W_k and a
    point X are integers, and
        (n-1)! prod(W) B(x) / D = N(X) = sum_S (-1)^|S| (X - s_S)_+^(n-1)
    is an integer.  The weights are split in halves P and Q (Horowitz-Sahni
    1974).  For a subset sum s1 of P, the Q subsets with s2 < Y = X - s1
    contribute sum_j C(n-1, j) (-1)^j M_j Y^(n-1-j), where
    M_j = sum (-1)^|S2| s2^j runs over those s2.  Taking s1 in descending
    order makes Y ascend, so the moments M_j grow by a sweep over Q's sorted
    sums: O(n 2^(n/2)) integer multiply-adds per point, with no rounding
    until the final division.
    """
    n = a.size
    ratios = [float(w).as_integer_ratio() for w in a]
    ratios += [x.as_integer_ratio() for x in map(float, xs) if x > 0.0]
    D = max(den for _, den in ratios)  # a power of two: every den divides it
    W = [num * (D // den) for num, den in ratios[:n]]
    total = sum(W)
    half = n // 2
    p_desc = sorted(_signed_subset_sums(W[:half]), reverse=True)
    q_asc = sorted(_signed_subset_sums(W[half:]))
    coef = [(-1) ** j * math.comb(n - 1, j) for j in range(n)]
    denom = math.factorial(n - 1) * math.prod(W)

    def count(X: int) -> int:
        X = min(X, total - X)  # B is symmetric about total/2
        moments = [0] * n
        it = iter(q_asc)
        nxt = next(it, None)
        N = 0
        for s1, g1 in p_desc:
            Y = X - s1
            if Y <= 0:
                continue
            while nxt is not None and nxt[0] < Y:
                s2, p = nxt
                for j in range(n):
                    moments[j] += p
                    p *= s2
                nxt = next(it, None)
            h = 0
            for c, m in zip(coef, moments):
                h = h * Y + c * m
            N += h if g1 > 0 else -h
        return N

    out = np.zeros(len(xs))
    for i, x in enumerate(map(float, xs)):
        if x > 0.0:
            num, den = x.as_integer_ratio()
            X = num * (D // den)
            if X < total:
                out[i] = count(X) * D / denom
    return out


def _truncated_power(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """B(x|a) at every x of xs: plain floats for small n, exact beyond."""
    n = a.size
    if n > TRUNCATED_POWER_CAP:
        raise CapabilityError(
            f"truncated-power form capped at n = {TRUNCATED_POWER_CAP} "
            "(the exact sweep grows like 2^(n/2)); use eval_convolution"
        )
    if n < _EXACT_FROM:
        return _float_truncated_power(a, xs)
    return _exact_truncated_power(a, xs)


def truncated_power_raw(weights, x: float) -> float:
    """Closed-form evaluation for arbitrary positive weights (no unit norm)."""
    a = np.asarray(weights, dtype=np.float64)
    if a.size == 0 or not np.all(np.isfinite(a) & (a > 0)):
        raise ValidationError("weights must be positive and finite")
    xs = np.array([float(x)])
    _check_points(xs)
    return float(_truncated_power(a, xs)[0])


def eval_truncated_power(A: WeightVector, x: float) -> float:
    """B(x|A) by the inclusion-exclusion truncated-power formula."""
    return truncated_power_raw(A.a, x)


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
            "grid": [float(x) for x in self.grid],
            "values": [float(v) for v in self.exported_values()],
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
    return DensityProfile(grid=grid, values=p / h, method="convolution", A=A,
                          tolerance=None)


def _auto_conv_step(A: WeightVector, fine: float = 1e-3) -> float:
    return min(A.a[0] / 8.0, fine)


# ---------------------------------------------------------------------------
# Fourier inversion


@dataclass
class FourierResult:
    values: np.ndarray
    quad_error: float
    tail_error: float
    warning: bool = False


def _tail_exponentials(order: int, mu: np.ndarray, T: float):
    """G_k(mu, T) = int_T^inf exp(i mu z) z^-k dz by integration-by-parts.

    G_1 uses Si/Ci; near-zero frequencies are dropped (their contributions
    cancel pairwise in the surrounding sine-product expansion).
    """
    m = np.abs(mu)
    tiny = m * T < 1e-12
    si, ci = sici(np.where(tiny, 1.0, m * T))
    G = np.where(tiny, 0.0, -ci) + 1j * np.where(tiny, 0.0, 0.5 * np.pi - si)
    phase = np.exp(1j * m * T)
    for k in range(2, order + 1):
        G = phase * T ** (1 - k) / (k - 1) + (1j * m / (k - 1)) * G
    G = np.where(mu < 0, np.conj(G), G)
    return G, bool(np.any(tiny))


def fourier_values(A: WeightVector, xs, freq_cutoff: float | None = None,
                   quad_tol: float = 1e-7) -> FourierResult:
    """Fourier inversion of the sinc-product transform on a batch of points.

    [0, T] is integrated by composite Gauss-Legendre panels sized to the
    fastest oscillation; the tail is evaluated exactly for n <= 11 via the
    sine-product expansion and Si/Ci, and bounded analytically for larger n
    (where the integrand decays like z^-n and a short range suffices).
    """
    if quad_tol <= 0:
        raise ValidationError("quad_tol must be positive")
    if freq_cutoff is not None and freq_cutoff <= 0:
        raise ValidationError("freq_cutoff must be positive")
    a = A.a
    n = A.n
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    theta = xs_arr - center(A)
    use_si_tail = n <= 11
    if use_si_tail:
        T = freq_cutoff if freq_cutoff is not None else max(20.0, 4.0 / a[0])
        tail_err = 0.0
    else:
        # log of prod(2/a_k): the product itself overflows from n ~ 210 on
        log_inv = float(np.sum(np.log(2.0 / a)))
        T = math.exp((log_inv - math.log(0.5 * (n - 1) * np.pi * quad_tol))
                     / (n - 1))
        T = max(T, 2.0 / a[0], 20.0)
        if freq_cutoff is not None:
            T = max(freq_cutoff, 2.0 / a[0])
        tail_err = math.exp(log_inv - (n - 1) * math.log(T)) / ((n - 1) * np.pi)

    wmax = 0.5 * float(np.sum(a)) + float(np.max(np.abs(theta))) + 1.0
    panels = int(np.ceil(T * 2.0 * wmax / np.pi))
    edges = np.linspace(0.0, T, panels + 1)

    def bulk(order: int) -> np.ndarray:
        z, w = gl_panels(edges, order)
        g = np.prod(np.sinc(np.outer(z, a) / (2.0 * np.pi)), axis=1)
        return np.cos(np.outer(theta, z)) @ (w * g)

    b_hi = bulk(12)
    b_lo = bulk(8)
    quad_err = float(np.max(np.abs(b_hi - b_lo))) / np.pi + 1e-16

    warning = False
    if use_si_tail:
        b = 0.5 * a
        mus = np.zeros(1)
        coef = np.ones(1)
        for bj in b:
            mus = np.concatenate([mus + bj, mus - bj])
            coef = np.concatenate([coef, -coef])
        pref = 0.5 * (-1j) ** n / float(np.prod(a))
        g_plus, tiny_p = _tail_exponentials(n, mus[:, None] + theta[None, :], T)
        g_minus, tiny_m = _tail_exponentials(n, mus[:, None] - theta[None, :], T)
        tail = np.real(pref * np.sum(coef[:, None] * (g_plus + g_minus), axis=0))
        if n == 1 and (tiny_p or tiny_m):
            warning = True  # x sits on a jump of the indicator density
        values = (b_hi + tail) / np.pi
        tail_err = float(np.max(np.sum(np.abs(g_plus) + np.abs(g_minus), axis=0))
                         * abs(pref) * 2e-16)
    else:
        values = b_hi / np.pi

    return FourierResult(values=values, quad_error=quad_err,
                         tail_error=tail_err, warning=warning)


def eval_fourier(A: WeightVector, x: float, freq_cutoff: float | None = None,
                 quad_tol: float = 1e-7) -> float:
    """B(x|A) by numerical Fourier inversion (independent oracle)."""
    return float(fourier_values(A, [x], freq_cutoff, quad_tol).values[0])


# ---------------------------------------------------------------------------
# unified evaluation, section function, maximum


def _resolve_method(A: WeightVector, method: str) -> str:
    if method not in _METHODS:
        raise ValidationError(f"unknown method {method!r}; one of {_METHODS}")
    if method == "auto":
        return "truncated_power" if A.n <= TRUNCATED_POWER_CAP else "convolution"
    return method


def density_profile(A: WeightVector, grid, method: str = "auto",
                    grid_step: float | None = None) -> DensityProfile:
    """Evaluate B(.|A) on an explicit grid with the chosen method."""
    m = _resolve_method(A, method)
    grid = np.asarray(grid, dtype=np.float64)
    _check_points(grid)
    if m == "truncated_power":
        vals = _truncated_power(A.a, grid)
        # the exact sweep rounds once; the float path keeps a fixed budget
        tol = (float(np.max(np.spacing(vals), initial=0.0)) / 2.0
               if A.n >= _EXACT_FROM else 1e-9)
    elif m == "convolution":
        prof = eval_convolution(A, grid_step or _auto_conv_step(A, 2.5e-4))
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


def max_value(A: WeightVector, method: str = "auto") -> float:
    """Maximum of B(.|A), attained at the symmetry center.

    A local-maximality probe at center +/- a_1/4 guards against evaluator
    bugs (B is log-concave, so the center is the true maximum).
    """
    c = center(A)
    probe = A.a[0] / 4.0
    prof = density_profile(A, [c - probe, c, c + probe], method)
    lo, v, hi = (float(t) for t in prof.values)
    slack = 1e-7 if prof.method != "truncated_power" else 1e-9
    if v + slack < lo or v + slack < hi:
        raise NumericalError(
            f"center value {v:.12g} below probe values ({lo:.12g}, {hi:.12g})")
    return v


def section_volume_mc(A: WeightVector, r: float, half_width: float,
                      samples: int, seed: int, stream: int = 0):
    """Monte Carlo slab volume vol{x in Q_n : |<A,x> - r| <= d}/(2d).

    Returns (estimate, stderr); estimate -> phi_A(r) as the half width d -> 0.
    """
    delta = float(half_width)
    if not (0.0 < delta <= A.a[0] / 4.0):
        raise ValidationError("half_width must lie in (0, a_1/4]")
    if samples < 10**4:
        raise ValidationError("need at least 1e4 samples")
    rng = np.random.Generator(np.random.Philox(seed=[int(seed), int(stream)]))
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
