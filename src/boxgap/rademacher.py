"""Rademacher expectation E|sum a_k e_k| and the F(s) Khinchine-type bound.

E is exact up to n = ENUM_CAP = 40: the signed sums of two halves of the
weights meet through one sorted half (Horowitz-Sahni), in about 2^(n/2) log
work, with a stated round-off bound.  Beyond the cap it is a seeded Monte
Carlo mean with its standard error.  `expectation` is the one entry point
that picks between the two.

F(s) = (2/pi) int_0^inf (1 - |cos(t/sqrt(s))|^s) t^-2 dt is increasing with
limit sqrt(2/pi), and E|sum a_k e_k| >= sum a_k^2 F(a_k^-2) >= F(a_n^-2).

F comes from Haagerup's series (The best constants in the Khintchine
inequality, 1981), F(s) = (2/sqrt(s)) sum_{m>=1} m c_m, where
c_m = 2 Gamma(s+1) / (2^s Gamma(s/2+m+1) Gamma(s/2-m+1)) is the cos(2mu)
coefficient of |cos u|^s.  The head m <= s/2 is a finite positive sum.  Past
s/2 the terms alternate (for even s they vanish) and b_m = |m c_m| decreases,
since b_{m+1}/b_m = (m+1)(m-s/2)/(m(m+s/2+1)) < 1, and is log-convex; so the
mean of the partial sums through J-1 and J is within (b_J - b_{J+1})/2 of the
limit, which takes about tol^(-1/(s+1)) terms.  The stated error adds a
round-off bound that scales with the magnitudes of the gammaln terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._num import fsum
from .errors import CapabilityError, DomainError, ValidationError
from .weights import WeightVector

ENUM_CAP = 40
_CHUNK_BITS = 16  # x chunks of 2^16 keep the search buffers near 2 MB
_EPS = float(np.finfo(np.float64).eps)
MC_MIN_SAMPLES = 10**4
MC_SAMPLES = 4 * 10**5  # default Monte Carlo draws past ENUM_CAP
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class RademacherSummary:
    expectation: float
    method: str  # "exact" | "monte_carlo"
    n: int
    samples: int | None = None
    stderr: float | None = None
    error: float | None = None  # exact: round-off bound; MC: 4 stderr

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "method": self.method, "expectation": self.expectation}
        if self.method == "monte_carlo":
            out["samples"] = self.samples
            out["stderr"] = self.stderr
        else:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class KhinchineBound:
    f_of_an: float
    weighted_sum: float
    quad_error: float

    def to_json_dict(self) -> dict:
        return {"f_of_an": self.f_of_an, "weighted_sum": self.weighted_sum,
                "quad_error": self.quad_error}


def _signed_sums(w: np.ndarray) -> np.ndarray:
    """All 2^len(w) sums sum_k +-w_k, each added left to right from 0."""
    sums = np.zeros(1)
    for x in w:
        sums = np.add.outer(sums, (x, -x)).ravel()
    return sums


def exact_expectation(A: WeightVector) -> RademacherSummary:
    """2^-n sum over all sign vectors of |sum a_k e_k|, by meet in the middle.

    The e <-> -e symmetry fixes the last sign to +1.  The other n-1 weights
    are split in halves: x runs over a_n plus the signed sums of one half,
    y over the sorted signed sums of the other (m of them).  With
    k_x = #{y < -x} and c_y = #{x < -y}, the sum of |x + y| over all pairs is
        sum_x x (m - 2 k_x)  +  sum_y y (#x - 2 c_y),
    and c_y is read off the histogram of k_x, so each x costs one binary
    search (Horowitz-Sahni 1974): about 2^(n/2) log work instead of 2^(n-1).
    The x are taken in sorted chunks of at most 2^_CHUNK_BITS, so memory
    stays at a few tens of MB up to ENUM_CAP.  Every product is rounded once
    and summed by math.fsum; `error` bounds that and the round-off of the
    signed sums themselves.
    """
    n = A.n
    if n > ENUM_CAP:
        raise CapabilityError(
            f"exact expectation capped at n = {ENUM_CAP}; use mc_expectation")
    a = A.a
    half = (n - 1) // 2
    y = np.sort(_signed_sums(a[:half]))
    m = y.size
    rest = a[half:-1]
    low = min(rest.size, _CHUNK_BITS)
    # descending x within a chunk makes the searched keys -x ascending
    chunk = np.sort(_signed_sums(rest[:low]))[::-1]
    hist = np.zeros(m + 1, dtype=np.int64)  # hist[k] = #{x : k_x = k}
    parts: list[float] = []
    for base in a[-1] + _signed_sums(rest[low:]):
        x = base + chunk
        k = np.searchsorted(y, -x)
        parts.append(fsum(x * (m - 2 * k)))
        hist += np.bincount(k, minlength=m + 1)
    nx = int(hist.sum())
    # y_j < -x iff j < k_x, so c_j = nx - (hist[0] + ... + hist[j])
    parts.append(fsum(y * (2 * np.cumsum(hist[:-1]) - nx)))
    exp = fsum(parts) / (nx * m)  # nx * m = 2^(n-1): an exact division
    # x and y are summed with at most n-1 roundings between them, so each
    # |x + y| is within gamma_(n-1) sum(a) of exact; the rounded products
    # and the two fsum levels add 3u relative to sum(a): gamma_(n+2) sum(a)
    g = (n + 2) * 0.5 * _EPS
    err = g / (1.0 - g) * A.total
    return RademacherSummary(expectation=exp, method="exact", n=n, error=err)


def mc_expectation(A: WeightVector, samples: int, seed: int) -> RademacherSummary:
    """Sample mean of |sum a_k e_k| over seeded Rademacher draws, stated to
    4 standard errors; chunks of at most 2^22 signs bound memory at any n."""
    if samples < MC_MIN_SAMPLES:
        raise ValidationError(f"need at least {MC_MIN_SAMPLES} samples")
    rng = np.random.Generator(np.random.Philox(seed=[int(seed), 0]))
    part_sum: list[float] = []
    part_sq: list[float] = []
    done = 0
    chunk = max(1, min(1 << 16, (1 << 22) // A.n))
    while done < samples:
        k = min(chunk, samples - done)
        signs = rng.integers(0, 2, size=(k, A.n)).astype(np.float64) * 2.0 - 1.0
        z = np.abs(signs @ A.a)
        del signs  # before the next chunk's draws
        part_sum.append(float(np.sum(z)))
        part_sq.append(float(np.sum(z * z)))
        done += k
    mean = fsum(part_sum) / samples
    var = max(fsum(part_sq) / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return RademacherSummary(expectation=mean, method="monte_carlo", n=A.n,
                             samples=samples, stderr=stderr, error=4.0 * stderr)


def expectation(A: WeightVector, method: str = "auto",
                samples: int = MC_SAMPLES, seed: int = 0) -> RademacherSummary:
    """E|sum a_k e_k| by `method`: "exact", "monte_carlo", or "auto", which is
    exact up to n = ENUM_CAP and Monte Carlo (samples draws, seeded) beyond."""
    if method == "auto":
        method = "exact" if A.n <= ENUM_CAP else "monte_carlo"
    if method == "exact":
        return exact_expectation(A)
    if method == "monte_carlo":
        return mc_expectation(A, samples, seed)
    raise ValidationError(f"unknown expectation method {method!r}")


# ---------------------------------------------------------------------------
# F(s): Haagerup's cosine series

_LN2 = math.log(2.0)
_HEAD_WIDTH = 8.0  # head terms past m = 8 sqrt(s) are below exp(-128) of the peak
_S_MAX = 1e9  # keeps the head below 2.6e5 terms; round-off there is ~3e-5


def _terms(s: float, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed terms m c_m and bounds on their round-off, formed in log space.

    For m > s/2 the reflection formula replaces 1/Gamma(s/2-m+1); its sine is
    taken of the exact fraction s/2 - round(s/2), so s = 2k +- ulp is safe.
    """
    h = 0.5 * s
    m = np.asarray(m, dtype=np.float64)
    head = m <= h
    k = round(h)
    frac = h - k  # exact: |frac| <= 1/2 and h, k share the grid of h
    with np.errstate(divide="ignore"):
        ln_sin = float(np.log(abs(math.sin(math.pi * frac))))
    g_s = float(gammaln(s + 1.0))
    g_plus = gammaln(h + m + 1.0)
    g_side = np.where(head, -gammaln(np.where(head, h - m + 1.0, 1.0)),
                      gammaln(np.where(head, 1.0, m - h)))
    core = g_side - g_plus  # the large, cancelling pair first
    rest = (np.log(m) + np.where(head, 0.0, ln_sin - math.log(math.pi))
            + (_LN2 + g_s - s * _LN2))
    log_b = core + rest
    # gammaln is good to 3 eps of max(|value|, 1); every other rounding costs
    # eps/2 of a partial sum, and there are at most two per magnitude below
    err_log = (3.0 * _EPS * (abs(g_s) + np.abs(g_plus) + np.abs(g_side) + 3.0)
               + _EPS * (abs(g_s) + s + np.abs(core) + np.abs(rest)
                         + np.abs(log_b) + 2.0))
    b = np.exp(log_b)
    sign = np.where(head, 1.0, (-1.0) ** (m - 1.0 + k) * math.copysign(1.0, frac))
    return sign * b, b * err_log


def _tail_sum(s: float, m0: int, budget: float) -> tuple[float, float, float]:
    """(value, truncation, round-off) of the tail m >= m0 > s/2, stopping at
    the first b_J - b_{J+1} <= budget (inf truncation if round-off exceeds it)."""
    partial: list[float] = []
    round_err = 0.0
    size = 64
    while True:
        t, e = _terms(s, np.arange(m0, m0 + size + 1))
        b = np.abs(t)
        hit = np.flatnonzero(b[:-1] - b[1:] <= budget)
        if hit.size:
            j = int(hit[0])
            partial += [fsum(t[: j + 1]), -0.5 * float(t[j])]
            return (fsum(partial), 0.5 * float(b[j] - b[j + 1]),
                    round_err + float(np.sum(e[: j + 1])))
        partial.append(fsum(t[:-1]))
        round_err += float(np.sum(e[:-1]))
        if round_err > budget:
            return fsum(partial), math.inf, round_err
        m0 += size
        size = min(2 * size, 1 << 16)


def f_function(s: float, tol: float = 1e-4) -> tuple[float, float]:
    """F(s) and a bound on its truncation plus round-off error, at most tol.

    Raises ValidationError if round-off keeps the bound above tol.
    """
    s = float(s)
    if not (math.isfinite(s) and s > 0):
        raise DomainError(f"F(s) requires a finite s > 0, got {s!r}")
    if s > _S_MAX:
        raise CapabilityError(
            f"F(s) is evaluated for s <= {_S_MAX:g}; it tends to sqrt(2/pi)")
    if not tol > 0:
        raise ValidationError("tol must be positive")
    h = 0.5 * s
    scale = 2.0 / math.sqrt(s)
    top = math.floor(h)
    cut = min(top, int(_HEAD_WIDTH * math.sqrt(s)) + 1)
    t, e = _terms(s, np.arange(1, cut + 1))
    partial = [fsum(t)]
    round_err = float(np.sum(e))
    trunc = 0.0
    if cut < top:
        # past the cut b_m falls with ratio <= r through the head, and the
        # alternating tail beyond s/2 is at most the last head term
        b = float(np.abs(_terms(s, np.array([cut + 1]))[0][0]))
        r = (cut + 2) * (h - cut - 1) / ((cut + 1) * (h + cut + 2))
        trunc = 2.0 * b / (1.0 - r)
    elif h != top:  # odd or non-integer s: the tail does not vanish
        tail, trunc, e_tail = _tail_sum(s, top + 1, tol / scale)
        partial.append(tail)
        round_err += e_tail
    value = scale * fsum(partial)
    err = scale * (trunc + round_err) + 4.0 * _EPS * abs(value)
    if err > tol:
        raise ValidationError(f"F({s:g}) cannot reach tol = {tol:g} within "
                              f"round-off (error bound {err:.1e})")
    return value, err


def khinchine_bounds(A: WeightVector) -> KhinchineBound:
    """Lower-bound chain F(a_n^-2) <= sum a_k^2 F(a_k^-2) (<= E)."""
    weighted = 0.0
    weighted_err = 0.0
    for ak in A.a:  # ascending, so the last (v, e) is F(a_n^-2)
        v, e = f_function(float(ak) ** -2)
        weighted += float(ak) ** 2 * v
        weighted_err += float(ak) ** 2 * e
    return KhinchineBound(f_of_an=v, weighted_sum=weighted,
                          quad_error=e + weighted_err)
