"""Unit weight vectors and generators for the scan families.

Every computation in the library takes a WeightVector: strictly positive
weights, sorted ascending, normalized to unit Euclidean norm.  Downstream
identities (e.g. K''(0) = 1/12) assume the exact unit norm, so near-unit
inputs are re-normalized rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

NORM_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Sorted positive weights a_1 <= ... <= a_n with sum of squares 1."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        # left to right, the order in which the saddle solve sums K'(0):
        # np.sum is pairwise and the builtin sum is compensated from 3.12
        total = 0.0
        for v in a.tolist():
            total += v
        object.__setattr__(self, "_total", total)

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def total(self) -> float:
        """Sum of weights; the support of B(.|A) is [0, total]."""
        return self._total

    def to_json(self) -> list[float]:
        return [float(v) for v in self.a]

    def __iter__(self):
        return iter(self.a)


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one weight vector: equal, geometric(q) or random(c0, seed)."""

    kind: str
    n: int
    q: float | None = None
    c0: float | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "n": self.n}
        if self.kind == "geometric":
            out["q"] = self.q
        elif self.kind == "random":
            out["c0"] = self.c0
            out["seed"] = self.seed
        return out


def make_unit(raw: Sequence[float]) -> WeightVector:
    """Sort and rescale raw positive weights to a unit vector."""
    arr = np.asarray(list(raw), dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("weight list is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("weights must be finite")
    if np.any(arr <= 0.0):
        raise ValidationError("all weights must be strictly positive")
    arr = np.sort(arr)
    with np.errstate(over="ignore", under="ignore"):
        sq = np.sum(arr * arr)
    if not np.finfo(np.float64).tiny <= sq < np.inf:
        # the squares overflow or underflow; scaling is free, the gap is
        # scale-invariant, and other inputs keep their bits
        arr = arr / arr[-1]
        sq = np.sum(arr * arr)
    arr = arr / np.sqrt(sq)
    # one re-scaling pass; reject only if still far from unit norm
    err = abs(float(np.sum(arr * arr)) - 1.0)
    if err > NORM_TOL:
        arr = arr / np.sqrt(np.sum(arr * arr))
        err = abs(float(np.sum(arr * arr)) - 1.0)
        if not err <= NORM_TOL:
            raise ValidationError(f"normalization failed, |sum a^2 - 1| = {err:g}")
    return WeightVector(arr)


def center(A: WeightVector) -> float:
    """Symmetry center of B(.|A): (a_1 + ... + a_n)/2 = K'(0)."""
    return 0.5 * A.total


def ratio(A: WeightVector) -> float:
    """Spread ratio a_n / a_1 (>= 1)."""
    return float(A.a[-1] / A.a[0])


def generate(spec: FamilySpec) -> WeightVector:
    """Build the weight vector described by a FamilySpec."""
    if spec.n < 1:
        raise ValidationError("n must be >= 1")
    if spec.kind == "equal":
        return make_unit(np.ones(spec.n))
    if spec.kind == "geometric":
        if spec.q is None or not 0.0 < spec.q < np.inf:
            raise ValidationError("geometric family needs a finite ratio q > 0")
        return make_unit(float(spec.q) ** np.arange(spec.n))
    if spec.kind == "random":
        if spec.c0 is None or not 1.0 <= spec.c0 < np.inf:
            raise ValidationError("random family needs a finite ratio cap c0 >= 1")
        if spec.seed is None or spec.seed < 0:
            raise ValidationError("random family needs a non-negative seed")
        rng = np.random.default_rng(int(spec.seed))
        # i.i.d. uniform in [1, c0]: the ratio cap holds by construction
        raw = rng.uniform(1.0, float(spec.c0), size=spec.n)
        return make_unit(raw)
    raise ValidationError(f"unknown family kind {spec.kind!r}")
