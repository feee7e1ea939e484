"""Low-level numerical helpers: exact float summation (math.fsum over
arrays) and composite Gauss-Legendre panels."""

from __future__ import annotations

import math

import numpy as np


def fsum(values) -> float:
    """Exact sum of an array of float64 values."""
    # a list of Python floats is summed faster than the array's elements
    return math.fsum(np.asarray(values, dtype=np.float64).ravel().tolist())


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def gl_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights for the panels between edges.

    Returns flat arrays (nodes, weights); sum(w * f(nodes)) approximates the
    integral over [edges[0], edges[-1]].
    """
    x, w = gauss_legendre(order)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
