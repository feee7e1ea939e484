"""The Mahler-gap functional G(A) = phi_A(0) * E|sum a_k e_k| - 1.

Ball's reformulation of the 2n+2-facet case of Mahler's conjecture is
G(A) >= 0 for every unit weight vector.  This module verifies it pointwise,
scans random families under a ratio cap, runs a derivative-free local
search for near-violations, and probes the empirical threshold N0(c0) via
the proof-route slack max B - 1/F(a_n^-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxspline import _U, TRUNCATED_POWER_CAP, max_value
from .errors import ValidationError
from .rademacher import expectation, f_function
from .saddlepoint import GAUSS_PEAK
from .weights import FamilySpec, WeightVector, generate, ratio

RECIP_LIMIT = math.sqrt(math.pi / 2.0)  # limit of 1/F(s)


def epsilon0_cap() -> float:
    """Upper cap for the margin constant: (sqrt(6/pi) - sqrt(pi/2)) / 2."""
    return 0.5 * (GAUSS_PEAK - RECIP_LIMIT)


@dataclass
class GapReport:
    A: WeightVector
    phi0: float
    expectation: float
    gap: float
    phi_method: str
    exp_method: str
    lower_bound_gap: float
    tolerance: float
    f_of_an: float  # F(a_n^-2), the Khinchine-type lower bound on E
    f_error: float  # stated error of f_of_an

    def violates(self, tol: float) -> bool:
        """True iff the gap is negative beyond both tol and its own tolerance."""
        return self.gap < -max(tol, self.tolerance)

    def to_json_dict(self) -> dict:
        return {
            "A": self.A.to_json(),
            "phi0": self.phi0,
            "expectation": self.expectation,
            "gap": self.gap,
            "phi_method": self.phi_method,
            "exp_method": self.exp_method,
            "lower_bound_gap": self.lower_bound_gap,
            "tolerance": self.tolerance,
            "f_of_an": self.f_of_an,
            "f_error": self.f_error,
        }


def gap(A: WeightVector, phi_method: str = "auto", f_tol: float = 1e-4,
        seed: int = 0) -> GapReport:
    """Gap report with both the true gap and the F(a_n^-2) lower-bound gap; its
    tolerance adds the errors stated for phi0 and E and the rounding of G."""
    phi0, phi_err, phi_method = max_value(A, phi_method)
    summary = expectation(A, seed=seed)
    E = summary.expectation
    g = phi0 * E - 1.0
    f_an, f_err = f_function(float(A.a[-1]) ** -2, f_tol)
    lower = phi0 * f_an - 1.0
    tol = phi_err * E + phi0 * summary.error + _U * (phi0 * E + abs(g))
    return GapReport(A=A, phi0=phi0, expectation=E, gap=g,
                     phi_method=phi_method, exp_method=summary.method,
                     lower_bound_gap=lower, tolerance=tol, f_of_an=f_an,
                     f_error=f_err)


def confirm_counterexample(A: WeightVector, tol: float = 1e-9) -> tuple[bool, list[GapReport]]:
    """Re-verify a negative gap with all phi evaluators before reporting it.

    Returns (confirmed, reports).  A negative gap is the scientific payload
    of this artifact, so it is double-checked, never swallowed.
    """
    methods = ["truncated_power", "convolution", "fourier"]
    if A.n > TRUNCATED_POWER_CAP:
        methods.remove("truncated_power")
    reports = [gap(A, phi_method=m, f_tol=1e-6) for m in methods]
    confirmed = all(r.violates(tol) for r in reports)
    return confirmed, reports


@dataclass
class ScanSummary:
    n: int
    c0: float
    trials: int
    seed: int
    min_report: GapReport
    argmin_trial: int
    histogram_edges: list[float]
    histogram_counts: list[int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "c0": self.c0, "trials": self.trials, "seed": self.seed,
            "argmin_trial": self.argmin_trial,
            "min_report": self.min_report.to_json_dict(),
            "histogram": {"edges": self.histogram_edges,
                          "counts": self.histogram_counts},
        }


def scan_random(n: int, c0: float, trials: int, seed: int,
                collect=None) -> ScanSummary:
    """Minimum gap over seeded random vectors with ratio cap c0.

    `collect`, if given, receives (trial, gap, ratio) tuples for CSV export.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    child_seeds = np.random.SeedSequence(int(seed)).generate_state(trials)
    gaps = np.empty(trials)
    for i, s in enumerate(child_seeds):
        A = generate(FamilySpec("random", n, c0=c0, seed=int(s)))
        report = gap(A)
        gaps[i] = report.gap
        if i == 0 or report.gap < best.gap:  # the first of equal minima
            best, best_i = report, i
        if collect is not None:
            collect((i, report.gap, ratio(A)))
    counts, edges = np.histogram(gaps, bins=min(20, trials))
    return ScanSummary(n=n, c0=c0, trials=trials, seed=seed, min_report=best,
                       argmin_trial=best_i,
                       histogram_edges=[float(e) for e in edges],
                       histogram_counts=[int(c) for c in counts])


def _project_ratio(a: np.ndarray, c0: float) -> np.ndarray:
    """Clamp small weights up to a_max/c0, then re-normalize (twice)."""
    for _ in range(2):
        a = np.maximum(a, a.max() / c0)
        a = np.sort(a) / np.sqrt(np.sum(a * a))
    return a


def minimize_gap(c0: float, start: WeightVector,
                 budget: int = 2000) -> tuple[GapReport, bool]:
    """Nelder-Mead descent of the gap over the squared-weight simplex chart.

    Weights are parameterized as |q|/||q|| so positivity and unit norm hold
    by construction; the ratio cap is enforced by projection.  Returns
    (best report, budget_exhausted); never claims global optimality.
    """
    if not 1.0 <= c0 < math.inf:
        raise ValidationError("c0 must be finite and >= 1")
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    if ratio(start) > c0 * (1 + 1e-12):
        raise ValidationError("start vector violates the ratio cap")
    # imported here so that importing boxgap does not load scipy.optimize
    from scipy.optimize import minimize

    def weights_of(q: np.ndarray) -> WeightVector:
        q = np.abs(q)
        q = np.maximum(q, 1e-12)
        return WeightVector(_project_ratio(q / np.sqrt(np.sum(q * q)), c0))

    def objective(q: np.ndarray) -> float:
        return gap(weights_of(q)).gap

    res = minimize(objective, np.array(start.a), method="Nelder-Mead",
                   options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-13})
    best = gap(weights_of(res.x))
    start_rep = gap(start)
    if start_rep.gap < best.gap:  # descent property: never worse than start
        best = start_rep
    return best, not res.success


@dataclass
class ThresholdRow:
    n: int
    min_gap: float
    argmin: WeightVector
    min_slack: float  # proof-route slack: max B - 1/F(a_n^-2)
    slack_tol: float  # tol plus the stated F error propagated through 1/F

    def to_json_dict(self) -> dict:
        return {"n": self.n, "min_gap": self.min_gap,
                "argmin": self.argmin.to_json(), "min_slack": self.min_slack,
                "slack_tol": self.slack_tol}


@dataclass
class ThresholdReport:
    c0: float
    family_kind: str
    n_range: tuple[int, int]
    rows: list[ThresholdRow]
    empirical_N0: int | None

    def to_json_dict(self) -> dict:
        return {
            "c0": self.c0, "family": self.family_kind,
            "n_range": list(self.n_range),
            "rows": [r.to_json_dict() for r in self.rows],
            "empirical_N0": self.empirical_N0,
        }


def threshold_probe(c0: float, family_kind: str, n_range, trials_per_n: int = 50,
                    seed: int = 0, tol: float = 1e-9) -> ThresholdReport:
    """Empirical N0(c0): least n from which the proof-route slack stays >= 0.

    The slack max_x B(x|A) - 1/F(a_n^-2) is the sufficient condition the
    asymptotic argument certifies; it can be negative at small n even where
    the true gap is positive, and both are reported.
    """
    if not 1.0 <= c0 < math.inf:
        raise ValidationError("c0 must be finite and >= 1")
    if trials_per_n < 1:
        raise ValidationError("trials must be >= 1")
    ns = list(n_range)
    if not ns:
        raise ValidationError("n range is empty")

    def slack(r: GapReport) -> float:
        return r.phi0 - 1.0 / r.f_of_an

    def row(n: int) -> ThresholdRow:
        if family_kind == "random" and n > 1:
            seeds = np.random.SeedSequence([int(seed), n]).generate_state(trials_per_n)
            vecs = [generate(FamilySpec("random", n, c0=c0, seed=int(s)))
                    for s in seeds]
        elif family_kind == "geometric" and n > 1:
            q = float(c0) ** (1.0 / (n - 1))
            vecs = [generate(FamilySpec("geometric", n, q=q))]
        else:  # equal (and n = 1, where every family collapses)
            vecs = [generate(FamilySpec("equal", n))]
        reports = [gap(A) for A in vecs]
        low = min(reports, key=lambda r: r.gap)  # min keeps the first of ties
        tight = min(reports, key=slack)
        return ThresholdRow(n=n, min_gap=low.gap, argmin=low.A,
                            min_slack=slack(tight),
                            # 1/F error propagated from the stated F error
                            slack_tol=tol + tight.f_error / tight.f_of_an**2)

    rows = [row(n) for n in ns]
    # least n with slack >= -slack_tol there and at every larger n
    n0 = None
    for r in reversed(rows):
        if r.min_slack >= -r.slack_tol:
            n0 = r.n
        else:
            break
    return ThresholdReport(c0=c0, family_kind=family_kind,
                           n_range=(ns[0], ns[-1]), rows=rows, empirical_N0=n0)
