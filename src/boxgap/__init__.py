"""Univariate box splines, their Gaussian limit, and the Mahler-gap bound.

For a unit weight vector A = (a_1, ..., a_n) the box spline B(.|A) is the
density of sum a_i U_i with U_i iid uniform on [0,1); the section function
phi_A(r) = B(r + sum(a)/2 | A) peaks at r = 0; and Ball's reformulation of
the 2n+2-facet case of Mahler's conjecture is phi_A(0) E|sum a_k e_k| >= 1
with Rademacher signs e_k.
"""

from .boxspline import (
    TRUNCATED_POWER_CAP,
    DensityProfile,
    FourierResult,
    density_profile,
    eval_convolution,
    fourier_values,
    max_value,
    phi,
    section_volume_mc,
    truncated_power_raw,
)
from .errors import (
    BoxgapError,
    CapabilityError,
    DomainError,
    NumericalError,
    ValidationError,
)
from .gap import (
    GapReport,
    ScanSummary,
    ThresholdReport,
    ThresholdRow,
    confirm_counterexample,
    epsilon0_cap,
    gap,
    minimize_gap,
    scan_random,
    threshold_probe,
)
from .rademacher import (
    ENUM_CAP,
    KhinchineBound,
    RademacherSummary,
    exact_expectation,
    expectation,
    f_function,
    khinchine_bounds,
    mc_expectation,
)
from .saddlepoint import (
    GAUSS_PEAK,
    ConvergenceReport,
    SaddleSolution,
    cgf,
    cgf_derivs,
    convergence_report,
    gaussian_limit,
    saddle_density,
    solve_saddle,
)
from .weights import FamilySpec, WeightVector, center, generate, make_unit, ratio

__version__ = "0.1.0"

__all__ = [
    "BoxgapError", "ValidationError", "CapabilityError", "DomainError",
    "NumericalError",
    "WeightVector", "FamilySpec", "make_unit", "generate", "center", "ratio",
    "TRUNCATED_POWER_CAP", "DensityProfile", "FourierResult",
    "truncated_power_raw", "eval_convolution", "fourier_values",
    "density_profile", "phi", "max_value", "section_volume_mc",
    "GAUSS_PEAK", "cgf", "cgf_derivs", "SaddleSolution", "solve_saddle",
    "saddle_density", "gaussian_limit", "ConvergenceReport",
    "convergence_report",
    "ENUM_CAP", "RademacherSummary", "KhinchineBound", "expectation",
    "exact_expectation", "mc_expectation", "f_function", "khinchine_bounds",
    "GapReport", "ScanSummary", "ThresholdRow", "ThresholdReport",
    "epsilon0_cap", "gap", "confirm_counterexample", "scan_random",
    "minimize_gap", "threshold_probe",
]
