"""Correctness checks for the boxgap benchmark.

``known_answers`` runs before any timing; ``check_results`` examines every
timed operation's output afterwards.  Both return failure messages, so an
empty list means every answer was right.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict

from workloads import METHODS, Op, Result, execute

# Convolution reports no error bound of its own (its tolerance is null); its
# midpoint-cell bias is O(h^2) and stays below 1e-6 at n <= 12 with the
# default step, so it is allowed 1e-5 when the evaluators are compared.
CONVOLUTION_BOUND = 1e-5
INTEGRAL_TOL = 1e-6
# Known answers are exact reals; the computed values also carry round-off
# that the stated bounds leave out (Fourier at B(center | equal 3) is 3 ulps
# off with a stated bound of 1.3 ulps), so 16 ulps are allowed on top.
ROUNDOFF_ULPS = 16


def _own_bound(rep: dict) -> float:
    """The error bound a density report states, or CONVOLUTION_BOUND."""
    return CONVOLUTION_BOUND if rep["tolerance"] is None else rep["tolerance"]


def _cli_json(argv: list[str]) -> tuple[int | None, dict | list | None]:
    res = execute(Op("known answer", tuple(argv), 1, 1))
    try:
        return res.exit, json.loads(res.stdout)
    except ValueError:
        return res.exit, None


def known_answers() -> list[str]:
    """Closed-form answers the program must reproduce."""
    failures = []

    def expect(label: str, ok: bool) -> None:
        if not ok:
            failures.append(f"known answer failed: {label}")

    def close(value: float, exact: float, bound: float) -> bool:
        roundoff = ROUNDOFF_ULPS * sys.float_info.epsilon * max(1.0, abs(exact))
        return abs(value - exact) <= bound + roundoff

    def gap_equals(label: str, argv: list[str], value: float) -> None:
        code, rep = _cli_json(["gap", *argv])
        expect(label, code == 0 and rep is not None
               and close(rep["gap"], value, rep["tolerance"]))

    gap_equals("gap(equal 3) = 1/8", ["--equal", "3"], 0.125)
    gap_equals("gap(n = 1) = 0", ["--equal", "1"], 0.0)
    gap_equals("gap(0.6, 0.8) = 0", ["--weights", "0.6,0.8"], 0.0)
    gap_equals("gap(equal 4) = 0", ["--equal", "4"], 0.0)
    gap_equals("gap(1, 1, 2) = 0", ["--weights", "1,1,2"], 0.0)

    code, rep = _cli_json(["fbound", "--s", "2"])
    expect("F(2) = 1/sqrt(2)", code == 0 and rep is not None
           and close(rep["f"], 1.0 / math.sqrt(2.0), rep["quad_error"]))

    peak = 3.0 * math.sqrt(3.0) / 4.0
    for method in METHODS:
        code, rep = _cli_json(["eval", "--equal", "3", "--at", "center",
                               "--method", method])
        expect(f"B(center | equal 3) = 3 sqrt(3)/4 by {method}",
               code == 0 and rep is not None
               and close(rep["values"][0], peak, _own_bound(rep)))
    return failures


# ---------------------------------------------------------------------------
# per-operation checks


def _check_gap(op: Op, rep: dict) -> str | None:
    from boxgap.boxspline import density_profile, fourier_values
    from boxgap.weights import WeightVector, center

    tol = rep["tolerance"]
    if rep["gap"] < -tol:
        return f"gap {rep['gap']:.3g} below -tolerance {tol:.3g}"
    if rep["lower_bound_gap"] > rep["gap"] + tol:
        return "F-bound gap exceeds the gap"
    A = WeightVector(rep["A"])
    c = center(A)
    fr = fourier_values(A, [c])
    bound = fr.quad_error + fr.tail_error + density_profile(A, [c]).tolerance
    if abs(rep["phi0"] - fr.values[0]) > bound:
        return f"phi0 differs from Fourier by {abs(rep['phi0'] - fr.values[0]):.3g}"
    return None


def _check_scan(op: Op, rep: dict) -> str | None:
    trials = int(op.argv[op.argv.index("--trials") + 1])
    if sum(rep["histogram"]["counts"]) != trials:
        return "histogram counts do not sum to the trial count"
    best = rep["min_report"]
    if best["gap"] < -best["tolerance"]:
        return f"minimum gap {best['gap']:.3g} below -tolerance"
    return None


def _check_eval(op: Op, rep: dict) -> str | None:
    import numpy as np

    integral = float(np.trapezoid(rep["values"], rep["grid"]))
    if abs(integral - 1.0) > INTEGRAL_TOL:
        return f"density integrates to {integral!r}"
    return None


def _check_saddle(op: Op, values: list[float]) -> str | None:
    # for a unit vector the saddle density at the center is sqrt(6/pi)
    if abs(values[0] - math.sqrt(6.0 / math.pi)) > 1e-12:
        return f"saddle density at the center is {values[0]!r}"
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        return "saddle density not finite and non-negative"
    return None


def _check_converge(op: Op, rows: list[dict]) -> str | None:
    sup = [r["sup_distance"] for r in sorted(rows, key=lambda r: r["n"])]
    if any(b >= a for a, b in zip(sup, sup[1:])):
        return f"sup distance to the Gaussian limit does not fall with n: {sup}"
    return None


_CHECKS = {"gap": _check_gap, "scan": _check_scan, "eval": _check_eval,
           "saddle": _check_saddle, "converge": _check_converge}


def _check_one(res: Result) -> str | None:
    if res.exit != 0:
        return f"exit {res.exit}: {res.stderr.strip()[-300:]}"
    try:
        return _CHECKS[res.op.argv[0]](res.op, json.loads(res.stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unexpected output ({type(exc).__name__}: {exc})"


def _evaluators_disagree(group: list[tuple[int, dict]]) -> list[tuple[int, str]]:
    """Compare each method's profile with truncated power at sampled points."""
    by_method = {rep["method"]: (i, rep) for i, rep in group}
    if "truncated_power" not in by_method:
        return []
    _, ref = by_method["truncated_power"]
    out = []
    for method, (i, rep) in by_method.items():
        if method == "truncated_power":
            continue
        bound = _own_bound(ref) + _own_bound(rep)
        for k in range(0, len(rep["values"]), 50):
            if abs(rep["values"][k] - ref["values"][k]) > bound:
                out.append((i, f"{method} differs from truncated_power at "
                               f"x = {rep['grid'][k]!r}"))
                break
    return out


def check_results(results: list[Result]) -> dict[int, str]:
    """Failure message by result index for every operation that failed."""
    failed: dict[int, str] = {}
    profiles: dict[str, list[tuple[int, dict]]] = defaultdict(list)
    for i, res in enumerate(results):
        msg = _check_one(res)
        if msg is not None:
            failed[i] = msg
        elif res.op.argv[0] == "eval":
            key = res.op.argv[res.op.argv.index("--weights") + 1]
            profiles[key].append((i, json.loads(res.stdout)))
    for group in profiles.values():
        for i, msg in _evaluators_disagree(group):
            failed.setdefault(i, msg)
    return failed
