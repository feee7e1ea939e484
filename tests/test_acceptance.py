"""Acceptance gate: eight numbered criteria, one printed pass/fail line each.

Each criterion measures its own runtime against the stated budget and prints
its verdict directly to the terminal (bypassing pytest capture) so the final
run log shows the full scorecard.
"""

import math
import time

import numpy as np

from boxgap.boxspline import (
    density_profile,
    eval_convolution,
    max_value,
    phi,
    section_volume_mc,
    truncated_power_raw,
)
from boxgap.gap import gap, scan_random, threshold_probe
from boxgap.rademacher import exact_expectation, f_function, khinchine_bounds
from boxgap.saddlepoint import convergence_report, saddle_density, solve_saddle
from boxgap.weights import FamilySpec, center, generate, make_unit

GAUSS_PEAK = math.sqrt(6.0 / math.pi)


def _verdict(capsys, idx, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {idx}] {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})", flush=True)
    assert ok, f"criterion {idx} ({name}): {detail}"


def test_criterion_1_equality_table(capsys):
    t0 = time.perf_counter()
    checks = {
        "n=1": (gap(make_unit([1.0])).gap, 0.0),
        "n=2 (0.6,0.8)": (gap(make_unit([0.6, 0.8])).gap, 0.0),
        "equal n=3": (gap(generate(FamilySpec("equal", 3))).gap, 0.125),
        "equal n=4": (gap(generate(FamilySpec("equal", 4))).gap, 0.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0
    _verdict(capsys, 1, "equality table", ok,
             f"max |gap - closed form| = {worst:.2e}, {dt:.2f}s")


def test_criterion_2_gaussian_peak_limit(capsys):
    t0 = time.perf_counter()
    peak, _, _ = max_value(generate(FamilySpec("equal", 64)))
    reports = convergence_report([FamilySpec("equal", n) for n in (8, 16, 32)])
    sups = [r.sup_distance for r in reports]
    r1, r2 = sups[0] / sups[1], sups[1] / sups[2]
    dt = time.perf_counter() - t0
    ok = (abs(peak - 1.3820) <= 0.01 and 1.7 <= r1 <= 2.3
          and 1.7 <= r2 <= 2.3 and dt < 30.0)
    _verdict(capsys, 2, "Gaussian peak limit", ok,
             f"max(n=64) = {peak:.5f} vs {GAUSS_PEAK:.5f}, "
             f"sup-ratios {r1:.2f}/{r2:.2f}, {dt:.1f}s")


def test_criterion_3_saddle_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 25))
        A = generate(FamilySpec("random", n, c0=8.0, seed=1000 + i))
        worst = max(worst, abs(saddle_density(A, center(A)) - GAUSS_PEAK))
    errs = {}
    for n in (8, 12, 16):
        A = generate(FamilySpec("equal", n))
        exact = truncated_power_raw(A.a, center(A))
        errs[n] = abs(saddle_density(A, center(A)) - exact) / exact
    ratio = errs[8] / errs[16]
    dt = time.perf_counter() - t0
    ok = (worst <= 1e-12 and errs[12] <= 0.03 and 1.6 <= ratio <= 2.4
          and dt < 30.0)
    _verdict(capsys, 3, "saddle identity", ok,
             f"max |density(center) - sqrt(6/pi)| = {worst:.2e}, "
             f"rel err n=12 {errs[12]:.4f}, n=8/n=16 ratio {ratio:.2f}, "
             f"{dt:.1f}s")


def test_criterion_4_f_monotone_and_limit(capsys):
    t0 = time.perf_counter()
    values, max_err = [], 0.0
    for k in range(15):
        v, err = f_function(float(2**k))
        values.append(v)
        max_err = max(max_err, err)
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    v4, _ = f_function(1e4)
    dt = time.perf_counter() - t0
    ok = (monotone and max_err <= 1e-4 and abs(v4 - 0.7979) <= 5e-3
          and dt < 60.0)
    _verdict(capsys, 4, "F(s) monotone + limit", ok,
             f"monotone on 2^0..2^14: {monotone}, max quad_error "
             f"{max_err:.1e}, F(1e4) = {v4:.5f}, {dt:.1f}s")


def test_criterion_5_bound_chain(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok_all, worst = True, -math.inf
    for i in range(200):
        n = int(rng.integers(1, 21))
        A = generate(FamilySpec("random", n, c0=6.0, seed=2000 + i))
        kb = khinchine_bounds(A)
        exact = exact_expectation(A).expectation
        lower_ok = kb.f_of_an - kb.quad_error <= kb.weighted_sum
        upper_ok = kb.weighted_sum <= exact + 1e-9
        ok_all = ok_all and lower_ok and upper_ok
        worst = max(worst, kb.weighted_sum - exact)
    dt = time.perf_counter() - t0
    ok = ok_all and dt < 120.0
    _verdict(capsys, 5, "Khinchine bound chain", ok,
             f"200 vectors, max (weighted_sum - E) = {worst:.2e}, {dt:.1f}s")


def test_criterion_6_oracle_agreement(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_cv, worst_fr = 0.0, 0.0
    for i in range(50):
        n = int(rng.integers(1, 11))
        A = generate(FamilySpec("random", n, c0=5.0, seed=3000 + i))
        grid = np.linspace(0.0, A.total, 103)[1:-1]
        tp = np.asarray(density_profile(A, grid, "truncated_power").values)
        cv = eval_convolution(A, 1e-4).value_at(grid)
        fr = np.asarray(density_profile(A, grid, "fourier").values)
        worst_cv = max(worst_cv, float(np.max(np.abs(tp - cv))))
        worst_fr = max(worst_fr, float(np.max(np.abs(tp - fr))))
    mc_ok = True
    for i, seed in enumerate((1, 2, 3)):
        A = generate(FamilySpec("random", 6, c0=3.0, seed=4000 + seed))
        for r in (0.0, 0.3 * center(A)):
            est, se = section_volume_mc(A, r, half_width=A.a[0] / 8.0,
                                        samples=200_000, seed=seed)
            mc_ok = mc_ok and abs(est - phi(A, r)) <= 4.0 * se + 0.01
    dt = time.perf_counter() - t0
    ok = worst_cv <= 1e-4 and worst_fr <= 1e-6 and mc_ok and dt < 300.0
    _verdict(capsys, 6, "oracle agreement", ok,
             f"max |tp-conv| = {worst_cv:.2e}, max |tp-fourier| = "
             f"{worst_fr:.2e}, MC ok: {mc_ok}, {dt:.1f}s")


def test_criterion_7_scan_consistency(capsys):
    t0 = time.perf_counter()
    min_gaps = {}
    for n in range(3, 9):
        summary = scan_random(n, 4.0, trials=1000, seed=50 + n)
        min_gaps[n] = summary.min_report.gap
    worst = min(min_gaps.values())
    dt = time.perf_counter() - t0
    ok = worst >= -1e-9 and dt < 300.0
    _verdict(capsys, 7, "scan consistency (n<=8)", ok,
             f"6000 vectors, min gap = {worst:.6f} at n = "
             f"{min(min_gaps, key=min_gaps.get)}, {dt:.1f}s")
    # surrogate for the asymptotic theorem: the proof-route slack turns
    # positive along the equal-weight family and stays there
    probe = threshold_probe(1.0, "equal", range(1, 13))
    assert probe.empirical_N0 is not None
    assert all(r.min_gap >= -1e-9 for r in probe.rows)


def test_criterion_8_saddle_slope(capsys):
    t0 = time.perf_counter()
    h = 1e-3
    worst1, worst2 = 0.0, 0.0
    for i in range(20):
        n = 2 + i % 12
        A = generate(FamilySpec("random", n, c0=5.0, seed=5000 + i))
        c = center(A)
        sp = solve_saddle(A, c + h).s0
        sm = solve_saddle(A, c - h).s0
        worst1 = max(worst1, abs((sp - sm) / (2 * h) - 12.0))
        worst2 = max(worst2, abs((sp + sm) / h**2))
    dt = time.perf_counter() - t0
    ok = worst1 <= 1e-3 and worst2 <= 1e-2 and dt < 10.0
    _verdict(capsys, 8, "saddle slope s0'(c) = 12", ok,
             f"max |slope - 12| = {worst1:.1e}, max |s0''(c)| = {worst2:.1e}, "
             f"{dt:.2f}s")
