import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgap.errors import ValidationError
from boxgap.gap import (
    GapReport,
    confirm_counterexample,
    epsilon0_cap,
    gap,
    minimize_gap,
    scan_random,
    threshold_probe,
)
from boxgap.io import dumps_json
from boxgap.rademacher import ENUM_CAP, exact_expectation, f_function
from boxgap.weights import FamilySpec, generate, make_unit


# ---------------------------------------------------------------------------
# equality table


def test_gap_n1_zero():
    r = gap(make_unit([1.0]))
    assert r.gap == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("pair", [(0.6, 0.8), (1.0, 1.0), (0.1, 3.0)])
def test_gap_any_n2_zero(pair):
    # n=2 identity: phi0 = 1/a2, E = a2
    r = gap(make_unit(pair))
    assert r.gap == pytest.approx(0.0, abs=1e-9)


def test_gap_equal_n3():
    r = gap(generate(FamilySpec("equal", 3)))
    assert r.gap == pytest.approx(0.125, abs=1e-9)


def test_gap_equal_n4_zero():
    r = gap(generate(FamilySpec("equal", 4)))
    assert r.gap == pytest.approx(0.0, abs=1e-9)


def test_gap_dominant_weight_equality():
    # a_n = sum of the others makes the chain collapse: gap exactly 0
    r = gap(make_unit([1.0, 1.0, 2.0]))
    assert r.gap == pytest.approx(0.0, abs=1e-9)
    r = gap(make_unit([1.0, 2.0, 4.0, 7.0]))
    assert r.gap == pytest.approx(0.0, abs=1e-9)


def test_gap_report_consistency():
    A = generate(FamilySpec("random", 6, c0=3.0, seed=13))
    r = gap(A)
    assert r.gap == pytest.approx(r.phi0 * r.expectation - 1.0, abs=1e-15)
    # the tolerance adds the stated errors of phi0 (half an ulp) and of the
    # exact E, and the rounding of phi0 * E - 1
    e_err = exact_expectation(A).error
    u = 2.0**-53
    assert r.tolerance == (math.ulp(r.phi0) / 2.0 * r.expectation
                           + r.phi0 * e_err
                           + u * (r.phi0 * r.expectation + abs(r.gap)))
    assert r.tolerance < 1e-14
    assert r.lower_bound_gap <= r.gap + 1e-9  # F-bound is weaker than E
    assert r.tolerance > 0.0


_FLAT = st.lists(st.floats(1e-3, 1e3), max_size=6).flatmap(
    lambda rest: st.floats(0.0, 2.0).map(
        lambda t: make_unit(rest + [(1.0 + t) * (math.fsum(rest) or 1.0)])))
_EQUAL4 = st.floats(1e-3, 1e3).map(lambda c: make_unit([c] * 4))


@settings(max_examples=150, deadline=None)
@given(A=st.one_of(_FLAT, _EQUAL4))
def test_equality_cases_never_violate(A):
    # a_n >= a_1 + ... + a_(n-1) puts the center on a flat piece where
    # B = 1/a_n and E = a_n, and 4 equal weights give phi0 E = 1 as well:
    # the gap is 0, and a gap of 0 is no violation
    r = gap(A)
    assert not r.violates(0.0), (r.gap, r.tolerance)
    assert abs(r.gap) <= 1e-14


@pytest.mark.parametrize("n", range(14, 31))
def test_flat_region_never_violates_at_large_n(n):
    # the flat region at the sizes where phi0 comes from the center
    # integral: the exact gap is 0, and the stated tolerance must cover it
    rng = np.random.default_rng(n)
    for t in (0.0, 0.3, 2.0):
        for lo, hi in ((0.5, 2.0), (1.0, 10.0), (1e-3, 1e3)):
            rest = list(rng.uniform(lo, hi, n - 1))
            r = gap(make_unit(rest + [(1.0 + t) * math.fsum(rest)]))
            assert not r.violates(0.0), (t, lo, r.gap, r.tolerance)
            assert abs(r.gap) <= r.tolerance, (t, lo, r.gap, r.tolerance)


def test_one_tiny_weight_takes_the_integral():
    # one weight of 1e-300 among 15 equal ones: the exact sweep works on
    # 1000-bit integers there, the center integral drops the factor
    r = gap(make_unit([1e-300] + [1.0] * 15))
    assert r.phi_method == "center_integral"
    assert abs(r.gap - gap(generate(FamilySpec("equal", 15))).gap) <= 1e-12
    assert 0.0 < r.tolerance <= 1e-12


def test_gap_report_states_f_bound():
    A = generate(FamilySpec("random", 7, c0=3.0, seed=2))
    r = gap(A, f_tol=1e-6)
    assert (r.f_of_an, r.f_error) == f_function(float(A.a[-1]) ** -2, 1e-6)
    assert 0.0 < r.f_error <= 1e-6
    assert r.lower_bound_gap == r.phi0 * r.f_of_an - 1.0
    d = r.to_json_dict()
    assert d["f_of_an"] == r.f_of_an and d["f_error"] == r.f_error


def _report(g: float, tolerance: float) -> GapReport:
    return GapReport(A=make_unit([1.0, 2.0, 3.0]), phi0=1.0, expectation=1.0,
                     gap=g, phi_method="truncated_power", exp_method="exact",
                     lower_bound_gap=g, tolerance=tolerance, f_of_an=0.7,
                     f_error=1e-5)


def test_violates_takes_the_larger_tolerance():
    inside = _report(-1e-7, 1e-6)  # within the report's own tolerance
    outside = _report(-2e-6, 1e-6)
    assert not inside.violates(1e-9)
    assert outside.violates(1e-9)
    assert not outside.violates(1e-5)  # within the caller's tol
    assert not _report(0.0, 0.0).violates(0.0)  # equality is no violation


def test_gap_mc_path():
    A = generate(FamilySpec("random", ENUM_CAP + 1, c0=2.0, seed=1))
    r = gap(A, seed=5)
    assert r.exp_method == "monte_carlo"
    assert r.phi_method == "center_integral"
    assert r.gap >= -r.tolerance


def test_verify_and_counterexample_rejection():
    report = gap(generate(FamilySpec("equal", 5)))
    assert not report.violates(1e-9) and report.gap > 0.1
    # a healthy positive-gap vector must NOT be confirmed as a violation
    confirmed, reports = confirm_counterexample(make_unit([1.0, 2.0, 2.5]))
    assert not confirmed
    assert len(reports) == 3  # all evaluators consulted


def test_epsilon0_cap_value():
    expected = 0.5 * (math.sqrt(6 / math.pi) - math.sqrt(math.pi / 2))
    assert epsilon0_cap() == pytest.approx(expected, rel=1e-15)
    assert 0.06 < epsilon0_cap() < 0.07


# ---------------------------------------------------------------------------
# scan


def test_scan_deterministic():
    one = scan_random(4, 3.0, trials=30, seed=17)
    two = scan_random(4, 3.0, trials=30, seed=17)
    assert dumps_json(one) == dumps_json(two)
    assert one.argmin_trial == two.argmin_trial


def test_scan_no_violations_small():
    for n in (3, 5):
        summary = scan_random(n, 4.0, trials=100, seed=23)
        assert summary.min_report.gap >= -1e-9
        assert sum(summary.histogram_counts) == 100


def test_scan_min_report_is_gap_of_argmin():
    summary = scan_random(5, 3.0, trials=20, seed=4)
    seeds = np.random.SeedSequence(4).generate_state(20)
    A = generate(FamilySpec("random", 5, c0=3.0,
                            seed=int(seeds[summary.argmin_trial])))
    assert dumps_json(summary.min_report) == dumps_json(gap(A))
    assert summary.min_report.gap == min(summary.histogram_edges)


def test_scan_collect_and_validation():
    rows = []
    scan_random(3, 2.0, trials=10, seed=1, collect=rows.append)
    assert len(rows) == 10
    assert all(1.0 <= r[2] <= 2.0 + 1e-12 for r in rows)  # ratio cap
    with pytest.raises(ValidationError):
        scan_random(3, 2.0, trials=0, seed=1)


# ---------------------------------------------------------------------------
# minimize


def test_minimize_n2_flat_objective():
    report, exhausted = minimize_gap(2.0, make_unit([0.6, 0.8]), budget=400)
    assert report.gap == pytest.approx(0.0, abs=1e-9)


def test_minimize_equal_n4_no_descent():
    start = generate(FamilySpec("equal", 4))
    report, _ = minimize_gap(2.0, start, budget=600)
    assert report.gap >= -1e-9
    assert report.gap <= 1e-6  # cannot be worse than the zero at the start


def test_minimize_never_worse_than_start():
    start = generate(FamilySpec("random", 5, c0=3.0, seed=3))
    base = gap(start).gap
    report, _ = minimize_gap(3.0, start, budget=300)
    assert report.gap <= base + 1e-12


def test_minimize_rejects_infeasible_start():
    with pytest.raises(ValidationError):
        minimize_gap(1.5, make_unit([1.0, 2.0]))
    for c0 in (float("nan"), float("inf"), 0.5):
        with pytest.raises(ValidationError):
            minimize_gap(c0, make_unit([1.0, 1.0]))
    for budget in (0, -5):
        with pytest.raises(ValidationError, match="budget"):
            minimize_gap(2.0, make_unit([1.0, 1.0]), budget=budget)


# ---------------------------------------------------------------------------
# threshold probe


def test_threshold_probe_equal_family():
    rep = threshold_probe(1.0, "equal", range(1, 9))
    assert [r.n for r in rep.rows] == list(range(1, 9))
    assert all(r.min_gap >= -1e-9 for r in rep.rows)  # true gaps never violate
    # slack is negative at n=1 and n=3 (proof route loose at small n) ...
    assert rep.rows[0].min_slack < -0.5
    assert rep.rows[2].min_slack < -0.05
    # ... and stays non-negative (within quadrature error) from N0 on
    assert rep.empirical_N0 == 4
    for row in rep.rows[rep.empirical_N0 - 1:]:
        assert row.min_slack >= -row.slack_tol


def test_threshold_probe_random_family_deterministic():
    one = threshold_probe(4.0, "random", [3, 4], trials_per_n=10, seed=5)
    two = threshold_probe(4.0, "random", [3, 4], trials_per_n=10, seed=5)
    assert dumps_json(one) == dumps_json(two)
    assert all(r.min_gap >= -1e-9 for r in one.rows)


def test_threshold_probe_validation():
    for c0 in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            threshold_probe(c0, "equal", [1, 2])
    with pytest.raises(ValidationError):
        threshold_probe(2.0, "equal", [])
    with pytest.raises(ValidationError, match="trials"):
        threshold_probe(2.0, "random", [2, 3], trials_per_n=0)
