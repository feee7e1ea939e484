import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from boxgap.errors import CapabilityError, DomainError, ValidationError
from boxgap.rademacher import (
    ENUM_CAP,
    SQRT_2_OVER_PI,
    _terms,
    exact_expectation,
    expectation,
    f_function,
    khinchine_bounds,
    mc_expectation,
)
from boxgap.weights import FamilySpec, generate, make_unit


def _brute_expectation(a):
    """Independent oracle: plain itertools enumeration, no symmetry tricks."""
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=len(a)):
        total += abs(sum(s * w for s, w in zip(signs, a)))
    return total / 2 ** len(a)


def _fsum_expectation(a):
    """Oracle for n <= 20: every one of the 2^n signed sums formed exactly,
    in integers of the weights' common ulp, and their mean by math.fsum.
    Its error is at most two roundings of the result."""
    assert len(a) <= 20
    shift = 53 - int(np.min(np.frexp(a)[1]))  # a * 2^shift are integers
    q = np.ldexp(a, shift).astype(np.int64)
    assert np.array_equal(np.ldexp(q.astype(np.float64), -shift), a)
    assert len(a) * int(q.max()) < 2**62  # no int64 overflow below
    sums = np.zeros(1, dtype=np.int64)
    for w in q:
        sums = np.add.outer(sums, (w, -w)).ravel()
    return math.fsum(np.abs(sums).astype(np.float64)) / 2.0 ** (len(a) + shift)


# ---------------------------------------------------------------------------
# exact enumeration


@pytest.mark.parametrize("n,seed", [(1, 1), (2, 2), (3, 3), (5, 4), (8, 5),
                                    (10, 6)])
def test_exact_matches_brute_force(n, seed):
    A = generate(FamilySpec("random", n, c0=5.0, seed=seed))
    got = exact_expectation(A)
    assert got.method == "exact" and got.n == n
    assert got.expectation == pytest.approx(_brute_expectation(A.a), abs=1e-13)


def test_exact_closed_forms():
    assert exact_expectation(make_unit([1.0])).expectation == pytest.approx(1.0)
    # equal n=2: values |±sqrt(2)|, 0, 0 -> sqrt(2)/2
    eq2 = generate(FamilySpec("equal", 2))
    assert exact_expectation(eq2).expectation == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-15)
    eq4 = generate(FamilySpec("equal", 4))
    assert exact_expectation(eq4).expectation == pytest.approx(0.75, abs=1e-15)


def test_exact_cauchy_schwarz_upper_bound():
    for seed in range(8):
        A = generate(FamilySpec("random", 3 + 2 * seed, c0=6.0, seed=seed))
        assert exact_expectation(A).expectation <= 1.0 + 1e-12


def test_exact_cap():
    A = generate(FamilySpec("equal", ENUM_CAP + 1))
    with pytest.raises(CapabilityError):
        exact_expectation(A)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_exact_within_stated_error_of_fsum_oracle(n):
    A = generate(FamilySpec("random", n, c0=4.0, seed=n))
    got = exact_expectation(A)
    ref = _fsum_expectation(A.a)
    assert 0.0 < got.error <= 1e-13
    assert abs(got.expectation - ref) <= got.error + 2.0 * math.ulp(ref)


def test_exact_at_cap_matches_monte_carlo():
    A = generate(FamilySpec("random", ENUM_CAP, c0=4.0, seed=40))
    got = exact_expectation(A)
    assert got.error <= 1e-12
    assert got.to_json_dict()["error"] == got.error
    mc = mc_expectation(A, samples=200_000, seed=3)
    assert abs(got.expectation - mc.expectation) <= 6.0 * mc.stderr


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_matches_exact_within_stderr():
    A = generate(FamilySpec("random", 12, c0=3.0, seed=7))
    exact = exact_expectation(A).expectation
    mc = mc_expectation(A, samples=200_000, seed=5)
    assert abs(mc.expectation - exact) <= 6.0 * mc.stderr
    assert mc.stderr < 2e-3


def test_mc_deterministic_and_validated():
    A = generate(FamilySpec("equal", 30))
    one = mc_expectation(A, samples=10**4, seed=9)
    two = mc_expectation(A, samples=10**4, seed=9)
    assert one.expectation == two.expectation
    assert one.error == 4.0 * one.stderr  # the stated error
    other = mc_expectation(A, samples=10**4, seed=10)
    assert other.expectation != one.expectation
    with pytest.raises(ValidationError):
        mc_expectation(A, samples=999, seed=0)


def test_mc_memory_bounded_at_large_n():
    # draws come in chunks of at most 2^22 signs, 32 MB per array; 10^4
    # rows of 1000 signs in one chunk would take 80 MB per array
    A = generate(FamilySpec("random", 1000, c0=4.0, seed=1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mc_expectation(A, samples=10**4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 96 * 2**20


def test_expectation_auto_is_exact_up_to_the_cap():
    A = generate(FamilySpec("equal", ENUM_CAP))
    assert expectation(A) == exact_expectation(A)
    B = generate(FamilySpec("equal", ENUM_CAP + 1))
    assert (expectation(B, samples=10**4, seed=9)
            == mc_expectation(B, samples=10**4, seed=9))
    with pytest.raises(ValidationError):
        expectation(A, method="other")


# ---------------------------------------------------------------------------
# F(s)


def test_f_domain_and_validation():
    with pytest.raises(DomainError):
        f_function(0.0)
    with pytest.raises(DomainError):
        f_function(-2.0)
    with pytest.raises(ValidationError):
        f_function(1.0, tol=0.0)


def test_f_monotone_powers_of_two():
    values = []
    for k in range(15):
        v, err = f_function(float(2**k))
        assert err <= 1e-4
        values.append(v)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v <= SQRT_2_OVER_PI + 1e-4 for v in values)


def test_f_even_integers_equal_weight_identity():
    # for even s, |cos|^s = cos^s, so F(s) = E|sum e_k|/sqrt(s) exactly
    for s in (2, 4, 6, 8):
        v, err = f_function(float(s), tol=1e-5)
        exact = exact_expectation(generate(FamilySpec("equal", s))).expectation
        assert abs(v - exact) <= err + 1e-9


def test_f_limit():
    v, err = f_function(1e4)
    assert abs(v - SQRT_2_OVER_PI) <= 5e-3


def test_f_tightening_tolerance_converges():
    # at s = 1.3 the tail truncation depends on tol; at s = 37 both
    # tolerances leave only round-off, so only agreement is checked there
    loose, le = f_function(1.3, tol=1e-3)
    tight, te = f_function(1.3, tol=1e-6)
    assert te < le
    assert abs(loose - tight) <= le + te
    loose, le = f_function(37.0, tol=1e-3)
    tight, te = f_function(37.0, tol=1e-6)
    assert abs(loose - tight) <= le + te


def test_f_one_is_two_over_pi():
    # |cos u| = 2/pi + (4/pi) sum (-1)^(m-1) cos(2mu) / (4m^2 - 1)
    v, err = f_function(1.0, tol=1e-9)
    assert err <= 1e-9
    assert abs(v - 2.0 / math.pi) <= err


def test_f_equal_weight_vectors_match_exact():
    # F(n) = E|sum e_k|/sqrt(n) for even n; s = a_n^-2 lands on n +- ulp
    off_grid = 0
    for n in range(2, 13, 2):
        A = generate(FamilySpec("equal", n))
        s = float(A.a[-1]) ** -2
        off_grid += s != n
        v, err = f_function(s)
        assert err <= 1e-4
        assert abs(v - exact_expectation(A).expectation) <= err
    assert off_grid >= 2  # the s = 2k +- ulp cancellation case is exercised


@pytest.mark.parametrize("s", [0.5, 1.3, 7.3])
def test_f_series_coefficients_match_quadrature(s):
    m = np.array([1, 2, 3, 5, 8])
    c = _terms(s, m)[0] / m
    for mk, ck in zip(m, c):
        ref, _ = quad(lambda u: math.cos(u) ** s * math.cos(2 * mk * u),
                      0.0, math.pi / 2, epsabs=1e-13, limit=200)
        assert ck == pytest.approx(4.0 / math.pi * ref, abs=1e-10)


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_f_stated_error_within_tol(tol):
    grid = [0.25, 0.5, 0.9, 1.0] + [float(2**k) for k in range(15)] + [1e5]
    for s in grid:
        v, err = f_function(s, tol)
        assert 0.0 < err <= tol
        assert 0.0 < v < SQRT_2_OVER_PI + err


def test_f_rejects_non_finite_and_unreachable():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            f_function(bad)
    with pytest.raises(ValidationError):
        f_function(1.0, tol=math.nan)
    with pytest.raises(ValidationError):
        f_function(1.0, tol=1e-18)  # below the round-off of the series
    with pytest.raises(CapabilityError):
        f_function(1e12)


# ---------------------------------------------------------------------------
# bound chain


@pytest.mark.parametrize("n,seed", [(2, 1), (5, 2), (9, 3), (14, 4), (20, 5)])
def test_khinchine_chain_below_exact(n, seed):
    A = generate(FamilySpec("random", n, c0=4.0, seed=seed))
    kb = khinchine_bounds(A)
    exact = exact_expectation(A).expectation
    assert 0.0 < kb.f_of_an
    assert kb.f_of_an - kb.quad_error <= kb.weighted_sum
    assert kb.weighted_sum <= exact + kb.quad_error + 1e-9
    assert kb.weighted_sum < SQRT_2_OVER_PI + kb.quad_error


def test_khinchine_json():
    A = make_unit([1.0, 2.0])
    d = khinchine_bounds(A).to_json_dict()
    assert set(d) == {"f_of_an", "weighted_sum", "quad_error"}
