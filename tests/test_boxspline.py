import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from boxgap import boxspline
from boxgap._num import gl_panels
from boxgap.boxspline import (
    _CONV_ALLOWANCE,
    TRUNCATED_POWER_CAP,
    center_integral,
    density_profile,
    eval_convolution,
    fourier_values,
    max_value,
    phi,
    section_volume_mc,
    truncated_power_raw,
)
from boxgap.errors import (CapabilityError, DomainError, NumericalError,
                           ValidationError)
from boxgap.weights import FamilySpec, WeightVector, center, generate, make_unit


def _random_A(n, seed, c0=4.0):
    return generate(FamilySpec("random", n, c0=c0, seed=seed))


# ---------------------------------------------------------------------------
# closed-form oracles


def test_n1_is_uniform_density():
    A = make_unit([1.0])
    for x in [0.1, 0.25, 0.5, 0.9]:
        assert truncated_power_raw(A.a, x) == pytest.approx(1.0, abs=1e-15)
    assert truncated_power_raw(A.a, -0.5) == 0.0
    assert truncated_power_raw(A.a, 1.5) == 0.0


def test_n2_trapezoid_closed_form():
    # density of 0.6 U1 + 0.8 U2: ramp / plateau of height 1/0.8 / ramp
    A = make_unit([0.6, 0.8])

    def oracle(x):
        if x <= 0.0 or x >= 1.4:
            return 0.0
        if x < 0.6:
            return x / 0.48
        if x <= 0.8:
            return 1.25
        return (1.4 - x) / 0.48

    for x in [0.1, 0.3, 0.59, 0.6, 0.7, 0.8, 1.0, 1.3]:
        assert truncated_power_raw(A.a, x) == pytest.approx(oracle(x), abs=1e-12)


def test_equal_n3_center_value():
    # 2 B(3/2 | 1,1,1) = 3/2 and unit scaling: value sqrt(3) * 3/4
    A = generate(FamilySpec("equal", 3))
    expected = math.sqrt(3.0) * 0.75
    assert truncated_power_raw(A.a, center(A)) == pytest.approx(expected,
                                                               abs=1e-12)
    assert phi(A, 0.0) == pytest.approx(1.2990381, abs=5e-8)


def test_truncated_power_raw_unnormalized():
    # B(x | 1,1) is the hat function on [0,2]
    a = np.array([1.0, 1.0])
    assert truncated_power_raw(a, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert truncated_power_raw(a, 0.5) == pytest.approx(0.5, abs=1e-15)


def _equal_oracle(n, w, x):
    """B(x | w,...,w) = sum_k (-1)^k C(n,k) (x - k w)_+^(n-1) / ((n-1)! w^n)."""
    w, x = Fraction(w), Fraction(x)
    acc = sum((-1) ** k * math.comb(n, k) * (x - k * w) ** (n - 1)
              for k in range(n + 1) if x > k * w)
    return acc / (math.factorial(n - 1) * w**n)


def _subset_oracle(a, x):
    """The truncated-power sum over all 2^n subsets, in exact rationals."""
    a = [Fraction(float(w)) for w in a]
    x = Fraction(float(x))
    sums = [(Fraction(0), 1)]
    for w in a:
        sums += [(s + w, -g) for s, g in sums]
    acc = sum(g * (x - s) ** (len(a) - 1) for s, g in sums if s < x)
    return acc / (math.factorial(len(a) - 1) * math.prod(a))


@pytest.mark.parametrize("n", range(1, TRUNCATED_POWER_CAP + 1))
def test_exact_path_bit_equal_to_equal_weight_oracle(n):
    A = generate(FamilySpec("equal", n))
    w = float(A.a[0])
    assert np.all(A.a == w)
    xs = [center(A), center(A) - w / 4.0, 0.3 * A.total]
    prof = density_profile(A, xs, "truncated_power")
    for x, v in zip(xs, prof.values):
        assert v == float(_equal_oracle(n, w, x))
    # one rounding per value: the stated tolerance is the largest half ulp
    assert prof.tolerance == max(np.spacing(prof.values)) / 2.0


@pytest.mark.parametrize("seed", [41, 42])
def test_exact_path_bit_equal_to_subset_oracle(seed):
    A = _random_A(13, seed=seed)
    for x in [center(A), 0.3 * A.total]:
        assert truncated_power_raw(A.a, x) == float(_subset_oracle(A.a, x))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_bit_equal_to_subset_oracle_at_every_call_size(n):
    # the sweep splits the weights by the number of points in the call:
    # in halves for one point, none (n <= 8) or two (n = 12) split off for
    # a 401-point grid
    A = _random_A(n, seed=60 + n)
    c = center(A)
    calls = [[c], [c - A.a[0] / 4.0, c, 0.3 * A.total],
             np.linspace(0.0, A.total, 403)[1:-1]]
    for xs in calls:
        values = density_profile(A, xs, "truncated_power").values
        # the oracle takes about 50 ms a point at n = 12
        step = 20 if n == 12 and len(xs) > 3 else 1
        for x, v in zip(xs[::step], values[::step]):
            assert v == float(_subset_oracle(A.a, x))


@pytest.mark.parametrize("n", [2, 8])
def test_tiny_points_evaluated_exactly(n):
    # y = min(x, total - x) <= a_1 leaves only the empty subset below y
    A = _random_A(n, seed=5)
    xs = [1e-300, 1e-30, float(A.a[0]), A.total - 1e-3 * float(A.a[0])]
    values = density_profile(A, xs + [center(A)], "truncated_power").values
    for x, v in zip(xs, values):
        assert v == float(_subset_oracle(A.a, x))
    assert values[0] > 0.0 if n == 2 else values[0] == 0.0
    # the tiny points leave the other points' values alone
    assert values[-1] == truncated_power_raw(A.a, center(A))


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 18, 24])
def test_symmetry_about_center(n):
    A = _random_A(n, seed=n)
    c = center(A)
    # fewer points past n = 13 keep the large-n cases short
    points = 25 if n <= 13 else 3
    t = np.linspace(0.01, 0.9 * c, points)
    # one call, so the subset sums are built once for all points
    values = density_profile(A, np.concatenate([c - t, c + t]),
                             "truncated_power").values
    left, right = values[:points], values[points:]
    assert np.all(np.abs(left - right) <= 1e-9)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 12])
def test_normalization_truncated_power(n):
    A = _random_A(n, seed=100 + n)
    grid = np.linspace(0.0, A.total, 4001)
    prof = density_profile(A, grid, method="truncated_power")
    assert prof.integral() == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_normalization_convolution(n):
    A = _random_A(n, seed=200 + n)
    prof = eval_convolution(A, grid_step=1e-3)
    assert abs(prof.integral() - 1.0) <= 1e-6


def test_convolution_step_validation():
    A = make_unit([1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        eval_convolution(A, grid_step=A.a[0])  # > a1/8
    with pytest.raises(ValidationError):
        eval_convolution(A, grid_step=0.0)


def test_oracle_agreement_three_methods():
    for n, seed in [(2, 1), (4, 2), (7, 3), (10, 4)]:
        A = _random_A(n, seed=seed)
        grid = np.linspace(0.0, A.total, 103)[1:-1]
        tp = np.asarray(density_profile(A, grid, "truncated_power").values)
        cv = eval_convolution(A, 1e-4).value_at(grid)
        fr = np.asarray(density_profile(A, grid, "fourier").values)
        assert np.max(np.abs(tp - cv)) <= 1e-4
        assert np.max(np.abs(tp - fr)) <= 1e-6


def test_fourier_certified_error():
    # on whole grids the stated quad + tail error covers the distance to the
    # correctly rounded values, and is within 1e4 of it (not vacuous)
    for n in range(1, 12):
        for A in (_random_A(n, seed=8), generate(FamilySpec("equal", n)),
                  _random_A(n, seed=9, c0=40.0)):
            xs = np.linspace(0.0, A.total, 203)[1:-1]
            res = fourier_values(A, xs)
            exact = density_profile(A, xs, "truncated_power").values
            actual = float(np.max(np.abs(res.values - exact)))
            stated = res.quad_error + res.tail_error
            assert actual <= stated
            assert stated <= 1e4 * actual


def test_fourier_n1_interior_and_jump():
    A = make_unit([1.0])
    interior = fourier_values(A, [0.5])
    assert interior.values[0] == pytest.approx(1.0, abs=1e-6)
    edge = fourier_values(A, [1.0])  # jump of the indicator density
    assert edge.values[0] == pytest.approx(0.5, abs=1e-6)


def test_capability_cap():
    A = generate(FamilySpec("equal", TRUNCATED_POWER_CAP + 1))
    with pytest.raises(CapabilityError):
        truncated_power_raw(A.a, center(A))
    with pytest.raises(CapabilityError):  # an explicit method obeys the cap
        density_profile(A, [center(A)], method="truncated_power")
    # past the cap auto takes Fourier, which states its own error
    prof = density_profile(A, [center(A)], method="auto")
    assert prof.method == "fourier"
    assert 0.0 < prof.tolerance <= 1e-6
    assert prof.values[0] == pytest.approx(math.sqrt(6.0 / math.pi), abs=0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_truncated_power_rejects_non_finite_weights(bad):
    with pytest.raises(ValidationError):
        truncated_power_raw([bad, 1.0], 0.5)


@pytest.mark.parametrize("n", [3, 16])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_truncated_power_rejects_non_finite_points(n, x):
    A = _random_A(n, seed=n)
    with pytest.raises(DomainError):
        truncated_power_raw(A.a, x)
    for method in ["auto", "convolution", "fourier"]:
        with pytest.raises(DomainError):
            density_profile(A, [center(A), x], method)


def test_method_validation():
    A = make_unit([1.0, 2.0])
    with pytest.raises(ValidationError):
        density_profile(A, [0.5], method="spline")


# ---------------------------------------------------------------------------
# profile container


def test_profile_exports_and_interp():
    A = make_unit([1.0, 1.0])
    grid = np.linspace(0.0, A.total, 201)
    prof = density_profile(A, grid, "truncated_power")
    assert np.all(prof.exported_values() >= 0.0)
    mid = 0.5 * A.total
    assert prof.value_at(mid) == pytest.approx(truncated_power_raw(A.a, mid),
                                               abs=1e-9)
    rows = list(prof.to_csv_rows())
    assert len(rows) == grid.size and rows[0][2] == "truncated_power"
    d = prof.to_json_dict()
    assert set(d) == {"A", "method", "grid", "values", "tolerance"}


def test_exported_values_rejects_genuinely_negative():
    A = make_unit([1.0, 1.0])
    prof = density_profile(A, [0.5], "truncated_power")
    prof.values = np.array([-1e-3])
    with pytest.raises(NumericalError):
        prof.exported_values()


def test_exported_values_floor_is_stated_tolerance():
    # n = 12 Fourier values near the support ends dip to -5e-10, inside the
    # method's own 5e-8 bound; they export as zeros instead of raising
    A = make_unit([1.65, 1.84, 2.51, 2.93, 3.18, 3.23, 3.33, 3.4, 3.4, 3.87,
                   3.94, 4.0])
    prof = density_profile(A, np.linspace(0.0, A.total, 101), "fourier")
    assert prof.values.min() < -1e-10
    assert prof.values.min() >= -prof.tolerance
    exported = prof.exported_values()
    assert np.all(exported >= 0.0)
    assert np.array_equal(exported, np.maximum(prof.values, 0.0))


# ---------------------------------------------------------------------------
# max, phi, Monte Carlo cross-check


def test_max_value_center_identity():
    # one evaluation at the center: the correctly rounded value, half an ulp
    for n, seed in [(3, 5), (9, 6), (13, 8)]:
        A = _random_A(n, seed=seed)
        value, err, method = max_value(A)
        assert value == truncated_power_raw(A.a, center(A))
        assert err == math.ulp(value) / 2.0
        assert method == "truncated_power"
    # from n = 14 on, the center integral with its proved error
    A = _random_A(16, seed=7)
    value, err, method = max_value(A)
    assert abs(value - truncated_power_raw(A.a, center(A))) <= err
    assert err <= 1e-12
    assert method == "center_integral"


@pytest.mark.parametrize("n", range(1, 31))
def test_max_value_not_below_grid_max(n):
    # the center is the maximum: no point of a 201-point grid beats it by
    # more than the errors stated for both
    methods = ["convolution", "fourier"]
    if n <= TRUNCATED_POWER_CAP:
        methods.append("truncated_power")
    for A in (_random_A(n, seed=n), generate(FamilySpec("equal", n))):
        grid = np.linspace(0.0, A.total, 201)
        for method in methods:
            value, err, _ = max_value(A, method)
            prof = density_profile(A, grid, method)
            grid_err = (_CONV_ALLOWANCE if prof.tolerance is None
                        else prof.tolerance)
            assert value >= prof.values.max() - err - grid_err, method


def test_max_value_keeps_no_table():
    # the subset sums are freed when the call returns
    A = _random_A(18, seed=31)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        max_value(A, "truncated_power")
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 2**20


def test_max_value_memory_stays_small():
    # the exact sweep keeps 2^10-sized integer lists at n = 20, where a
    # table of all 2^20 subset sums would take 8 MB per float array
    A = _random_A(20, seed=32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        max_value(A, "truncated_power")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 4 * 2**20


# ---------------------------------------------------------------------------
# the center integral


def test_center_integral_within_error_of_irwin_hall():
    # equal weights w: B(n w/2) is an exact Irwin-Hall sum of rationals
    for n in range(6, 201):
        A = generate(FamilySpec("equal", n))
        w = float(A.a[0])
        exact = _equal_oracle(n, w, n * Fraction(w) / 2)
        value, err = center_integral(A)
        assert abs(Fraction(value) - exact) <= Fraction(err), n
        # round-off grows with the node count, largest at n = 6
        assert err <= 1e-11, n


@pytest.mark.parametrize("n", range(14, TRUNCATED_POWER_CAP + 1))
def test_center_integral_agrees_with_sweep(n):
    # random, equal and vertex vectors (m weights 1, the rest c0 = 4)
    m = n // 3
    for A in (_random_A(n, seed=70 + n), generate(FamilySpec("equal", n)),
              make_unit([1.0] * m + [4.0] * (n - m))):
        value, err = center_integral(A)
        exact, exact_err, _ = max_value(A, "truncated_power")
        assert abs(value - exact) <= err + exact_err
        assert err <= 1e-12
        assert max_value(A) == (value, err, "center_integral")


def test_center_integral_refusals():
    # the t^(1-n) tail needs more nodes than the budget at n <= 5, and so
    # does a vector with fewer than two weights of the largest's order;
    # max_value(auto) then takes truncated power
    for A in (_random_A(5, seed=3), make_unit([1e-300] * 13 + [1.0])):
        with pytest.raises(CapabilityError, match="center integral"):
            center_integral(A)
    A = make_unit([1e-300] * 13 + [1.0])
    assert max_value(A) == max_value(A, "truncated_power")
    # a single tiny weight is dropped from the tail bound
    value, err, method = max_value(make_unit([1e-300] + [1.0] * 15))
    assert method == "center_integral" and err <= 1e-12


def test_center_integral_panels_fit_the_bound(monkeypatch):
    # the Gauss error is far below its bound, so no value shows a panel
    # wider than the bound assumes: check the panels themselves.  Each
    # half-width eta must keep the ellipse's height y = eta (rho - 1/rho)/2
    # at y sum(a)/2 <= 1
    seen = []

    def record(edges, order):
        seen.append((np.array(edges), order))
        return gl_panels(edges, order)

    monkeypatch.setattr(boxspline, "gl_panels", record)
    N = boxspline._PANEL_NODES
    rho = (1e-3 * boxspline._INTEGRAL_TOL) ** (-1.0 / (2 * N))
    for A in (_random_A(14, seed=5), _random_A(40, seed=6),
              generate(FamilySpec("equal", 20))):
        seen.clear()
        center_integral(A)
        (edges, order), = seen
        eta = np.diff(edges) / 2.0
        assert order == N and edges[0] == 0.0
        assert np.all(eta * (rho - 1.0 / rho) / 2.0 * A.total / 2.0
                      <= 1.0 + 1e-12)


def test_gauss_legendre_within_the_charged_round_off():
    # center_integral charges leggauss's nodes 2u and its weights
    # _GL_WEIGHT_ERR (absolute, on [-1, 1]); check both against the roots
    # of P_24 and 2/((1 - x^2) P_24'(x)^2) to 40 digits
    N = boxspline._PANEL_NODES
    x, w = boxspline.gauss_legendre(N)

    def legendre(t):
        p0, p1 = Decimal(1), t
        for k in range(1, N):
            p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
        return p1, N * (t * p1 - p0) / (t * t - 1)

    with localcontext() as ctx:
        ctx.prec = 40
        for xi, wi in zip(x, w):
            t = Decimal(float(xi))
            for _ in range(6):
                p, dp = legendre(t)
                t -= p / dp
            p, dp = legendre(t)
            exact_w = 2 / ((1 - t * t) * dp * dp)
            assert abs(Decimal(float(xi)) - t) <= Decimal(2 * boxspline._U)
            assert (abs(Decimal(float(wi)) - exact_w)
                    <= Decimal(boxspline._GL_WEIGHT_ERR))


def test_sinc_majorant_and_its_derivative():
    # center_integral needs |sinc u| <= b(u) and |sinc'(u)| <= 1.5 b(u)
    u = np.concatenate([np.linspace(1e-6, 10.0, 200001),
                        np.geomspace(10.0, 1e6, 200001)])
    b = np.exp(boxspline._log_majorant(np.array([2.0]), u))
    sinc = np.sin(u) / u
    dsinc = (u * np.cos(u) - np.sin(u)) / u**2
    # a few ulps for the rounding of both sides
    assert np.all(np.abs(sinc) <= b * (1.0 + 1e-15))
    assert np.all(np.abs(dsinc) <= 1.5 * b)


def test_tail_bound_covers_the_tail():
    # int_T^inf |prod sinc(a_k t/2)| dt by dense Gauss-Legendre panels up to
    # 40 T, plus the majorant prod 2/(a_k t) past it, stays under the bound
    for A in (_random_A(6, seed=2), _random_A(14, seed=3),
              _random_A(26, seed=4),
              make_unit([1.0] * 13 + [20.0])):
        a = A.a
        T, bound = boxspline._tail_cutoff(a, 1e-10, 1e4)
        z, w = gl_panels(np.linspace(T, 40.0 * T, 4000), 8)
        body = float(w @ np.abs(np.prod(np.sinc(np.outer(z, a) / (2 * np.pi)),
                                        axis=1)))
        far = math.prod(2.0 / a) * (40.0 * T) ** (1 - a.size) / (a.size - 1)
        assert body + far <= bound
        assert bound <= 1e-10


def test_center_integral_memory_bounded_at_large_n():
    # nodes x weights products are formed in blocks of about 2^20; at
    # n = 1000 the whole matrix would take about 32 MB per array
    A = _random_A(1000, seed=33)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value, err = center_integral(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 32 * 2**20
    assert 0.0 < err <= 1e-12


def test_phi_far_from_center_positive_small():
    A = generate(FamilySpec("equal", 3))
    r = 0.9 * center(A)
    v = phi(A, r)
    assert 0.0 < v < 0.2
    assert v == pytest.approx(truncated_power_raw(A.a, center(A) + r), abs=1e-12)


def test_section_volume_mc_matches_phi():
    A = _random_A(5, seed=9)
    for r in [0.0, 0.3 * center(A)]:
        est, stderr = section_volume_mc(A, r, half_width=A.a[0] / 8.0,
                                        samples=200_000, seed=11)
        assert abs(est - phi(A, r)) <= 4.0 * stderr + 0.01


def test_section_volume_mc_validation_and_determinism():
    A = make_unit([1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        section_volume_mc(A, 0.0, half_width=A.a[0], samples=10**5, seed=0)
    with pytest.raises(ValidationError):
        section_volume_mc(A, 0.0, half_width=A.a[0] / 8, samples=100, seed=0)
    one = section_volume_mc(A, 0.0, half_width=A.a[0] / 8, samples=10**4, seed=3)
    two = section_volume_mc(A, 0.0, half_width=A.a[0] / 8, samples=10**4, seed=3)
    assert one == two
