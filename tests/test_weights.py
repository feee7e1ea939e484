import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxgap.errors import ValidationError
from boxgap.weights import (
    FamilySpec,
    WeightVector,
    center,
    generate,
    make_unit,
    ratio,
)


positive_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(positive_lists)
def test_make_unit_sorted_and_normalized(raw):
    A = make_unit(raw)
    a = A.a
    assert np.all(np.diff(a) >= 0.0)
    assert np.all(a > 0.0)
    assert abs(float(np.sum(a * a)) - 1.0) <= 1e-12
    assert A.n == len(raw)


@settings(max_examples=100, deadline=None)
@given(positive_lists)
def test_make_unit_idempotent_and_scale_invariant(raw):
    A = make_unit(raw)
    again = make_unit(A.a)
    scaled = make_unit(7.25 * np.asarray(raw))
    np.testing.assert_allclose(again.a, A.a, rtol=0, atol=1e-15)
    np.testing.assert_allclose(scaled.a, A.a, rtol=0, atol=1e-12)


def test_make_unit_rejects_bad_input():
    with pytest.raises(ValidationError):
        make_unit([])
    with pytest.raises(ValidationError):
        make_unit([1.0, 0.0])
    with pytest.raises(ValidationError):
        make_unit([1.0, -2.0])
    with pytest.raises(ValidationError):
        make_unit([1.0, float("nan")])
    with pytest.raises(ValidationError):
        make_unit([1.0, float("inf")])


def test_make_unit_survives_overflow_and_underflow_of_squares():
    ref = make_unit([1.0, 2.0])
    for scale in (1e200, 1e300, 1e-200, 1e-300):
        np.testing.assert_array_equal(make_unit([scale, 2.0 * scale]).a, ref.a)


def test_weight_vector_is_read_only():
    A = make_unit([3.0, 4.0])
    with pytest.raises(ValueError):
        A.a[0] = 1.0


def test_center_and_ratio():
    A = make_unit([3.0, 4.0])  # -> (0.6, 0.8)
    assert center(A) == pytest.approx(0.7, abs=1e-15)
    assert ratio(A) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert A.total == pytest.approx(1.4, abs=1e-15)


def test_generate_equal():
    A = generate(FamilySpec("equal", 4))
    np.testing.assert_allclose(A.a, 0.5)


def test_generate_geometric_ratio():
    q = 1.5
    A = generate(FamilySpec("geometric", 5, q=q))
    # successive ratios all q after sorting/normalizing
    np.testing.assert_allclose(A.a[1:] / A.a[:-1], q, rtol=1e-12)


def test_generate_random_seeded_and_capped():
    spec = FamilySpec("random", 12, c0=3.0, seed=42)
    A = generate(spec)
    B = generate(spec)
    np.testing.assert_array_equal(A.a, B.a)
    assert ratio(A) <= 3.0
    C = generate(FamilySpec("random", 12, c0=3.0, seed=43))
    assert not np.array_equal(A.a, C.a)


def test_generate_validation():
    with pytest.raises(ValidationError):
        generate(FamilySpec("equal", 0))
    with pytest.raises(ValidationError):
        generate(FamilySpec("geometric", 3))
    with pytest.raises(ValidationError):
        generate(FamilySpec("random", 3, c0=0.5, seed=1))
    with pytest.raises(ValidationError):
        generate(FamilySpec("random", 3, c0=2.0))
    with pytest.raises(ValidationError):
        generate(FamilySpec("pareto", 3))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            generate(FamilySpec("random", 3, c0=bad, seed=1))
        with pytest.raises(ValidationError):
            generate(FamilySpec("geometric", 3, q=bad))


def test_family_spec_json_shapes():
    assert FamilySpec("equal", 3).to_json() == {"kind": "equal", "n": 3}
    assert FamilySpec("geometric", 3, q=0.5).to_json() == {
        "kind": "geometric", "n": 3, "q": 0.5}
    assert FamilySpec("random", 3, c0=2.0, seed=9).to_json() == {
        "kind": "random", "n": 3, "c0": 2.0, "seed": 9}
