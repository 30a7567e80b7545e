"""Unit and property tests for MINDIST."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import AABB, mindist_point_to_rect, mindist_sq_point_to_rect
from repro.geometry.mindist import mindist_sq_point_to_rects


def rect(lo, hi):
    return AABB(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


class TestMindistBasics:
    def test_zero_inside(self):
        assert mindist_sq_point_to_rect(np.array([0.5, 0.5]), rect([0, 0], [1, 1])) == 0.0

    def test_zero_on_boundary(self):
        assert mindist_sq_point_to_rect(np.array([1.0, 0.5]), rect([0, 0], [1, 1])) == 0.0

    def test_axis_gap(self):
        assert mindist_point_to_rect(np.array([3.0, 0.5]), rect([0, 0], [1, 1])) == pytest.approx(2.0)

    def test_corner_gap(self):
        d = mindist_point_to_rect(np.array([2.0, 2.0]), rect([0, 0], [1, 1]))
        assert d == pytest.approx(np.sqrt(2.0))

    def test_high_dimension(self):
        point = np.full(7, 2.0)
        r = rect(np.zeros(7), np.ones(7))
        assert mindist_point_to_rect(point, r) == pytest.approx(np.sqrt(7.0))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            mindist_sq_point_to_rect(np.zeros(3), rect([0, 0], [1, 1]))


class TestVectorised:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        lo = rng.uniform(-5, 0, size=(20, 4))
        hi = lo + rng.uniform(0.1, 3, size=(20, 4))
        point = rng.uniform(-6, 6, size=4)
        batched = mindist_sq_point_to_rects(point, lo, hi)
        for i in range(20):
            scalar = mindist_sq_point_to_rect(point, AABB(lo[i], hi[i]))
            assert batched[i] == scalar  # bitwise: the SI-MBR search relies on it

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_equal_scalar_bitwise(self, data):
        """Every stacked row is the scalar MINDIST bitwise, over dims 1-13,
        for points inside one of the rectangles (zero gaps) or anywhere."""
        dim = data.draw(st.integers(min_value=1, max_value=13), label="dim")
        n = data.draw(st.integers(min_value=1, max_value=12), label="rects")

        def floats(count, lo, hi):
            values = st.lists(st.floats(lo, hi), min_size=count, max_size=count)
            return np.array(data.draw(values))

        lo = floats(n * dim, -50, 50).reshape(n, dim)
        hi = lo + floats(n * dim, 0, 20).reshape(n, dim)
        inside = data.draw(st.integers(min_value=0, max_value=n - 1), label="inside")
        point = floats(dim, -60, 60)
        if data.draw(st.booleans(), label="point inside a rect"):
            point = (lo[inside] + hi[inside]) / 2.0
        batched = mindist_sq_point_to_rects(point, lo, hi)
        for i in range(n):
            assert batched[i] == mindist_sq_point_to_rect(point, AABB(lo[i], hi[i]))
        if np.all(point >= lo[inside]) and np.all(point <= hi[inside]):
            assert batched[inside] == 0.0


@st.composite
def point_and_rect(draw):
    dim = draw(st.integers(min_value=2, max_value=7))
    lo = np.array([draw(st.floats(-10, 10)) for _ in range(dim)])
    size = np.array([draw(st.floats(0.01, 5)) for _ in range(dim)])
    point = np.array([draw(st.floats(-15, 15)) for _ in range(dim)])
    return point, AABB(lo, lo + size)


@settings(max_examples=100, deadline=None)
@given(point_and_rect())
def test_mindist_lower_bounds_all_interior_points(data):
    """Property: MINDIST <= distance to every point in the rectangle.

    This is the invariant that makes SI-MBR-Tree subtree pruning exact
    (Section III-B).
    """
    point, box = data
    md_sq = mindist_sq_point_to_rect(point, box)
    rng = np.random.default_rng(0)
    samples = rng.uniform(box.lo, box.hi, size=(50, box.dim))
    dists_sq = np.sum((samples - point) ** 2, axis=1)
    assert md_sq <= dists_sq.min() + 1e-9


@settings(max_examples=100, deadline=None)
@given(point_and_rect())
def test_mindist_is_achieved_by_clamp(data):
    """Property: MINDIST equals the distance to the clamped point."""
    point, box = data
    clamped = np.clip(point, box.lo, box.hi)
    expected = float(np.sum((point - clamped) ** 2))
    assert mindist_sq_point_to_rect(point, box) == pytest.approx(expected)
