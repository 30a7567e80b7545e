"""Unit and property tests for the SI-MBR-Tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import SIMBRTree


class CountingStub:
    def __init__(self):
        self.counts = {}

    def record(self, kind, dim=None, n=1):
        self.counts[kind] = self.counts.get(kind, 0) + n


def brute_nearest(points, query, exclude=frozenset()):
    best = None
    for key, p in points.items():
        if key in exclude:
            continue
        d = float(np.linalg.norm(p - query))
        if best is None or d < best[2]:
            best = (key, p, d)
    return best


class TestInsertBasics:
    def test_empty_tree(self):
        tree = SIMBRTree(dim=3)
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.nearest(np.zeros(3)) is None
        assert tree.neighbors_within(np.zeros(3), 1.0) == []

    def test_single_insert(self):
        tree = SIMBRTree(dim=2)
        tree.insert("a", np.array([1.0, 2.0]))
        assert len(tree) == 1
        assert "a" in tree
        key, point, dist = tree.nearest(np.array([1.0, 2.0]))
        assert key == "a"
        assert dist == pytest.approx(0.0)

    def test_duplicate_key_rejected(self):
        tree = SIMBRTree(dim=2)
        tree.insert(0, np.zeros(2))
        with pytest.raises(KeyError):
            tree.insert(0, np.ones(2))

    def test_wrong_dim_rejected(self):
        tree = SIMBRTree(dim=3)
        with pytest.raises(ValueError):
            tree.insert(0, np.zeros(2))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SIMBRTree(dim=0)
        with pytest.raises(ValueError):
            SIMBRTree(dim=2, capacity=1)

    def test_sibling_of_unknown_key(self):
        tree = SIMBRTree(dim=2)
        tree.insert(0, np.zeros(2))
        with pytest.raises(KeyError):
            tree.insert(1, np.ones(2), sibling_of=99)

    def test_splits_maintain_validity(self):
        tree = SIMBRTree(dim=2, capacity=4)
        rng = np.random.default_rng(0)
        for i in range(100):
            tree.insert(i, rng.uniform(0, 10, 2))
            tree.validate()
        assert len(tree) == 100
        assert tree.height >= 2

    def test_steering_inserts_maintain_validity(self):
        tree = SIMBRTree(dim=3, capacity=4)
        rng = np.random.default_rng(1)
        tree.insert(0, rng.uniform(0, 10, 3))
        keys = [0]
        for i in range(1, 120):
            parent = int(rng.choice(keys))
            point = tree.point(parent) + rng.normal(scale=0.3, size=3)
            tree.insert(i, point, sibling_of=parent)
            keys.append(i)
            if i % 10 == 0:
                tree.validate()
        tree.validate()


class TestNearest:
    def test_matches_brute_force_conventional(self):
        rng = np.random.default_rng(2)
        tree = SIMBRTree(dim=4, capacity=6)
        points = {}
        for i in range(150):
            p = rng.uniform(-5, 5, 4)
            tree.insert(i, p)
            points[i] = p
        for _ in range(30):
            q = rng.uniform(-6, 6, 4)
            got = tree.nearest(q)
            want = brute_nearest(points, q)
            assert got[0] == want[0]
            assert got[2] == pytest.approx(want[2])

    def test_matches_brute_force_steering_inserts(self):
        rng = np.random.default_rng(3)
        tree = SIMBRTree(dim=5, capacity=8)
        points = {0: rng.uniform(0, 10, 5)}
        tree.insert(0, points[0])
        for i in range(1, 120):
            parent = int(rng.integers(0, i))
            p = points[parent] + rng.normal(scale=0.5, size=5)
            tree.insert(i, p, sibling_of=parent)
            points[i] = p
        for _ in range(25):
            q = rng.uniform(0, 10, 5)
            got = tree.nearest(q)
            want = brute_nearest(points, q)
            assert got[2] == pytest.approx(want[2])

    def test_exclude_hides_keys(self):
        tree = SIMBRTree(dim=2)
        tree.insert("near", np.array([0.0, 0.0]))
        tree.insert("far", np.array([5.0, 5.0]))
        got = tree.nearest(np.array([0.1, 0.1]), exclude={"near"})
        assert got[0] == "far"

    def test_exclude_everything_returns_none(self):
        tree = SIMBRTree(dim=2)
        tree.insert(0, np.zeros(2))
        assert tree.nearest(np.zeros(2), exclude={0}) is None

    def test_counter_records_ops(self):
        tree = SIMBRTree(dim=3, capacity=4)
        rng = np.random.default_rng(4)
        for i in range(50):
            tree.insert(i, rng.uniform(0, 10, 3))
        counter = CountingStub()
        tree.nearest(rng.uniform(0, 10, 3), counter=counter)
        assert counter.counts.get("dist", 0) > 0
        assert counter.counts.get("mindist", 0) > 0

    def test_pruning_skips_most_leaves(self):
        """Clustered data: NN search must touch far fewer points than n."""
        rng = np.random.default_rng(5)
        tree = SIMBRTree(dim=3, capacity=8)
        for i in range(400):
            cluster = rng.integers(0, 8)
            center = np.array([cluster * 100.0, 0.0, 0.0])
            tree.insert(i, center + rng.normal(scale=1.0, size=3))
        counter = CountingStub()
        tree.nearest(np.array([350.0, 0.0, 0.0]), counter=counter)
        assert counter.counts["dist"] < 400


class TestNeighborsWithin:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        tree = SIMBRTree(dim=3, capacity=5)
        points = {}
        for i in range(120):
            p = rng.uniform(0, 10, 3)
            tree.insert(i, p)
            points[i] = p
        q = rng.uniform(0, 10, 3)
        radius = 2.5
        got = {k for k, _, _ in tree.neighbors_within(q, radius)}
        want = {k for k, p in points.items() if np.linalg.norm(p - q) <= radius}
        assert got == want

    def test_sorted_by_distance(self):
        rng = np.random.default_rng(7)
        tree = SIMBRTree(dim=2)
        for i in range(60):
            tree.insert(i, rng.uniform(0, 10, 2))
        result = tree.neighbors_within(np.array([5.0, 5.0]), 4.0)
        dists = [d for _, _, d in result]
        assert dists == sorted(dists)

    def test_zero_radius_only_exact_matches(self):
        tree = SIMBRTree(dim=2)
        tree.insert(0, np.array([1.0, 1.0]))
        tree.insert(1, np.array([2.0, 2.0]))
        got = tree.neighbors_within(np.array([1.0, 1.0]), 0.0)
        assert [k for k, _, _ in got] == [0]


class TestLeafSiblings:
    def test_contains_own_key(self):
        tree = SIMBRTree(dim=2, capacity=4)
        rng = np.random.default_rng(8)
        for i in range(30):
            tree.insert(i, rng.uniform(0, 10, 2))
        sibs = tree.leaf_siblings(17)
        assert 17 in {k for k, _ in sibs}

    def test_bounded_by_capacity(self):
        tree = SIMBRTree(dim=2, capacity=4)
        rng = np.random.default_rng(9)
        for i in range(50):
            tree.insert(i, rng.uniform(0, 10, 2))
        for i in range(50):
            assert len(tree.leaf_siblings(i)) <= 4

    def test_unknown_key_raises(self):
        tree = SIMBRTree(dim=2)
        tree.insert(0, np.zeros(2))
        with pytest.raises(KeyError):
            tree.leaf_siblings(42)

    def test_siblings_are_geometrically_close(self):
        """Steered inserts: leaf siblings should be nearer than average."""
        rng = np.random.default_rng(10)
        tree = SIMBRTree(dim=3, capacity=6)
        points = {0: rng.uniform(0, 100, 3)}
        tree.insert(0, points[0])
        for i in range(1, 200):
            parent = int(rng.integers(0, i))
            p = points[parent] + rng.normal(scale=2.0, size=3)
            tree.insert(i, p, sibling_of=parent)
            points[i] = p
        all_pts = np.array(list(points.values()))
        mean_pairwise = np.mean(
            np.linalg.norm(all_pts[None, :, :] - all_pts[:, None, :], axis=-1)
        )
        sib_dists = []
        for key in range(0, 200, 10):
            p = points[key]
            for k2, p2 in tree.leaf_siblings(key):
                if k2 != key:
                    sib_dists.append(np.linalg.norm(p2 - p))
        assert np.mean(sib_dists) < mean_pairwise


class TestDiagnostics:
    def test_total_overlap_nonnegative(self):
        rng = np.random.default_rng(11)
        tree = SIMBRTree(dim=2, capacity=4)
        for i in range(80):
            tree.insert(i, rng.uniform(0, 10, 2))
        assert tree.total_overlap() >= 0.0

    def test_items_returns_all(self):
        tree = SIMBRTree(dim=2)
        tree.insert("x", np.zeros(2))
        tree.insert("y", np.ones(2))
        assert dict(tree.items()).keys() == {"x", "y"}


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
)
def test_simbr_nearest_is_exact(n, seed, dim, steering):
    """Property: NN result always matches brute force, both insert modes."""
    rng = np.random.default_rng(seed)
    tree = SIMBRTree(dim=dim, capacity=4)
    points = {}
    for i in range(n):
        if steering and i > 0:
            parent = int(rng.integers(0, i))
            p = points[parent] + rng.normal(scale=1.0, size=dim)
            tree.insert(i, p, sibling_of=parent)
        else:
            p = rng.uniform(-10, 10, dim)
            tree.insert(i, p)
        points[i] = p
    tree.validate()
    q = rng.uniform(-12, 12, dim)
    got = tree.nearest(q)
    want = brute_nearest(points, q)
    assert got[2] == pytest.approx(want[2])

