"""Unit and property tests for the SI-MBR-Tree."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import OpCounter
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

    def test_capacity_two_is_rejected(self):
        # With capacity 2 a split of 3 children leaves a one-child internal
        # node: 4 random inserts at dim 2 (seed 0) used to fail validate().
        with pytest.raises(ValueError, match="capacity must be >= 3"):
            SIMBRTree(dim=2, capacity=2)
        tree = SIMBRTree(dim=2, capacity=3)
        rng = np.random.default_rng(0)
        for key in range(40):
            tree.insert(key, rng.uniform(-1.0, 1.0, size=2))
            tree.validate()

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



# ------------------------------------------------------------------------
# Scalar reference walks: the searches as one numpy call per child MBR and
# per leaf entry, over the same nodes.  The tree's stacked searches must
# match them bitwise: keys, point objects, distances, counter records and
# the node access trace.


def _ref_mindist_sq(query, lo, hi):
    gap = np.maximum(np.maximum(lo - query, query - hi), 0.0)
    return float(gap @ gap)


def ref_nearest(tree, query, counter, hook, exclude=None):
    exclude = exclude or frozenset()
    best_key, best_point, best_sq = None, None, float("inf")
    tiebreak = itertools.count()
    heap = [(0.0, next(tiebreak), tree._root, 0)]
    while heap:
        bound_sq, _, node, depth = heapq.heappop(heap)
        if bound_sq >= best_sq:
            break
        hook(node.uid, depth)
        if node.is_leaf:
            visited = sum(key not in exclude for key, _ in node.entries)
            if visited:
                counter.record("dist", dim=tree.dim, n=visited)
            for key, point in node.entries:
                if key in exclude:
                    continue
                d_sq = float(np.sum((point - query) ** 2))
                if d_sq < best_sq:
                    best_key, best_point, best_sq = key, point, d_sq
        else:
            counter.record("mindist", dim=tree.dim, n=len(node.children))
            for child in node.children:
                bound = _ref_mindist_sq(query, child.lo, child.hi)
                if bound < best_sq:
                    heapq.heappush(heap, (bound, next(tiebreak), child, depth + 1))
    if best_key is None:
        return None
    return best_key, best_point, float(np.sqrt(best_sq))


def ref_neighbors_within(tree, query, radius, counter, hook):
    radius_sq = radius * radius
    out = []
    stack = [(tree._root, 0)]
    while stack:
        node, depth = stack.pop()
        hook(node.uid, depth)
        if node.is_leaf:
            counter.record("dist", dim=tree.dim, n=len(node.entries))
            for key, point in node.entries:
                d_sq = float(np.sum((point - query) ** 2))
                if d_sq <= radius_sq:
                    out.append((key, point, float(np.sqrt(d_sq))))
        else:
            counter.record("mindist", dim=tree.dim, n=len(node.children))
            for child in node.children:
                if _ref_mindist_sq(query, child.lo, child.hi) <= radius_sq:
                    stack.append((child, depth + 1))
    out.sort(key=lambda item: item[2])
    return out


def ref_leaf_siblings(tree, key, query, radius, counter):
    counter.record("buffer_read", dim=tree.dim)
    leaf = tree._leaf_of[key]
    if leaf.parent is None:
        return list(leaf.entries)
    out = []
    for sibling in leaf.parent.children:
        if not sibling.is_leaf:
            continue
        if sibling is not leaf:
            counter.record("mindist", dim=tree.dim)
            if _ref_mindist_sq(query, sibling.lo, sibling.hi) > radius * radius:
                continue
        out.extend(sibling.entries)
    return out


def _same_results(got, want):
    """Same keys, the very same point objects, bitwise-equal distances."""
    assert [r[0] for r in got] == [r[0] for r in want]
    assert all(g[1] is w[1] for g, w in zip(got, want))
    assert [r[2:] for r in got] == [r[2:] for r in want]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=90),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=9),
    # Capacity 2 is left out: its splits leave internal nodes with a single
    # child, which validate() rejects.
    st.integers(min_value=3, max_value=8),
    st.booleans(),
)
def test_stacked_searches_match_the_scalar_walk(n, seed, dim, capacity, steering):
    """nearest / neighbors_within / leaf_siblings over stacked node rows are
    bitwise the per-row reference, with the same counts and access trace."""
    rng = np.random.default_rng(seed)
    tree = SIMBRTree(dim=dim, capacity=capacity)
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

    def run(search):
        """``search(counter, hook)``'s result, counts and access trace; the
        tree reports its accesses through ``access_hook``, the reference
        walk through ``hook``."""
        trace, counter = [], OpCounter()

        def hook(uid, depth):
            trace.append((uid, depth))

        tree.access_hook = hook
        try:
            return search(counter, hook), counter.to_dict(), trace
        finally:
            tree.access_hook = None

    for _ in range(4):
        # Queries near stored points (ties and zero distances) and far off.
        q = points[int(rng.integers(0, n))] + rng.normal(scale=0.5, size=dim)
        if rng.random() < 0.2:
            q = points[int(rng.integers(0, n))].copy()
        exclude = (set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
                   if rng.random() < 0.5 else None)
        radius = float(rng.uniform(0.0, 6.0))

        got, got_counts, got_trace = run(
            lambda c, hook: tree.nearest(q, counter=c, exclude=exclude))
        want, want_counts, want_trace = run(
            lambda c, hook: ref_nearest(tree, q, c, hook, exclude))
        if want is None:
            assert got is None
        else:
            _same_results([got], [want])
        assert got_counts == want_counts and got_trace == want_trace

        got, got_counts, got_trace = run(
            lambda c, hook: tree.neighbors_within(q, radius, counter=c))
        want, want_counts, want_trace = run(
            lambda c, hook: ref_neighbors_within(tree, q, radius, c, hook))
        _same_results(got, want)
        assert got_counts == want_counts and got_trace == want_trace

        key = int(rng.integers(0, n))
        counter = OpCounter()
        got = tree.leaf_siblings(key, counter=counter, scope="parent",
                                 query=q, radius=radius)
        ref_counter = OpCounter()
        want = ref_leaf_siblings(tree, key, q, radius, ref_counter)
        assert [k for k, _ in got] == [k for k, _ in want]
        assert all(g[1] is w[1] for g, w in zip(got, want))
        assert counter.to_dict() == ref_counter.to_dict()


def test_validate_checks_the_stacked_rows():
    tree = SIMBRTree(dim=3, capacity=4)
    rng = np.random.default_rng(12)
    for i in range(60):
        tree.insert(i, rng.uniform(0, 10, 3))
    tree.validate()  # rows kept current through the splits above
    internal = tree._root
    internal.child_lo = internal.child_lo.copy()
    internal.child_lo[0, 0] -= 1.0
    with pytest.raises(AssertionError, match="child corner rows"):
        tree.validate()
    internal.child_lo[0, 0] += 1.0
    tree.validate()
    leaf = tree._leaf_of[0]
    leaf.points = leaf.points[::-1].copy()
    with pytest.raises(AssertionError, match="leaf point rows"):
        tree.validate()


# ------------------------------------------------------------------------
# Count-only descent: the counts of a nearest search whose answer the
# wavefront planner's distance matrix already holds.


def _build(rng, n, dim, capacity, steering):
    tree = SIMBRTree(dim=dim, capacity=capacity)
    points = []
    for i in range(n):
        if steering and i > 0:
            parent = int(rng.integers(0, i))
            p = points[parent] + rng.normal(scale=1.0, size=dim)
            tree.insert(i, p, sibling_of=parent)
        else:
            p = rng.uniform(-10, 10, dim)
            tree.insert(i, p)
        points.append(p)
    return tree, points


def _replayed(tree, points, query, exclude):
    """The planner's path: the strategy's matrix row, its unique visible
    minimum, the count-only descent.  Returns ``(found, counts)`` like the
    walk's, or None when the path declines."""
    from repro.core.neighbors import SIMBRStrategy, wave_nearest

    row = SIMBRStrategy(tree.dim).wave_sq_distances(np.array(points), query[None])
    visible = np.array([[key not in exclude for key in range(len(points))]])
    keys, unique = wave_nearest(row, visible)
    if not unique[0]:
        return None
    key, best_sq = keys[0], float(row[0, keys[0]])
    counter = OpCounter()
    if not tree.count_nearest(query, key, best_sq, counter=counter,
                              exclude=exclude):
        assert counter.to_dict() == OpCounter().to_dict()  # nothing recorded
        return None
    return (key, points[key], float(np.sqrt(best_sq))), counter.to_dict()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=90),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=3, max_value=8),
    st.booleans(),
    st.sampled_from(["none", "duplicate", "mirror"]),
)
def test_count_only_descent_matches_the_walk(n, seed, dim, capacity, steering,
                                             plant):
    """Where the matrix path answers, it is the walk bit for bit: key,
    point, distance and counts.  A planted tie at the minimum — a
    duplicated point, or two points mirrored about the query — declines."""
    rng = np.random.default_rng(seed)
    tree, points = _build(rng, n, dim, capacity, steering)
    query = points[int(rng.integers(0, n))] + rng.normal(scale=0.5, size=dim)
    tied = []
    if plant == "duplicate":
        twin = int(rng.integers(0, n))
        tree.insert(n, points[twin].copy(), sibling_of=twin if steering else None)
        points.append(points[twin].copy())
        query = points[twin] + rng.normal(scale=1e-3, size=dim)
        tied = [twin, n]
    elif plant == "mirror":
        # Dyadic coordinates keep query +- offset and the differences
        # exact, so both points lie at bitwise the same distance.
        query = np.round(query * 8) / 8
        offset = np.round(rng.normal(size=dim) * 64) / 4096
        for sign in (1.0, -1.0):
            tree.insert(len(points), query + sign * offset)
            points.append(query + sign * offset)
        tied = [n, n + 1]
    tree.validate()
    exclude = set()
    if rng.random() < 0.5:
        hidden = rng.choice(len(points), size=int(rng.integers(0, len(points))),
                            replace=False)
        exclude = set(hidden.tolist()) - set(tied)

    counter = OpCounter()
    want = tree.nearest(query, counter=counter, exclude=exclude)
    got = _replayed(tree, points, query, exclude)
    if tied and want[2] == float(np.sqrt(np.sum((points[tied[0]] - query) ** 2))):
        assert got is None  # the tie is the minimum: the matrix path declines
    if got is not None:
        found, counts = got
        assert found[0] == want[0]
        assert np.array_equal(found[1], want[1])
        assert found[2].hex() == want[2].hex()
        assert counts == counter.to_dict()


def test_count_only_descent_answers_most_searches():
    """The descent declines rarely, so the walk it replaces rarely runs."""
    rng = np.random.default_rng(5)
    tree, points = _build(rng, 400, 7, 8, steering=True)
    answered = 0
    for _ in range(200):
        query = points[int(rng.integers(0, 400))] + rng.normal(scale=1.0, size=7)
        answered += _replayed(tree, points, query, set()) is not None
    assert answered >= 180


def test_count_only_descent_declines_under_an_access_hook():
    rng = np.random.default_rng(6)
    tree, points = _build(rng, 60, 3, 4, steering=False)
    trace = []
    tree.access_hook = lambda uid, depth: trace.append(uid)
    query = rng.uniform(-10, 10, 3)
    key, _, dist = tree.nearest(query)
    trace.clear()
    counter = OpCounter()
    assert not tree.count_nearest(query, key, dist * dist, counter=counter)
    assert trace == [] and counter.total_events() == 0
