"""SI-MBR-Tree: steering-informed minimal-bounding-rectangle tree.

The paper's data structure for neighbor search over the RRT\\* exploration
tree (Sections III-B and III-C).  Each leaf entry is one EXP-tree node (a
configuration-space point); each internal node stores the minimum bounding
rectangle (MBR) of its subtree.  Three capabilities matter to MOPED:

* **Exact nearest-neighbor search** with MINDIST branch-and-bound pruning:
  a subtree whose MBR MINDIST exceeds the best distance found so far cannot
  contain a closer leaf, so it is skipped wholesale (Section III-B).
* **Steering-informed O(1) insertion** (:meth:`SIMBRTree.insert` with
  ``sibling_of``): because ``x_new`` is steered a short step from
  ``x_nearest``, it is placed directly into ``x_nearest``'s leaf node instead
  of descending the tree minimising area enlargement level by level
  (Section III-C, Fig 9).
* **Approximated neighborhoods** (:meth:`SIMBRTree.leaf_siblings`): the
  entries sharing ``x_nearest``'s leaf are returned as the approximate
  neighborhood of ``x_new``, eliminating the second neighbor search of each
  sampling round (Section III-B, Fig 7).

The conventional insertion path (minimum area enlargement per level,
Guttman 1984) is also implemented so the Fig 10 ablation can compare both.

Every node keeps the rows its searches read stacked in one array — a
leaf's entry points, an internal node's child ``lo``/``hi`` corners — so
visiting a node is one array op over all its rows rather than one numpy
call per row.  The stacked forms are bitwise equal to the per-row ones
(``np.vecdot`` to ``g @ g``, the row sum to ``np.sum`` of one row), so
the searches' heap order, comparisons and counts are the per-row ones.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.mindist import mindist_sq_point_to_rects


@dataclass(eq=False)
class _Node:
    """SI-MBR-Tree node; a leaf holds ``entries``, an internal node ``children``."""

    lo: np.ndarray
    hi: np.ndarray
    parent: Optional["_Node"] = None
    children: List["_Node"] = field(default_factory=list)
    entries: List[Tuple[Hashable, np.ndarray]] = field(default_factory=list)
    uid: int = -1
    #: Stacked search rows, kept equal to ``entries``/``children`` by every
    #: mutation: the entry points ``(n, dim)`` of a leaf, or the child
    #: corners ``child_lo``/``child_hi`` ``(n, dim)`` of an internal node.
    points: Optional[np.ndarray] = None
    child_lo: Optional[np.ndarray] = None
    child_hi: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def mbr(self) -> AABB:
        return AABB(self.lo.copy(), self.hi.copy())

    def restack(self) -> None:
        """Rebuild the stacked rows from ``entries`` or ``children``."""
        if self.children:
            self.child_lo = np.array([c.lo for c in self.children])
            self.child_hi = np.array([c.hi for c in self.children])
        else:
            self.points = np.array([p for _, p in self.entries])


class SIMBRTree:
    """Dynamic MBR tree over configuration-space points.

    Args:
        dim: configuration-space dimensionality (the robot DoF).
        capacity: maximum entries per leaf and children per internal node.
            The paper's approximated neighborhood is the leaf population, so
            ``capacity`` doubles as the neighborhood size bound.
    """

    def __init__(self, dim: int, capacity: int = 8):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if capacity < 3:
            # Splitting an internal node of capacity + 1 = 3 children
            # would leave one half with a single child.
            raise ValueError("capacity must be >= 3")
        self.dim = dim
        self.capacity = capacity
        self._root: Optional[_Node] = None
        self._leaf_of: Dict[Hashable, _Node] = {}
        self._points: Dict[Hashable, np.ndarray] = {}
        self._tiebreak = itertools.count()
        self._node_ids = itertools.count()
        #: Optional callable ``(node_id, depth)`` invoked for every tree node
        #: a search visits; the hardware cache model subscribes here to replay
        #: real access traces (Section IV-C's temporal-locality argument).
        self.access_hook = None

    # ----------------------------------------------------------------- basics

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._points

    def point(self, key: Hashable) -> np.ndarray:
        """Stored point for ``key``."""
        return self._points[key]

    def items(self) -> Iterator[Tuple[Hashable, np.ndarray]]:
        """Iterate over all (key, point) entries."""
        return iter(self._points.items())

    @property
    def height(self) -> int:
        """Tree height (1 for a leaf-only root, 0 when empty)."""
        h, node = 0, self._root
        while node is not None:
            h += 1
            node = node.children[0] if node.children else None
        return h

    # ---------------------------------------------------------------- insert

    def insert(
        self,
        key: Hashable,
        point: np.ndarray,
        sibling_of: Optional[Hashable] = None,
        counter=None,
    ) -> None:
        """Insert ``point`` under ``key``.

        With ``sibling_of`` set (steering-informed, O(1) path): the point is
        placed directly in the leaf containing ``sibling_of``.  Without it,
        the conventional Guttman descent selects, at every level, the child
        whose MBR needs the minimum area enlargement — each candidate
        evaluation is recorded as an ``enlargement`` operation on ``counter``.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {point.shape}")
        if key in self._points:
            raise KeyError(f"duplicate key {key!r}")

        if self._root is None:
            self._root = self._make_leaf([(key, point)])
            self._points[key] = point
            return

        if sibling_of is not None:
            if sibling_of not in self._leaf_of:
                raise KeyError(f"sibling key {sibling_of!r} not in tree")
            leaf = self._leaf_of[sibling_of]
            if counter is not None:
                counter.record("insert_direct", dim=self.dim)
        else:
            leaf = self._choose_leaf(point, counter)

        leaf.entries.append((key, point))
        leaf.restack()
        self._leaf_of[key] = leaf
        self._points[key] = point
        self._extend_upward(leaf, point, counter)
        if len(leaf.entries) > self.capacity:
            self._split(leaf, counter)

    def _choose_leaf(self, point: np.ndarray, counter) -> _Node:
        """Guttman descent: child of minimum area enlargement per level."""
        node = self._root
        assert node is not None
        while not node.is_leaf:
            best_child, best_key = None, None
            for child in node.children:
                if counter is not None:
                    counter.record("enlargement", dim=self.dim)
                enlargement = self._enlargement(child, point)
                volume = float(np.prod(child.hi - child.lo))
                cand = (enlargement, volume)
                if best_key is None or cand < best_key:
                    best_key, best_child = cand, child
            node = best_child
        return node

    @staticmethod
    def _enlargement(node: _Node, point: np.ndarray) -> float:
        new_lo = np.minimum(node.lo, point)
        new_hi = np.maximum(node.hi, point)
        return float(np.prod(new_hi - new_lo) - np.prod(node.hi - node.lo))

    def _extend_upward(self, node: _Node, point: np.ndarray, counter) -> None:
        """Grow ancestor MBRs to cover ``point`` (and the parents' rows)."""
        current: Optional[_Node] = node
        while current is not None:
            if (point >= current.lo).all() and (point <= current.hi).all():
                break
            current.lo = np.minimum(current.lo, point)
            current.hi = np.maximum(current.hi, point)
            if counter is not None:
                counter.record("mbr_update", dim=self.dim)
            parent = current.parent
            if parent is not None:
                row = parent.children.index(current)
                parent.child_lo[row] = current.lo
                parent.child_hi[row] = current.hi
            current = parent

    def _split(self, node: _Node, counter) -> None:
        """Split an overfull node along its axis of maximum spread.

        Entries (or child MBR centres) are sorted along the widest axis and
        divided at the median, which keeps both halves spatially compact —
        the property the approximated neighborhood relies on.
        """
        if counter is not None:
            counter.record("split", dim=self.dim)
        if node.is_leaf:
            points = node.points
            axis = int(np.argmax(points.max(axis=0) - points.min(axis=0)))
            order = np.argsort(points[:, axis], kind="stable")
            half = len(order) // 2
            left_items = [node.entries[i] for i in order[:half]]
            right_items = [node.entries[i] for i in order[half:]]
            left = self._make_leaf(left_items)
            right = self._make_leaf(right_items)
        else:
            centers = (node.child_lo + node.child_hi) / 2.0
            axis = int(np.argmax(centers.max(axis=0) - centers.min(axis=0)))
            order = np.argsort(centers[:, axis], kind="stable")
            half = len(order) // 2
            left = self._make_internal([node.children[i] for i in order[:half]])
            right = self._make_internal([node.children[i] for i in order[half:]])

        parent = node.parent
        if parent is None:
            self._root = self._make_internal([left, right])
        else:
            parent.children.remove(node)
            parent.children.extend([left, right])
            parent.restack()
            left.parent = right.parent = parent
            if len(parent.children) > self.capacity:
                self._split(parent, counter)

    def _make_leaf(self, items: List[Tuple[Hashable, np.ndarray]]) -> _Node:
        points = np.array([p for _, p in items])
        leaf = _Node(
            lo=points.min(axis=0),
            hi=points.max(axis=0),
            entries=list(items),
            uid=next(self._node_ids),
            points=points,
        )
        for key, _ in items:
            self._leaf_of[key] = leaf
        return leaf

    def _make_internal(self, children: List[_Node]) -> _Node:
        child_lo = np.array([c.lo for c in children])
        child_hi = np.array([c.hi for c in children])
        node = _Node(
            lo=child_lo.min(axis=0),
            hi=child_hi.max(axis=0),
            children=list(children),
            uid=next(self._node_ids),
            child_lo=child_lo,
            child_hi=child_hi,
        )
        for child in children:
            child.parent = node
        return node

    # ---------------------------------------------------------------- queries

    def nearest(self, query: np.ndarray, counter=None, exclude=None):
        """Exact nearest neighbor of ``query``.

        Best-first traversal ordered by MINDIST; a node is expanded only if
        its MINDIST is below the best distance found so far, exactly the
        skip rule of Section III-B.  Returns ``(key, point, distance)`` or
        ``None`` on an empty tree.

        Args:
            exclude: optional set of keys invisible to this search — used by
                the speculative-execution model, where the node inserted by
                the in-flight sampling round is not yet visible.
        """
        query = np.asarray(query, dtype=float)
        if self._root is None:
            return None
        exclude = exclude or frozenset()
        best_key, best_point, best_sq = None, None, float("inf")
        heap = [(0.0, next(self._tiebreak), self._root, 0)]
        while heap:
            bound_sq, _, node, depth = heapq.heappop(heap)
            if bound_sq >= best_sq:
                break  # all remaining nodes are at least this far
            if self.access_hook is not None:
                self.access_hook(node.uid, depth)
            if node.is_leaf:
                if counter is not None:
                    visited = (
                        len(node.entries)
                        if not exclude
                        else sum(key not in exclude for key, _ in node.entries)
                    )
                    if visited:
                        counter.record("dist", dim=self.dim, n=visited)
                d_sq_rows = ((node.points - query) ** 2).sum(axis=1).tolist()
                for (key, point), d_sq in zip(node.entries, d_sq_rows):
                    if key in exclude:
                        continue
                    if d_sq < best_sq:
                        best_key, best_point, best_sq = key, point, d_sq
            else:
                if counter is not None:
                    counter.record("mindist", dim=self.dim, n=len(node.children))
                bounds = mindist_sq_point_to_rects(query, node.child_lo, node.child_hi)
                for child, child_bound in zip(node.children, bounds.tolist()):
                    if child_bound < best_sq:
                        heapq.heappush(
                            heap, (child_bound, next(self._tiebreak), child, depth + 1)
                        )
        if best_key is None:
            return None
        return best_key, best_point, float(np.sqrt(best_sq))

    def count_nearest(self, query: np.ndarray, key: Hashable, best_sq: float,
                      counter=None, exclude=None) -> bool:
        """Record the counts of a :meth:`nearest` search whose answer is known.

        ``key`` must be the unique visible entry nearest to ``query`` and
        ``best_sq`` its squared distance in the leaf arithmetic
        (``((points - query) ** 2).sum(axis=1)``).  The best-first walk then
        expands exactly the nodes whose MINDIST² is below ``best_sq``, so a
        count-only descent expands those, records one ``mindist`` per child
        of each and one ``dist`` per visible entry of each leaf reached, and
        skips the heap and the leaf distances.  It declines — returning
        False with nothing recorded, so the caller walks — when a child's
        MINDIST² lies within a 1e-9 relative margin of ``best_sq`` (the walk
        would then depend on rounding and heap order), when the descent does
        not reach ``key``'s leaf, or when an ``access_hook`` needs the
        walk's trace.  It descends level by level: one MINDIST call per
        level over the stacked child corners, row for row the walk's
        per-node ones.
        """
        if self.access_hook is not None or key not in self._leaf_of:
            return False
        query = np.asarray(query, dtype=float)
        exclude = exclude or frozenset()
        low, high = best_sq * (1.0 - 1e-9), best_sq * (1.0 + 1e-9)
        answer_leaf = self._leaf_of[key]
        reached = False
        mindists = dists = 0
        level = [self._root]
        while level:
            expand = []
            for node in level:
                if not node.is_leaf:
                    expand.append(node)
                    continue
                reached = reached or node is answer_leaf
                dists += (len(node.entries) if not exclude
                          else sum(k not in exclude for k, _ in node.entries))
            if not expand:
                break
            if len(expand) == 1:
                lo, hi = expand[0].child_lo, expand[0].child_hi
                children = expand[0].children
            else:
                lo = np.concatenate([node.child_lo for node in expand])
                hi = np.concatenate([node.child_hi for node in expand])
                children = [child for node in expand for child in node.children]
            mindists += len(children)
            level = []
            bounds = mindist_sq_point_to_rects(query, lo, hi).tolist()
            for child, bound in zip(children, bounds):
                if bound < low:
                    level.append(child)
                elif bound <= high:
                    return False
        if not reached:
            return False
        if counter is not None:
            if mindists:
                counter.record("mindist", dim=self.dim, n=mindists)
            if dists:
                counter.record("dist", dim=self.dim, n=dists)
        return True

    def neighbors_within(self, query: np.ndarray, radius: float, counter=None):
        """All entries within ``radius`` of ``query`` (exact range search).

        Returns a list of ``(key, point, distance)`` sorted by distance.
        """
        query = np.asarray(query, dtype=float)
        if self._root is None:
            return []
        radius_sq = radius * radius
        out = []
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if self.access_hook is not None:
                self.access_hook(node.uid, depth)
            if node.is_leaf:
                if counter is not None and node.entries:
                    counter.record("dist", dim=self.dim, n=len(node.entries))
                d_sq_rows = ((node.points - query) ** 2).sum(axis=1).tolist()
                for (key, point), d_sq in zip(node.entries, d_sq_rows):
                    if d_sq <= radius_sq:
                        out.append((key, point, math.sqrt(d_sq)))
            else:
                if counter is not None:
                    counter.record("mindist", dim=self.dim, n=len(node.children))
                bounds = mindist_sq_point_to_rects(query, node.child_lo, node.child_hi)
                for child, bound in zip(node.children, bounds.tolist()):
                    if bound <= radius_sq:
                        stack.append((child, depth + 1))
        out.sort(key=lambda item: item[2])
        return out

    def leaf_siblings(
        self,
        key: Hashable,
        counter=None,
        scope: str = "leaf",
        query: Optional[np.ndarray] = None,
        radius: Optional[float] = None,
    ):
        """Entries grouped with ``key``: the approximated neighborhood.

        This is the Section III-B approximation: the tree's grouping already
        encodes geometric proximity, so the population of the non-leaf node
        containing ``x_nearest`` stands in for the neighborhood of ``x_new``
        with no search at all.  Only a buffer read is recorded — the node's
        entries are exactly what the engine-level neighborhood cache holds.

        Args:
            scope: ``"leaf"`` returns the entries of ``key``'s leaf node;
                ``"parent"`` widens to every leaf under the leaf's parent
                (the node-C grouping of Fig 7), which tracks the true
                neighborhood more closely in low-dimensional spaces where
                neighborhoods span several leaves.
            query / radius: with parent scope, sibling leaves whose MBR
                MINDIST to ``query`` exceeds ``radius`` are skipped (one
                recorded ``mindist`` each) — the same pruning rule the full
                search uses, applied to the stored grouping only.
        """
        if key not in self._leaf_of:
            raise KeyError(f"key {key!r} not in tree")
        if scope not in ("leaf", "parent"):
            raise ValueError(f"scope must be 'leaf' or 'parent', got {scope!r}")
        if counter is not None:
            counter.record("buffer_read", dim=self.dim)
        leaf = self._leaf_of[key]
        if scope == "leaf" or leaf.parent is None:
            return [(k, p) for k, p in leaf.entries]
        parent = leaf.parent
        out = []
        prune = radius is not None and query is not None
        if prune:
            radius_sq = radius * radius
            bounds = mindist_sq_point_to_rects(
                query, parent.child_lo, parent.child_hi
            ).tolist()
        for row, sibling in enumerate(parent.children):
            if not sibling.is_leaf:
                continue
            if sibling is not leaf and prune:
                if counter is not None:
                    counter.record("mindist", dim=self.dim)
                if bounds[row] > radius_sq:
                    continue
            out.extend(sibling.entries)
        return out

    # ------------------------------------------------------------ diagnostics

    def total_overlap(self) -> float:
        """Sum of pairwise sibling MBR overlap volumes across internal nodes.

        Lower overlap means better-separated subtrees and fewer branches
        visited per search; the metric used to argue the steering-informed
        insertion yields "smaller spatial overlap" (Section III-C).
        """
        total = 0.0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            for i, a in enumerate(node.children):
                for b in node.children[i + 1 :]:
                    lo = np.maximum(a.lo, b.lo)
                    hi = np.minimum(a.hi, b.hi)
                    gaps = hi - lo
                    if np.all(gaps > 0):
                        total += float(np.prod(gaps))
            stack.extend(node.children)
        return total

    def validate(self) -> None:
        """Raise AssertionError when a structural invariant is broken."""
        if self._root is None:
            assert not self._points, "points recorded but tree empty"
            return
        seen = set()
        depths = set()

        def walk(node: _Node, depth: int) -> None:
            if node.is_leaf:
                depths.add(depth)
                assert node.entries, "empty leaf"
                assert len(node.entries) <= self.capacity, "leaf over capacity"
                assert np.array_equal(
                    node.points, np.array([p for _, p in node.entries])
                ), "leaf point rows out of date"
                for key, point in node.entries:
                    assert key not in seen, f"duplicate key {key!r}"
                    seen.add(key)
                    assert np.all(point >= node.lo - 1e-9), "point below leaf MBR"
                    assert np.all(point <= node.hi + 1e-9), "point above leaf MBR"
                    assert self._leaf_of[key] is node, "leaf map out of date"
            else:
                assert len(node.children) >= 2, "internal node with < 2 children"
                assert len(node.children) <= self.capacity, "node over capacity"
                assert np.array_equal(
                    node.child_lo, np.array([c.lo for c in node.children])
                ) and np.array_equal(
                    node.child_hi, np.array([c.hi for c in node.children])
                ), "child corner rows out of date"
                for child in node.children:
                    assert child.parent is node, "broken parent pointer"
                    assert np.all(child.lo >= node.lo - 1e-9), "child MBR outside parent"
                    assert np.all(child.hi <= node.hi + 1e-9), "child MBR outside parent"
                    walk(child, depth + 1)

        walk(self._root, 0)
        assert seen == set(self._points), "leaf map and point set disagree"
        assert len(depths) == 1, f"leaves at different depths: {depths}"
