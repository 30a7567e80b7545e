"""Neighbor-search strategies for the planning loop.

Each sampling round of RRT\\* needs two neighbor queries (Section II-B):
the nearest tree node to the sample ``x_rand``, and the neighborhood of the
steered point ``x_new`` used by choose-parent/rewire.  The strategies below
make those queries against different index structures so the planners and
benchmarks can swap them freely:

* :class:`BruteStrategy` — linear scans (vanilla RRT\\*).
* :class:`KDTreeStrategy` — incremental KD-tree, optionally rebuilt
  periodically (the Fig 19 right baseline).
* :class:`SIMBRStrategy` — the paper's SI-MBR-Tree, with independent flags
  for the O(1) steering-informed insertion (LCI, Section III-C) and the
  approximated neighborhood (SIAS, Section III-B).

All queries route operation counts through the shared counter protocol.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.geometry.motion import distance
from repro.obs import bump
from repro.spatial.brute import BruteForceIndex
from repro.spatial.kdtree import KDTree
from repro.spatial.simbr import SIMBRTree

Neighbor = Tuple[Hashable, np.ndarray, float]


def _count_query(kind: str, strategy: str) -> None:
    """Metrics hook: one neighbor-search query of ``kind`` was issued."""
    bump("repro_ns_queries_total", kind=kind, strategy=strategy,
         help="Neighbor-search queries by kind and index strategy")


def wave_nearest(d_sq: np.ndarray, visible: np.ndarray) -> Tuple[List[int], List[bool]]:
    """Each row's nearest visible column, and whether no other ties it.

    ``d_sq`` is a wave's ``(W, n)`` squared-distance matrix and ``visible``
    a same-shape mask.  Returns per row the first column of its minimum
    over the visible entries, and whether that minimum is unique: only a
    unique minimum is the answer of every exact search, whatever order
    the search meets ties in.
    """
    masked = np.where(visible, d_sq, np.inf)
    keys = masked.argmin(axis=1)
    best = masked[np.arange(len(masked)), keys]
    unique = np.count_nonzero(masked == best[:, None], axis=1) == 1
    return keys.tolist(), unique.tolist()


class NeighborStrategy:
    """Interface shared by all neighbor-search strategies."""

    def __len__(self) -> int:
        raise NotImplementedError

    def insert(
        self,
        key: Hashable,
        point: np.ndarray,
        nearest_key: Optional[Hashable] = None,
        counter=None,
    ) -> None:
        """Add an EXP-tree node.  ``nearest_key`` is the node it was steered from."""
        raise NotImplementedError

    def nearest(self, query: np.ndarray, counter=None, exclude=None):
        """Exact nearest neighbor: ``(key, point, distance)`` or None."""
        raise NotImplementedError

    def wave_sq_distances(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Squared distances ``(len(queries), len(points))`` from each query
        to each point, in the arithmetic of this strategy's :meth:`nearest`.

        The wavefront planner builds its snapshot matrix here, so a row's
        minimum over the visible points is bitwise the distance the search
        would find.  Trees compare ``((points - query) ** 2).sum(axis=1)``
        per leaf, and each row is that expression.
        """
        return np.stack([((points - query) ** 2).sum(axis=1) for query in queries])

    def count_nearest(self, query: np.ndarray, key: Hashable, best_sq: float,
                      counter=None, exclude=None) -> bool:
        """Record what :meth:`nearest` would, when its answer is known.

        ``key`` is the unique visible point nearest to ``query``, at squared
        distance ``best_sq`` from :meth:`wave_sq_distances`.  Returns True
        when the search's counts and query metric were recorded, False when
        the strategy cannot replay them and the caller must search.
        """
        return False

    def neighborhood(
        self,
        query: np.ndarray,
        radius: float,
        nearest_key: Optional[Hashable] = None,
        counter=None,
    ) -> List[Neighbor]:
        """Neighborhood of ``query`` for choose-parent/rewire.

        Exact strategies return all nodes within ``radius``; the approximated
        SI-MBR strategy returns the stored grouping around ``nearest_key``
        instead (no tree search; scope per ``approx_scope``).  Every
        returned tuple carries the distance to ``query`` so callers never
        recompute (and never double-count) it.
        """
        raise NotImplementedError


class BruteStrategy(NeighborStrategy):
    """Linear scans over all tree nodes (the vanilla RRT\\* cost profile)."""

    def __init__(self, dim: int):
        self._index = BruteForceIndex(dim)

    def __len__(self) -> int:
        return len(self._index)

    def insert(self, key, point, nearest_key=None, counter=None) -> None:
        self._index.insert(key, point, counter=counter)

    def nearest(self, query, counter=None, exclude=None):
        _count_query("nearest", "brute")
        return self._index.nearest(query, counter=counter, exclude=exclude)

    def wave_sq_distances(self, points, queries):
        # BruteForceIndex's arithmetic: one einsum over the stacked points.
        diffs = points[None, :, :] - queries[:, None, :]
        return np.einsum("wnd,wnd->wn", diffs, diffs)

    def count_nearest(self, query, key, best_sq, counter=None, exclude=None) -> bool:
        # The scan records one ``dist`` per stored point, before exclusion.
        _count_query("nearest", "brute")
        if counter is not None and len(self._index):
            counter.record("dist", dim=self._index.dim, n=len(self._index))
        return True

    def neighborhood(self, query, radius, nearest_key=None, counter=None):
        _count_query("neighborhood", "brute")
        return self._index.neighbors_within(query, radius, counter=counter)


class KDTreeStrategy(NeighborStrategy):
    """Incremental KD-tree with optional periodic rebuilds.

    Args:
        rebuild_every: rebuild the tree after this many insertions (the
            mitigation dynamic datasets force on KD-trees, charged to the
            baseline's operation count); ``None`` disables rebuilds.
    """

    def __init__(self, dim: int, rebuild_every: Optional[int] = None):
        if rebuild_every is not None and rebuild_every < 1:
            raise ValueError("rebuild_every must be >= 1")
        self._tree = KDTree(dim)
        self._rebuild_every = rebuild_every
        self._since_rebuild = 0

    def __len__(self) -> int:
        return len(self._tree)

    def insert(self, key, point, nearest_key=None, counter=None) -> None:
        self._tree.insert(key, point, counter=counter)
        self._since_rebuild += 1
        if self._rebuild_every is not None and self._since_rebuild >= self._rebuild_every:
            self._tree.rebuild(counter=counter)
            self._since_rebuild = 0

    def nearest(self, query, counter=None, exclude=None):
        _count_query("nearest", "kd")
        return self._tree.nearest(query, counter=counter, exclude=exclude)

    def neighborhood(self, query, radius, nearest_key=None, counter=None):
        _count_query("neighborhood", "kd")
        return self._tree.neighbors_within(query, radius, counter=counter)


class SIMBRStrategy(NeighborStrategy):
    """SI-MBR-Tree strategy with the paper's two optional optimisations.

    Args:
        steering_insert: use the O(1) sibling placement (LCI) instead of the
            conventional minimum-area-enlargement descent.
        approx_neighborhood: replace the second (radius) search with the
            stored grouping around ``x_nearest`` (SIAS).
        approx_scope: ``"leaf"`` (default, paper-literal) approximates
            with the population of ``x_nearest``'s leaf — the explicitly
            represented node-C grouping of Fig 7; ``"parent"`` widens to all
            leaves under the leaf's parent, trading part of the saving for
            better path quality in low-dimensional spaces.
        capacity: leaf/node fanout; bounds the approximated neighborhood at
            ``capacity`` (leaf scope) or ``capacity**2`` (parent scope).
    """

    def __init__(
        self,
        dim: int,
        steering_insert: bool = True,
        approx_neighborhood: bool = True,
        capacity: int = 8,
        approx_scope: str = "leaf",
    ):
        self._tree = SIMBRTree(dim, capacity=capacity)
        self.steering_insert = steering_insert
        self.approx_neighborhood = approx_neighborhood
        self.approx_scope = approx_scope

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def tree(self) -> SIMBRTree:
        """The underlying SI-MBR-Tree (exposed for diagnostics/tests)."""
        return self._tree

    def insert(self, key, point, nearest_key=None, counter=None) -> None:
        sibling = nearest_key if self.steering_insert else None
        self._tree.insert(key, point, sibling_of=sibling, counter=counter)

    def nearest(self, query, counter=None, exclude=None):
        _count_query("nearest", "simbr")
        return self._tree.nearest(query, counter=counter, exclude=exclude)

    def count_nearest(self, query, key, best_sq, counter=None, exclude=None) -> bool:
        if not self._tree.count_nearest(query, key, best_sq, counter=counter,
                                        exclude=exclude):
            return False
        _count_query("nearest", "simbr")
        return True

    def neighborhood(self, query, radius, nearest_key=None, counter=None):
        if not self.approx_neighborhood or nearest_key is None:
            _count_query("neighborhood", "simbr")
            return self._tree.neighbors_within(query, radius, counter=counter)
        _count_query("neighborhood_approx", "simbr")
        # SIAS: the stored grouping around x_nearest approximates the
        # radius search around x_new.  Entries beyond the RRT* neighborhood
        # radius are dropped so choose-parent/rewire sees the same scope
        # either way (the distances are needed for the cost comparison
        # regardless).
        out: List[Neighbor] = []
        siblings = self._tree.leaf_siblings(
            nearest_key,
            counter=counter,
            scope=self.approx_scope,
            query=query,
            radius=radius,
        )
        if counter is not None and siblings:
            counter.record("dist", dim=self._tree.dim, n=len(siblings))
        for key, point in siblings:
            dist = distance(point, query)
            if dist <= radius:
                out.append((key, point, dist))
        out.sort(key=lambda item: item[2])
        return out


def make_strategy(
    name: str,
    dim: int,
    steering_insert: bool = True,
    approx_neighborhood: bool = True,
    capacity: int = 8,
    kd_rebuild_every: Optional[int] = None,
    approx_scope: str = "leaf",
) -> NeighborStrategy:
    """Factory over the strategy registry."""
    if name == "brute":
        return BruteStrategy(dim)
    if name == "kd":
        return KDTreeStrategy(dim, rebuild_every=kd_rebuild_every)
    if name == "simbr":
        return SIMBRStrategy(
            dim,
            steering_insert=steering_insert,
            approx_neighborhood=approx_neighborhood,
            capacity=capacity,
            approx_scope=approx_scope,
        )
    raise KeyError(f"unknown neighbor strategy {name!r}; available: brute, kd, simbr")
