"""The EXP-tree: RRT\\*'s exploration tree with cost propagation.

The EXP-tree stores every accepted configuration (node), its parent edge,
and its cost-to-come from the start configuration.  The Tree Refinement
stage rewires edges when a cheaper route through a new node exists
(Section II-B); rewiring must propagate the cost improvement to the whole
affected subtree, which this implementation does eagerly so path costs are
always consistent (a tested invariant).

Storage is structure-of-arrays: configurations live in one preallocated,
geometrically grown ``(capacity, dim)`` matrix with parallel cost and
parent arrays, mirroring how the hardware's EXP Node SRAM lays nodes out
as dense rows.  :meth:`ExpTree.points_view` / :meth:`ExpTree.costs_view`
expose the live prefix so distance reductions over the whole tree are
single vectorised ndarray operations instead of per-node Python loops.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set

import numpy as np

from repro.geometry.motion import distance

_INITIAL_CAPACITY = 64


class ExpTree:
    """Exploration tree rooted at the start configuration.

    Node 0 is always the root.  Node ids are dense integers in insertion
    order, matching how the hardware addresses the EXP Node SRAM; the id is
    the row index into the coordinate matrix.
    """

    def __init__(self, root_config: np.ndarray):
        root = np.asarray(root_config, dtype=float)
        if root.ndim != 1:
            raise ValueError("root configuration must be 1-D")
        self.dim = root.shape[0]
        self._coords = np.empty((_INITIAL_CAPACITY, self.dim), dtype=float)
        self._cost = np.empty(_INITIAL_CAPACITY, dtype=float)
        self._parent = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._size = 0
        self._children: List[Set[int]] = []
        self._append(root, -1, 0.0)

    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> int:
        return 0

    def _append(self, point: np.ndarray, parent: int, cost: float) -> int:
        if self._size == self._cost.shape[0]:
            self._grow()
        node_id = self._size
        self._coords[node_id] = point
        self._cost[node_id] = cost
        self._parent[node_id] = parent
        self._children.append(set())
        self._size = node_id + 1
        return node_id

    def _grow(self) -> None:
        new_capacity = max(2 * self._cost.shape[0], _INITIAL_CAPACITY)
        coords = np.empty((new_capacity, self.dim), dtype=float)
        coords[: self._size] = self._coords[: self._size]
        cost = np.empty(new_capacity, dtype=float)
        cost[: self._size] = self._cost[: self._size]
        parent = np.empty(new_capacity, dtype=np.int64)
        parent[: self._size] = self._parent[: self._size]
        self._coords, self._cost, self._parent = coords, cost, parent

    def point(self, node_id: int) -> np.ndarray:
        """Configuration stored at ``node_id`` (a row view, do not mutate)."""
        return self._coords[: self._size][node_id]

    def points_view(self) -> np.ndarray:
        """All stored configurations as one ``(len(self), dim)`` view."""
        return self._coords[: self._size]

    def parent(self, node_id: int) -> Optional[int]:
        """Parent id, or None for the root."""
        parent = int(self._parent[: self._size][node_id])
        return None if parent < 0 else parent

    def cost(self, node_id: int) -> float:
        """Cost-to-come from the root."""
        return float(self._cost[: self._size][node_id])

    def costs_view(self) -> np.ndarray:
        """All cost-to-come values as one ``(len(self),)`` view."""
        return self._cost[: self._size]

    def children(self, node_id: int) -> Set[int]:
        """Ids of direct children."""
        return set(self._children[node_id])

    def add(self, point: np.ndarray, parent_id: int, edge_cost: float) -> int:
        """Append a node under ``parent_id``; returns the new node id."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {point.shape}")
        if not 0 <= parent_id < self._size:
            raise IndexError(f"parent id {parent_id} out of range")
        if edge_cost < 0:
            raise ValueError("edge cost must be non-negative")
        node_id = self._append(point, parent_id, self._cost[parent_id] + edge_cost)
        self._children[parent_id].add(node_id)
        return node_id

    def rewire(self, node_id: int, new_parent_id: int, new_edge_cost: float) -> None:
        """Reattach ``node_id`` under ``new_parent_id`` and propagate costs.

        Raises ValueError when the rewiring would create a cycle (the new
        parent is a descendant of the node), which a correct planner never
        attempts but tests and the validator guard against.
        """
        if node_id == self.root:
            raise ValueError("cannot rewire the root")
        if new_edge_cost < 0:
            raise ValueError("edge cost must be non-negative")
        if self._is_descendant(new_parent_id, of=node_id):
            raise ValueError(f"rewiring {node_id} under {new_parent_id} would create a cycle")
        old_parent = int(self._parent[node_id])
        if old_parent >= 0:
            self._children[old_parent].discard(node_id)
        self._parent[node_id] = new_parent_id
        self._children[new_parent_id].add(node_id)
        new_cost = self._cost[new_parent_id] + new_edge_cost
        delta = new_cost - self._cost[node_id]
        self._propagate_delta(node_id, delta)

    def _is_descendant(self, candidate: int, of: int) -> bool:
        if candidate == of:
            return True
        stack = [of]
        while stack:
            current = stack.pop()
            for child in self._children[current]:
                if child == candidate:
                    return True
                stack.append(child)
        return False

    def _propagate_delta(self, node_id: int, delta: float) -> None:
        stack = [node_id]
        while stack:
            current = stack.pop()
            self._cost[current] += delta
            stack.extend(self._children[current])

    def path_to(self, node_id: int) -> List[np.ndarray]:
        """Configurations from the root to ``node_id`` (inclusive)."""
        path: List[np.ndarray] = []
        current: Optional[int] = node_id
        while current is not None:
            path.append(self.point(current))
            current = self.parent(current)
        path.reverse()
        return path

    def nodes(self) -> Iterator[int]:
        """All node ids in insertion order."""
        return iter(range(self._size))

    def depth(self, node_id: int) -> int:
        """Number of edges from the root to ``node_id``."""
        depth = 0
        current = self.parent(node_id)
        while current is not None:
            depth += 1
            current = self.parent(current)
        return depth

    def validate(self) -> None:
        """Raise AssertionError when a structural invariant is broken.

        Invariants: parent/child agreement, acyclicity (every node reaches
        the root), and cost consistency (cost = parent cost + edge length).
        """
        n = self._size
        for node_id in range(1, n):
            parent = self.parent(node_id)
            assert parent is not None, f"non-root node {node_id} has no parent"
            assert node_id in self._children[parent], "parent/child mismatch"
            edge = distance(self._coords[node_id], self._coords[parent])
            expected = self._cost[parent] + edge
            assert abs(self._cost[node_id] - expected) < 1e-6, (
                f"cost inconsistency at node {node_id}: "
                f"{self._cost[node_id]} != {expected}"
            )
        # Acyclicity: walking up from every node must terminate at the root.
        for node_id in range(n):
            seen = set()
            current: Optional[int] = node_id
            while current is not None:
                assert current not in seen, f"cycle through node {current}"
                seen.add(current)
                current = self.parent(current)
            assert 0 in seen, f"node {node_id} does not reach the root"
