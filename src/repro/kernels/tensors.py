"""Stacked-ndarray views of the planner's geometric state.

The batch kernels in :mod:`repro.kernels.batch` operate on contiguous
structure-of-arrays tensors rather than per-object Python dataclasses.  This
module defines those containers and the conversions from the object world:

* :class:`ObstacleTensors` — every obstacle of an
  :class:`~repro.core.world.Environment` stacked into ``(M, d)`` centre /
  half-extent matrices, ``(M, d, d)`` rotation tensors, and the derived
  ``(M, d)`` AABB corner matrices (the AABB SRAM contents, Section IV-A).
* :class:`BodyBatch` — the robot body OBBs of one *or many* configurations
  flattened to ``(R, ...)`` rows (``R = num_configs * bodies_per_config``),
  the unit of work of the batch collision funnel.
* :class:`FlatRTree` — the obstacle R-tree's nodes exported to index-
  addressed arrays so a whole traversal's SAT tests can be evaluated in one
  stacked pass and then *replayed* exactly (same visit order, same
  early-exit points, hence bit-identical operation counts).

Everything here is precomputed once per environment / per motion check; the
hot loop only reads.  That includes every SAT operand that depends on one
fixed box only (:class:`repro.kernels.batch.BoxTerms`): the obstacles' and
the R-tree units' are built with the environment, a body batch's once per
call, and the whole-edge walk gathers them into its pair tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.geometry.aabb import AABB
from repro.kernels.batch import BoxTerms, aabb_terms, box_terms
from repro.geometry.obb import OBB
from repro.spatial.rtree import RTree


@dataclass(frozen=True)
class ObstacleTensors:
    """All obstacles of an environment as stacked ndarrays.

    Attributes:
        centers: ``(M, d)`` obstacle OBB centres.
        half_extents: ``(M, d)`` obstacle OBB half extents.
        rotations: ``(M, d, d)`` obstacle OBB rotation matrices.
        aabb_lo / aabb_hi: ``(M, d)`` corners of the derived obstacle AABBs
            (identical values to ``Environment.obstacle_aabbs``).

    Derived once per environment (never per query):

    * ``aabb_lo_t`` / ``aabb_hi_t``: ``(d, M)`` transposed AABB corners, the
      fixed side of the AABB interval grid;
    * ``terms``: the obstacle OBBs' :class:`~repro.kernels.batch.BoxTerms`;
    * ``aabb_terms``: the obstacle AABBs' (identity-frame) box terms.
    """

    centers: np.ndarray
    half_extents: np.ndarray
    rotations: np.ndarray
    aabb_lo: np.ndarray
    aabb_hi: np.ndarray
    aabb_lo_t: np.ndarray = field(init=False, repr=False)
    aabb_hi_t: np.ndarray = field(init=False, repr=False)
    terms: BoxTerms = field(init=False, repr=False)
    aabb_terms: BoxTerms = field(init=False, repr=False)

    def __post_init__(self) -> None:
        derived = dict(
            aabb_lo_t=np.ascontiguousarray(self.aabb_lo.T),
            aabb_hi_t=np.ascontiguousarray(self.aabb_hi.T),
            terms=box_terms(self.centers, self.half_extents, self.rotations),
            aabb_terms=aabb_terms(self.aabb_lo, self.aabb_hi),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @staticmethod
    def from_obbs(obstacles: Sequence[OBB], aabbs: Optional[Sequence[AABB]] = None,
                  dim: Optional[int] = None) -> "ObstacleTensors":
        """Stack obstacle OBBs (and their derived AABBs) into tensors.

        Args:
            obstacles: the environment's obstacle OBBs.
            aabbs: the already-derived AABBs; passed through verbatim so the
                tensor values match ``Environment.obstacle_aabbs`` exactly.
                Derived from the OBBs when omitted.
            dim: workspace dimension, required when ``obstacles`` is empty.
        """
        if not obstacles:
            if dim is None:
                raise ValueError("dim is required for an empty obstacle set")
            empty = np.empty((0, dim))
            return ObstacleTensors(
                centers=empty,
                half_extents=empty.copy(),
                rotations=np.empty((0, dim, dim)),
                aabb_lo=empty.copy(),
                aabb_hi=empty.copy(),
            )
        if aabbs is None:
            aabbs = [obb.to_aabb() for obb in obstacles]
        return ObstacleTensors(
            centers=np.stack([obb.center for obb in obstacles]),
            half_extents=np.stack([obb.half_extents for obb in obstacles]),
            rotations=np.stack([obb.rotation for obb in obstacles]),
            aabb_lo=np.stack([box.lo for box in aabbs]),
            aabb_hi=np.stack([box.hi for box in aabbs]),
        )


@dataclass(frozen=True)
class BodyBatch:
    """Robot body OBBs for a batch of configurations, flattened to rows.

    Row ``r`` holds body ``r % bodies_per_config`` of configuration
    ``r // bodies_per_config`` — the same (config, body) iteration order as
    the scalar checker's nested loops, which is what lets the replay step
    reproduce its operation counts exactly.
    """

    centers: np.ndarray        # (R, d)
    half_extents: np.ndarray   # (R, d)
    rotations: np.ndarray      # (R, d, d)
    num_configs: int
    bodies_per_config: int
    # Per-row derived operands (world AABB corners, SAT box terms), each
    # computed on first use.
    _derived: dict = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def aabb_corners(self):
        """World AABB corners ``(lo, hi)`` of every row, derived once.

        Uses the same arithmetic as :meth:`repro.geometry.obb.OBB.to_aabb`
        (``world_half_i = sum_j |R[i, j]| e_j``) so corner values are
        identical to the scalar path's.
        """
        corners = self._derived.get("aabb")
        if corners is None:
            # Stacked matmul runs the scalar path's ``|R| @ e`` kernel per
            # slice, so the corner values are bit-identical to ``to_aabb``.
            world_half = (np.abs(self.rotations) @ self.half_extents[..., None])[..., 0]
            corners = self._derived["aabb"] = (
                self.centers - world_half, self.centers + world_half
            )
        return corners

    def terms(self) -> BoxTerms:
        """Every row's SAT box terms (:func:`repro.kernels.batch.box_terms`),
        computed once and shared by the first and second stage."""
        terms = self._derived.get("terms")
        if terms is None:
            terms = self._derived["terms"] = box_terms(
                self.centers, self.half_extents, self.rotations
            )
        return terms

    def row_obb(self, row: int) -> OBB:
        """Materialise one row back into an :class:`OBB` (diagnostics)."""
        return OBB(self.centers[row], self.half_extents[row], self.rotations[row])

    @staticmethod
    def from_obbs(obbs: Sequence[OBB], num_configs: int = 1) -> "BodyBatch":
        """Stack a flat list of OBBs (row-major in (config, body) order)."""
        if not obbs:
            raise ValueError("need at least one body OBB")
        if len(obbs) % num_configs:
            raise ValueError("len(obbs) must be a multiple of num_configs")
        return BodyBatch(
            centers=np.stack([o.center for o in obbs]),
            half_extents=np.stack([o.half_extents for o in obbs]),
            rotations=np.stack([o.rotation for o in obbs]),
            num_configs=num_configs,
            bodies_per_config=len(obbs) // num_configs,
        )

    @staticmethod
    def from_frames(centers: np.ndarray, half_extents: np.ndarray,
                    rotations: np.ndarray) -> "BodyBatch":
        """Build from ``(k, B, ...)`` frame tensors (batch forward kinematics).

        The rows are reshaped views where the layout allows; forward
        kinematics returns contiguous half extents and rotations, the
        operands of the world-AABB matmul.
        """
        k, b, d = centers.shape
        return BodyBatch(
            centers=centers.reshape(k * b, d),
            half_extents=half_extents.reshape(k * b, d),
            rotations=rotations.reshape(k * b, d, d),
            num_configs=k,
            bodies_per_config=b,
        )


@dataclass(frozen=True)
class FlatRTree:
    """Index-addressed export of a static :class:`~repro.spatial.rtree.RTree`.

    The traversal *units* a query touches are the node MBRs followed by the
    leaf entry boxes: unit ``u < num_nodes`` is node ``u`` (root is unit 0),
    unit ``num_nodes + i`` is obstacle ``i``'s AABB.  ``unit_lo`` /
    ``unit_hi`` stack all of them so one kernel call covers every box the
    scalar traversal could possibly test, and :meth:`batch_query_counts`
    replays ``RTree.query_obb``'s counts over the resulting masks.
    """

    unit_lo: np.ndarray            # (U, d) = nodes then entry boxes
    unit_hi: np.ndarray            # (U, d)
    children: tuple                # children[n] = tuple of child node ids
    entries: tuple                 # entries[n] = tuple of obstacle indices
    num_nodes: int
    # Static traversal structure, precomputed so a whole batch of queries
    # can replay counts with ndarray reductions instead of per-row walks:
    parents: np.ndarray            # (N,) parent node id, -1 for the root
    entry_leaf: np.ndarray         # (M,) leaf node id holding each obstacle
    entry_order: np.ndarray        # (M,) obstacle ids in full-traversal order
    entry_rank: np.ndarray         # (M,) each obstacle's place in entry_order
    # unit_path[:, u] = the nodes that must pass for unit u to be tested:
    # a node's proper ancestors, an entry's leaf and its ancestors (padded
    # by repeating one of them; the root's column is ignored).
    unit_path: np.ndarray          # (height, U)
    # Stage-1 operands of the fixed unit boxes, built with the tree:
    unit_lo_t: np.ndarray          # (d, U) transposed corners (AABB grid)
    unit_hi_t: np.ndarray          # (d, U)
    unit_terms: BoxTerms           # identity-frame SAT terms of every unit

    @property
    def num_units(self) -> int:
        return self.unit_lo.shape[0]

    def entry_unit(self, obstacle_index: int) -> int:
        """Unit index of obstacle ``obstacle_index``'s AABB."""
        return self.num_nodes + obstacle_index

    @staticmethod
    def from_rtree(rtree: RTree) -> "FlatRTree":
        """Export an R-tree's nodes and leaf entry boxes."""
        lo_rows, hi_rows, children, entries = rtree.export_nodes()
        num_nodes = len(children)
        num_entries = sum(len(e) for e in entries)
        parents = np.full(num_nodes, -1, dtype=np.intp)
        entry_leaf = np.zeros(num_entries, dtype=np.intp)
        for node, kids in enumerate(children):
            for kid in kids:
                parents[kid] = node
        for node, node_entries in enumerate(entries):
            for idx in node_entries:
                entry_leaf[idx] = node
        # Obstacle visit order of a prune-free query_obb traversal.  Masks
        # only remove visits, never reorder them, so every query's candidate
        # order is this sequence filtered by the candidate mask.
        order: List[int] = []
        stack = [0] if num_nodes else []
        while stack:
            node = stack.pop()
            kids = children[node]
            if kids:
                stack.extend(kids)
            else:
                order.extend(entries[node])
        entry_rank = np.empty(num_entries, dtype=np.intp)
        entry_rank[order] = np.arange(num_entries)

        def ancestors(node: int) -> List[int]:
            path = []
            while parents[node] >= 0:
                node = int(parents[node])
                path.append(node)
            return path

        paths = [ancestors(node) or [0] for node in range(num_nodes)]
        paths += [[int(leaf)] + ancestors(int(leaf)) for leaf in entry_leaf]
        height = max((len(path) for path in paths), default=1)
        unit_path = np.array(
            [path + path[:1] * (height - len(path)) for path in paths],
            dtype=np.intp,
        ).T.reshape(height, len(paths))
        unit_lo = np.asarray(lo_rows, dtype=float)
        unit_hi = np.asarray(hi_rows, dtype=float)
        return FlatRTree(
            unit_lo=unit_lo,
            unit_hi=unit_hi,
            children=tuple(tuple(c) for c in children),
            entries=tuple(tuple(e) for e in entries),
            num_nodes=num_nodes,
            parents=parents,
            entry_leaf=entry_leaf,
            entry_order=np.asarray(order, dtype=np.intp),
            entry_rank=entry_rank,
            unit_path=unit_path,
            unit_lo_t=np.ascontiguousarray(unit_lo.T),
            unit_hi_t=np.ascontiguousarray(unit_hi.T),
            unit_terms=aabb_terms(unit_lo, unit_hi),
        )

    def batch_query_counts(self, aabb_mask: np.ndarray, passed: np.ndarray):
        """Traversal statistics for a whole batch of queries at once.

        Args:
            aabb_mask: ``(R, U)`` AABB-AABB prefilter results of every query
                row against every unit.
            passed: ``(R, U)`` units passing both stage-1 tests: the
                AABB-OBB SAT result where ``aabb_mask`` holds, False
                elsewhere (the scalar short-circuit).

        Returns ``(counts, candidates)``.  ``counts`` is ``(3, R + 1)``
        int64: per row, the AABB-AABB tests, the AABB-OBB tests and the
        surviving candidates of a scalar ``query_obb`` traversal, with a
        zero last column (the form
        :func:`~repro.kernels.batch.segment_sums` reads).  ``candidates``
        is the ``(R, M)`` mask of entries reaching the second stage.  A
        unit is tested iff every node on its :attr:`unit_path` passes, so
        the replay is one gather per tree level.
        """
        rows, n = len(aabb_mask), self.num_nodes
        # flags[k, r, u]: unit u adds to row r's count k.
        flags = np.zeros((3, rows + 1, aabb_mask.shape[1]), dtype=bool)
        tested = flags[0, :rows]
        tested[...] = passed.take(self.unit_path[0], axis=1)
        for level in self.unit_path[1:]:
            tested &= passed.take(level, axis=1)
        tested[:, 0] = True
        np.logical_and(tested, aabb_mask, out=flags[1, :rows])
        np.logical_and(tested, passed, out=flags[2, :rows])
        flags[2, :, :n] = False        # nodes pass on; only entries survive
        return np.add.reduce(flags, axis=2), flags[2, :rows, n:]
