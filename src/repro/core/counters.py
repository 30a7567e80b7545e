"""Operation counting: the MAC-level computational cost model.

Every "computational cost" axis in the paper's figures (Figs 3, 6, 8, 10,
14, 16, 19) is an amount of arithmetic work, dominated by the 16-bit
multiply-accumulate (MAC) operations the hardware datapath executes
(Section IV-A budgets 168 MAC units).  The planner layers report *events*
(one SAT check, one distance calculation, ...) to an :class:`OpCounter`,
which converts each event into MAC-equivalents using the table below and
accumulates per-category totals.

MAC cost table (per event; ``d`` is the relevant dimensionality)
----------------------------------------------------------------

``sat_obb_obb`` (3D)
    Ericson's 15-axis test: change-of-basis product ``R = A^T B`` (27 mult +
    18 add ≈ 45 MACs), |R| bias (9), frame-local translation (9 MACs + 3
    sub), 6 face-axis tests (≈4 MACs each) and 9 edge-cross tests (≈8 MACs
    each).  Total ≈ **150**.
``sat_obb_obb`` (2D)
    Analytic 4-axis variant: 2x2 basis product (8), translation (4), 4 axis
    tests (≈3 each).  Total ≈ **24**.
``sat_aabb_obb`` (3D / 2D)
    Same axis tests but no change-of-basis product and trivial projections
    on the world axes: ≈ **66 / 14** — the "much more computationally
    efficient" first-stage check of Section III-A.
``sat_aabb_aabb`` (3D / 2D)
    One comparison pair per axis: **6 / 4**.
``aabb_derive``
    Deriving a body OBB's world AABB (``|R| e`` per axis): **3 d**.
``dist``
    Squared distance + sqrt in d-dim C-space: **d + 1**.
``mindist``
    Per-dimension clamp (2 ops folded to 1 MAC-equivalent) plus square-
    accumulate: **2 d**.
``enlargement``
    Two d-term volume products plus min/max per axis: **3 d**.
``mbr_update``
    Min/max per axis: **d**.
``insert_direct``
    The steering-informed O(1) placement — a buffer write: **1**.
``split``
    Sorting/partitioning an overfull node (amortised): **4 d**.
``steer``
    Interpolation toward the sample: **d**.
``sample``
    One LFSR draw + scale per dimension: **d**.
``plane_compare``
    KD-tree splitting-plane test: **1**.
``rebuild_item``
    One item moved during a KD rebuild level: **1**.
``grid_lookup``
    CODAcc occupancy-grid voxel probe (address arithmetic): **3**.
``buffer_read`` / ``fifo_op``
    Missing-neighbor buffer / FIFO traffic: **1**.
``cost_update``
    EXP-tree path-cost add/compare during choose-parent/rewire: **2**.

The table deliberately models the *hardware datapath*, not the Python
implementation executing it, so Python-level shortcuts (vectorised scans)
do not distort the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional


@lru_cache(maxsize=None)
def mac_cost(kind: str, dim: Optional[int]) -> float:
    """MAC-equivalents for one event of ``kind`` at dimensionality ``dim``."""
    d = dim if dim is not None else 3
    table = {
        "sat_obb_obb": 150.0 if d == 3 else 24.0,
        "sat_aabb_obb": 66.0 if d == 3 else 14.0,
        "sat_aabb_aabb": 6.0 if d == 3 else 4.0,
        "aabb_derive": 3.0 * d,
        "dist": d + 1.0,
        "mindist": 2.0 * d,
        "enlargement": 3.0 * d,
        "mbr_update": float(d),
        "insert_direct": 1.0,
        "split": 4.0 * d,
        "steer": float(d),
        "sample": float(d),
        "plane_compare": 1.0,
        "rebuild_item": 1.0,
        "grid_lookup": 3.0,
        "buffer_read": 1.0,
        "fifo_op": 1.0,
        "cost_update": 2.0,
    }
    if kind not in table:
        raise KeyError(f"unknown operation kind {kind!r}")
    return table[kind]


# Category grouping used for the Fig 3 cost-breakdown plot.
CATEGORY_OF = {
    "sat_obb_obb": "collision_check",
    "sat_aabb_obb": "collision_check",
    "sat_aabb_aabb": "collision_check",
    "aabb_derive": "collision_check",
    "grid_lookup": "collision_check",
    "dist": "neighbor_search",
    "mindist": "neighbor_search",
    "plane_compare": "neighbor_search",
    "buffer_read": "neighbor_search",
    "enlargement": "tree_maintenance",
    "mbr_update": "tree_maintenance",
    "insert_direct": "tree_maintenance",
    "split": "tree_maintenance",
    "rebuild_item": "tree_maintenance",
    "sample": "other",
    "steer": "other",
    "fifo_op": "other",
    "cost_update": "other",
}


@dataclass
class OpCounter:
    """Accumulates event counts and MAC-equivalent totals per kind.

    Attributes:
        events: number of events seen per kind.
        macs: MAC-equivalents accumulated per kind.
    """

    events: Dict[str, int] = field(default_factory=dict)
    macs: Dict[str, float] = field(default_factory=dict)

    def record(self, kind: str, dim: Optional[int] = None, n: int = 1) -> None:
        """Record ``n`` events of ``kind`` at dimensionality ``dim``."""
        self.events[kind] = self.events.get(kind, 0) + n
        self.macs[kind] = self.macs.get(kind, 0.0) + n * mac_cost(kind, dim)

    @classmethod
    def of(cls, dim: Optional[int], **counts: int) -> "OpCounter":
        """Counter holding ``counts[kind]`` events of each kind at ``dim``.

        Zero counts are skipped.  Equal to recording each nonzero count
        once into a fresh counter, in argument order, in one construction.
        """
        events = {kind: n for kind, n in counts.items() if n}
        return cls(events, {kind: n * mac_cost(kind, dim) for kind, n in events.items()})

    def total_macs(self) -> float:
        """Total MAC-equivalents across all kinds."""
        return sum(self.macs.values())

    def total_events(self) -> int:
        """Total events across all kinds."""
        return sum(self.events.values())

    def macs_by_category(self) -> Dict[str, float]:
        """MAC totals grouped into the Fig 3 breakdown categories."""
        out: Dict[str, float] = {}
        for kind, macs in self.macs.items():
            category = CATEGORY_OF.get(kind, "other")
            out[category] = out.get(category, 0.0) + macs
        return out

    def category_macs(self, category: str) -> float:
        """MAC total for one breakdown category."""
        return self.macs_by_category().get(category, 0.0)

    def to_dict(self) -> Dict[str, Dict]:
        """Plain-data snapshot (``{"events": ..., "macs": ...}``).

        JSON-safe and picklable without custom logic, so service workers
        can ship op counts back across process boundaries and telemetry
        can persist them; :meth:`from_dict` is the exact inverse.
        """
        return {"events": dict(self.events), "macs": dict(self.macs)}

    @classmethod
    def from_dict(cls, data: Dict[str, Dict]) -> "OpCounter":
        """Rebuild a counter from :meth:`to_dict` output."""
        return cls(
            events={k: int(v) for k, v in data.get("events", {}).items()},
            macs={k: float(v) for k, v in data.get("macs", {}).items()},
        )

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's totals into this one."""
        for kind, n in other.events.items():
            self.events[kind] = self.events.get(kind, 0) + n
        for kind, macs in other.macs.items():
            self.macs[kind] = self.macs.get(kind, 0.0) + macs

    def snapshot(self) -> "OpCounter":
        """Independent copy of the current totals."""
        return OpCounter(events=dict(self.events), macs=dict(self.macs))

    def diff(self, earlier: "OpCounter") -> "OpCounter":
        """Counter holding the work done since ``earlier`` was snapshotted."""
        out = OpCounter()
        for kind, n in self.events.items():
            delta = n - earlier.events.get(kind, 0)
            if delta:
                out.events[kind] = delta
        for kind, macs in self.macs.items():
            delta = macs - earlier.macs.get(kind, 0.0)
            if delta:
                out.macs[kind] = delta
        return out

    def reset(self) -> None:
        """Clear all totals."""
        self.events.clear()
        self.macs.clear()
