"""Planner results and round-level telemetry.

Besides the usual planning outputs (success, path, path cost), every planner
run records a :class:`RoundRecord` per sampling round with the MAC load each
hardware unit would carry that round.  The hardware pipeline model
(:mod:`repro.hardware.pipeline`) replays these records to compute serialized
vs speculate-and-repair latencies (Section IV-B), and the missing-neighbor
telemetry sizes the FIFO / Missing Neighbors Buffer (0.75 KB claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.counters import OpCounter


@dataclass(frozen=True)
class RoundRecord:
    """Per-sampling-round unit loads in MAC-equivalents.

    Attributes:
        ns_macs: neighbor-search component load (dist/MINDIST/KD ops).
        cc_macs: collision-checker load (SAT/grid ops).
        maint_macs: SI-MBR-Tree operator load (insertion, splits, MBR).
        other_macs: sampling, steering, cost updates, buffer traffic.
        accepted: whether the round inserted a node into the EXP-tree.
        missing_used: entries read from the missing-neighbors buffer during
            the repair step (speculative mode only).
        repaired: whether the repair step changed the speculated nearest
            neighbor.
        wave_width: width of the wave this round was committed in (1 for
            a one-sample wave).
        repaired_in_wave: the round's speculative wave result was discarded
            at commit time (an intra-wave conflict forced a scalar redo) —
            the wave-lane equivalent of a pipeline bubble.
    """

    ns_macs: float
    cc_macs: float
    maint_macs: float
    other_macs: float
    accepted: bool
    missing_used: int = 0
    repaired: bool = False
    #: Per-kind event counts of the round (one SAT check, one MINDIST, ...);
    #: consumed by the memory bank-conflict model (Section IV-C).
    events: Optional[Dict[str, int]] = None
    wave_width: int = 1
    repaired_in_wave: bool = False

    @property
    def total_macs(self) -> float:
        return self.ns_macs + self.cc_macs + self.maint_macs + self.other_macs

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe archival form; inverse of :meth:`from_dict`."""
        return {
            "ns_macs": self.ns_macs,
            "cc_macs": self.cc_macs,
            "maint_macs": self.maint_macs,
            "other_macs": self.other_macs,
            "accepted": self.accepted,
            "missing_used": self.missing_used,
            "repaired": self.repaired,
            "events": dict(self.events) if self.events is not None else None,
            "wave_width": self.wave_width,
            "repaired_in_wave": self.repaired_in_wave,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RoundRecord":
        """Rebuild a record saved by :meth:`to_dict`."""
        events = data.get("events")
        return cls(
            ns_macs=float(data["ns_macs"]),
            cc_macs=float(data["cc_macs"]),
            maint_macs=float(data["maint_macs"]),
            other_macs=float(data["other_macs"]),
            accepted=bool(data["accepted"]),
            missing_used=int(data.get("missing_used", 0)),
            repaired=bool(data.get("repaired", False)),
            events=dict(events) if events is not None else None,
            wave_width=int(data.get("wave_width", 1)),
            repaired_in_wave=bool(data.get("repaired_in_wave", False)),
        )


def wave_occupancy(rounds: List["RoundRecord"]) -> Optional[float]:
    """Fraction of wave-committed rounds whose speculation was usable.

    Rounds with ``wave_width > 1`` are the wave lanes; a lane counts as
    occupied when its speculative result survived to commit
    (``repaired_in_wave`` False).  Returns None when no wave rounds exist
    (scalar runs), keeping the telemetry field JSON-safe.
    """
    wave_rounds = [r for r in rounds if r.wave_width > 1]
    if not wave_rounds:
        return None
    useful = sum(1 for r in wave_rounds if not r.repaired_in_wave)
    return useful / len(wave_rounds)


@dataclass
class PlanResult:
    """Outcome of one planning run."""

    success: bool
    path: List[np.ndarray]
    path_cost: float
    num_nodes: int
    iterations: int
    counter: OpCounter
    rounds: List[RoundRecord] = field(default_factory=list)
    goal_node: Optional[int] = None
    first_solution_iteration: Optional[int] = None
    #: MACs spent in the second (neighborhood) search of each round — the
    #: operation SIAS eliminates (Fig 8 right measures exactly this).
    neighborhood_macs: float = 0.0
    #: Anytime-convergence telemetry: (iteration, best path cost) pairs
    #: recorded whenever the best known solution improved.  The Tree
    #: Refinement stage keeps improving the solution after it is first
    #: found — the error-tolerance argument of Section III-B.
    cost_history: List[tuple] = field(default_factory=list)
    #: ``"complete"`` when the full sampling budget ran; ``"degraded"``
    #: when a deadline or op budget expired first and the result is the
    #: best found so far (anytime planning).
    status: str = "complete"
    #: Why the run degraded (``"deadline"`` / ``"op_budget"``), or None.
    degraded_reason: Optional[str] = None
    #: C-space distance from the path's final waypoint to the goal: 0.0
    #: for solved runs, the remaining gap for a degraded prefix path, and
    #: None when no path at all was produced.
    best_goal_distance: Optional[float] = None
    #: Per-planner-phase ``{phase: {"seconds", "calls", "macs"}}`` from the
    #: run's :class:`~repro.obs.PhaseRecorder`.  Holds wall times, so it is
    #: left out of equality, :meth:`brief` and archival.
    phases: Dict[str, Dict[str, float]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def total_macs(self) -> float:
        """Total MAC-equivalents the run consumed."""
        return self.counter.total_macs()

    def brief(self) -> Dict[str, object]:
        """Plain-data outcome summary (no arrays, no counter object).

        The transport-friendly core of the result: everything scalar a
        service or log line needs, with non-finite costs mapped to None so
        the dict is JSON-safe.  Paths and round records are deliberately
        excluded — use :func:`repro.io.result_to_dict` for full archival.
        """
        cost = float(self.path_cost)
        return {
            "success": self.success,
            "path_cost": cost if np.isfinite(cost) else None,
            "num_nodes": self.num_nodes,
            "iterations": self.iterations,
            "first_solution_iteration": self.first_solution_iteration,
            "total_macs": self.total_macs,
            "wave_occupancy": wave_occupancy(self.rounds),
            "status": self.status,
            "degraded_reason": self.degraded_reason,
            "best_goal_distance": self.best_goal_distance,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "success" if self.success else "failure"
        if self.degraded:
            status += f" (degraded: {self.degraded_reason})"
        return (
            f"{status}: cost={self.path_cost:.2f} nodes={self.num_nodes} "
            f"iters={self.iterations} macs={self.total_macs:.3g}"
        )


def path_length(path: List[np.ndarray]) -> float:
    """Total C-space length of a waypoint path."""
    if len(path) < 2:
        return 0.0
    return float(
        sum(np.linalg.norm(b - a) for a, b in zip(path[:-1], path[1:]))
    )
