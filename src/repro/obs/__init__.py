"""``repro.obs``: planner-wide observability — tracing, metrics, drill-down.

Three zero-dependency primitives, wired through every layer of the engine:

* :mod:`repro.obs.trace` — span tracer with a context-manager/decorator
  API, nested span trees, per-process buffers, and Chrome ``trace_event``
  JSON export (loadable in Perfetto).
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms,
  exportable as Prometheus text format and JSON, mergeable across process
  boundaries.
* :mod:`repro.obs.rca` — multi-dimensional root-cause drill-down: given
  two dumps of its one row format (or one dump split by a predicate),
  rank the attribute combinations explaining a metric delta
  (``python -m repro.obs rca``).  The service's per-request row is
  :class:`repro.service.telemetry.JobRecord`, one per settled response.

Both the tracer and the registry have process-global instances that start
*disabled*: instrumentation sites pay one attribute check and the planner's
behaviour (and throughput, to within noise) is unchanged until
:func:`configure` switches them on.  Planner phases are timed apart from
both: every run keeps one always-on :class:`PhaseRecorder` whose per-phase
seconds, calls and MACs land in the run's
:attr:`~repro.core.metrics.PlanResult.phases` (and, with metrics on, in the
``repro_phase_*`` counters).  ``python -m repro.obs report`` reads those
counters back from the exported metrics file as the per-phase cost
breakdown the paper's figures are built from.

Quickstart::

    from repro import obs

    obs.configure(trace=True, metrics=True)
    ... plan ...
    obs.get_tracer().export_chrome("trace.json")
    obs.get_registry().export("metrics.prom")
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bump,
    get_registry,
    observe,
    parse_prometheus,
    set_registry,
)
from repro.obs.rca import (
    DimensionalRecord,
    RcaFinding,
    RcaResult,
    analyze,
    load_dump,
    split_records,
)
from repro.obs.stats import axis_summary, percentile
from repro.obs.trace import (
    Tracer,
    get_tracer,
    set_tracer,
    traced,
)

#: Canonical planner phases, in loop order — the rows of the Fig-3-style
#: per-phase breakdown ``repro.obs report`` renders.
PHASES = ("sample", "speculate", "nearest", "repair", "steer", "collision", "rewire")


def configure(trace: Optional[bool] = None, metrics: Optional[bool] = None) -> None:
    """Enable/disable the global tracer and metrics registry in one call."""
    if trace is not None:
        get_tracer().enabled = bool(trace)
    if metrics is not None:
        get_registry().enabled = bool(metrics)


def observing() -> bool:
    """True when either global instrument is currently enabled."""
    return get_tracer().enabled or get_registry().enabled


def install(tracer: Tracer, registry: MetricsRegistry):
    """Swap both process globals at once; returns the previous pair.

    Service workers use this to observe one job with private instances and
    then :func:`restore` — the drained buffers ship back over the pipe.
    """
    return set_tracer(tracer), set_registry(registry)


def restore(previous) -> None:
    """Undo :func:`install` with the pair it returned."""
    set_tracer(previous[0])
    set_registry(previous[1])


class PhaseRecorder:
    """Per-run planner-phase accumulator: wall seconds, calls and MACs.

    Always on and bound to no instrument: each planner run makes one, and
    every ``with recorder.phase(name, counter): ...`` adds the phase's
    ``time.perf_counter`` seconds, one call, and the MAC-equivalents
    ``counter`` (the round's :class:`~repro.core.counters.OpCounter`)
    gained during it.  :meth:`totals` is what lands in
    :attr:`repro.core.metrics.PlanResult.phases`; the planner writes the
    ``repro_phase_*`` metrics from there once per run.
    """

    __slots__ = ("_totals", "_open")

    def __init__(self):
        #: ``{phase: [seconds, calls, macs]}``.
        self._totals: Dict[str, list] = {}
        #: ``(name, counter, macs at entry, start time)`` of open phases.
        self._open: list = []

    def phase(self, name: str, counter=None) -> "PhaseRecorder":
        """Time one phase: ``with obs.phase("collision", counter): ...``."""
        macs = counter.total_macs() if counter is not None else 0.0
        self._open.append((name, counter, macs, time.perf_counter()))
        return self

    def __enter__(self) -> "PhaseRecorder":
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        name, counter, macs, start = self._open.pop()
        self.add(name, end - start,
                 macs=counter.total_macs() - macs if counter is not None else 0.0)

    def add(self, name: str, seconds: float, calls: int = 1,
            macs: float = 0.0) -> None:
        """Add a phase measured elsewhere: ``seconds``, ``calls`` and ``macs``."""
        entry = self._totals.get(name)
        if entry is None:
            entry = self._totals[name] = [0.0, 0, 0.0]
        entry[0] += seconds
        entry[1] += calls
        entry[2] += macs

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds", "calls", "macs"}}`` of the phases that ran,
        in :data:`PHASES` order."""
        return {
            name: dict(zip(("seconds", "calls", "macs"), self._totals[name]))
            for name in PHASES if name in self._totals
        }


__all__ = [
    "Counter",
    "DimensionalRecord",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PHASES",
    "PhaseRecorder",
    "RcaFinding",
    "RcaResult",
    "Tracer",
    "analyze",
    "axis_summary",
    "bump",
    "configure",
    "get_registry",
    "get_tracer",
    "install",
    "load_dump",
    "observe",
    "observing",
    "parse_prometheus",
    "percentile",
    "restore",
    "set_registry",
    "set_tracer",
    "split_records",
    "traced",
]
