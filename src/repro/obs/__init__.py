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
:func:`configure` switches them on.  ``python -m repro.obs report`` merges
the exported files back into the per-phase cost breakdown the paper's
figures are built from.

Quickstart::

    from repro import obs

    obs.configure(trace=True, metrics=True)
    ... plan ...
    obs.get_tracer().export_chrome("trace.json")
    obs.get_registry().export("metrics.prom")
"""

from __future__ import annotations

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
    aggregate_spans,
    get_tracer,
    set_tracer,
    traced,
)

#: Canonical planner phases, in loop order — the rows of the Fig-3-style
#: per-phase breakdown ``repro.obs report`` renders.
PHASES = ("sample", "nearest", "repair", "steer", "collision", "rewire")


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
    """Per-phase instrumentation front end for the planner loop.

    Binds the global tracer and registry once; each :meth:`phase` call then
    opens a span *and* accumulates per-phase wall time / MAC counters, or —
    when both instruments are off — returns a shared no-op context manager
    so the hot loop's overhead is one attribute check per phase.
    """

    __slots__ = ("tracer", "registry", "active", "_seconds", "_macs", "_calls")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else get_tracer()
        self.registry = registry if registry is not None else get_registry()
        self.active = self.tracer.enabled or self.registry.enabled
        if self.registry.enabled:
            self._seconds = self.registry.counter(
                "repro_phase_seconds_total", "Wall seconds spent per planner phase"
            )
            self._macs = self.registry.counter(
                "repro_phase_macs_total", "MAC-equivalents accumulated per planner phase"
            )
            self._calls = self.registry.counter(
                "repro_phase_calls_total", "Times each planner phase executed"
            )
        else:
            self._seconds = self._macs = self._calls = None

    def phase(self, name: str, counter=None, **args):
        """Observe one phase: ``with obs.phase("collision", counter): ...``.

        ``counter`` is the run's :class:`~repro.core.counters.OpCounter`;
        when given, the MAC-equivalents recorded during the phase are
        attributed to it in the ``repro_phase_macs_total`` counter.
        """
        if not self.active:
            return _NULL_PHASE
        return _Phase(self, name, counter, args)


class _NullPhase:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_PHASE = _NullPhase()


class _Phase:
    __slots__ = ("recorder", "name", "counter", "args", "_t0", "_m0")

    def __init__(self, recorder: PhaseRecorder, name: str, counter, args: Dict):
        self.recorder = recorder
        self.name = name
        self.counter = counter
        self.args = args

    def __enter__(self):
        rec = self.recorder
        # The tracer's clock serves both instruments (it exists even when
        # span recording is off), so metrics-only mode still times phases.
        self._t0 = rec.tracer.now()
        if self.counter is not None and rec._macs is not None:
            self._m0 = self.counter.total_macs()
        else:
            self._m0 = None
        if rec.tracer.enabled:
            rec.tracer._depth += 1
        return self

    def __exit__(self, *exc):
        rec = self.recorder
        tracer = rec.tracer
        if tracer.enabled:
            t1 = tracer.now()
            tracer._depth -= 1
            tracer._append(self.name, self._t0, t1 - self._t0, tracer._depth, self.args)
            elapsed = t1 - self._t0
        else:
            elapsed = None
        if rec._seconds is not None:
            if elapsed is None:
                elapsed = tracer.now() - self._t0
            rec._seconds.inc(elapsed, phase=self.name)
            rec._calls.inc(1.0, phase=self.name)
            if self._m0 is not None:
                delta = self.counter.total_macs() - self._m0
                if delta:
                    rec._macs.inc(delta, phase=self.name)


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
    "aggregate_spans",
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
