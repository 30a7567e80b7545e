"""Span-based tracing with Chrome ``trace_event`` export.

A :class:`Tracer` collects *spans* — named, nested time intervals — into a
per-process buffer.  Instrumentation sites open spans with the context
manager (``with tracer.span("wave"): ...``) or the :func:`traced`
decorator; when the tracer is disabled both collapse to a shared no-op
object, so a dormant site pays one attribute check and allocates
nothing.

Spans are stored as plain dicts (JSON- and pickle-safe), which is what lets
service workers :meth:`~Tracer.drain` their buffers and ship them back over
a ``multiprocessing`` pipe for the supervisor to :meth:`~Tracer.absorb`.
:meth:`Tracer.export_chrome` renders the buffer as Chrome ``trace_event``
JSON (complete ``"X"`` events), which Perfetto and ``chrome://tracing``
load directly.  Timestamps are relative to each tracer's creation, so spans
absorbed from another process share that process's timebase and appear on
its own ``pid`` track.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from functools import wraps
from typing import Callable, Dict, Iterable, List, Optional


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one interval into its tracer's buffer."""

    __slots__ = ("tracer", "name", "args", "t0")

    def __init__(self, tracer: "Tracer", name: str, args: Dict):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self.t0 = self.tracer.now()
        self.tracer._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        t1 = tracer.now()
        tracer._depth -= 1
        tracer._append(self.name, self.t0, t1 - self.t0, tracer._depth, self.args)


class Tracer:
    """Per-process span buffer with near-zero cost when disabled.

    Args:
        enabled: record spans; when False, :meth:`span` returns a shared
            no-op context manager.
        clock: monotonic time source (injectable for deterministic tests).
        pid: process id stamped on spans (defaults to ``os.getpid()``).
        process_name: label for the Chrome-trace process track.
    """

    __slots__ = ("enabled", "spans", "pid", "process_name", "_clock", "_epoch", "_depth")

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        pid: Optional[int] = None,
        process_name: str = "repro",
    ):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self.pid = os.getpid() if pid is None else pid
        self.process_name = process_name
        self._clock = clock
        self._epoch = clock()
        self._depth = 0

    # ------------------------------------------------------------- recording

    def now(self) -> float:
        """Seconds since this tracer was created (its span timebase)."""
        return self._clock() - self._epoch

    def span(self, name: str, **args):
        """Open a span; use as ``with tracer.span("phase"): ...``.

        ``args`` must be JSON-safe; they land in the Chrome event's ``args``
        field and are the hook for correlation ids (job id, request id).
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, args)

    def span_at(self, name: str, start: float, end: float, **args) -> None:
        """Record an interval measured externally on this tracer's clock.

        ``start``/``end`` come from earlier :meth:`now` calls — the pool
        supervisor uses this to emit job-level spans whose endpoints were
        stamped inside its dispatch loop.
        """
        if not self.enabled:
            return
        self._append(name, start, max(0.0, end - start), self._depth, args)

    def _append(self, name: str, ts: float, dur: float, depth: int, args: Dict) -> None:
        self.spans.append(
            {
                "name": name,
                "ts": ts,
                "dur": dur,
                "pid": self.pid,
                "tid": 0,
                "depth": depth,
                "args": dict(args) if args else {},
            }
        )

    # ------------------------------------------------------- buffer shipping

    def drain(self) -> List[Dict]:
        """Detach and return the buffered spans (the buffer empties)."""
        spans, self.spans = self.spans, []
        return spans

    def absorb(self, spans: Iterable[Dict], **extra_args) -> None:
        """Fold spans drained from another tracer into this buffer.

        ``extra_args`` are merged into each span's ``args`` — the supervisor
        tags worker spans with the job id they ran under.  Spans keep their
        original ``pid``/timebase, so each worker gets its own trace track.
        """
        for span in spans:
            merged = dict(span)
            if extra_args:
                merged["args"] = {**merged.get("args", {}), **extra_args}
            self.spans.append(merged)

    def reset(self) -> None:
        """Discard buffered spans and restart the timebase."""
        self.spans.clear()
        self._epoch = self._clock()
        self._depth = 0

    # --------------------------------------------------------------- export

    def to_chrome(self) -> Dict:
        """Chrome ``trace_event`` document (``{"traceEvents": [...]}``)."""
        events: List[Dict] = []
        names = {}
        for span in sorted(self.spans, key=lambda s: (s["pid"], s["ts"])):
            names.setdefault(span["pid"], self.process_name)
            events.append(
                {
                    "name": span["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(span["ts"] * 1e6, 3),
                    "dur": round(span["dur"] * 1e6, 3),
                    "pid": span["pid"],
                    "tid": span.get("tid", 0),
                    "args": span.get("args", {}),
                }
            )
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label if pid == self.pid else f"{label}-worker-{pid}"},
            }
            for pid, label in sorted(names.items())
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def export_chrome(self, path) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        pathlib.Path(path).write_text(json.dumps(self.to_chrome(), indent=1))


def traced(name: Optional[str] = None, **span_args):
    """Decorator tracing every call of the wrapped function as one span."""

    def decorate(fn):
        label = name if name is not None else fn.__qualname__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = get_tracer()
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(label, **span_args):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


#: Process-global tracer instrumentation sites record into.  Disabled by
#: default so untraced runs pay only the ``enabled`` check.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process global; returns the previous one."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous
