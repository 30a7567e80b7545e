"""Merge exported trace/metrics files into a per-phase breakdown.

``python -m repro.obs report`` is the offline half of the observability
layer: given the Prometheus (or JSON) metrics file and/or Chrome-trace JSON
a run produced, it reconstructs the paper's Fig-3-style cost split — per
planner phase (sample / nearest / steer / collision / rewire / repair),
wall time, calls and MAC-equivalents from the ``repro_phase_*`` counters
the planners write once per run, plus the per-category MAC table.  The
trace contributes its span totals (``plan``, ``wave``, ``job``, ...).

Everything here reads the *exported* artifacts, so reports can be built on
a different machine (or much later) than the run that produced them.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import PHASES
from repro.obs.metrics import parse_prometheus


# ------------------------------------------------------------------ loading


def load_trace(path) -> List[Dict]:
    """Complete ("X") events from a Chrome ``trace_event`` JSON file."""
    data = json.loads(pathlib.Path(path).read_text())
    events = data.get("traceEvents", data if isinstance(data, list) else [])
    return [e for e in events if e.get("ph") == "X"]


def load_metrics(path) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Metric series from a ``.prom`` text or ``.json`` registry export."""
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix != ".json":
        return parse_prometheus(text)
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for entry in json.loads(text).get("metrics", []):
        name = entry["name"]
        if entry["type"] == "histogram":
            out[f"{name}_sum"] = [
                (dict(row["labels"]), float(row["sum"])) for row in entry["series"]
            ]
            out[f"{name}_count"] = [
                (dict(row["labels"]), float(row["count"])) for row in entry["series"]
            ]
        else:
            out[name] = [
                (dict(row["labels"]), float(row["value"])) for row in entry["series"]
            ]
    return out


def _label_map(
    series: List[Tuple[Dict[str, str], float]], label: str
) -> Dict[str, float]:
    """Collapse one metric's series to ``{label_value: summed value}``."""
    out: Dict[str, float] = {}
    for labels, value in series:
        key = labels.get(label)
        if key is not None:
            out[key] = out.get(key, 0.0) + value
    return out


# ----------------------------------------------------------------- building


def build_report(
    trace_events: Optional[List[Dict]] = None,
    metrics: Optional[Dict[str, List[Tuple[Dict[str, str], float]]]] = None,
) -> Dict:
    """Merge loaded artifacts into one plain-data report structure."""
    metrics = metrics or {}
    spans: Dict[str, Dict[str, float]] = {}
    for event in trace_events or []:
        entry = spans.setdefault(event.get("name", "?"), {"calls": 0, "total_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += float(event.get("dur", 0.0)) / 1e6

    phase_time = _label_map(metrics.get("repro_phase_seconds_total", []), "phase")
    phase_calls = _label_map(metrics.get("repro_phase_calls_total", []), "phase")
    phase_macs = _label_map(metrics.get("repro_phase_macs_total", []), "phase")
    total_time = sum(phase_time.values())
    total_macs = sum(phase_macs.values())
    phases = []
    for name in PHASES:
        if name not in phase_time and name not in phase_macs:
            continue
        seconds = phase_time.get(name, 0.0)
        calls = int(phase_calls.get(name, 0))
        macs = phase_macs.get(name, 0.0)
        phases.append(
            {
                "phase": name,
                "calls": calls,
                "total_ms": seconds * 1e3,
                "mean_us": (seconds / calls * 1e6) if calls else 0.0,
                "time_pct": (100.0 * seconds / total_time) if total_time else 0.0,
                "macs": macs,
                "mac_pct": (100.0 * macs / total_macs) if total_macs else 0.0,
            }
        )

    # Software-cache effectiveness (the request-level plan cache as
    # ``plan`` and the network shard tier as ``plan_shard``): fold the
    # (cache, event) series into per-cache hit/miss/evict totals.
    caches: Dict[str, Dict[str, float]] = {}
    for labels, value in metrics.get("repro_cache_events_total", []):
        name = labels.get("cache")
        event = labels.get("event")
        if name is None or event not in ("hit", "miss", "evict"):
            continue
        entry = caches.setdefault(name, {"hit": 0.0, "miss": 0.0, "evict": 0.0})
        entry[event] += value
    for entry in caches.values():
        lookups = entry["hit"] + entry["miss"]
        entry["hit_rate"] = (entry["hit"] / lookups) if lookups else 0.0

    # Whole-edge validation: motion queries, which execution path served
    # them (edge_kernel / scalar), the wavefront's batched
    # choose-parent/rewire edges by commit outcome (replayed / fallback /
    # unused), and the mean interpolation-ladder length from the per-edge
    # histogram.
    edge_paths = dict(sorted(_label_map(
        metrics.get("repro_cc_edge_validations_total", []), "path"
    ).items()))
    extend_edges = dict(sorted(_label_map(
        metrics.get("repro_cc_extend_edges_total", []), "outcome"
    ).items()))
    ladder_sum = sum(v for _, v in metrics.get("repro_cc_edge_ladder_steps_sum", []))
    ladder_count = sum(v for _, v in metrics.get("repro_cc_edge_ladder_steps_count", []))
    motion_checks = sum(v for _, v in metrics.get("repro_cc_motion_checks_total", []))
    edge_validation: Dict[str, object] = {
        "motion_checks": motion_checks,
        "by_path": edge_paths,
        "extend_edges": extend_edges,
        "ladder_steps_mean": (ladder_sum / ladder_count) if ladder_count else 0.0,
        "ladders_observed": ladder_count,
    }

    report: Dict[str, object] = {
        "phases": phases,
        "edge_validation": edge_validation,
        "phase_time_s": total_time,
        "phase_macs": total_macs,
        "spans": dict(
            sorted(spans.items(), key=lambda kv: -kv[1]["total_s"])
        ),
        "categories": _label_map(metrics.get("repro_macs_total", []), "category"),
        "caches": dict(sorted(caches.items())),
        # Worker-pool fault/retry/breaker events: the counters the pool
        # bumps as ``repro_service_faults_total{event=...}`` (retries,
        # crashes, timeouts, poisoned dead-letters, breaker trips, ...).
        "service_faults": dict(sorted(_label_map(
            metrics.get("repro_service_faults_total", []), "event"
        ).items())),
        # Portfolio race outcomes: wins per (planner, robot) from
        # ``repro_portfolio_wins_total`` — the series the learned
        # ``portfolio=("auto",)`` default is trained on.
        "portfolio_wins": sorted(
            (
                {
                    "planner": labels.get("planner", "?"),
                    "robot": labels.get("robot", "?"),
                    "wins": value,
                }
                for labels, value in metrics.get(
                    "repro_portfolio_wins_total", []
                )
            ),
            key=lambda row: (-row["wins"], row["planner"], row["robot"]),
        ),
        # Durability: write-ahead journal traffic by record kind, what
        # crash recovery did with the admits it found, and how often the
        # replicated shard tier served a read from a replica after the
        # primary died.
        "durability": {
            "journal_records": dict(sorted(_label_map(
                metrics.get("repro_journal_records_total", []), "kind"
            ).items())),
            "recovery": dict(sorted(_label_map(
                metrics.get("repro_recovery_replayed_total", []), "outcome"
            ).items())),
            "shard_failovers": sum(
                v for _, v in metrics.get("repro_shard_failovers_total", [])
            ),
        },
    }
    return report


# ---------------------------------------------------------------- rendering


def _format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    rendered = [
        ["{:.3g}".format(c) if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_report(report: Dict) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    blocks: List[str] = []
    phases = report["phases"]
    if phases:
        rows = [
            [
                p["phase"],
                p["calls"],
                p["total_ms"],
                p["mean_us"],
                p["time_pct"],
                p["macs"],
                p["mac_pct"],
            ]
            for p in phases
        ]
        blocks.append(
            "per-phase breakdown\n"
            + _format_table(
                ["phase", "calls", "total_ms", "mean_us", "time_%", "macs", "mac_%"],
                rows,
            )
        )
        blocks.append(
            f"phase time: {report['phase_time_s'] * 1e3:.3f} ms   "
            f"phase MACs: {report['phase_macs']:.4g}"
        )
    else:
        blocks.append("no per-phase data (was the run exported with --metrics?)")

    categories = report.get("categories") or {}
    if categories:
        total = sum(categories.values()) or 1.0
        rows = [
            [name, macs, 100.0 * macs / total]
            for name, macs in sorted(categories.items(), key=lambda kv: -kv[1])
        ]
        blocks.append(
            "MACs by category\n"
            + _format_table(["category", "macs", "mac_%"], rows)
        )

    caches = report.get("caches") or {}
    if caches:
        rows = [
            [
                name,
                int(entry["hit"]),
                int(entry["miss"]),
                int(entry["evict"]),
                100.0 * entry["hit_rate"],
            ]
            for name, entry in caches.items()
        ]
        blocks.append(
            "software caches\n"
            + _format_table(["cache", "hits", "misses", "evicts", "hit_%"], rows)
        )

    edge = report.get("edge_validation") or {}
    if edge.get("motion_checks") or edge.get("by_path"):
        paths = edge.get("by_path") or {}
        rows = [["motion checks", int(edge.get("motion_checks", 0))]]
        rows += [[f"path: {name}", int(value)] for name, value in paths.items()]
        rows += [
            [f"extend edges: {name}", int(value)]
            for name, value in (edge.get("extend_edges") or {}).items()
        ]
        if edge.get("ladders_observed"):
            rows.append(["mean ladder steps", edge["ladder_steps_mean"]])
        blocks.append(
            "edge validation\n" + _format_table(["measure", "value"], rows)
        )

    portfolio = report.get("portfolio_wins") or []
    if portfolio:
        rows = [
            [row["planner"], row["robot"], int(row["wins"])]
            for row in portfolio
        ]
        blocks.append(
            "portfolio race wins\n"
            + _format_table(["planner", "robot", "wins"], rows)
        )

    durability = report.get("durability") or {}
    journal_records = durability.get("journal_records") or {}
    recovery = durability.get("recovery") or {}
    failovers = durability.get("shard_failovers", 0)
    if journal_records or recovery or failovers:
        rows = [
            [f"journal: {kind}", int(value)]
            for kind, value in journal_records.items()
        ]
        rows += [
            [f"recovery: {outcome}", int(value)]
            for outcome, value in recovery.items()
        ]
        if failovers:
            rows.append(["shard failovers", int(failovers)])
        blocks.append(
            "durability\n" + _format_table(["measure", "count"], rows)
        )

    faults = report.get("service_faults") or {}
    if any(faults.values()):
        rows = [
            [name, int(value)]
            for name, value in faults.items()
            if value
        ]
        blocks.append(
            "service faults\n" + _format_table(["event", "count"], rows)
        )

    spans = report.get("spans") or {}
    if spans:
        rows = [
            [name, int(entry["calls"]), entry["total_s"] * 1e3]
            for name, entry in spans.items()
        ]
        blocks.append(
            "spans\n" + _format_table(["span", "calls", "total_ms"], rows)
        )
    return "\n\n".join(blocks)


def report_from_files(
    trace: Optional[str] = None,
    metrics: Optional[str] = None,
) -> Dict:
    """Convenience: load whichever artifact paths are given and merge."""
    if trace is None and metrics is None:
        raise ValueError("need at least one of trace/metrics")
    return build_report(
        trace_events=load_trace(trace) if trace else None,
        metrics=load_metrics(metrics) if metrics else None,
    )
