"""``repro.obs.rca``: multi-dimensional root-cause drill-down analytics.

Every gate in the repo — the bench perf gate, the chaos harness, the net
traffic gate — compares *aggregates*: a p95 moved, a shed rate crossed a
line.  This module answers the next question: **which slice moved it**.
Given two telemetry dumps (baseline vs candidate — or one dump split by a
predicate such as fault-armed vs clean), it searches the lattice of
attribute combinations (robot × obstacles × planner mode × wave width ×
cache hit × fault state × ...) bottom-up and ranks the combinations that
explain the metric delta, PSqueeze-style: explanatory power from a
counterfactual replacement, a ripple-effect consistency check over the
slice's leaf cells, and deterministic tie-breaking so the same two dumps
always name the same slice.

The pipeline has three stages:

1. **Normalization** — :class:`DimensionalRecord` flattens heterogeneous
   dump formats (:class:`~repro.service.telemetry.TelemetrySink` dumps,
   ``repro.bench`` reports, chaos-harness reports, ``repro.net.traffic``
   reports) into one ``attributes -> values`` + ``measures -> floats``
   schema.  :func:`load_dump` sniffs the kind and enforces the ``schema``
   / ``emitter`` stamps the dumps carry, so a mismatched or future dump is
   rejected instead of mis-parsed.
2. **Search** — :func:`analyze` enumerates attribute subsets bottom-up
   (single attributes first, then pairs, then triples, up to
   ``max_depth``), scores every concrete slice, prunes refinements that a
   more general ancestor already explains (the ripple effect: a true root
   cause moves *all* its leaf cells, so adding attributes adds no power),
   and returns the ranked :class:`RcaResult`.
3. **Reporting** — :meth:`RcaResult.render` prints the human table plus
   the one-line verdict ("robot=xarm7 × wave_width=16 × cache_hit=miss
   explains 83% of the p95 delta"); :meth:`RcaResult.to_dict` is the
   machine JSON the CI artifacts carry.

CLI (see ``repro.obs.__main__``)::

    python -m repro.obs rca baseline.json candidate.json --metric p95
    python -m repro.obs rca chaos.json --split fault=clean --measure wall_seconds
    python -m repro.obs rca-smoke --out rca-report.json

Everything here is stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.stats import percentile

__all__ = [
    "DimensionalRecord",
    "RcaFinding",
    "RcaResult",
    "analyze",
    "analyze_bench_reports",
    "load_dump",
    "records_from_bench",
    "records_from_chaos",
    "records_from_telemetry",
    "records_from_traffic",
    "render_smoke_fixture",
    "rca_smoke",
    "split_records",
]

#: Version of the machine-readable RCA report this module emits.
RCA_SCHEMA = 1

#: Highest dump ``schema`` this module understands, per emitter kind.  A
#: dump stamped newer than this is rejected (it may carry fields we would
#: silently mis-parse); an *unstamped* dump is treated as legacy v0 and
#: accepted only when its shape is unambiguous.
SUPPORTED_SCHEMAS = {
    "telemetry": 1,
    "bench": 1,
    "chaos": 1,
    "traffic": 1,
}

EMITTERS = {
    "repro.service.telemetry": "telemetry",
    "repro.net.traffic": "traffic",
    "repro.faults.chaos": "chaos",
    "repro.bench": "bench",
}

#: Default measure per dump kind when the caller asks for ``auto``.
DEFAULT_MEASURES = {
    "telemetry": "plan_seconds",
    "bench": "time_s",
    "chaos": "wall_seconds",
    "traffic": "latency_s",
}

#: Metrics the analyzer can compute over a measure.  ``sum`` and ``count``
#: decompose additively (exact per-slice attribution); the order statistics
#: and the mean use the counterfactual-replacement estimator.
METRICS = ("p50", "p95", "p99", "mean", "max", "sum", "count")

#: Placeholder for a record that does not carry an attribute a slice keys
#: on — slices over that attribute treat the record as its own cell.
MISSING = "-"


@dataclass
class DimensionalRecord:
    """One normalized telemetry row: attribute labels plus numeric measures.

    ``attributes`` maps dimension name to its (stringified) value — the
    axes the lattice search slices on.  ``measures`` maps measure name to
    a float — the quantities metrics are computed over.
    """

    attributes: Dict[str, str]
    measures: Dict[str, float]


# ------------------------------------------------------------ normalization


def _stringify_attrs(raw: Dict) -> Dict[str, str]:
    return {str(k): str(v) for k, v in raw.items() if v is not None}


def _schema_error(kind: str, found) -> ValueError:
    return ValueError(
        f"{kind} dump carries schema {found!r} but this build supports "
        f"up to {SUPPORTED_SCHEMAS[kind]} — upgrade repro or re-dump with "
        "a matching emitter"
    )


def _check_schema(payload: Dict, kind: str) -> None:
    """Reject dumps stamped newer than we understand, or mis-labelled."""
    emitter = payload.get("emitter")
    if emitter is not None:
        expected = EMITTERS.get(emitter)
        if expected is None and kind != "bench":
            raise ValueError(f"unknown dump emitter {emitter!r}")
        if expected is not None and expected != kind:
            raise ValueError(
                f"dump emitter {emitter!r} is a {expected} dump, "
                f"not {kind}"
            )
    schema = payload.get("schema")
    if schema is None:
        return  # legacy v0 dump: accepted, parsed by shape
    if not isinstance(schema, int) or schema < 0:
        raise _schema_error(kind, schema)
    if schema > SUPPORTED_SCHEMAS[kind]:
        raise _schema_error(kind, schema)


def records_from_telemetry(payload: Dict) -> List[DimensionalRecord]:
    """Flatten a :class:`~repro.service.telemetry.TelemetrySink` dump.

    Needs the per-job ``records`` rows (``TelemetrySink.dump`` writes them
    by default); the aggregate summary alone cannot be drilled into.
    """
    _check_schema(payload, "telemetry")
    rows = payload.get("records")
    if rows is None:
        raise ValueError(
            "telemetry dump has no per-job 'records' rows — re-dump with "
            "include_records=True (the TelemetrySink.dump default)"
        )
    out: List[DimensionalRecord] = []
    for row in rows:
        attrs = _stringify_attrs(row.get("attributes") or {})
        attrs["status"] = str(row.get("status"))
        attrs["cache_hit"] = "hit" if row.get("cache_hit") else "miss"
        measures = {
            "ok": 1.0 if row.get("status") == "ok" else 0.0,
            "degraded": 1.0 if row.get("status") == "degraded" else 0.0,
        }
        for name in ("plan_seconds", "wall_seconds", "queue_wait_s",
                     "total_macs", "samples", "attempts"):
            value = row.get(name)
            if value is not None:
                measures[name] = float(value)
        out.append(DimensionalRecord(attrs, measures))
    return out


def records_from_bench(payload: Dict) -> List[DimensionalRecord]:
    """Flatten a ``repro.bench`` report (kernel / e2e / wave sections).

    Every section's primary timing lands on the shared ``time_s`` measure
    so one RCA run attributes the whole report's time delta; the
    section-specific raw measures ride along.
    """
    _check_schema(payload, "bench")
    out: List[DimensionalRecord] = []
    for row in payload.get("kernels", []):
        attrs = {"section": "kernel", "kernel": str(row["kernel"]),
                 "dim": str(row["dim"]), "size": str(row["size"])}
        out.append(DimensionalRecord(attrs, {
            "time_s": float(row["batch_s"]),
            "batch_s": float(row["batch_s"]),
            "reference_s": float(row["reference_s"]),
        }))
    for row in payload.get("end_to_end", []):
        attrs = {"section": "e2e", "case": str(row["case"]),
                 "robot": str(row["robot"]),
                 "obstacles": str(row["obstacles"]),
                 "variant": str(row["variant"])}
        out.append(DimensionalRecord(attrs, {
            "time_s": float(row["batch_s"]),
            "batch_s": float(row["batch_s"]),
            "reference_s": float(row["reference_s"]),
        }))
    for row in payload.get("wave", []):
        attrs = {"section": "wave", "case": str(row["case"]),
                 "robot": str(row["robot"]),
                 "obstacles": str(row["obstacles"]),
                 "variant": str(row["variant"]),
                 "wave_width": str(row["wave_width"])}
        out.append(DimensionalRecord(attrs, {
            "time_s": float(row["wave_s"]),
            "wave_s": float(row["wave_s"]),
            "scalar_s": float(row["scalar_s"]),
        }))
    for row in payload.get("edge", []):
        attrs = {"section": "edge", "case": str(row["case"]),
                 "robot": str(row["robot"]),
                 "obstacles": str(row["obstacles"]),
                 "checker": str(row["checker"]),
                 "wave_width": str(row["wave_width"])}
        out.append(DimensionalRecord(attrs, {
            "time_s": float(row["edge_s"]),
            "edge_s": float(row["edge_s"]),
        }))
    return out


def records_from_chaos(payload: Dict) -> List[DimensionalRecord]:
    """Flatten a chaos-harness report's per-job rows."""
    _check_schema(payload, "chaos")
    rows = payload.get("records")
    if rows is None:
        raise ValueError(
            "chaos report has no per-job 'records' rows — rerun the chaos "
            "harness with a build that emits them"
        )
    out: List[DimensionalRecord] = []
    for row in rows:
        attrs = _stringify_attrs(row.get("attributes") or {})
        category = str(row.get("category", "?"))
        attrs["category"] = category
        # "fault" may already be set from the request attributes; the
        # schedule's category is authoritative for armed-vs-clean.
        attrs["fault"] = "clean" if category == "healthy" else "armed"
        attrs["status"] = str(row.get("status"))
        attrs["cache_hit"] = "hit" if row.get("cache_hit") else "miss"
        measures = {"ok": 1.0 if row.get("status") == "ok" else 0.0}
        for name in ("plan_seconds", "wall_seconds", "queue_wait_s",
                     "attempts"):
            value = row.get(name)
            if value is not None:
                measures[name] = float(value)
        out.append(DimensionalRecord(attrs, measures))
    return out


def records_from_traffic(payload: Dict) -> List[DimensionalRecord]:
    """Flatten a ``repro.net.traffic`` report's per-request rows."""
    _check_schema(payload, "traffic")
    rows = payload.get("records")
    if rows is None:
        raise ValueError(
            "traffic report has no per-request 'records' rows — write the "
            "report with --out (records are included there) or "
            "build_report(..., include_records=True)"
        )
    run_attrs = {}
    for name in ("mix", "arrival", "mode"):
        if payload.get(name) is not None:
            run_attrs[name] = str(payload[name])
    out: List[DimensionalRecord] = []
    for row in rows:
        attrs = dict(run_attrs)
        for name in ("robot", "obstacles", "samples", "deadline"):
            if row.get(name) is not None:
                attrs[name] = str(row[name])
        code = int(row.get("code", 0))
        attrs["code"] = str(code)
        attrs["status"] = str(row.get("status"))
        attrs["cache_hit"] = "hit" if row.get("cache_hit") else "miss"
        if code in (200, 202):
            outcome = "served"
        elif code == 429:
            outcome = "shed"
        else:
            outcome = "error"
        attrs["outcome"] = outcome
        measures = {
            "latency_s": float(row.get("latency_s", 0.0)),
            "served": 1.0 if outcome == "served" else 0.0,
            "shed": 1.0 if outcome == "shed" else 0.0,
            "error": 1.0 if outcome == "error" else 0.0,
        }
        out.append(DimensionalRecord(attrs, measures))
    return out


_LOADERS = {
    "telemetry": records_from_telemetry,
    "bench": records_from_bench,
    "chaos": records_from_chaos,
    "traffic": records_from_traffic,
}


def _sniff_kind(payload: Dict) -> str:
    """Identify which dump format ``payload`` is."""
    emitter = payload.get("emitter")
    if emitter is not None:
        kind = EMITTERS.get(emitter)
        if kind is None:
            raise ValueError(f"unknown dump emitter {emitter!r}")
        return kind
    # Legacy (pre-schema) dumps: sniff by structural fingerprint.
    if "kernels" in payload and ("host" in payload or "mode" in payload):
        return "bench"
    if "digest" in payload and "categories" in payload:
        return "chaos"
    if "by_code" in payload and "shed_rate" in payload:
        return "traffic"
    if "records" in payload and ("latency_s" in payload or "jobs" in payload):
        return "telemetry"
    raise ValueError(
        "cannot identify dump kind: expected a telemetry, bench, chaos, "
        "or traffic dump (none of their fingerprints matched)"
    )


def load_dump(path) -> Tuple[str, List[DimensionalRecord]]:
    """Read a JSON dump, sniff its kind, and normalize its rows.

    Returns ``(kind, records)``; raises :class:`ValueError` on unknown or
    newer-than-supported dumps (the schema satellite: reject, never
    mis-parse).
    """
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object dump")
    kind = _sniff_kind(payload)
    return kind, _LOADERS[kind](payload)


def split_records(
    records: Sequence[DimensionalRecord], predicate: str
) -> Tuple[List[DimensionalRecord], List[DimensionalRecord]]:
    """Split one record set into (baseline, candidate) by a predicate.

    ``"attr=value"`` puts matching records in the *baseline* (e.g.
    ``fault=clean``: clean jobs are the reference population) and the rest
    in the candidate; ``"attr!=value"`` inverts the match.
    """
    negate = "!=" in predicate
    attr, _, value = predicate.partition("!=" if negate else "=")
    attr, value = attr.strip(), value.strip()
    if not attr or not value:
        raise ValueError(
            f"bad split predicate {predicate!r}; use attr=value or attr!=value"
        )
    matches = lambda r: (r.attributes.get(attr, MISSING) == value) ^ negate
    baseline = [r for r in records if matches(r)]
    candidate = [r for r in records if not matches(r)]
    if not baseline or not candidate:
        raise ValueError(
            f"split {predicate!r} left an empty side "
            f"({len(baseline)} baseline / {len(candidate)} candidate records)"
        )
    return baseline, candidate


# ------------------------------------------------------------------ metrics


def _metric_value(values: Sequence[float], metric: str) -> Optional[float]:
    if metric == "count":
        return float(len(values))
    if not values:
        return None
    if metric == "sum":
        return float(sum(values))
    if metric == "mean":
        return sum(values) / len(values)
    if metric == "max":
        return float(max(values))
    if metric in ("p50", "p95", "p99"):
        return percentile(values, float(metric[1:]))
    raise ValueError(f"unknown metric {metric!r}; known: {METRICS}")


def _quantile_resample(sorted_values: Sequence[float], n: int) -> List[float]:
    """``n`` quantile-spaced draws from an (already sorted) empirical
    distribution — the deterministic stand-in for "what would these n
    records look like if they behaved like that population"."""
    m = len(sorted_values)
    if n <= 0 or m == 0:
        return []
    if m == 1:
        return [float(sorted_values[0])] * n
    if n == 1:
        return [percentile(sorted_values, 50.0)]
    out = []
    for i in range(n):
        rank = (i / (n - 1)) * (m - 1)
        lo = int(rank)
        hi = min(lo + 1, m - 1)
        frac = rank - lo
        out.append(float(sorted_values[lo] * (1.0 - frac)
                         + sorted_values[hi] * frac))
    return out


# ------------------------------------------------------------------- search


@dataclass
class RcaFinding:
    """One ranked attribute combination explaining part of the delta."""

    attributes: Dict[str, str]
    depth: int
    support_base: int
    support_cand: int
    baseline_value: Optional[float]
    candidate_value: Optional[float]
    explained_fraction: float
    consistency: float
    score: float

    def label(self) -> str:
        return " × ".join(
            f"{k}={v}" for k, v in sorted(self.attributes.items())
        )

    def to_dict(self) -> Dict:
        return {
            "attributes": dict(sorted(self.attributes.items())),
            "label": self.label(),
            "depth": self.depth,
            "support_base": self.support_base,
            "support_cand": self.support_cand,
            "baseline_value": self.baseline_value,
            "candidate_value": self.candidate_value,
            "explained_fraction": round(self.explained_fraction, 6),
            "consistency": round(self.consistency, 4),
            "score": round(self.score, 6),
        }


@dataclass
class RcaResult:
    """The analyzer's output: overall delta plus the ranked findings."""

    metric: str
    measure: str
    baseline_value: Optional[float]
    candidate_value: Optional[float]
    baseline_records: int
    candidate_records: int
    findings: List[RcaFinding] = field(default_factory=list)
    note: Optional[str] = None

    @property
    def delta(self) -> Optional[float]:
        if self.baseline_value is None or self.candidate_value is None:
            return None
        return self.candidate_value - self.baseline_value

    def to_dict(self) -> Dict:
        return {
            "schema": RCA_SCHEMA,
            "emitter": "repro.obs.rca",
            "metric": self.metric,
            "measure": self.measure,
            "baseline": {"value": self.baseline_value,
                         "records": self.baseline_records},
            "candidate": {"value": self.candidate_value,
                          "records": self.candidate_records},
            "delta": self.delta,
            "findings": [f.to_dict() for f in self.findings],
            "note": self.note,
        }

    def render(self) -> str:
        """Human-readable ranked report."""
        head = f"{self.metric}({self.measure})"
        fmt = lambda v: "n/a" if v is None else f"{v:.6g}"
        lines = [
            f"RCA drill-down: {head} baseline {fmt(self.baseline_value)} "
            f"-> candidate {fmt(self.candidate_value)} "
            f"(delta {fmt(self.delta)}; "
            f"{self.baseline_records}/{self.candidate_records} records)"
        ]
        if self.note:
            lines.append(f"note: {self.note}")
        if not self.findings:
            lines.append("no attribute combination explains the delta")
            return "\n".join(lines)
        width = max(len(f.label()) for f in self.findings)
        lines.append(
            f"{'rank':>4}  {'slice':<{width}}  {'explains':>8}  "
            f"{'consist':>7}  {'base':>10}  {'cand':>10}  {'n(b/c)':>9}"
        )
        for rank, f in enumerate(self.findings, start=1):
            lines.append(
                f"{rank:>4}  {f.label():<{width}}  "
                f"{f.explained_fraction:>7.1%}  {f.consistency:>7.2f}  "
                f"{fmt(f.baseline_value):>10}  {fmt(f.candidate_value):>10}  "
                f"{f.support_base:>4}/{f.support_cand}"
            )
        top = self.findings[0]
        lines.append(
            f"top finding: {top.label()} explains "
            f"{top.explained_fraction:.0%} of the {head} delta"
        )
        return "\n".join(lines)


def _slice_groups(
    records: Sequence[Tuple[int, DimensionalRecord]], subset: Tuple[str, ...]
) -> Dict[Tuple[str, ...], List[int]]:
    """Group record indices by their value tuple over ``subset``."""
    groups: Dict[Tuple[str, ...], List[int]] = {}
    for index, record in records:
        key = tuple(record.attributes.get(a, MISSING) for a in subset)
        groups.setdefault(key, []).append(index)
    return groups


def _consistency(
    base_members: Sequence[DimensionalRecord],
    cand_members: Sequence[DimensionalRecord],
    measure: str,
    slice_delta: float,
) -> float:
    """Ripple-effect check: a true root-cause slice moves *all* its leaf
    cells the same way and by a comparable amount.  Returns the
    candidate-support-weighted fraction of both-sided leaf cells (full
    attribute combinations inside the slice) whose mean shifted in the
    slice's direction by at least half the slice's own mean shift —
    magnitude-aware, so an over-general slice whose unmoved sibling cells
    merely wiggle with noise scores below the exact regressed cell."""
    def cells(members):
        out: Dict[Tuple, List[float]] = {}
        for r in members:
            if measure not in r.measures:
                continue
            key = tuple(sorted(r.attributes.items()))
            out.setdefault(key, []).append(r.measures[measure])
        return out

    base_cells = cells(base_members)
    cand_cells = cells(cand_members)
    threshold = 0.5 * abs(slice_delta)
    agree = total = 0
    for key, cand_values in cand_cells.items():
        base_values = base_cells.get(key)
        if not base_values:
            continue
        cell_delta = (sum(cand_values) / len(cand_values)
                      - sum(base_values) / len(base_values))
        total += len(cand_values)
        moved = abs(cell_delta) >= threshold
        same_way = cell_delta == 0.0 or (cell_delta > 0) == (slice_delta > 0)
        if (moved and same_way) or threshold == 0.0:
            agree += len(cand_values)
    if total == 0:
        return 1.0
    return agree / total


def analyze(
    baseline: Sequence[DimensionalRecord],
    candidate: Sequence[DimensionalRecord],
    measure: str,
    metric: str = "p95",
    top: int = 5,
    max_depth: int = 3,
    min_support: int = 1,
    min_explained: float = 0.02,
) -> RcaResult:
    """Isolate the attribute combinations explaining the metric delta.

    Bottom-up lattice search: attribute subsets of size 1, then 2, up to
    ``max_depth``.  For each concrete slice the **explanatory power** is
    the fraction of the overall delta removed by a counterfactual
    candidate population in which the slice's records behave like their
    baseline distribution (quantile-resampled, so order-statistic metrics
    like p95 are handled honestly; ``sum``/``count`` decompose additively
    and skip the counterfactual).  **Consistency** is the ripple-effect
    check over the slice's leaf cells.  Refinements that add attributes
    without adding explanatory power are pruned in favour of their more
    general ancestor; surviving findings are ranked by ``score =
    explained × (0.25 + 0.75 × consistency)`` with deterministic
    tie-breaking (shallower slice first, then label order).
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; known: {METRICS}")
    base_rows = [(i, r) for i, r in enumerate(baseline)
                 if measure in r.measures]
    cand_rows = [(i, r) for i, r in enumerate(candidate)
                 if measure in r.measures]
    base_values = [r.measures[measure] for _, r in base_rows]
    cand_values = [r.measures[measure] for _, r in cand_rows]
    m_base = _metric_value(base_values, metric)
    m_cand = _metric_value(cand_values, metric)
    result = RcaResult(
        metric=metric, measure=measure,
        baseline_value=m_base, candidate_value=m_cand,
        baseline_records=len(base_rows), candidate_records=len(cand_rows),
    )
    if m_base is None or m_cand is None:
        result.note = f"one side has no records carrying measure {measure!r}"
        return result
    delta = m_cand - m_base
    scale = max(abs(m_base), abs(m_cand), 1e-12)
    if abs(delta) <= 1e-9 * scale:
        result.note = "no material delta between the two populations"
        return result

    attr_names = sorted(
        {a for _, r in base_rows for a in r.attributes}
        | {a for _, r in cand_rows for a in r.attributes}
    )
    base_sorted_all = sorted(base_values)
    cand_by_index = {i: v for (i, _), v in zip(cand_rows, cand_values)}
    max_depth = max(1, min(max_depth, len(attr_names)))

    kept: List[RcaFinding] = []
    for depth in range(1, max_depth + 1):
        for subset in itertools.combinations(attr_names, depth):
            base_groups = _slice_groups(base_rows, subset)
            cand_groups = _slice_groups(cand_rows, subset)
            for key in sorted(set(base_groups) | set(cand_groups)):
                b_idx = base_groups.get(key, [])
                c_idx = cand_groups.get(key, [])
                if max(len(b_idx), len(c_idx)) < min_support:
                    continue
                if len(b_idx) == len(base_rows) and len(c_idx) == len(cand_rows):
                    continue  # the whole population — not a slice
                if (len(c_idx) == len(cand_rows) and not b_idx) or \
                        (len(b_idx) == len(base_rows) and not c_idx):
                    # Coincides with one entire side (e.g. the attribute a
                    # --split predicate keyed on): trivially "explains"
                    # everything without naming anything.
                    continue
                slice_base = [baseline[i].measures[measure] for i in b_idx]
                slice_cand = [candidate[i].measures[measure] for i in c_idx]
                if metric in ("sum", "count"):
                    # Additive metrics decompose exactly.
                    b_agg = _metric_value(slice_base, metric) or 0.0
                    c_agg = _metric_value(slice_cand, metric) or 0.0
                    explained = (c_agg - b_agg) / delta
                else:
                    explained = _counterfactual_explained(
                        cand_values, cand_by_index, set(c_idx),
                        slice_base, slice_cand, base_sorted_all,
                        m_cand, delta, metric,
                    )
                if explained < min_explained:
                    continue
                direction = _slice_direction(slice_base, slice_cand, delta)
                consistency = _consistency(
                    [baseline[i] for i in b_idx],
                    [candidate[i] for i in c_idx],
                    measure, direction,
                )
                finding = RcaFinding(
                    attributes=dict(zip(subset, key)),
                    depth=depth,
                    support_base=len(b_idx),
                    support_cand=len(c_idx),
                    baseline_value=_metric_value(slice_base, metric),
                    candidate_value=_metric_value(slice_cand, metric),
                    explained_fraction=explained,
                    consistency=consistency,
                    score=explained * (0.25 + 0.75 * consistency),
                )
                if not _dominated(finding, kept):
                    kept.append(finding)

    kept.sort(key=lambda f: (-f.score, -f.explained_fraction,
                             f.depth, f.label()))
    result.findings = kept[:top]
    return result


def _slice_direction(slice_base, slice_cand, delta: float) -> float:
    """Sign of the slice's own movement (falls back to the overall delta)."""
    if slice_base and slice_cand:
        moved = (sum(slice_cand) / len(slice_cand)
                 - sum(slice_base) / len(slice_base))
        if moved != 0.0:
            return moved
    return delta


def _counterfactual_explained(
    cand_values: Sequence[float],
    cand_by_index: Dict[int, float],
    slice_indices,
    slice_base: Sequence[float],
    slice_cand: Sequence[float],
    base_sorted_all: Sequence[float],
    m_cand: float,
    delta: float,
    metric: str,
) -> float:
    """Explanatory power via counterfactual replacement.

    Rebuild the candidate population with the slice's records replaced by
    draws from the slice's *baseline* distribution (or, for a slice new in
    the candidate, the overall baseline distribution; a slice that
    vanished gets its baseline records restored), recompute the metric,
    and report the fraction of the overall delta that removal undoes.
    """
    rest = [v for i, v in cand_by_index.items() if i not in slice_indices]
    if slice_cand:
        source = sorted(slice_base) if slice_base else base_sorted_all
        replaced = _quantile_resample(source, len(slice_cand))
    else:
        replaced = list(slice_base)  # restore the vanished slice
    m_cf = _metric_value(rest + replaced, metric)
    if m_cf is None:
        return 0.0
    return (m_cand - m_cf) / delta


def _dominated(finding: RcaFinding, kept: Sequence[RcaFinding]) -> bool:
    """Ripple-effect pruning: drop a refinement whose ancestor (a subset of
    its attribute assignments, found earlier in the bottom-up sweep)
    already scores at least as well — the extra attributes add no
    explanatory power, so the general slice is the better name."""
    if finding.depth == 1:
        return False
    items = finding.attributes.items()
    for other in kept:
        if other.depth < finding.depth and other.attributes.items() <= items:
            if other.score + 1e-9 >= finding.score:
                return True
    return False


# -------------------------------------------------------------- bench bridge


def analyze_bench_reports(
    baseline_payload: Dict,
    candidate_payload: Dict,
    metric: str = "sum",
    measure: str = "time_s",
    top: int = 5,
) -> RcaResult:
    """RCA over two ``repro.bench`` reports (baseline vs candidate).

    The default ``sum(time_s)`` decomposes the total wall-time delta
    exactly across (section × kernel × dim × size / case) cells, so a
    perf-gate failure names the offending cell(s).  Cells present in only
    one report still surface (as vanished/new slices).
    """
    return analyze(
        records_from_bench(baseline_payload),
        records_from_bench(candidate_payload),
        measure=measure, metric=metric, top=top, min_support=1,
    )


# -------------------------------------------------------------------- smoke


def render_smoke_fixture(
    slow_slice: Optional[Dict[str, str]] = None,
    factor: float = 3.0,
    per_cell: int = 8,
    seed: int = 11,
) -> Tuple[List[DimensionalRecord], List[DimensionalRecord]]:
    """Synthetic baseline/candidate telemetry populations with one planted
    regression slice (default: ``xarm7 × wave_width=16 × cache-miss``
    slowed ``factor``×).  Deterministic under ``seed``."""
    import random as _random

    if slow_slice is None:
        slow_slice = {"robot": "xarm7", "wave_width": "16",
                      "cache_hit": "miss"}
    rng = _random.Random(seed)
    base_latency = {"mobile2d": 0.004, "xarm7": 0.020, "rozum": 0.015}
    wave_scale = {"1": 1.0, "8": 0.7, "16": 0.6}

    def population(planted: bool) -> List[DimensionalRecord]:
        records = []
        for robot in ("mobile2d", "xarm7", "rozum"):
            for wave in ("1", "8", "16"):
                for cache in ("hit", "miss"):
                    attrs = {"robot": robot, "wave_width": wave,
                             "cache_hit": cache,
                             "mode": "wave" if wave != "1" else "scalar"}
                    for _ in range(per_cell):
                        if cache == "hit":
                            latency = 0.0002 * (1.0 + 0.2 * rng.random())
                        else:
                            latency = (base_latency[robot] * wave_scale[wave]
                                       * (1.0 + 0.3 * rng.random()))
                        if planted and all(
                            attrs.get(k) == v for k, v in slow_slice.items()
                        ):
                            latency *= factor
                        records.append(DimensionalRecord(
                            dict(attrs),
                            {"plan_seconds": latency,
                             "wall_seconds": latency * 1.1},
                        ))
        return records

    return population(planted=False), population(planted=True)


def rca_smoke(out: Optional[str] = None, log=print) -> int:
    """End-to-end self-check: plant a regression, demand RCA names it.

    Two synthetic cases, both deterministic:

    1. **Telemetry**: a robot-grid population with ``xarm7 × wave_width=16
       × cache-miss`` slowed 3× must rank that exact combination #1 on the
       p95 delta.
    2. **Bench gate**: a doctored candidate bench report with one kernel
       cell slowed 3× must fail :func:`repro.bench.compare_to_baseline`,
       and :func:`analyze_bench_reports` must rank that cell #1.

    Writes the machine report to ``out`` when given; returns 0 on success,
    1 with a diagnostic when either case mis-ranks.
    """
    failures: List[str] = []
    planted = {"robot": "xarm7", "wave_width": "16", "cache_hit": "miss"}
    baseline, candidate = render_smoke_fixture(slow_slice=planted)
    telemetry_result = analyze(
        baseline, candidate, measure="plan_seconds", metric="p95", top=5
    )
    log(telemetry_result.render())
    if not telemetry_result.findings:
        failures.append("telemetry case: no findings at all")
    elif telemetry_result.findings[0].attributes != planted:
        failures.append(
            "telemetry case: planted slice "
            f"{planted} not ranked #1 "
            f"(got {telemetry_result.findings[0].attributes})"
        )

    # Bench-gate case: a planted kernel-cell regression must both trip the
    # gate and be named by the drill-down.
    from repro.bench import compare_to_baseline

    def bench_report(slow: bool) -> Dict:
        kernels = []
        for kernel in ("aabb_aabb_grid", "obb_obb_pairs", "nearest_index"):
            for dim in (2, 3):
                batch_s = 1e-4 * (1 + dim)
                if slow and kernel == "obb_obb_pairs" and dim == 3:
                    batch_s *= 3.0
                kernels.append({
                    "kernel": kernel, "dim": dim, "size": "256",
                    "batch_s": batch_s, "reference_s": batch_s * 10,
                    "speedup": 10.0,
                })
        return {"schema": 1, "mode": "quick", "kernels": kernels,
                "end_to_end": [], "wave": []}

    bench_base = bench_report(slow=False)
    bench_cand = bench_report(slow=True)
    gate_failures = compare_to_baseline(bench_cand, bench_base, factor=2.0)
    if not gate_failures:
        failures.append("bench case: planted 3x regression did not trip the gate")
    bench_result = analyze_bench_reports(bench_base, bench_cand)
    log(bench_result.render())
    expected_cell = {"section": "kernel", "kernel": "obb_obb_pairs",
                     "dim": "3", "size": "256"}
    if not bench_result.findings:
        failures.append("bench case: no findings at all")
    else:
        got = bench_result.findings[0].attributes
        if not (got.items() <= expected_cell.items()) or \
                got.get("kernel") != "obb_obb_pairs":
            failures.append(
                f"bench case: planted cell {expected_cell} not ranked #1 "
                f"(got {got})"
            )

    if out is not None:
        payload = {
            "schema": RCA_SCHEMA,
            "emitter": "repro.obs.rca",
            "fixture": "rca-smoke",
            "passed": not failures,
            "failures": failures,
            "telemetry_case": telemetry_result.to_dict(),
            "bench_case": bench_result.to_dict(),
        }
        pathlib.Path(out).write_text(json.dumps(payload, indent=2))
        log(f"rca-smoke report written to {out}")
    for message in failures:
        log(f"RCA SMOKE FAILURE: {message}")
    if not failures:
        log("rca-smoke: OK — planted slices ranked #1 in both cases")
    return 1 if failures else 0
