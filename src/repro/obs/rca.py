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

1. **Loading** — every emitter (:class:`~repro.service.telemetry.TelemetrySink`
   dumps, chaos-harness reports, ``repro.net.traffic`` reports) writes
   one row shape: a dump stamped with ``schema``, ``emitter`` and its
   default ``measure`` carries ``records``, each with an ``attributes``
   map (string -> string, every dimension RCA slices on) whose other
   top-level numbers are its measures.  :func:`load_dump` checks the
   stamps and reads the rows into :class:`DimensionalRecord`; a
   ``repro.bench`` report is converted by that module
   (:func:`repro.bench.bench_dump`).  A mismatched or future dump is
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
    python -m repro.obs rca net.json --split outcome=served --measure outcome=error
    python -m repro.obs rca-smoke --out rca-report.json

Everything here is stdlib-only, like the rest of ``repro.obs``; only a
``repro.bench`` report (and the smoke's bench case) imports that module.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.stats import percentile

__all__ = [
    "DUMP_SCHEMA",
    "DimensionalRecord",
    "Dump",
    "RcaFinding",
    "RcaResult",
    "analyze",
    "load_dump",
    "read_dump",
    "render_smoke_fixture",
    "rca_smoke",
    "split_records",
]

#: Version of the machine-readable RCA report this module emits.
RCA_SCHEMA = 1

#: Version of the drill-down row format; every emitter stamps its dumps
#: with it.  Bump it when the row shape changes incompatibly.  A dump
#: stamped older predates the format (its labels may sit outside
#: ``attributes``); one stamped newer may carry fields this build would
#: mis-parse.  Both are rejected rather than read.
DUMP_SCHEMA = 2

#: Metrics the analyzer can compute over a measure.  ``sum`` and ``count``
#: decompose additively (exact per-slice attribution); the order statistics
#: and the mean use the counterfactual-replacement estimator.
METRICS = ("p50", "p95", "p99", "mean", "max", "sum", "count")

#: Placeholder for a record that does not carry an attribute a slice keys
#: on — slices over that attribute treat the record as its own cell.
MISSING = "-"


@dataclass
class DimensionalRecord:
    """One drill-down row: attribute labels plus numeric measures.

    ``attributes`` maps dimension name to its (stringified) value — the
    axes the lattice search slices on.  ``measures`` maps measure name to
    a float — the quantities metrics are computed over.
    """

    attributes: Dict[str, str]
    measures: Dict[str, float]


@dataclass
class Dump:
    """A loaded dump: who wrote it, its default measure, and its rows."""

    emitter: str
    measure: str
    records: List[DimensionalRecord]


# ------------------------------------------------------------------ loading


def read_dump(payload: Dict) -> Dump:
    """Check a dump's stamps and read its rows.

    A dump carries ``schema`` (:data:`DUMP_SCHEMA`), ``emitter``, its
    default ``measure`` and its ``records`` rows.  A ``repro.bench``
    report (stamped or not) has sections instead of rows; that module
    converts it.  Anything else raises :class:`ValueError`, so a
    mismatched or future dump is rejected instead of mis-parsed.
    """
    if not isinstance(payload, dict):
        raise ValueError("not a JSON object dump")
    if "records" not in payload and payload.get("emitter", "repro.bench") \
            == "repro.bench":
        from repro.bench import bench_dump

        payload = bench_dump(payload)
    emitter = payload.get("emitter", "an unstamped")
    if payload.get("records") is None:
        raise ValueError(
            f"{emitter} dump has no per-row 'records' to drill into — "
            "write it with its records (the --out file keeps them)"
        )
    schema = payload.get("schema")
    if schema != DUMP_SCHEMA:
        if isinstance(schema, int) and schema > DUMP_SCHEMA:
            why = f"newer than this build reads ({DUMP_SCHEMA})"
        else:
            why = "which predates the drill-down row format"
        raise ValueError(
            f"{emitter} dump carries schema {schema!r}, {why} — re-dump it "
            "with a matching build"
        )
    if not isinstance(payload.get("emitter"), str) or \
            not isinstance(payload.get("measure"), str):
        raise ValueError(
            f"{emitter} dump lacks its 'emitter' or default 'measure' stamp"
        )
    records = []
    for row in payload["records"]:
        # The attributes map holds the dimensions; every other top-level
        # number is a measure (flags such as ``cache_hit`` are not).
        attrs = {str(k): str(v) for k, v in (row.get("attributes") or {}).items()
                 if v is not None}
        measures = {k: float(v) for k, v in row.items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)}
        records.append(DimensionalRecord(attrs, measures))
    return Dump(payload["emitter"], payload["measure"], records)


def load_dump(path) -> Dump:
    """Read a JSON dump file with :func:`read_dump`."""
    try:
        return read_dump(json.loads(pathlib.Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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

    A ``measure`` of the form ``attr=value`` is the indicator of that
    attribute value: 1.0 on records carrying it, 0.0 on the rest (so
    ``mean`` of ``outcome=error`` is the error rate).
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; known: {METRICS}")
    if "=" in measure:
        baseline = _with_indicator(baseline, measure)
        candidate = _with_indicator(candidate, measure)
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


def _with_indicator(
    records: Sequence[DimensionalRecord], measure: str
) -> List[DimensionalRecord]:
    """Copies of ``records`` carrying the ``attr=value`` indicator measure."""
    attr, _, value = measure.partition("=")
    return [
        DimensionalRecord(r.attributes, {
            **r.measures,
            measure: 1.0 if r.attributes.get(attr.strip()) == value.strip()
            else 0.0,
        })
        for r in records
    ]


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
       and :func:`repro.bench.analyze_bench_reports` must rank that cell
       #1.

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
    from repro.bench import analyze_bench_reports, compare_to_baseline

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
        return {"schema": 1, "mode": "quick", "kernels": kernels}

    bench_base = bench_report(slow=False)
    bench_cand = bench_report(slow=True)
    gate_failures = compare_to_baseline(bench_cand, bench_base)
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
