"""Load generators and latency-percentile reporting for the front end.

Two generator disciplines, the standard pair from serving-systems
evaluation:

* **closed-loop** — ``concurrency`` workers each cycle request ->
  response -> next request.  Offered load self-limits to the server's
  capacity (a slow server slows the workers), so closed loop measures
  *latency at sustainable throughput*.  An optional ``rps`` target paces
  the workers through a shared arrival schedule, turning it into the
  rate-limited closed loop the demo uses.
* **open-loop** — requests fire at the arrival process's schedule whether
  or not earlier ones finished (up to ``max_outstanding``, a harness
  safety valve).  Open loop is the honest overload probe: the server
  cannot slow the clients down, so admission control either sheds (429)
  or drowns.

Arrival processes: ``uniform`` (constant gaps), ``poisson`` (exponential
gaps — independent users), ``burst`` (``burst_size`` back-to-back arrivals
then a long gap, same mean rate — tests queue absorption).

Scenario bodies come from :mod:`repro.workloads.mixes` — weighted mixes
with per-entry seed pools, so the same harness measures cold-start
capacity (huge pool) or cache-tier behaviour (small pool) by name.

Every request becomes one record; :func:`build_report` reduces them to
the JSON the CI gate consumes: p50/p95/p99 latency, goodput, shed rate,
and per-code/per-status splits.  :func:`check_report` returns the list of
gate violations (empty = green).

CLI::

    python -m repro.net.traffic --url http://127.0.0.1:8421 \
        --mode closed --concurrency 8 --rps 50 --duration 5 \
        --mix smoke --arrival poisson --out report.json --gate
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

from repro.obs.rca import DUMP_SCHEMA
from repro.obs.stats import percentile
from repro.workloads.mixes import draw_spec, mix_names

__all__ = [
    "ARRIVALS",
    "TRAFFIC_EMITTER",
    "TRAFFIC_SCHEMA",
    "TrafficConfig",
    "TrafficResult",
    "build_report",
    "check_report",
    "make_arrivals",
    "run_traffic",
]

#: Version stamp on every written report so downstream consumers
#: (``repro.obs.rca``) can reject or upgrade mismatched dumps: the
#: drill-down row format's version (:func:`_drill_down_row`).
TRAFFIC_SCHEMA = DUMP_SCHEMA
TRAFFIC_EMITTER = "repro.net.traffic"


# ------------------------------------------------------------------ arrivals


def _uniform(rate: float, rng: random.Random) -> Callable[[], float]:
    gap = 1.0 / rate
    return lambda: gap


def _poisson(rate: float, rng: random.Random) -> Callable[[], float]:
    return lambda: rng.expovariate(rate)


def _burst(rate: float, rng: random.Random,
           burst_size: int = 8) -> Callable[[], float]:
    # ``burst_size`` arrivals back to back, then one long gap that
    # restores the mean rate: gap = burst_size / rate.
    state = {"i": 0}

    def gap() -> float:
        state["i"] += 1
        if state["i"] % burst_size:
            return 0.0
        return burst_size / rate

    return gap


ARRIVALS: Dict[str, Callable] = {
    "uniform": _uniform,
    "poisson": _poisson,
    "burst": _burst,
}


def make_arrivals(name: str, rate: float, rng: random.Random) -> Callable[[], float]:
    """Inter-arrival-gap sampler for ``name`` at mean ``rate`` req/s."""
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    factory = ARRIVALS.get(name)
    if factory is None:
        raise ValueError(f"unknown arrival process {name!r}; "
                         f"known: {sorted(ARRIVALS)}")
    return factory(rate, rng)


class _Pacer:
    """Shared arrival schedule: workers claim strictly increasing slots."""

    def __init__(self, gap_fn: Callable[[], float], start: float) -> None:
        self._gap = gap_fn
        self._next = start
        self._lock = threading.Lock()

    def claim(self) -> float:
        """Absolute monotonic time of the next arrival (claimed once)."""
        with self._lock:
            slot = self._next
            self._next += self._gap()
            return slot


# -------------------------------------------------------------------- client


class _HttpClient:
    """Minimal keep-alive JSON client over stdlib ``http.client``."""

    def __init__(self, url: str, timeout_s: float = 30.0) -> None:
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"need an http://host:port URL, got {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> "tuple[int, Dict]":
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        for attempt in (1, 2):  # retry once on a stale keep-alive socket
            conn = self._connection()
            try:
                conn.request(method, path, body=payload,
                             headers={"Content-Type": "application/json"})
                raw = conn.getresponse()
                data = raw.read()
                break
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt == 2:
                    raise
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"raw": data.decode("utf-8", "replace")}
        return raw.status, decoded


# ------------------------------------------------------------------- harness


@dataclass
class TrafficConfig:
    """One load-generation run.

    ``urls`` may name several front-end processes; workers round-robin
    across them, which is how the demo drives a multi-process tier.
    """

    urls: Sequence[str] = ("http://127.0.0.1:8421",)
    mode: str = "closed"           # "closed" | "open"
    duration_s: float = 5.0
    concurrency: int = 8           # closed-loop worker count
    rps: Optional[float] = None    # target rate (required for open loop)
    arrival: str = "poisson"
    mix: str = "smoke"
    seed: int = 0
    timeout_s: float = 30.0
    max_outstanding: int = 256     # open-loop safety valve
    seed_base: int = 0             # offset into every entry's seed pool
    #: Retry 503 (draining) and transport-dead responses on the next URL
    #: in the rotation.  This is the rolling-restart client contract: a
    #: server that is going away tells you so, and the tier has siblings
    #: — so follow the redirect instead of recording an error.
    retry_unavailable: bool = False
    retry_attempts: int = 4        # total tries per request when retrying
    retry_backoff_s: float = 0.1   # sleep between tries

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError("mode must be 'closed' or 'open'")
        if self.mode == "open" and not self.rps:
            raise ValueError("open-loop traffic needs a target --rps")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not self.urls:
            raise ValueError("need at least one front-end URL")


@dataclass
class TrafficResult:
    """Raw per-request records plus the run's wall-clock envelope."""

    records: List[Dict] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    transport_errors: int = 0
    #: Requests that needed at least one unavailable-retry (503/dead
    #: server) before settling — the rolling-restart disruption measure.
    retried: int = 0

    @property
    def duration_s(self) -> float:
        return max(1e-9, self.finished_at - self.started_at)


def _spec_attributes(spec: Dict) -> Dict:
    """Workload attributes copied onto the per-request record so traffic
    dumps are drill-down-able (which robot / sample count / deadline arm
    regressed, not just that p95 moved)."""
    attrs: Dict = {}
    for name in ("robot", "obstacles", "samples"):
        if spec.get(name) is not None:
            attrs[name] = spec[name]
    attrs["deadline"] = "armed" if spec.get("deadline_s") else "none"
    return attrs


def _one_request(clients: "List[_HttpClient]", spec: Dict,
                 result: TrafficResult, lock: threading.Lock,
                 config: Optional[TrafficConfig] = None) -> None:
    """Issue one request, optionally retrying unavailable servers.

    ``clients`` is the worker's URL rotation; without retry only the
    first client is used.  With ``config.retry_unavailable`` a 503
    (draining server) or a dead connection moves to the next client in
    the rotation, so a rolling restart shows up as latency, not errors.
    One record is appended either way — the request's final outcome.
    """
    retry = config is not None and config.retry_unavailable
    max_attempts = config.retry_attempts if retry else 1
    t0 = time.perf_counter()
    attempt = 0
    while True:
        client = clients[attempt % len(clients)]
        attempt += 1
        try:
            code, body = client.request("POST", "/plan", {"spec": spec})
            record = {
                "latency_s": time.perf_counter() - t0,
                "code": code,
                "status": body.get("status"),
                "cache_hit": bool(body.get("cache_hit", False)),
            }
        except (OSError, http.client.HTTPException) as exc:
            record = {
                "latency_s": time.perf_counter() - t0,
                "code": 0,
                "status": "transport_error",
                "error": f"{type(exc).__name__}: {exc}",
            }
        if retry and record["code"] in (0, 503) and attempt < max_attempts:
            time.sleep(config.retry_backoff_s)
            continue
        break
    record["attempt"] = attempt
    record.update(_spec_attributes(spec))
    with lock:
        result.records.append(record)
        if record["code"] == 0:
            result.transport_errors += 1
        if attempt > 1:
            result.retried += 1


def run_traffic(config: TrafficConfig) -> TrafficResult:
    """Drive the configured load and collect per-request records."""
    result = TrafficResult()
    lock = threading.Lock()
    deadline_holder = {}

    def _spec_stream(worker_seed: int) -> Callable[[], Dict]:
        rng = random.Random(config.seed * 1_000_003 + worker_seed)
        return lambda: draw_spec(config.mix, rng, seed_base=config.seed_base)

    start = time.monotonic()
    deadline_holder["t"] = start + config.duration_s
    result.started_at = time.perf_counter()

    if config.mode == "closed":
        pacer = None
        if config.rps:
            gap_fn = make_arrivals(config.arrival, config.rps,
                                   random.Random(config.seed))
            pacer = _Pacer(gap_fn, start)

        def worker(index: int) -> None:
            # The worker's URL rotation starts at its own offset so load
            # spreads evenly; the tail of the rotation is only touched by
            # unavailable-retries.
            n = len(config.urls)
            clients = [_HttpClient(config.urls[(index + k) % n],
                                   config.timeout_s) for k in range(n)]
            draw = _spec_stream(index)
            try:
                while True:
                    now = time.monotonic()
                    if now >= deadline_holder["t"]:
                        break
                    if pacer is not None:
                        slot = pacer.claim()
                        if slot >= deadline_holder["t"]:
                            break
                        delay = slot - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                    _one_request(clients, draw(), result, lock, config)
            finally:
                for client in clients:
                    client.close()

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(config.concurrency)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        # Open loop: one scheduler thread claims arrival slots and hands
        # each request to a short-lived worker; ``max_outstanding`` bounds
        # the thread population when the server falls behind.
        gap_fn = make_arrivals(config.arrival, config.rps,
                               random.Random(config.seed))
        pacer = _Pacer(gap_fn, start)
        outstanding = threading.Semaphore(config.max_outstanding)
        draw = _spec_stream(0)
        fired: List[threading.Thread] = []

        def shoot(spec: Dict, start_index: int) -> None:
            n = len(config.urls)
            clients = [_HttpClient(config.urls[(start_index + k) % n],
                                   config.timeout_s) for k in range(n)]
            try:
                _one_request(clients, spec, result, lock, config)
            finally:
                for client in clients:
                    client.close()
                outstanding.release()

        i = 0
        while True:
            slot = pacer.claim()
            if slot >= deadline_holder["t"]:
                break
            delay = slot - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if not outstanding.acquire(timeout=max(
                    0.0, deadline_holder["t"] - time.monotonic())):
                break  # saturated past the deadline
            t = threading.Thread(
                target=shoot,
                args=(draw(), i),
                daemon=True,
            )
            t.start()
            fired.append(t)
            i += 1
        for t in fired:
            t.join(timeout=config.timeout_s)

    result.finished_at = time.perf_counter()
    return result


# -------------------------------------------------------------------- report


def _outcome(code: int) -> str:
    """A response code's outcome: 200/202 served, 429 shed, else error."""
    if code in (200, 202):
        return "served"
    return "shed" if code == 429 else "error"


#: Per-request record fields that become drill-down labels.
_ROW_LABELS = ("robot", "obstacles", "samples", "deadline", "code", "status",
               "cache_hit")


def _drill_down_row(record: Dict, config: TrafficConfig) -> Dict:
    """One per-request record as a drill-down row (see
    :mod:`repro.obs.rca`): the workload attributes from
    :func:`_spec_attributes`, the response code, status, cache outcome
    and ``outcome`` (served / shed / error), and the run's mix, arrival
    and mode move into ``attributes``; ``latency_s`` and ``attempt`` stay
    as its measures."""
    code = int(record["code"])
    attributes = {"mix": str(config.mix), "arrival": str(config.arrival),
                  "mode": str(config.mode)}
    for name in ("robot", "obstacles", "samples", "deadline"):
        if record.get(name) is not None:
            attributes[name] = str(record[name])
    attributes.update(
        code=str(code),
        status=str(record.get("status")),
        cache_hit="hit" if record.get("cache_hit") else "miss",
        outcome=_outcome(code),
    )
    row = {k: v for k, v in record.items() if k not in _ROW_LABELS}
    row["attributes"] = attributes
    return row


def build_report(result: TrafficResult, config: TrafficConfig,
                 include_records: bool = False) -> Dict:
    """Reduce raw records to the percentile report the CI gate consumes.

    With ``include_records`` the per-request drill-down rows (see
    :func:`_drill_down_row`) ride along so the written report can feed
    ``repro.obs.rca`` drill-downs.
    """
    records = result.records
    served = [r for r in records if _outcome(r["code"]) == "served"]
    shed = [r for r in records if _outcome(r["code"]) == "shed"]
    errors = [r for r in records if _outcome(r["code"]) == "error"]
    latencies = [r["latency_s"] for r in served]
    by_code: Dict[str, int] = {}
    by_status: Dict[str, int] = {}
    for r in records:
        by_code[str(r["code"])] = by_code.get(str(r["code"]), 0) + 1
        status = str(r.get("status"))
        by_status[status] = by_status.get(status, 0) + 1

    def _pct(q: float) -> Optional[float]:
        if not latencies:
            return None
        return round(percentile(latencies, q) * 1e3, 3)

    duration = result.duration_s
    report = {
        "schema": TRAFFIC_SCHEMA,
        "emitter": TRAFFIC_EMITTER,
        "measure": "latency_s",
        "mode": config.mode,
        "mix": config.mix,
        "arrival": config.arrival,
        "target_rps": config.rps,
        "concurrency": config.concurrency,
        "duration_s": round(duration, 3),
        "requests": len(records),
        "offered_rps": round(len(records) / duration, 2),
        "goodput_rps": round(len(served) / duration, 2),
        "served": len(served),
        "shed": len(shed),
        "errors": len(errors),
        "transport_errors": result.transport_errors,
        "retried": result.retried,
        "shed_rate": round(len(shed) / len(records), 4) if records else 0.0,
        "error_rate": round(len(errors) / len(records), 4) if records else 0.0,
        "cache_hits": sum(1 for r in served if r.get("cache_hit")),
        "latency_ms": {
            "p50": _pct(50.0),
            "p95": _pct(95.0),
            "p99": _pct(99.0),
            "mean": round(sum(latencies) / len(latencies) * 1e3, 3)
            if latencies else None,
            "max": round(max(latencies) * 1e3, 3) if latencies else None,
        },
        "by_code": dict(sorted(by_code.items())),
        "by_status": dict(sorted(by_status.items())),
    }
    if include_records:
        report["records"] = [_drill_down_row(r, config) for r in records]
    return report


def check_report(report: Dict, max_shed_rate: float = 1.0,
                 max_error_rate: float = 0.0,
                 min_served: int = 1) -> List[str]:
    """Gate violations for a report (empty list = green).

    The CI default is strict on *errors* (admission control means overload
    must surface as 429s, never as failures) and permissive on *shedding*
    (shed rate is workload-dependent; cap it per-scenario when needed).
    """
    violations: List[str] = []
    if report["requests"] == 0:
        return ["no requests were issued"]
    if report["served"] < min_served:
        violations.append(
            f"served {report['served']} < required minimum {min_served}"
        )
    if report["error_rate"] > max_error_rate:
        violations.append(
            f"error rate {report['error_rate']:.4f} exceeds "
            f"{max_error_rate:.4f} ({report['errors']} errors, "
            f"{report['transport_errors']} transport)"
        )
    if report["shed_rate"] > max_shed_rate:
        violations.append(
            f"shed rate {report['shed_rate']:.4f} exceeds {max_shed_rate:.4f}"
        )
    if report["served"] >= min_served and report["latency_ms"]["p50"] is None:
        violations.append("no latency percentiles despite served requests")
    return violations


# ----------------------------------------------------------------------- cli


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.net.traffic",
        description="Open/closed-loop load generator for the planning front end",
    )
    parser.add_argument("--url", action="append", dest="urls", metavar="URL",
                        help="front-end base URL (repeat for several)")
    parser.add_argument("--mode", default="closed", choices=("closed", "open"))
    parser.add_argument("--duration", type=float, default=5.0, metavar="S")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--rps", type=float, default=None,
                        help="target request rate (required for open loop; "
                             "paces the closed loop when given)")
    parser.add_argument("--arrival", default="poisson",
                        choices=sorted(ARRIVALS))
    parser.add_argument("--mix", default="smoke", choices=mix_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--seed-base", type=int, default=0,
                        help="offset into every mix entry's seed pool")
    parser.add_argument("--retry-unavailable", action="store_true",
                        help="retry 503/dead-server responses on the next "
                             "URL (rolling-restart client contract)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here too")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 unless the report passes the CI gate "
                             "(zero non-429 errors, some served requests)")
    parser.add_argument("--max-shed-rate", type=float, default=1.0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    import pathlib
    import sys

    args = build_parser().parse_args(argv)
    config = TrafficConfig(
        urls=tuple(args.urls or ("http://127.0.0.1:8421",)),
        mode=args.mode,
        duration_s=args.duration,
        concurrency=args.concurrency,
        rps=args.rps,
        arrival=args.arrival,
        mix=args.mix,
        seed=args.seed,
        timeout_s=args.timeout,
        seed_base=args.seed_base,
        retry_unavailable=args.retry_unavailable,
    )
    result = run_traffic(config)
    report = build_report(result, config)
    print(json.dumps(report, indent=2))
    if args.out:
        # The file copy carries the per-request rows so it can feed
        # ``python -m repro.obs rca`` drill-downs; stdout stays compact.
        full = build_report(result, config, include_records=True)
        pathlib.Path(args.out).write_text(json.dumps(full, indent=2))
    if args.gate:
        violations = check_report(report, max_shed_rate=args.max_shed_rate)
        for violation in violations:
            print(f"GATE VIOLATION: {violation}", file=sys.stderr)
        return 1 if violations else 0
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
