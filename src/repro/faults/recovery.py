"""Crash-recovery chaos: kill -9, torn journals, shard death, poison jobs.

Where :mod:`repro.faults.chaos` attacks the *worker pool* inside one
process, this harness attacks the *process itself*.  Every scenario runs
a journal-armed :class:`repro.service.PlanningService` in a child
process (``python -m repro.faults recovery-child``), kills it at a
seeded point in the write-ahead stream — or tears the journal's final
record, or SIGKILLs a cache shard under a replicated tier — restarts
it, and audits the journal left behind for the durability contract:

* **exactly-once** — every admitted job carries exactly one terminal
  record (``done``/``cancel``) in trusted history, and a final scan
  leaves nothing pending: accepted work survives any single process
  death, and nothing is settled twice.
* **no resurrection** — settled jobs (including ``degraded`` and
  ``cancelled``) are never replayed; only interrupted ones are.
* **quarantine** — a job that keeps killing the process is dead-lettered
  ``"poison"`` after :data:`~repro.service.journal
  .DEFAULT_QUARANTINE_THRESHOLD` interrupted dispatches, not replayed
  into a crash loop.
* **repair** — a torn tail is truncated on recovery, so post-recovery
  records land on trusted (scannable) history.

Scenarios:

``kill9``
    SIGKILL (via the ``journal.append:crash`` fault, ``os._exit`` mid
    append) lands exactly on a *dispatch* record: the admit is durable,
    the dispatch is not.  The restarted process must replay every
    admitted-but-unsettled job.
``torn``
    The ``journal.append:corrupt`` fault writes a half-line *terminal*
    record mid-batch — the classic torn final write.  Recovery must
    report ``torn``, truncate the damaged suffix, and idempotently
    re-settle the jobs whose ``done`` records fell past the tear.
``quarantine``
    The same job crashes the process at its terminal append twice in a
    row; the third process must quarantine its request hash with a
    terminal ``"poison"`` instead of replaying it a third time.
``shard_death``
    A replication-2 shard tier is populated, one shard is SIGKILLed,
    and a fresh process re-requests every key: each one must be served
    as a (replica-failed-over) cache hit, never re-planned.
``restart_race``
    Portfolio-racing jobs (``portfolio=["auto"]``) are crashed after
    some races settled; the restarted process replays the unsettled
    races to terminal without resurrecting the settled ones.

The parent/child split is real process death, not simulation: children
are ``sys.executable -m repro.faults recovery-child`` subprocesses
(inheriting ``PYTHONPATH``), the crash is ``os._exit(87)`` with no
cleanup, and the only shared state is the journal directory — exactly
the contract a production restart has.  Children journal with
``fsync="always"`` so the append arithmetic in the fault specs maps
one-to-one onto durable records.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults import CRASH_EXIT_CODE
from repro.service.journal import (
    DEFAULT_QUARANTINE_THRESHOLD,
    TERMINAL_KINDS,
    replay_state,
    scan_journal,
)

__all__ = [
    "RecoveryInvariantError",
    "RecoveryReport",
    "run_recovery",
    "schedule_specs",
    "verify_journal",
]

RECOVERY_SCHEMA = 1
RECOVERY_EMITTER = "repro.faults.recovery"

#: Watchdog for one child run: generous, because a child that outlives it
#: is deadlocked (the scenarios themselves finish in seconds).
_CHILD_TIMEOUT_S = 600.0


class RecoveryInvariantError(AssertionError):
    """A durability invariant did not survive the crash schedule."""


@dataclass
class RecoveryReport:
    """Everything one harness run learned, JSON-ready via :meth:`to_dict`."""

    seed: int
    jobs: int
    workers: int
    root: str
    scenarios: Dict[str, Dict] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    admitted: int = 0
    settled: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": RECOVERY_SCHEMA,
            "emitter": RECOVERY_EMITTER,
            "seed": self.seed,
            "jobs": self.jobs,
            "workers": self.workers,
            "root": self.root,
            "green": not self.violations,
            "admitted": self.admitted,
            "settled": self.settled,
            "wall_seconds": round(self.wall_seconds, 3),
            "violations": list(self.violations),
            "scenarios": self.scenarios,
        }


# --------------------------------------------------------------- schedule


def schedule_specs(
    seed: int,
    start: int,
    count: int,
    robot: str = "mobile2d",
    obstacles: int = 6,
    samples: int = 60,
    portfolio: bool = False,
) -> List[Dict]:
    """Deterministic wire specs for job indices ``[start, start+count)``.

    Keyed by absolute index (not by run), so a restarted process given
    the same index range regenerates byte-identical specs — and thereby
    identical request hashes / cache keys, which is what the dedup and
    shard-failover scenarios rely on.
    """
    specs: List[Dict] = []
    for index in range(start, start + count):
        spec: Dict[str, object] = {
            "robot": robot,
            "obstacles": obstacles,
            "samples": samples,
            "seed": (seed * 100_003 + index * 7_919) % (2 ** 31 - 1),
        }
        if portfolio:
            spec["portfolio"] = ["auto"]
        specs.append(spec)
    return specs


# ----------------------------------------------------------------- audit


def verify_journal(
    directory,
    quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
) -> Tuple[List[str], Dict[str, object]]:
    """Audit a journal directory for the exactly-once contract.

    Returns ``(violations, summary)``.  The audit is over *trusted*
    history (what :func:`scan_journal` can read back), which after a
    completed recovery must be tear-free, settle every admit exactly
    once, and fold to an empty replay work list.
    """
    records, torn = scan_journal(directory)
    violations: List[str] = []
    if torn:
        violations.append("journal still torn after recovery ran")
    admits: Dict[str, int] = {}
    terminals: Dict[str, int] = {}
    statuses: Dict[str, int] = {}
    for record in records:
        rid = str(record.get("request_id", ""))
        kind = record.get("kind")
        if kind == "admit":
            admits[rid] = admits.get(rid, 0) + 1
        elif kind in TERMINAL_KINDS:
            terminals[rid] = terminals.get(rid, 0) + 1
            status = str(record.get("status", ""))
            statuses[status] = statuses.get(status, 0) + 1
    for rid, count in admits.items():
        if count > 1:
            violations.append(f"job {rid} admitted {count} times")
        settled = terminals.get(rid, 0)
        if settled == 0:
            violations.append(f"admitted job {rid} never reached a terminal "
                              f"record")
        elif settled > 1:
            violations.append(f"admitted job {rid} settled {settled} times")
    for rid in terminals:
        if rid not in admits:
            violations.append(f"terminal record for never-admitted job {rid}")
    state = replay_state(
        records, torn=torn, quarantine_threshold=quarantine_threshold
    )
    if state.pending:
        violations.append(
            f"{len(state.pending)} job(s) still pending after recovery"
        )
    if state.quarantined:
        violations.append(
            f"{len(state.quarantined)} quarantined job(s) never settled"
        )
    summary = {
        "records": len(records),
        "admits": len(admits),
        "terminals": sum(terminals.values()),
        "statuses": statuses,
        "torn": torn,
        "clean": state.clean,
    }
    return violations, summary


# ------------------------------------------------------------ child runner


def add_child_arguments(parser) -> None:
    """Options for the ``recovery-child`` subcommand (one service run)."""
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--tag", default="a",
                        help="request-id prefix distinguishing runs that "
                             "share a journal (rids stay unique, specs — "
                             "index-keyed — stay identical)")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--robot", default="mobile2d")
    parser.add_argument("--obstacles", type=int, default=6)
    parser.add_argument("--samples", type=int, default=60)
    parser.add_argument("--portfolio", action="store_true",
                        help="submit portfolio=['auto'] racing jobs")
    parser.add_argument("--fault", default=None, metavar="SPEC",
                        help="repro.faults plan armed before the run "
                             "(journal.append crash/corrupt arithmetic)")
    parser.add_argument("--fault-seed", type=int, default=1)
    parser.add_argument("--fsync", default="always",
                        choices=("always", "batch", "off"))
    parser.add_argument("--shards", default=None, metavar="EP[,EP...]")
    parser.add_argument("--replication", type=int, default=1)
    parser.add_argument("--quarantine-threshold", type=int,
                        default=DEFAULT_QUARANTINE_THRESHOLD)


def run_child(args) -> int:
    """One journaled service lifetime: recover, plan, shut down clean.

    Prints ``RECOVERY {json}`` after replay and ``RESULT {json}`` after a
    clean shutdown — the parent's only window into a process that may be
    shot at any append.  A ``crash`` fault exits ``os._exit(87)`` with
    neither line flushed past the point of death, exactly like kill -9.
    """
    from collections import Counter

    from repro.faults import FaultPlan, install_plan
    from repro.net.wire import request_from_wire
    from repro.service import PlanningService
    from repro.service.journal import JobJournal

    if args.fault:
        install_plan(
            FaultPlan.from_spec(args.fault, seed=max(1, args.fault_seed)),
            scope="recovery-child",
        )
    cache = None
    if args.shards:
        from repro.net.shard import ShardedPlanCache

        endpoints = [
            ep.strip() for ep in args.shards.split(",") if ep.strip()
        ]
        cache = ShardedPlanCache(endpoints, replication=args.replication)
    journal = JobJournal(
        args.journal_dir,
        fsync=args.fsync,
        quarantine_threshold=args.quarantine_threshold,
    )
    service = PlanningService(
        num_workers=args.workers, cache=cache, journal=journal
    )
    recovery = service.recover()
    replayed = recovery.pop("responses", [])
    recovery["replayed_statuses"] = dict(
        Counter(r.status for r in replayed)
    )
    print("RECOVERY " + json.dumps(recovery), flush=True)
    specs = schedule_specs(
        args.seed, args.start, args.jobs,
        robot=args.robot, obstacles=args.obstacles, samples=args.samples,
        portfolio=args.portfolio,
    )
    requests = [
        request_from_wire(
            {"spec": spec}, request_id=f"rec-{args.tag}-{index:04d}"
        )
        for index, spec in enumerate(specs, start=args.start)
    ]
    responses = service.run_batch(requests) if requests else []
    result = {
        "jobs": len(requests),
        "statuses": dict(Counter(r.status for r in responses)),
        "cache": service.cache.stats(),
    }
    service.close()
    journal.mark_clean_shutdown()
    journal.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


# -------------------------------------------------------------- orchestration


def _run_child_process(
    directory: str,
    *,
    tag: str,
    start: int,
    jobs: int,
    seed: int,
    workers: int,
    robot: str,
    obstacles: int,
    samples: int,
    fault: Optional[str] = None,
    portfolio: bool = False,
    shards: Optional[Sequence[str]] = None,
    replication: int = 1,
) -> Dict[str, object]:
    cmd = [
        sys.executable, "-m", "repro.faults", "recovery-child",
        "--journal-dir", directory, "--tag", tag,
        "--start", str(start), "--jobs", str(jobs),
        "--seed", str(seed), "--workers", str(workers),
        "--robot", robot, "--obstacles", str(obstacles),
        "--samples", str(samples),
    ]
    if portfolio:
        cmd.append("--portfolio")
    if fault:
        cmd += ["--fault", fault, "--fault-seed", str(max(1, seed))]
    if shards:
        cmd += ["--shards", ",".join(shards),
                "--replication", str(replication)]
    info: Dict[str, object] = {
        "tag": tag, "rc": None, "recovery": None, "result": None,
    }
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=_CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        info["rc"] = -1
        info["stderr"] = f"watchdog: child exceeded {_CHILD_TIMEOUT_S:g}s"
        return info
    info["rc"] = proc.returncode
    for line in proc.stdout.splitlines():
        if line.startswith("RECOVERY "):
            info["recovery"] = json.loads(line[len("RECOVERY "):])
        elif line.startswith("RESULT "):
            info["result"] = json.loads(line[len("RESULT "):])
    tail = proc.stderr.strip()[-400:]
    if tail:
        info["stderr"] = tail
    return info


def _expect_rc(info: Dict, wanted: int, name: str, what: str,
               violations: List[str]) -> bool:
    if info["rc"] == wanted:
        return True
    detail = str(info.get("stderr") or "").strip()
    violations.append(
        f"{name}: {what} run exited {info['rc']} (wanted {wanted})"
        + (f" — {detail}" if detail else "")
    )
    return False


def _commit(report: RecoveryReport, name: str, scenario: Dict,
            violations: List[str], audit: Dict) -> None:
    scenario["audit"] = audit
    scenario["green"] = not violations
    report.scenarios[name] = scenario
    report.violations.extend(violations)
    report.admitted += int(audit.get("admits", 0))
    report.settled += int(audit.get("terminals", 0))


# Append arithmetic used by the fault specs below (fsync="always", fresh
# journal, n jobs, distinct cache keys, no replay): append #1 is the
# startup marker, job j (1-based) admits at #2j and dispatches at #2j+1,
# terminal records land at #(1+2n+1) .. #(1+2n+n), clean_shutdown last.
# ``after=K`` lets K appends land and fires on append K+1.


def _scenario_kill9(report: RecoveryReport, root: str, n: int,
                    common: Dict) -> None:
    name = "kill9"
    directory = os.path.join(root, name)
    j0 = max(1, n // 2)
    # Crash ON the dispatch append of job j0: its admit is durable, its
    # dispatch is not, jobs 1..j0-1 are admitted+dispatched — all j0 are
    # unsettled and must be replayed by the next process.
    crash = _run_child_process(
        directory, tag="a", start=0, jobs=n,
        fault=f"journal.append:crash:after={2 * j0}", **common,
    )
    again = _run_child_process(
        directory, tag="b", start=j0, jobs=n - j0, **common,
    )
    violations: List[str] = []
    _expect_rc(crash, CRASH_EXIT_CODE, name, "crash", violations)
    if _expect_rc(again, 0, name, "restart", violations):
        recovered = (again.get("recovery") or {})
        if recovered.get("replayed") != j0:
            violations.append(
                f"{name}: recovery replayed {recovered.get('replayed')} "
                f"job(s), wanted {j0}"
            )
    audit_violations, audit = verify_journal(directory)
    violations.extend(f"{name}: {v}" for v in audit_violations)
    _commit(report, name, {"jobs": n, "runs": [crash, again]},
            violations, audit)


def _scenario_torn(report: RecoveryReport, root: str, n: int,
                   common: Dict) -> None:
    name = "torn"
    directory = os.path.join(root, name)
    settled = n // 2
    # Corrupt (half-write) the terminal record of job settled+1: the
    # process survives and keeps appending, but everything past the tear
    # is untrusted — recovery must report torn, repair, and re-settle
    # jobs settled+1..n.
    torn_run = _run_child_process(
        directory, tag="a", start=0, jobs=n,
        fault=f"journal.append:corrupt:max=1:after={1 + 2 * n + settled}",
        **common,
    )
    again = _run_child_process(directory, tag="b", start=0, jobs=0, **common)
    violations: List[str] = []
    _expect_rc(torn_run, 0, name, "torn-write", violations)
    if _expect_rc(again, 0, name, "restart", violations):
        recovered = (again.get("recovery") or {})
        if not recovered.get("torn"):
            violations.append(f"{name}: recovery did not report the tear")
        if recovered.get("replayed") != n - settled:
            violations.append(
                f"{name}: recovery replayed {recovered.get('replayed')} "
                f"job(s), wanted {n - settled}"
            )
    audit_violations, audit = verify_journal(directory)
    violations.extend(f"{name}: {v}" for v in audit_violations)
    _commit(report, name, {"jobs": n, "runs": [torn_run, again]},
            violations, audit)


def _scenario_quarantine(report: RecoveryReport, root: str,
                         common: Dict) -> None:
    name = "quarantine"
    directory = os.path.join(root, name)
    # One job, killed at its terminal append twice: first run appends
    # startup/admit/dispatch then dies on the done (#4 → after=3); the
    # replaying run appends startup/dispatch and dies on the done again
    # (#3 → after=2).  Two interrupted dispatches cross the threshold, so
    # the third process must dead-letter it "poison", not replay it.
    first = _run_child_process(
        directory, tag="qa", start=0, jobs=1,
        fault="journal.append:crash:after=3", **common,
    )
    second = _run_child_process(
        directory, tag="qb", start=0, jobs=0,
        fault="journal.append:crash:after=2", **common,
    )
    third = _run_child_process(directory, tag="qc", start=0, jobs=0, **common)
    violations: List[str] = []
    _expect_rc(first, CRASH_EXIT_CODE, name, "first crash", violations)
    _expect_rc(second, CRASH_EXIT_CODE, name, "second crash", violations)
    if _expect_rc(third, 0, name, "restart", violations):
        recovered = (third.get("recovery") or {})
        if recovered.get("quarantined") != 1:
            violations.append(
                f"{name}: recovery quarantined "
                f"{recovered.get('quarantined')} job(s), wanted 1"
            )
        if recovered.get("replayed"):
            violations.append(
                f"{name}: a poison job was replayed instead of quarantined"
            )
    audit_violations, audit = verify_journal(directory)
    violations.extend(f"{name}: {v}" for v in audit_violations)
    if audit.get("statuses", {}).get("poison") != 1:
        violations.append(
            f"{name}: expected exactly one poison terminal, "
            f"saw {audit.get('statuses')}"
        )
    _commit(report, name, {"jobs": 1, "runs": [first, second, third]},
            violations, audit)


def _scenario_shard_death(report: RecoveryReport, root: str, n: int,
                          common: Dict) -> None:
    from repro.net.demo import _Child

    name = "shard_death"
    directory = os.path.join(root, name)
    shards = [_Child("SHARD", ["shard", "--port", "0"]) for _ in range(2)]
    violations: List[str] = []
    first: Dict = {}
    second: Dict = {}
    expected_failovers = 0
    try:
        endpoints = [shard.await_announce() for shard in shards]
        first = _run_child_process(
            directory, tag="a", start=0, jobs=n,
            shards=endpoints, replication=2, **common,
        )
        shards[0].kill()
        second = _run_child_process(
            directory, tag="b", start=0, jobs=n,
            shards=endpoints, replication=2, **common,
        )
        _expect_rc(first, 0, name, "populate", violations)
        if _expect_rc(second, 0, name, "post-death", violations):
            stats = ((second.get("result") or {}).get("cache") or {})
            hits = int(stats.get("hits", 0))
            if hits != n:
                violations.append(
                    f"{name}: only {hits}/{n} re-requests were cache hits "
                    f"after shard death — replication failed to cover"
                )
            # The ring is deterministic, so the parent can compute how
            # many keys had their *primary* on the dead shard; each one
            # must have been served by a replica failover.
            from repro.net.shard import ShardedPlanCache
            from repro.net.wire import request_from_wire

            ring = ShardedPlanCache(endpoints, replication=2)
            specs = schedule_specs(
                common["seed"], 0, n, robot=common["robot"],
                obstacles=common["obstacles"], samples=common["samples"],
            )
            keys = [
                request_from_wire({"spec": spec}, request_id="probe")
                .cache_key()
                for spec in specs
            ]
            expected_failovers = sum(
                1 for key in keys
                if ring.replicas_for(key)[0] == endpoints[0]
            )
            failovers = int(stats.get("failovers", 0))
            if failovers < expected_failovers:
                violations.append(
                    f"{name}: {failovers} replica failovers, wanted >= "
                    f"{expected_failovers} (keys whose primary died)"
                )
    finally:
        for shard in shards:
            shard.stop()
    audit_violations, audit = verify_journal(directory)
    violations.extend(f"{name}: {v}" for v in audit_violations)
    _commit(
        report, name,
        {"jobs": 2 * n, "runs": [first, second],
         "expected_failovers": expected_failovers},
        violations, audit,
    )


def _scenario_restart_race(report: RecoveryReport, root: str, n: int,
                           common: Dict) -> None:
    name = "restart_race"
    directory = os.path.join(root, name)
    settled = max(1, n // 2)
    # Portfolio races journal exactly like plain jobs (admit + dispatch,
    # then one terminal for the synthesised parent response); crash on
    # the terminal append of race settled+1, so some races are settled
    # and the rest must be re-raced by the restarted process.
    crash = _run_child_process(
        directory, tag="a", start=0, jobs=n, portfolio=True,
        fault=f"journal.append:crash:after={1 + 2 * n + settled}", **common,
    )
    again = _run_child_process(directory, tag="b", start=0, jobs=0, **common)
    violations: List[str] = []
    _expect_rc(crash, CRASH_EXIT_CODE, name, "mid-race crash", violations)
    if _expect_rc(again, 0, name, "restart", violations):
        recovered = (again.get("recovery") or {})
        if recovered.get("replayed") != n - settled:
            violations.append(
                f"{name}: recovery re-raced {recovered.get('replayed')} "
                f"job(s), wanted {n - settled}"
            )
    audit_violations, audit = verify_journal(directory)
    violations.extend(f"{name}: {v}" for v in audit_violations)
    _commit(report, name, {"jobs": n, "runs": [crash, again]},
            violations, audit)


def run_recovery(
    seed: int = 0,
    jobs: int = 200,
    workers: int = 0,
    robot: str = "mobile2d",
    obstacles: int = 6,
    samples: int = 60,
    keep: bool = False,
) -> RecoveryReport:
    """Run every crash-recovery scenario; raise on invariant violations.

    ``jobs`` is the admitted-job budget spread across scenarios (each
    non-trivial scenario gets ``max(4, jobs // 4)``; the shard scenario
    admits twice that across its two lifetimes).  On a green run the
    work directory is deleted unless ``keep``; on a violation it is kept
    so the journals can be inspected (the report names it).
    """
    start_time = time.monotonic()
    root = tempfile.mkdtemp(prefix="repro-recovery-")
    per = max(4, jobs // 4)
    report = RecoveryReport(
        seed=seed, jobs=jobs, workers=workers, root=root
    )
    common = {
        "seed": seed, "workers": workers, "robot": robot,
        "obstacles": obstacles, "samples": samples,
    }
    try:
        _scenario_kill9(report, root, per, common)
        _scenario_torn(report, root, per, common)
        _scenario_quarantine(report, root, common)
        _scenario_shard_death(report, root, per, common)
        _scenario_restart_race(report, root, max(4, per // 2), common)
    finally:
        report.wall_seconds = time.monotonic() - start_time
        if not report.violations and not keep:
            shutil.rmtree(root, ignore_errors=True)
            report.root = ""
    return report
