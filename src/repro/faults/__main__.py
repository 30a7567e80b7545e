"""Fault-injection front end: the chaos harness.

Usage::

    python -m repro.faults chaos                       # 200 jobs, seed 0
    python -m repro.faults chaos --quick --seed 0      # CI smoke (~24 jobs)
    python -m repro.faults chaos --jobs 500 --workers 8 --out chaos.json
    python -m repro.faults recovery --quick --seed 0   # crash/restart smoke
    python -m repro.faults recovery --jobs 400 --out recovery.json

``chaos`` builds a seeded randomized schedule of planning jobs laced with
worker crashes, hangs, corrupted pipe payloads, dropped/duplicated/
mislabelled results, malformed NaN requests, and deadline-degraded
anytime jobs, runs it through a live :mod:`repro.service` worker pool,
and asserts the robustness invariants (every job terminal, no deadlock,
no duplicate responses, the cache never stores or serves a non-``ok``
result, each fault category lands in its expected status).  Exit code 0
when every invariant holds, 1 on violation, 3 if the watchdog had to
shoot a deadlocked run.  The same ``--seed`` replays the same schedule —
the digest printed at the start is the fingerprint to quote in bug
reports.

``recovery`` (:mod:`repro.faults.recovery`) attacks the *process* rather
than the pool: journal-armed child services are kill -9'd mid-dispatch,
handed torn journals, raced against SIGKILLed cache shards, and crashed
mid portfolio race, then restarted; the gate is the durability contract
(every admitted job terminal exactly once, poison jobs quarantined,
torn tails repaired).  ``recovery-child`` is the internal child-process
entry point the harness spawns — one journaled service lifetime.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

from . import FaultPlan
from .chaos import ChaosInvariantError, run_chaos

#: Job count for ``--quick`` (CI smoke): enough draws that every category
#: appears with reasonable probability, small enough to finish in seconds.
QUICK_JOBS = 24


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.faults", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chaos = sub.add_parser(
        "chaos", help="run a randomized fault schedule against a live pool"
    )
    chaos.add_argument("--jobs", type=int, default=200,
                       help="schedule length (default %(default)s)")
    chaos.add_argument("--quick", action="store_true",
                       help=f"CI smoke mode: {QUICK_JOBS} jobs")
    chaos.add_argument("--seed", type=int, default=0,
                       help="schedule seed; identical seeds replay "
                            "identical schedules (default %(default)s)")
    chaos.add_argument("--workers", type=int, default=4,
                       help="worker processes (default %(default)s)")
    chaos.add_argument("--robot", default="mobile2d")
    chaos.add_argument("--obstacles", type=int, default=8)
    chaos.add_argument("--samples", type=int, default=60,
                       help="sampling budget of the healthy jobs")
    chaos.add_argument("--fault-plan", default=None, metavar="SPEC",
                       help="override the injector plan layered on top of "
                            "the scheduled faults (see repro.faults specs); "
                            "status-changing kinds may break the per-"
                            "category expectations")
    chaos.add_argument("--watchdog", type=float, default=None, metavar="S",
                       help="deadlock watchdog budget (default: "
                            "max(120, 2*jobs) seconds)")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="write the chaos report JSON here (includes "
                            "per-job records for RCA drill-downs)")
    chaos.add_argument("--rca", action="store_true",
                       help="after a clean run, print the repro.obs.rca "
                            "drill-down attributing fault-armed wall-time "
                            "tail latency vs the clean jobs")

    recovery = sub.add_parser(
        "recovery",
        help="crash/restart durability harness: kill -9 mid-dispatch, "
             "torn journals, shard death, poison-job quarantine",
    )
    recovery.add_argument("--jobs", type=int, default=200,
                          help="admitted-job budget across scenarios "
                               "(default %(default)s)")
    recovery.add_argument("--quick", action="store_true",
                          help=f"CI smoke mode: {QUICK_JOBS} jobs")
    recovery.add_argument("--seed", type=int, default=0,
                          help="schedule seed; identical seeds replay "
                               "identical crash points (default %(default)s)")
    recovery.add_argument("--workers", type=int, default=0,
                          help="planner workers per child process "
                               "(default %(default)s = inline)")
    recovery.add_argument("--robot", default="mobile2d")
    recovery.add_argument("--obstacles", type=int, default=6)
    recovery.add_argument("--samples", type=int, default=60)
    recovery.add_argument("--keep", action="store_true",
                          help="keep the journal work directory even on "
                               "a green run (always kept on violations)")
    recovery.add_argument("--out", default=None, metavar="PATH",
                          help="write the recovery report JSON here")

    child = sub.add_parser(
        "recovery-child",
        help="internal: one journaled service lifetime (spawned by "
             "'recovery'; crashes by design when a fault plan says so)",
    )
    from .recovery import add_child_arguments

    add_child_arguments(child)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "recovery-child":
        from .recovery import run_child

        return run_child(args)
    if args.command == "recovery":
        from .recovery import run_recovery

        report = run_recovery(
            seed=args.seed,
            jobs=QUICK_JOBS if args.quick else args.jobs,
            workers=args.workers,
            robot=args.robot,
            obstacles=args.obstacles,
            samples=args.samples,
            keep=args.keep,
        )
        payload = report.to_dict()
        print(json.dumps(payload, indent=2))
        if args.out is not None:
            pathlib.Path(args.out).write_text(json.dumps(payload, indent=2))
            print(f"report written to {args.out}")
        for violation in report.violations:
            print(f"RECOVERY GATE VIOLATION: {violation}", file=sys.stderr)
        if report.violations and report.root:
            print(f"recovery: journals kept for inspection in {report.root}",
                  file=sys.stderr)
        return 1 if report.violations else 0
    jobs = QUICK_JOBS if args.quick else args.jobs
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.from_spec(args.fault_plan, seed=max(1, args.seed))
    try:
        report = run_chaos(
            seed=args.seed,
            jobs=jobs,
            workers=args.workers,
            robot=args.robot,
            obstacles=args.obstacles,
            samples=args.samples,
            fault_plan=fault_plan,
            watchdog_s=args.watchdog,
        )
    except ChaosInvariantError as exc:
        print(f"chaos: FAILED\n{exc}", file=sys.stderr)
        return 1
    payload = report.to_dict()
    # stdout gets the compact summary; the --out file keeps the per-job
    # records so it can feed ``python -m repro.obs rca`` drill-downs.
    compact = {k: v for k, v in payload.items() if k != "records"}
    print(json.dumps(compact, indent=2))
    if args.out is not None:
        pathlib.Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"report written to {args.out}")
    if args.rca:
        from repro.obs.rca import analyze, read_dump, split_records

        records = read_dump(payload).records
        try:
            baseline, candidate = split_records(records, "fault=clean")
        except ValueError as exc:
            print(f"rca: skipped ({exc})", file=sys.stderr)
        else:
            result = analyze(baseline, candidate, measure="wall_seconds",
                             metric="p95")
            print(result.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
