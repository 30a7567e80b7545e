"""Planning command: plan one task or a batch through the planning service.

Usage::

    python -m repro.service --jobs 1 --workers 0 --robot viperx300 --obstacles 16
    python -m repro.service --jobs 1 --workers 0 --smooth --render --responses r.json
    python -m repro.service --jobs 1 --workers 0 --wave 8 --kernels reference
    python -m repro.service --jobs 8 --workers 4 --samples 400
    python -m repro.service --jobs 8 --duplicate 2          # show cache hits
    python -m repro.service --jobs 8 --inject hang:2 --timeout 1.0
    python -m repro.service --jobs 4 --portfolio connect,wave
    python -m repro.service --tasks suite.json --out telemetry.json
    python -m repro.service --jobs 4 --trace trace.json --metrics m.prom

Generates ``--jobs`` seeded tasks (or loads one task or a suite from
``--tasks``), plans each with the one :class:`PlannerConfig` the planner
flags describe, through :class:`~repro.service.runner.PlanningService`
(``--workers 0`` plans inline, in this process).  Prints one line per job
on stderr (status, cost, cache hit, race winner; ``--render`` adds the
ASCII workspace of each 2D job) and the telemetry summary as JSON on
stdout: job/status counts, cache hit-rate, p50/p95 plan latency and queue
wait, and MAC-level op totals.  Exit code 0 when every job finished ``ok``
or ``degraded`` (a degraded job may have found no path), 2 when some jobs
failed or an option value is invalid (the service itself survives worker
timeouts and crashes by design).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.core.moped import VARIANTS, config_for_variant
from repro.core.robots import ROBOT_FACTORIES
from repro.service.pool import PoolConfig
from repro.service.runner import PlanningService, build_requests


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.service", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--robot", default="mobile2d",
                        choices=sorted(ROBOT_FACTORIES),
                        help="robot model (ignored with --tasks)")
    parser.add_argument("--obstacles", type=int, default=8,
                        help="obstacle count of each generated environment")
    parser.add_argument("--variant", default="full", choices=VARIANTS,
                        help="MOPED ablation variant or 'baseline'")
    parser.add_argument("--samples", type=int, default=400,
                        help="sampling budget per job")
    parser.add_argument("--goal-bias", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed: job i plans task seed+i with "
                             "planner seed seed+i")
    parser.add_argument("--wave", type=int, default=1, metavar="W",
                        help="wave width: draw W samples per wave and "
                             "evaluate them through batched kernels "
                             "(default: %(default)s, one sample per wave "
                             "with direct edge checks)")
    parser.add_argument("--kernels", default="batch",
                        choices=("batch", "reference"),
                        help="collision kernel backend: vectorized 'batch' "
                             "(default) or the scalar 'reference' baseline; "
                             "both give bit-identical plans")
    parser.add_argument("--mode", default="rrtstar",
                        choices=("rrtstar", "connect"),
                        help="planning algorithm: optimizing RRT* (default) "
                             "or bidirectional RRT-Connect")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="anytime-planning deadline per job; expired "
                             "budgets return 'degraded' best-so-far results")
    parser.add_argument("--jobs", type=int, default=8,
                        help="number of generated tasks (seeds seed..seed+N-1)")
    parser.add_argument("--tasks", default=None, metavar="PATH",
                        help="plan the tasks of this JSON file instead: one "
                             "task object or a suite list")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 = inline, no pool)")
    parser.add_argument("--smooth", action="store_true",
                        help="shortcut-smooth each found path")
    parser.add_argument("--render", action="store_true",
                        help="print the ASCII workspace and path of each 2D "
                             "job on stderr")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-job wall budget in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="max retry attempts for crashed/errored jobs")
    parser.add_argument("--portfolio", default=None, metavar="NAMES",
                        help="race each job across a comma-separated planner "
                             "portfolio (connect,rrtstar,wave,informed or "
                             "'auto'); first feasible answer wins, losers "
                             "are cancelled")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="repro.faults plan installed in every worker, "
                             "e.g. 'worker.plan:error@0.2;worker.send:corrupt"
                             ":max=1' (seeded by --seed, deterministic)")
    parser.add_argument("--duplicate", type=int, default=1,
                        help="submit the batch N times (exercises the cache)")
    parser.add_argument("--inject", default=None, metavar="KIND[:INDEX]",
                        help="arm a fault on one request: hang|crash|error")
    parser.add_argument("--cache-capacity", type=int, default=128)
    parser.add_argument("--records", action="store_true",
                        help="include per-job records in the printed summary")
    parser.add_argument("--out", default=None,
                        help="also write the summary (with records) here")
    parser.add_argument("--responses", default=None, metavar="PATH",
                        help="write every job's response (path, cost, op "
                             "counts, phases) as a JSON list here")
    obs_group = parser.add_argument_group("observability (repro.obs)")
    obs_group.add_argument("--trace", default=None, metavar="PATH",
                           help="trace every job (cache bypassed); workers "
                                "ship plan/wave span buffers back and the "
                                "merged Chrome trace_event JSON is written "
                                "here (open in Perfetto)")
    obs_group.add_argument("--metrics", default=None, metavar="PATH",
                           help="collect planner metrics across workers and "
                                "write Prometheus text (or JSON if PATH ends "
                                "in .json) here; like --trace, this marks "
                                "every job traced, so the plan cache is "
                                "bypassed (no hits)")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    observing = bool(args.trace or args.metrics)
    if observing:
        from repro import obs

        obs.configure(trace=args.trace is not None,
                      metrics=args.metrics is not None)

    tasks = None
    if args.tasks is not None:
        from repro.io import load_tasks

        tasks = load_tasks(args.tasks)

    try:
        config = config_for_variant(
            args.variant,
            max_samples=args.samples,
            seed=args.seed,
            goal_bias=args.goal_bias,
            kernels=args.kernels,
            wave_width=args.wave,
            deadline_s=args.deadline,
            mode=args.mode,
        )
        requests = build_requests(
            config,
            robot=args.robot,
            obstacles=args.obstacles,
            jobs=args.jobs,
            smooth=args.smooth,
            timeout_s=args.timeout,
            duplicate=args.duplicate,
            inject=args.inject,
            tasks=tasks,
            trace=observing,
            portfolio=(
                tuple(name.strip() for name in args.portfolio.split(",")
                      if name.strip())
                if args.portfolio else None
            ),
        )
        fault_plan = None
        if args.fault_plan:
            from repro.faults import FaultPlan

            fault_plan = FaultPlan.from_spec(args.fault_plan,
                                             seed=max(1, args.seed))
        pool_config = None
        if args.workers > 0:
            pool_config = PoolConfig(
                num_workers=args.workers,
                default_timeout_s=args.timeout,
                max_retries=args.retries,
                fault_plan=fault_plan,
            )
        service = PlanningService(
            num_workers=args.workers,
            cache_capacity=args.cache_capacity,
            pool_config=pool_config,
        )
    except ValueError as exc:
        parser.error(str(exc))

    with service:
        responses = service.run_batch(requests)
        summary = service.summary(include_records=args.records)
        if args.out is not None:
            service.telemetry.dump(
                args.out,
                cache_stats=service.cache.stats(),
            )

    if observing:
        from repro import obs

        if args.trace:
            obs.get_tracer().export_chrome(args.trace)
        if args.metrics:
            obs.get_registry().export(args.metrics)

    if args.responses is not None:
        with open(args.responses, "w") as fh:
            json.dump([r.to_dict() for r in responses], fh, indent=2)

    for request, response in zip(requests, responses):
        cost = "-" if response.path_cost is None else f"{response.path_cost:.2f}"
        tag = " cache" if response.cache_hit else ""
        if response.race:
            tag += (f" race[{'+'.join(response.race['planners'])}] "
                    f"winner={response.race['winner']} "
                    f"cancelled={response.race['cancelled']}")
        status = response.status
        if response.degraded_reason:
            status += f" ({response.degraded_reason})"
        print(f"{response.request_id}: {status} "
              f"success={response.success} cost={cost}{tag}", file=sys.stderr)
        if args.render and request.task.environment.workspace_dim == 2:
            from repro.analysis.render import render_environment

            print(render_environment(
                request.task.environment,
                path=response.path if response.success else None,
            ), file=sys.stderr)
    print(json.dumps(summary, indent=2))
    return 0 if all(r.status in ("ok", "degraded") for r in responses) else 2


if __name__ == "__main__":
    sys.exit(main())
