"""Command-line interface: plan a task end to end from the shell.

Usage::

    python -m repro.cli --robot viperx300 --obstacles 16 --samples 600
    python -m repro.cli --robot mobile2d --variant baseline --render
    python -m repro.cli --task task.json --out result.json
    python -m repro.cli --jobs 8 --workers 4 --samples 400
    python -m repro.cli --trace trace.json --metrics metrics.prom

Plans one task (randomly generated from a seed, or loaded from JSON),
prints the outcome, optionally smooths / time-parameterizes the path,
renders 2D workspaces as ASCII, and archives the result as JSON.

With ``--jobs N`` the CLI switches to batch mode: N seeded tasks (seeds
``seed .. seed+N-1``) are routed through the :mod:`repro.service` worker
pool instead of a Python for-loop, and a telemetry JSON summary (cache
hit-rate, p50/p95 plan latency, MAC totals) is printed at the end.  See
``python -m repro.service --help`` for the full service front end.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.moped import VARIANTS, config_for_variant
from repro.core.planners import make_planner
from repro.core.robots import ROBOT_FACTORIES, get_robot


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--robot", default="mobile2d", choices=sorted(ROBOT_FACTORIES),
                        help="robot model (ignored with --task)")
    parser.add_argument("--obstacles", type=int, default=16,
                        help="obstacle count for the generated environment")
    parser.add_argument("--seed", type=int, default=0, help="workload + planner seed")
    parser.add_argument("--samples", type=int, default=500, help="sampling budget")
    parser.add_argument("--variant", default="full", choices=VARIANTS,
                        help="MOPED ablation variant or 'baseline'")
    parser.add_argument("--goal-bias", type=float, default=0.1)
    parser.add_argument("--kernels", default="batch", choices=("batch", "reference"),
                        help="collision kernel backend: vectorized 'batch' "
                             "(default) or the scalar 'reference' baseline; "
                             "both give bit-identical plans")
    parser.add_argument("--wave", type=int, default=1, metavar="W",
                        help="wave width: draw W samples per wave and "
                             "evaluate them through batched kernels; "
                             "bit-identical to one-sample waves at "
                             "speculation_depth=W (default: %(default)s, one "
                             "sample per wave with direct edge checks)")
    parser.add_argument("--mode", default="rrtstar",
                        choices=("rrtstar", "connect"),
                        help="planning algorithm: optimizing RRT* (default) "
                             "or bidirectional RRT-Connect (feasibility "
                             "only, first path wins)")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="anytime-planning wall deadline in seconds; an "
                             "expired deadline returns the best-so-far result "
                             "with status 'degraded' instead of running the "
                             "full sampling budget")
    parser.add_argument("--task", default=None, help="plan a task from this JSON file")
    parser.add_argument("--out", default=None, help="write the result JSON here")
    parser.add_argument("--smooth", action="store_true",
                        help="shortcut-smooth the path after planning")
    parser.add_argument("--render", action="store_true",
                        help="ASCII-render 2D workspaces with the path")
    batch = parser.add_argument_group(
        "batch mode (repro.service worker pool)"
    )
    batch.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="plan N seeded tasks through the service pool")
    batch.add_argument("--workers", type=int, default=2,
                       help="worker processes for --jobs (0 = inline)")
    batch.add_argument("--job-timeout", type=float, default=60.0,
                       help="per-job wall budget in seconds for --jobs")
    batch.add_argument("--duplicate", type=int, default=1,
                       help="submit the --jobs batch N times (cache demo)")
    batch.add_argument("--inject", default=None, metavar="KIND[:INDEX]",
                       help="fault-inject one batch job: hang|crash|error")
    batch.add_argument("--portfolio", default=None, metavar="NAMES",
                       help="race each batch job across a comma-separated "
                            "planner portfolio (connect,rrtstar,wave,"
                            "informed or 'auto'); first feasible answer "
                            "wins, losers are cancelled")
    obs_group = parser.add_argument_group("observability (repro.obs)")
    obs_group.add_argument("--trace", default=None, metavar="PATH",
                           help="record phase spans; write a Chrome trace_event "
                                "JSON here (open in Perfetto)")
    obs_group.add_argument("--metrics", default=None, metavar="PATH",
                           help="record planner metrics; write Prometheus text "
                                "(or JSON if PATH ends in .json) here")
    return parser


def configure_observability(args) -> bool:
    """Enable the global instruments per ``--trace``/``--metrics``."""
    if not (args.trace or args.metrics):
        return False
    from repro import obs

    obs.configure(trace=args.trace is not None, metrics=args.metrics is not None)
    return True


def export_observability(args) -> None:
    """Write the files the observability flags asked for."""
    from repro import obs

    if args.trace:
        obs.get_tracer().export_chrome(args.trace)
        print(f"trace written to {args.trace} (load in Perfetto or "
              f"chrome://tracing; report: python -m repro.obs report "
              f"--trace {args.trace})")
    if args.metrics:
        obs.get_registry().export(args.metrics)
        print(f"metrics written to {args.metrics}")


def run_batch(args) -> int:
    """The ``--jobs N`` path: fan tasks out across the service pool."""
    import json

    from repro.service import PlanningService, build_requests
    from repro.service.pool import PoolConfig

    observing = configure_observability(args)
    requests = build_requests(
        robot=args.robot,
        obstacles=args.obstacles,
        jobs=args.jobs,
        seed=args.seed,
        variant=args.variant,
        samples=args.samples,
        goal_bias=args.goal_bias,
        smooth=args.smooth,
        timeout_s=args.job_timeout,
        duplicate=args.duplicate,
        inject=args.inject,
        trace=observing,
        deadline_s=args.deadline,
        mode=args.mode,
        portfolio=(
            tuple(name.strip() for name in args.portfolio.split(",") if name.strip())
            if args.portfolio else None
        ),
    )
    pool_config = None
    if args.workers > 0:
        pool_config = PoolConfig(
            num_workers=args.workers, default_timeout_s=args.job_timeout
        )
    with PlanningService(
        num_workers=args.workers, pool_config=pool_config
    ) as service:
        responses = service.run_batch(requests)
        summary = service.summary()
    for response in responses:
        cost = "-" if response.path_cost is None else f"{response.path_cost:.2f}"
        tag = " cache" if response.cache_hit else ""
        if response.race:
            tag += (f" race[{'+'.join(response.race['planners'])}] "
                    f"winner={response.race['winner']} "
                    f"cancelled={response.race['cancelled']}")
        print(f"{response.request_id}: {response.status} "
              f"success={response.success} cost={cost}{tag}")
    print(json.dumps(summary, indent=2))
    if args.out is not None:
        import pathlib

        summary["responses"] = [r.to_dict(include_path=False) for r in responses]
        pathlib.Path(args.out).write_text(json.dumps(summary, indent=2))
        print(f"telemetry written to {args.out}")
    if observing:
        export_observability(args)
    return 0 if all(r.status in ("ok", "degraded") for r in responses) else 1


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.jobs is not None:
        return run_batch(args)

    if args.task is not None:
        from repro.io import load_task

        task = load_task(args.task)
    else:
        from repro.workloads import random_task

        task = random_task(args.robot, args.obstacles, seed=args.seed)

    observing = configure_observability(args)
    robot = get_robot(task.robot_name)
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
    planner = make_planner(robot, task, config)
    result = planner.plan()
    if observing:
        export_observability(args)
    print(f"robot={robot.label} obstacles={task.environment.num_obstacles} "
          f"variant={args.variant} samples={args.samples}"
          + (f" wave={args.wave}" if args.wave > 1 else ""))
    print(result.summary())
    if result.degraded:
        gap = result.best_goal_distance
        print(f"degraded: {result.degraded_reason} expired after "
              f"{result.iterations}/{args.samples} samples"
              + (f", {gap:.2f} from goal" if gap is not None else ""))
    if args.wave > 1:
        occupancy = result.brief().get("wave_occupancy")
        print(f"wave: width={args.wave} occupancy="
              f"{occupancy if occupancy is None else round(occupancy, 3)}")

    if args.smooth and result.success:
        from repro.core.collision import BruteOBBChecker
        from repro.core.smoothing import shortcut_smooth

        checker = BruteOBBChecker(
            robot, task.environment, motion_resolution=robot.step_size / 4.0
        )
        smoothed, cost = shortcut_smooth(result.path, checker, iterations=150,
                                         seed=args.seed)
        print(f"smoothed: cost {result.path_cost:.2f} -> {cost:.2f} "
              f"({len(result.path)} -> {len(smoothed)} waypoints)")
        result.path = smoothed
        result.path_cost = cost

    if args.render and task.environment.workspace_dim == 2:
        from repro.analysis.render import render_environment

        print(render_environment(task.environment,
                                 path=result.path if result.success else None))

    if args.out is not None:
        from repro.io import save_result

        save_result(result, args.out)
        print(f"result written to {args.out}")

    return 0 if result.success else 1


if __name__ == "__main__":
    sys.exit(main())
