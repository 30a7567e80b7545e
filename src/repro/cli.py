"""Command-line interface: plan a task end to end from the shell.

Usage::

    python -m repro.cli --robot viperx300 --obstacles 16 --samples 600
    python -m repro.cli --robot mobile2d --variant baseline --render
    python -m repro.cli --task task.json --out result.json
    python -m repro.cli --trace trace.json --metrics metrics.prom

Plans one task (randomly generated from a seed, or loaded from JSON),
prints the outcome, optionally smooths / time-parameterizes the path,
renders 2D workspaces as ASCII, and archives the result as JSON.

Batches of tasks go through the worker pool with ``python -m
repro.service`` (``--jobs``, ``--workers``, ``--portfolio``, ...).
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
    obs_group = parser.add_argument_group("observability (repro.obs)")
    obs_group.add_argument("--trace", default=None, metavar="PATH",
                           help="record plan and wave spans; write a Chrome "
                                "trace_event JSON here (open in Perfetto)")
    obs_group.add_argument("--metrics", default=None, metavar="PATH",
                           help="record planner metrics (the per-phase table's "
                                "source); write Prometheus text (or JSON if "
                                "PATH ends in .json) here")
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
              f"chrome://tracing)")
    if args.metrics:
        obs.get_registry().export(args.metrics)
        print(f"metrics written to {args.metrics} (per-phase report: "
              f"python -m repro.obs report --metrics {args.metrics})")


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)

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
