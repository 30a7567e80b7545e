"""The library workload's process: one caller planning in a closed loop.

Protocol with the benchmark: after import and one warm-up plan the
process prints ``READY`` and reads a line from stdin.  ``quit`` exits
(a set-up-only launch); ``go`` runs the measured phase -- back-to-back
``make_planner(...).plan()`` calls over a fixed number of seeded tasks
(:func:`inputs.plan_task_count` of ``--seconds``) -- and writes the
results to ``--out``.

    python3 perfbench/libplan.py --seed N --seconds S --out FILE [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchpath  # noqa: E402

benchpath.require_repro()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import inputs
    import loadgen
    import numpy as np
    import repro.core.planners as planners
    from repro.core.robots import get_robot

    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        tracing.install_core(recorder)

    robot = get_robot(inputs.PLAN_ROBOT)
    warm_task = inputs.plan_task(inputs.SETUP_SEED, 10_000)
    warm_config = inputs.plan_config(inputs.SETUP_SEED, 10_000)
    from dataclasses import replace

    planners.make_planner(robot, warm_task,
                          replace(warm_config, max_samples=100)).plan()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return

    tasks = [(inputs.plan_task(args.seed, i), inputs.plan_config(args.seed, i))
             for i in range(inputs.plan_task_count(args.seconds))]
    results = []
    if recorder is not None:
        recorder.active = True
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    for i, (task, config) in enumerate(tasks):
        if recorder is not None:
            recorder.current_rid = f"m-{i}"
        t0 = time.monotonic()
        result = planners.make_planner(robot, task, config).plan()
        t1 = time.monotonic()
        results.append({
            "index": i, "start": t0, "end": t1,
            "success": bool(result.success),
            "status": result.status,
            "path_cost": float(result.path_cost),
            "straight": float(np.linalg.norm(task.goal - task.start)),
            "path": [list(map(float, p)) for p in result.path],
            "iterations": result.iterations,
            "num_nodes": result.num_nodes,
            "macs": result.counter.macs_by_category(),
        })
    stop = time.monotonic()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.active = False
        recorder.dump(args.trace_out)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"start": start, "stop": stop, "cpu_s": cpu_s,
                   "peak_rss_mb": loadgen.peak_rss_mb([os.getpid()]),
                   "results": results}, fh)


if __name__ == "__main__":
    main()
