"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice -- untraced, then with the
benchmark's timing wrappers installed -- and prints the per-layer metrics
plus the tracing overhead between the two.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  A wrong output (a
colliding path, a cost that is not the path's length, a served result
that differs from an in-process ``plan()``) exits with code 1 and prints
no result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchpath  # noqa: E402


def calibration_ms() -> float:
    """A fixed pure-Python plus numpy spin (diagnostic of slow host phases;
    never used to scale a metric)."""
    import numpy as np

    t0 = time.monotonic()
    acc = 0
    for i in range(300_000):
        acc += i * i
    values = np.arange(200_000, dtype=float)
    for _ in range(20):
        acc += float((values * values).sum())
    return (time.monotonic() - t0) * 1000.0


def end_to_end(workload: str, run) -> dict:
    import statistics

    from stats import mean, p50, tail
    from workloads import SLO_MS

    reqs = run.requests
    attempts = reqs + run.extra
    latencies = [r.latency_s * 1000.0 for r in reqs]
    tail_value, tail_q, tail_n = tail(latencies)
    print(f"# latency_ms.tail is p{100 * tail_q:.1f} of {tail_n} samples",
          flush=True)
    limit = SLO_MS[workload]
    # Cost over the start-goal straight-line distance, so that robots
    # with different C-space scales average meaningfully.
    costs = [r.path_cost / r.straight for r in attempts if r.success]
    values = {
        "latency_ms.p50": p50(latencies),
        "latency_ms.tail": tail_value,
        "throughput_per_s": run.throughput_per_s,
        "slo_share": sum(1 for r, lat in zip(reqs, latencies)
                         if r.ok and lat <= limit) / len(reqs),
        "ok_share": sum(1 for r in attempts if r.ok) / len(attempts),
        "path_found_share": sum(1 for r in attempts if r.success) / len(attempts),
        "path_cost.mean": mean(costs),
        "cpu_ms_per_request": run.cpu_s * 1000.0 / len(reqs),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(run.setup_s),
    }
    print(f"# setup_s samples {[round(s, 4) for s in run.setup_s]}", flush=True)
    spec = benchpath.spec()["end_to_end"]
    if {m["name"] for m in spec} != set(values):
        raise RuntimeError("BENCHMARK.json end_to_end names other metrics")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def run_workload(workload: str, seed: int, seconds: float, work: str,
                 trace: bool, full: bool, plant):
    import workloads

    if workload == "plan-rrtstar-xarm7":
        run, outputs = workloads.plan_library(seed, seconds, work, trace, full)
        workloads.check_library(seed, outputs, plant)
    else:
        run, outputs = workloads.serve_cold(seed, seconds, work, trace, full)
        workloads.check_serve(outputs, plant)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        w["name"] for w in benchpath.spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=("collision", "cost"),
                        help="corrupt one output before checking (the run "
                             "must then fail)")
    args = parser.parse_args(argv)
    benchpath.require_repro()
    os.sched_setaffinity(0, benchpath.cpu_split()[0])

    import check

    work = os.path.join(benchpath.ROOT, ".bench_run",
                        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        calib_start = calibration_ms()
        try:
            if args.trace:
                import layers

                base = run_workload(args.workload, args.seed, args.seconds,
                                    work, False, False, args.plant)
                traced_work = os.path.join(work, "traced")
                os.makedirs(traced_work)
                traced = run_workload(args.workload, args.seed, args.seconds,
                                      traced_work, True, False, None)
                metrics = layers.per_layer(args.workload, base, traced)
                run = traced
            else:
                run = run_workload(args.workload, args.seed, args.seconds,
                                   work, False, True, args.plant)
                metrics = end_to_end(args.workload, run)
        except check.CheckFailure as exc:
            print(f"perfbench: output check failed: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:  # e.g. too few samples for a tail
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        calib_end = calibration_ms()
        print(f"# calibration spin ms: start {calib_start:.2f} end {calib_end:.2f}",
              flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempts = run.requests + run.extra
    attempted = len(attempts)
    failed = sum(1 for r in attempts if not r.ok)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
