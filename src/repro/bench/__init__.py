"""``repro.bench``: kernel and end-to-end benchmark harness.

Times the vectorized kernels of :mod:`repro.kernels.batch` against the
scalar golden implementations of :mod:`repro.kernels.reference`, and whole
planner runs (batch vs reference kernels, wide vs one-sample waves,
whole-edge validation, RRT-Connect vs wave RRT*, portfolio races, the
fault hooks), asserting bit-identical results while measuring the speedup.

Every section is one row of :data:`SECTIONS`.  ``python -m repro.bench``
runs each once (``--section`` picks some) into ``BENCH_kernels.json`` (a
stable, CI-diffable schema).  ``--check`` gates each entry against the
fastest time for its key over every committed ``benchmarks/BENCH_*.json``
and exits non-zero when one is more than ``REGRESSION_FACTOR`` slower, or
when the disabled fault hooks exceed their budget; that is how CI guards
the hot paths.  See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.collision import make_checker
from repro.core.config import moped_config
from repro.core.connect import RRTConnectPlanner
from repro.core.metrics import wave_occupancy
from repro.core.robots import get_robot
from repro.core.rrtstar import RRTStarPlanner, plan
from repro.geometry.rotations import random_rotation_2d, random_rotation_3d
from repro.kernels import batch, reference
from repro.obs.rca import DUMP_SCHEMA, RcaResult, analyze, read_dump
from repro.workloads.generator import random_task

SCHEMA_VERSION = 1

#: Default regression gate: fail when a kernel's batch time exceeds
#: ``REGRESSION_FACTOR`` times its committed baseline time.
REGRESSION_FACTOR = 2.0


# --------------------------------------------------------------------- timing


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _random_boxes(rng: np.random.Generator, n: int, dim: int):
    lo = rng.uniform(0.0, 90.0, size=(n, dim))
    hi = lo + rng.uniform(0.5, 10.0, size=(n, dim))
    return lo, hi


def _random_obbs(rng: np.random.Generator, n: int, dim: int):
    centers = rng.uniform(0.0, 100.0, size=(n, dim))
    halves = rng.uniform(0.5, 6.0, size=(n, dim))
    make = random_rotation_2d if dim == 2 else random_rotation_3d
    rotations = np.stack([make(rng) for _ in range(n)])
    return centers, halves, rotations


# -------------------------------------------------------------- kernel sweeps


def _kernel_cases(quick: bool, rng: np.random.Generator) -> List[dict]:
    """One entry per (kernel, dim, size) point of the sweep."""
    grid_sizes = [(18, 32)] if quick else [(18, 8), (18, 32), (36, 48)]
    pair_sizes = [256] if quick else [64, 256, 1024]
    point_sizes = [1000] if quick else [1000, 5000]
    cases: List[dict] = []

    for dim in (2, 3):
        for rows, cols in grid_sizes:
            a_lo, a_hi = _random_boxes(rng, rows, dim)
            b_lo, b_hi = _random_boxes(rng, cols, dim)
            cases.append(
                dict(kernel="aabb_aabb_grid", dim=dim, size=f"{rows}x{cols}",
                     args=(a_lo, a_hi, b_lo, b_hi))
            )
            obs = _random_obbs(rng, cols, dim)
            cases.append(
                dict(kernel="aabb_obb_grid", dim=dim, size=f"{rows}x{cols}",
                     args=(a_lo, a_hi) + obs)
            )
            bodies = _random_obbs(rng, rows, dim)
            cases.append(
                dict(kernel="obb_obb_grid", dim=dim, size=f"{rows}x{cols}",
                     args=bodies + obs)
            )
        for pairs in pair_sizes:
            a = _random_obbs(rng, pairs, dim)
            b = _random_obbs(rng, pairs, dim)
            cases.append(
                dict(kernel="obb_obb_pairs", dim=dim, size=str(pairs), args=a + b)
            )
            lo, hi = _random_boxes(rng, pairs, dim)
            cases.append(
                dict(kernel="aabb_obb_pairs", dim=dim, size=str(pairs),
                     args=(lo, hi) + b)
            )

    for dim in (3, 6):
        for n in point_sizes:
            points = rng.uniform(-3.0, 3.0, size=(n, dim))
            query = rng.uniform(-3.0, 3.0, size=dim)
            cases.append(
                dict(kernel="nearest_index", dim=dim, size=str(n),
                     args=(points, query))
            )
            cases.append(
                dict(kernel="radius_mask", dim=dim, size=str(n),
                     args=(points, query, 1.5))
            )
    return cases


def _results_equal(a, b) -> bool:
    """Golden check: exact for booleans/indices, ULP-tolerant for distances.

    The SAT kernels' boolean verdicts are bit-exact by contract; the distance
    kernels return raw floats whose vectorized accumulation order may differ
    from the scalar loop by a few ULPs, so those compare with a tolerance.
    """
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_results_equal(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype == bool or np.issubdtype(a.dtype, np.integer):
        return bool(np.array_equal(a, b))
    return bool(np.allclose(a, b, rtol=1e-12, atol=1e-12))


def bench_kernels(quick: bool = False, seed: int = 0) -> List[Dict]:
    """Time every batch kernel against its scalar golden twin.

    Each case first asserts the two backends return identical values, then
    reports best-of-N wall times and the speedup.  N is 7 in both modes:
    the kernels take tens to hundreds of microseconds, and a quick run is
    gated against full-mode baselines, so it must time them as those were.
    """
    rng = np.random.default_rng(seed)
    repeats = 7
    records: List[Dict] = []
    for case in _kernel_cases(quick, rng):
        fast = getattr(batch, case["kernel"])
        gold = getattr(reference, case["kernel"])
        args = case["args"]
        if not _results_equal(fast(*args), gold(*args)):
            raise AssertionError(
                f"batch kernel {case['kernel']} (dim={case['dim']}, "
                f"size={case['size']}) disagrees with the scalar reference"
            )
        batch_s = _time(lambda: fast(*args), repeats)
        reference_s = _time(lambda: gold(*args), repeats)
        records.append(
            {
                "kernel": case["kernel"],
                "dim": case["dim"],
                "size": case["size"],
                "batch_s": batch_s,
                "reference_s": reference_s,
                "speedup": reference_s / batch_s if batch_s > 0 else float("inf"),
            }
        )
    return records


# --------------------------------------------------------------- end to end


#: End-to-end suite points: (label, robot, obstacles, variant).  The first
#: entry is the paper-suite configuration the acceptance gate tracks
#: (6-DoF rozum arm, 32 obstacles, full MOPED).
E2E_SUITE = (
    ("rozum/32obs/v4", "rozum", 32, "v4"),
    ("rozum/32obs/v1", "rozum", 32, "v1"),
    ("xarm7/32obs/v4", "xarm7", 32, "v4"),
    ("mobile2d/16obs/v4", "mobile2d", 16, "v4"),
)


def bench_end_to_end(quick: bool = False, seed: int = 3) -> List[Dict]:
    """Time full planner runs under both kernel backends.

    Asserts the two backends produce bit-identical plans
    (:func:`_plans_equal`) before reporting wall times — a perf number for
    a run that diverged would be meaningless.
    """
    suite = E2E_SUITE[:1] if quick else E2E_SUITE
    samples = 200 if quick else 600
    records: List[Dict] = []
    for label, robot_name, num_obstacles, variant in suite:
        task = random_task(robot_name, num_obstacles, seed=seed)
        robot = get_robot(robot_name)
        results, times = {}, {}
        for backend in ("batch", "reference"):
            config = moped_config(variant, kernels=backend, max_samples=samples, seed=5)
            t0 = time.perf_counter()
            results[backend] = plan(robot, task, config)
            times[backend] = time.perf_counter() - t0
        fast = results["batch"]
        reason = _plans_equal(fast, results["reference"])
        if reason is not None:
            raise AssertionError(
                f"{label}: batch and reference plans diverged: {reason}"
            )
        records.append(
            {
                "case": label,
                "robot": robot_name,
                "obstacles": num_obstacles,
                "variant": variant,
                "max_samples": samples,
                "batch_s": times["batch"],
                "reference_s": times["reference"],
                "speedup": times["reference"] / times["batch"],
                "path_cost": fast.path_cost,
                "num_nodes": fast.num_nodes,
                "equivalent": True,
            }
        )
    return records


# ------------------------------------------------------------------- wave


#: Wavefront suite points: (label, robot, obstacles, variant, overrides).
#: The first entry is the showcase configuration of the wave acceptance
#: gate — a 2D mobile robot among 32 obstacles where per-motion kernel-call
#: overhead dominates, i.e. the case wavefront batching amortizes best.
#: The second rewires inside every wave (full MOPED on a 7-DoF arm), so
#: its bit-equality gate covers the batched choose-parent/rewire replay.
WAVE_SUITE = (
    ("mobile2d/32obs/v1-norewire", "mobile2d", 32, "v1", {"rewire": False}),
    ("xarm7/24obs/v4", "xarm7", 24, "v4", {}),
    ("rozum/32obs/v1", "rozum", 32, "v1", {}),
)

#: Leading WAVE_SUITE points that ``--quick`` (CI) runs.
WAVE_QUICK_CASES = 2

#: Sampling budget of every wave-bench run.  Fixed (independent of --quick)
#: so quick CI runs and the committed full baseline share the same
#: (case, wave_width, max_samples) keys and the regression gate engages.
WAVE_SAMPLES = 600

#: Wave width of the wave, edge and connect benches: a key field of their
#: committed baselines, so fixed like the sampling budgets.
WAVE_WIDTH = 8


def _plans_equal(a, b) -> Optional[str]:
    """Full bit-equality of two plan results; returns a reason on mismatch.

    Compares paths, costs, node counts, the operation-counter totals, and
    every per-round record including the per-unit (phase) MAC loads and
    event maps — the equality the speculate-and-repair theorems promise.
    """
    if len(a.path) != len(b.path) or not all(
        np.array_equal(p, q) for p, q in zip(a.path, b.path)
    ):
        return "paths differ"
    if a.path_cost != b.path_cost:
        return "path costs differ"
    if a.num_nodes != b.num_nodes:
        return "node counts differ"
    if a.counter.to_dict() != b.counter.to_dict():
        return "operation counters differ"
    if len(a.rounds) != len(b.rounds):
        return "round counts differ"
    for i, (r, s) in enumerate(zip(a.rounds, b.rounds)):
        if (
            (r.ns_macs, r.cc_macs, r.maint_macs, r.other_macs) !=
            (s.ns_macs, s.cc_macs, s.maint_macs, s.other_macs)
        ):
            return f"per-phase MAC loads differ at round {i}"
        if (r.accepted, r.missing_used, r.repaired, r.events) != (
            s.accepted, s.missing_used, s.repaired, s.events
        ):
            return f"round telemetry differs at round {i}"
    return None


def bench_wave(quick: bool = False, seed: int = 3) -> List[Dict]:
    """Time multi-sample waves against one-sample waves.

    For every suite case three configurations run: one-sample waves
    without speculation (``scalar``), one-sample waves at
    ``speculation_depth = WAVE_WIDTH`` (``scalar_spec``, where every edge
    is checked directly), and waves of ``WAVE_WIDTH`` samples.  The wide
    run is asserted bit-identical to the one-sample speculative run —
    paths, costs, operation counters, and per-round phase loads — before
    any time is reported.  Timings
    interleave the three configurations across repetitions and report
    medians, which suppresses machine drift better than best-of-N here
    (whole planner runs are long enough to be preempted).
    """
    suite = WAVE_SUITE[:WAVE_QUICK_CASES] if quick else WAVE_SUITE
    reps = 3 if quick else 5
    records: List[Dict] = []
    for label, robot_name, num_obstacles, variant, overrides in suite:
        task = random_task(robot_name, num_obstacles, seed=seed)
        robot = get_robot(robot_name)

        def run(width: int, depth: int):
            config = moped_config(
                variant, max_samples=WAVE_SAMPLES, seed=5,
                wave_width=width, speculation_depth=depth, **overrides
            )
            planner = RRTStarPlanner(robot, task, config)
            t0 = time.perf_counter()
            result = planner.plan()
            return time.perf_counter() - t0, result

        # Correctness gate first: a perf number for a diverged run is
        # meaningless.  This is also the bench's speculation_depth > 0
        # coverage: one-sample waves at depth W run here every time.
        _, spec_result = run(1, WAVE_WIDTH)
        _, wave_result = run(WAVE_WIDTH, 0)
        reason = _plans_equal(wave_result, spec_result)
        if reason is not None:
            raise AssertionError(
                f"{label}: wave W={WAVE_WIDTH} diverged from one-sample "
                f"waves at speculation_depth={WAVE_WIDTH}: {reason}"
            )

        times: Dict[str, List[float]] = {"scalar": [], "spec": [], "wave": []}
        for _ in range(reps):
            dt, _ = run(1, 0)
            times["scalar"].append(dt)
            dt, _ = run(1, WAVE_WIDTH)
            times["spec"].append(dt)
            dt, wave_result = run(WAVE_WIDTH, 0)
            times["wave"].append(dt)
        scalar_s = statistics.median(times["scalar"])
        spec_s = statistics.median(times["spec"])
        wave_s = statistics.median(times["wave"])
        records.append(
            {
                "case": label,
                "robot": robot_name,
                "obstacles": num_obstacles,
                "variant": variant,
                "wave_width": WAVE_WIDTH,
                "max_samples": WAVE_SAMPLES,
                "scalar_s": scalar_s,
                "scalar_spec_s": spec_s,
                "wave_s": wave_s,
                "speedup_vs_scalar": scalar_s / wave_s,
                "speedup_vs_spec": spec_s / wave_s,
                "wave_occupancy": wave_occupancy(wave_result.rounds),
                "path_cost": wave_result.path_cost,
                "num_nodes": wave_result.num_nodes,
                "equivalent": True,
            }
        )
    return records


# ------------------------------------------------------------------- edge


#: Whole-edge suite points: (label, robot, obstacles, checker).  Arm robots
#: only: the brute-OBB cases, where the stacked edge kernels with the
#: conservative AABB broadphase amortize best, and the two-stage funnel.
EDGE_SUITE = (
    ("rozum/24obs/obb", "rozum", 24, "obb"),
    ("xarm7/24obs/obb", "xarm7", 24, "obb"),
    ("xarm7/24obs/two_stage", "xarm7", 24, "two_stage"),
)

#: Movements per measured pass.  Fixed (independent of ``--quick``) so
#: quick CI runs and the committed full baseline share the same
#: (case, wave_width, edges) keys and the regression gate engages.
EDGE_COUNT = 192


def _edge_batch(robot, rng: np.random.Generator, count: int):
    """Random short movements in the planner's steer/rewire edge regime.

    Uniform starts over the configuration bounds, random directions,
    lengths in [0.5, 2] steering steps, ends clipped back into bounds.
    """
    lo, hi = robot.config_lo, robot.config_hi
    starts = rng.uniform(lo, hi, size=(count, robot.dof))
    directions = rng.normal(size=(count, robot.dof))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    lengths = rng.uniform(0.5, 2.0, size=(count, 1)) * robot.step_size
    ends = np.clip(starts + directions * lengths, lo, hi)
    return starts, ends


def bench_edge(quick: bool = False, seed: int = 11) -> List[Dict]:
    """Time whole-edge validation, gated on the scalar reference.

    For every suite case :meth:`~repro.core.collision.CollisionChecker.
    motion_results_batch` — the stacked whole-edge kernels behind one FK
    batch and the conservative AABB broadphase — validates the same
    ``EDGE_COUNT`` random movements in waves of ``WAVE_WIDTH``.  The
    reference backend's per-configuration walk (the golden semantics,
    never timed) must agree on every verdict and every captured
    :class:`~repro.core.counters.OpCounter` before any time is reported.
    """
    reps = 3 if quick else 7
    records: List[Dict] = []
    for label, robot_name, num_obstacles, checker_name in EDGE_SUITE:
        robot = get_robot(robot_name)
        env = random_task(robot_name, num_obstacles, seed=seed).environment
        resolution = robot.step_size / 4.0  # the planner's derivation rule
        rng = np.random.default_rng(seed)
        starts, ends = _edge_batch(robot, rng, EDGE_COUNT)
        waves = [
            (starts[i:i + WAVE_WIDTH], ends[i:i + WAVE_WIDTH])
            for i in range(0, EDGE_COUNT, WAVE_WIDTH)
        ]
        checker = make_checker(checker_name, robot, env, resolution)
        golden = make_checker(
            checker_name, robot, env, resolution, kernels="reference"
        )

        def run_edge(target=checker):
            out = []
            for wave_starts, wave_ends in waves:
                out.extend(target.motion_results_batch(wave_starts, wave_ends))
            return out

        # Correctness gate first: a perf number for a diverged run is
        # meaningless.  Verdicts and captured counters must match the
        # reference movement for movement.
        for e, (a, b) in enumerate(zip(run_edge(), run_edge(golden))):
            if a[0] != b[0]:
                raise AssertionError(f"{label}: verdicts diverged at edge {e}")
            if a[1].to_dict() != b[1].to_dict():
                raise AssertionError(f"{label}: counters diverged at edge {e}")

        edge_s = _time(run_edge, reps)
        records.append(
            {
                "case": label,
                "robot": robot_name,
                "obstacles": num_obstacles,
                "checker": checker_name,
                "wave_width": WAVE_WIDTH,
                "edges": EDGE_COUNT,
                "edge_s": edge_s,
                "edge_us_per_edge": edge_s / EDGE_COUNT * 1e6,
                "equivalent": True,
            }
        )
    return records


# ---------------------------------------------------------------- connect


#: Connect suite points: (label, robot, obstacles).  Arm robots — the
#: regime where bidirectional greedy connect collapses the iteration count
#: hardest relative to wave RRT* (the PR 4/8 feasibility baseline).
CONNECT_SUITE = (
    ("rozum/24obs", "rozum", 24),
    ("xarm7/24obs", "xarm7", 24),
)

#: Sampling budget of every connect-bench run.  Fixed (independent of
#: ``--quick``) so quick CI runs and the committed full baseline share the
#: same (case, wave_width, max_samples) keys and the regression gate
#: engages.
CONNECT_SAMPLES = 600


def bench_connect(quick: bool = False, seed: int = 3) -> List[Dict]:
    """Time bidirectional RRT-Connect against wave RRT* on feasibility.

    Both planners answer the same question — *find any collision-free
    path* — from identical tasks and seeds: the baseline is the wavefront
    RRT* loop at the same wave width with ``stop_on_goal`` (the PR 4/8
    first-feasible configuration), the candidate is the connect planner's
    batched alternating-trees loop.

    Correctness gates first: the connect run must be bit-identical across
    wave widths (W=1 vs W=``WAVE_WIDTH``: paths, costs, counters, rounds)
    and across repeats at the same width, and both planners must actually
    find a path.  Timings interleave the two planners across repetitions
    and report medians.
    """
    suite = CONNECT_SUITE[:1] if quick else CONNECT_SUITE
    reps = 3 if quick else 5
    records: List[Dict] = []
    for label, robot_name, num_obstacles in suite:
        task = random_task(robot_name, num_obstacles, seed=seed)
        robot = get_robot(robot_name)

        def run_connect(width: int):
            config = moped_config(
                "v4", max_samples=CONNECT_SAMPLES, seed=5,
                mode="connect", wave_width=width,
            )
            planner = RRTConnectPlanner(robot, task, config)
            t0 = time.perf_counter()
            result = planner.plan()
            return time.perf_counter() - t0, result

        def run_rrtstar():
            config = moped_config(
                "v4", max_samples=CONNECT_SAMPLES, seed=5,
                wave_width=WAVE_WIDTH, stop_on_goal=True,
            )
            planner = RRTStarPlanner(robot, task, config)
            t0 = time.perf_counter()
            result = planner.plan()
            return time.perf_counter() - t0, result

        # Correctness gates: wave-width invariance, repeat determinism,
        # and feasibility on both sides.  A perf number for a diverged or
        # failed run is meaningless.
        _, scalar_result = run_connect(1)
        _, wave_result = run_connect(WAVE_WIDTH)
        reason = _plans_equal(wave_result, scalar_result)
        if reason is not None:
            raise AssertionError(
                f"{label}: connect W={WAVE_WIDTH} diverged from W=1: {reason}"
            )
        _, repeat_result = run_connect(WAVE_WIDTH)
        reason = _plans_equal(repeat_result, wave_result)
        if reason is not None:
            raise AssertionError(
                f"{label}: connect W={WAVE_WIDTH} is not reproducible "
                f"across repeats: {reason}"
            )
        if not wave_result.success:
            raise AssertionError(f"{label}: connect found no path")

        times: Dict[str, List[float]] = {"connect": [], "rrtstar": []}
        star_result = None
        for _ in range(reps):
            dt, _ = run_connect(WAVE_WIDTH)
            times["connect"].append(dt)
            dt, star_result = run_rrtstar()
            times["rrtstar"].append(dt)
        if not star_result.success:
            raise AssertionError(f"{label}: wave RRT* baseline found no path")
        connect_s = statistics.median(times["connect"])
        rrtstar_s = statistics.median(times["rrtstar"])
        records.append(
            {
                "case": label,
                "robot": robot_name,
                "obstacles": num_obstacles,
                "wave_width": WAVE_WIDTH,
                "max_samples": CONNECT_SAMPLES,
                "connect_s": connect_s,
                "rrtstar_s": rrtstar_s,
                "speedup": rrtstar_s / connect_s if connect_s > 0 else float("inf"),
                "connect_path_cost": wave_result.path_cost,
                "rrtstar_path_cost": star_result.path_cost,
                "connect_iterations": wave_result.iterations,
                "rrtstar_iterations": star_result.iterations,
                "connect_nodes": wave_result.num_nodes,
                "equivalent": True,
            }
        )
    return records


# --------------------------------------------------------------- portfolio


#: The two-planner race of the portfolio smoke: the feasibility specialist
#: against the optimizing wavefront loop.
PORTFOLIO_RACE = ("connect", "wave")


def bench_portfolio(quick: bool = False, seed: int = 3, workers: int = 2) -> Dict:
    """Portfolio racing smoke: race two planners, audit the accounting.

    Runs a small batch of portfolio requests through a real service (a
    worker pool when ``workers > 0``, the sequential inline race
    otherwise) and asserts the race invariants on every response: a winner
    exists and is feasible (``status="ok"``), every member ended in a
    terminal status, and the ``cancelled`` count in the race summary
    matches the per-member statuses.  Timing is reported for transparency
    only — the CI gate is the invariants, not the wall clock.
    """
    from repro.service.request import TERMINAL_STATUSES
    from repro.service.runner import PlanningService, build_requests

    jobs = 2 if quick else 4
    robot_name, obstacles = "rozum", 16
    with PlanningService(num_workers=workers) as service:
        requests = build_requests(
            robot=robot_name, obstacles=obstacles, jobs=jobs, seed=seed,
            samples=400, portfolio=PORTFOLIO_RACE,
        )
        t0 = time.perf_counter()
        responses = service.run_batch(requests)
        elapsed = time.perf_counter() - t0

    wins: Dict[str, int] = {}
    races: List[Dict] = []
    for response in responses:
        race = response.race
        if not race or race.get("winner") is None:
            raise AssertionError(
                f"portfolio race {response.request_id} produced no winner"
            )
        if response.status != "ok" or not response.success:
            raise AssertionError(
                f"portfolio race {response.request_id} winner is not a "
                f"feasible ok response (status={response.status!r})"
            )
        statuses = race["statuses"]
        for name, status in statuses.items():
            if status not in TERMINAL_STATUSES:
                raise AssertionError(
                    f"portfolio member {name} of {response.request_id} "
                    f"ended non-terminal: {status!r}"
                )
        counted = sum(1 for status in statuses.values() if status == "cancelled")
        if race["cancelled"] != counted:
            raise AssertionError(
                f"portfolio race {response.request_id}: summary counts "
                f"{race['cancelled']} cancelled members, statuses show {counted}"
            )
        wins[race["winner"]] = wins.get(race["winner"], 0) + 1
        races.append(
            {
                "request_id": response.request_id,
                "winner": race["winner"],
                "statuses": dict(statuses),
                "cancelled": race["cancelled"],
            }
        )
    return {
        "case": f"{robot_name}/{obstacles}obs",
        "planners": list(PORTFOLIO_RACE),
        "jobs": jobs,
        "workers": workers,
        "elapsed_s": elapsed,
        "wins": wins,
        "races": races,
        "equivalent": True,
    }


# ---------------------------------------------------------------- fault gate


#: Allowed fault-hook overhead: the inert-injector run may be at most 1%
#: slower than the no-injector run, plus an absolute cushion for timer
#: noise on short runs.
FAULTS_OVERHEAD_FACTOR = 1.01
FAULTS_OVERHEAD_SLACK_S = 0.01


def bench_faults_overhead(quick: bool = False, seed: int = 3) -> Dict:
    """Measure the cost of the fault-injection hooks when disabled.

    Runs the same planner configuration twice per repetition, interleaved:
    once with no injector installed (the production steady state — every
    hot site pays one ``is not None`` check) and once with an installed but
    *inert* plan (rules at the planner sites with ``p=0``, which skip the
    RNG draw).  Asserts both modes produce bit-identical plans, then
    reports interleaved medians and the overhead ratio.
    :func:`check_faults_overhead` fails the gate when the inert run exceeds
    ``FAULTS_OVERHEAD_FACTOR`` times the disabled run plus
    ``FAULTS_OVERHEAD_SLACK_S`` (1% plus 10 ms; :mod:`repro.faults`).
    """
    from repro.faults import FaultInjector, FaultPlan, FaultRule, set_injector

    samples = 200 if quick else 600
    reps = 5 if quick else 9
    task = random_task("mobile2d", 16, seed=seed)
    robot = get_robot("mobile2d")
    config = moped_config("v4", max_samples=samples, seed=5)
    inert_plan = FaultPlan(seed=1, rules=(
        FaultRule("planner.round", "slow", p=0.0),
        FaultRule("planner.collision", "slow", p=0.0),
    ))

    def run():
        t0 = time.perf_counter()
        result = plan(robot, task, config)
        return time.perf_counter() - t0, result

    times: Dict[str, List[float]] = {"disabled": [], "inert": []}
    results: Dict[str, object] = {}
    previous = set_injector(None)
    try:
        for _ in range(reps):
            set_injector(None)
            dt, results["disabled"] = run()
            times["disabled"].append(dt)
            set_injector(FaultInjector(inert_plan, scope="bench"))
            dt, results["inert"] = run()
            times["inert"].append(dt)
    finally:
        set_injector(previous)

    reason = _plans_equal(results["disabled"], results["inert"])
    if reason is not None:
        raise AssertionError(
            "inert fault injector changed the plan — the no-op contract is "
            f"broken: {reason}"
        )
    disabled_s = statistics.median(times["disabled"])
    inert_s = statistics.median(times["inert"])
    return {
        "case": "mobile2d/16obs/v4",
        "max_samples": samples,
        "reps": reps,
        "disabled_s": disabled_s,
        "inert_s": inert_s,
        "overhead_pct": 100.0 * (inert_s / disabled_s - 1.0) if disabled_s else 0.0,
        "equivalent": True,
    }


def _faults_budget_s(entry: Dict) -> float:
    """The inert-run time the faults gate allows."""
    return entry["disabled_s"] * FAULTS_OVERHEAD_FACTOR + FAULTS_OVERHEAD_SLACK_S


def _faults_verdict(entry: Dict) -> str:
    """The measured hook overhead next to the budget the gate enforces."""
    budget_s = _faults_budget_s(entry)
    verdict = "within" if entry["inert_s"] <= budget_s else "over"
    return (
        f"overhead={entry['overhead_pct']:+.2f}% {verdict} budget "
        f"{100.0 * (budget_s / entry['disabled_s'] - 1.0):+.2f}% "
        f"({FAULTS_OVERHEAD_FACTOR:.2f}x + {FAULTS_OVERHEAD_SLACK_S * 1e3:.0f}ms "
        f"= {budget_s:.4f}s)"
    )


def check_faults_overhead(entry: Dict) -> List[str]:
    """Gate messages for a :func:`bench_faults_overhead` record (empty = pass)."""
    if entry["inert_s"] > _faults_budget_s(entry):
        return [
            f"fault hooks: inert {entry['inert_s']:.4f}s vs disabled "
            f"{entry['disabled_s']:.4f}s, {_faults_verdict(entry)}"
        ]
    return []


# ---------------------------------------------------------------- sections


@dataclass(frozen=True)
class Section:
    """One report section: how it runs, is named, gated, printed, drilled.

    ``run(quick)`` measures the section and returns its entries (every
    section is a list in the report).  An entry is named across reports by
    its ``key`` fields, and ``time`` is its primary timing.  The gate is
    ``factor`` (fail when ``time`` exceeds ``factor`` times the fastest
    baseline entry with the same key; the message names the entry by
    ``label`` with ``digits`` decimals) or ``check`` (an in-run verdict
    that needs no baseline).  ``line`` prints an entry; ``row`` is the
    ``section`` attribute of its drill-down rows (``None``: no rows).
    """

    name: str
    run: Callable[[bool], List[Dict]]
    line: Callable[[Dict], str]
    key: Tuple[str, ...] = ()
    time: Optional[str] = None
    factor: Optional[float] = None
    label: str = ""
    digits: int = 4
    check: Optional[Callable[[Dict], List[str]]] = None
    row: Optional[str] = None

    def key_of(self, entry: Dict) -> tuple:
        return tuple(entry[name] for name in self.key)


def _portfolio_line(e: Dict) -> str:
    wins = " ".join(f"{name}={count}" for name, count in sorted(e["wins"].items()))
    return (
        f"portfolio {e['case']:19s} race={'+'.join(e['planners'])} "
        f"jobs={e['jobs']} workers={e['workers']}  wins[{wins}]  "
        f"{e['elapsed_s']:.2f}s  (losers terminal: {e['equivalent']})"
    )


#: Every ``repro.bench`` section, in run order.  ``run_benchmarks``, the
#: gate, the drill-down rows and the CLI read only this table.  ``faults``
#: runs before ``portfolio``, the one section that starts worker processes,
#: so its interleaved A/B never shares the host with a pool shutting down.
SECTIONS = (
    Section(
        "kernels", bench_kernels,
        lambda e: (
            f"kernel {e['kernel']:16s} dim={e['dim']} size={e['size']:>9s}  "
            f"batch={e['batch_s'] * 1e6:9.1f}us "
            f"reference={e['reference_s'] * 1e6:10.1f}us  "
            f"speedup={e['speedup']:6.1f}x"
        ),
        key=("kernel", "dim", "size"), time="batch_s",
        factor=REGRESSION_FACTOR, label="{kernel} dim={dim} size={size}",
        digits=6, row="kernel",
    ),
    Section(
        "end_to_end", bench_end_to_end,
        lambda e: (
            f"e2e    {e['case']:22s} batch={e['batch_s']:.2f}s "
            f"reference={e['reference_s']:.2f}s  speedup={e['speedup']:.2f}x  "
            f"(bit-identical: {e['equivalent']})"
        ),
        key=("case", "max_samples"), time="batch_s", row="e2e",
    ),
    Section(
        "wave", bench_wave,
        lambda e: (
            f"wave   {e['case']:22s} W={e['wave_width']:<3d} "
            f"scalar={e['scalar_s']:.3f}s wave={e['wave_s']:.3f}s  "
            f"speedup={e['speedup_vs_scalar']:.2f}x  "
            f"occ={e['wave_occupancy']:.2f}  (bit-identical: {e['equivalent']})"
        ),
        key=("case", "wave_width", "max_samples"), time="wave_s",
        factor=REGRESSION_FACTOR, label="wave {case} W={wave_width}", row="wave",
    ),
    Section(
        "edge", bench_edge,
        lambda e: (
            f"edge   {e['case']:22s} W={e['wave_width']:<3d} "
            f"edge={e['edge_us_per_edge']:6.1f}us/edge  "
            f"(bit-identical: {e['equivalent']})"
        ),
        key=("case", "wave_width", "edges"), time="edge_s",
        factor=REGRESSION_FACTOR, label="edge {case} W={wave_width}", row="edge",
    ),
    Section(
        "connect", bench_connect,
        lambda e: (
            f"connect {e['case']:21s} W={e['wave_width']:<3d} "
            f"rrtstar={e['rrtstar_s']:.3f}s connect={e['connect_s']:.3f}s  "
            f"speedup={e['speedup']:.2f}x  "
            f"iters={e['connect_iterations']}/{e['rrtstar_iterations']}  "
            f"(bit-reproducible: {e['equivalent']})"
        ),
        key=("case", "wave_width", "max_samples"), time="connect_s",
        factor=REGRESSION_FACTOR, label="connect {case} W={wave_width}",
        row="connect",
    ),
    Section(
        "faults", lambda quick: [bench_faults_overhead(quick)],
        lambda e: (
            f"faults {e['case']:22s} disabled={e['disabled_s']:.3f}s "
            f"inert={e['inert_s']:.3f}s  {_faults_verdict(e)}  "
            f"(bit-identical: {e['equivalent']})"
        ),
        check=check_faults_overhead,
    ),
    Section("portfolio", lambda quick: [bench_portfolio(quick)], _portfolio_line),
)


# ------------------------------------------------------------------- report


def run_benchmarks(quick: bool = False,
                   sections: Optional[Sequence[str]] = None) -> Dict:
    """Run the named sections (default: all of :data:`SECTIONS`) once each.

    Every section key is in the report; a section not run is empty.
    """
    names = [section.name for section in SECTIONS]
    chosen = names if sections is None else list(sections)
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        raise ValueError(f"unknown bench sections {unknown}; known: {names}")
    report = {
        "schema": SCHEMA_VERSION,
        "emitter": "repro.bench",
        "mode": "quick" if quick else "full",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    for section in SECTIONS:
        report[section.name] = section.run(quick) if section.name in chosen else []
    return report


def save_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def merge_baselines(baselines: Sequence[Dict]) -> Dict:
    """One baseline holding the fastest entry per key over ``baselines``.

    An entry fails the factor gate against it exactly when it fails
    against any one of ``baselines``: ``t > f * min(b)`` iff ``t > f * b``
    for some ``b``.
    """
    merged: Dict = {"schema": SCHEMA_VERSION, "emitter": "repro.bench"}
    for section in SECTIONS:
        if section.time is None:
            continue
        fastest: Dict[tuple, Dict] = {}
        for baseline in baselines:
            for entry in baseline.get(section.name) or []:
                key = section.key_of(entry)
                if key not in fastest or \
                        entry[section.time] < fastest[key][section.time]:
                    fastest[key] = entry
        merged[section.name] = list(fastest.values())
    return merged


def compare_to_baseline(report: Dict, baseline: Dict) -> List[str]:
    """The gate: one message per failing entry (empty = pass).

    A section with a ``factor`` fails an entry whose time exceeds
    ``factor`` times the baseline entry with the same key (a kernel's
    (kernel, dim, size) point, a wave case's (case, wave_width,
    max_samples) point, ...); points missing from either report are
    skipped.  A section with a ``check`` runs it on each of its entries.
    """
    failures: List[str] = []
    for section in SECTIONS:
        entries = report.get(section.name) or []
        if section.check is not None:
            for entry in entries:
                failures.extend(section.check(entry))
        if section.factor is None:
            continue
        base_index = {section.key_of(entry): entry
                      for entry in baseline.get(section.name) or []}
        for entry in entries:
            base = base_index.get(section.key_of(entry))
            if base is None:
                continue
            now, then = entry[section.time], base[section.time]
            if now > section.factor * then:
                failures.append(
                    f"{section.label.format(**entry)}: {now:.{section.digits}f}s "
                    f"vs baseline {then:.{section.digits}f}s "
                    f"(> {section.factor:.1f}x)"
                )
    return failures


#: Entry fields that label a row (its drill-down attributes).
_ROW_ATTRIBUTES = ("kernel", "dim", "size", "case", "robot", "obstacles",
                   "variant", "checker", "wave_width", "max_samples", "edges")


def bench_dump(report: Dict) -> Dict:
    """A bench report as a drill-down dump (see :mod:`repro.obs.rca`).

    Each entry of a section with a ``row`` label becomes one row whose
    ``time_s`` is its primary timing, so one RCA run attributes the whole
    report's time delta.  Accepts stamped reports and the unstamped ones
    committed before the ``emitter`` stamp; rejects reports newer than
    :data:`SCHEMA_VERSION` and payloads with none of the timed sections.
    """
    timed = [section for section in SECTIONS if section.row is not None]
    if not any(section.name in report for section in timed):
        raise ValueError(
            "dump has no per-row 'records' and is not a repro.bench report "
            f"(no {' / '.join(section.name for section in timed)} section)"
        )
    schema = report.get("schema")
    if not isinstance(schema, int) or not 0 <= schema <= SCHEMA_VERSION:
        raise ValueError(
            f"repro.bench report carries schema {schema!r} but this build "
            f"reads up to {SCHEMA_VERSION} — re-run the bench with a "
            "matching build"
        )
    rows = []
    for section in timed:
        for entry in report.get(section.name) or []:
            row = {name: value for name, value in entry.items()
                   if name not in _ROW_ATTRIBUTES}
            row["time_s"] = entry[section.time]
            row["attributes"] = {"section": section.row, **{
                name: str(entry[name]) for name in _ROW_ATTRIBUTES
                if name in entry
            }}
            rows.append(row)
    return {"schema": DUMP_SCHEMA, "emitter": "repro.bench",
            "measure": "time_s", "records": rows}


def analyze_bench_reports(
    baseline: Dict,
    candidate: Dict,
    metric: str = "sum",
    measure: str = "time_s",
    top: int = 5,
) -> RcaResult:
    """RCA over two bench reports (baseline vs candidate).

    The default ``sum(time_s)`` decomposes the total wall-time delta
    exactly across (section × kernel × dim × size / case) cells, so a
    perf-gate failure names the offending cell(s).  Cells present in only
    one report still surface (as vanished/new slices).
    """
    return analyze(
        read_dump(bench_dump(baseline)).records,
        read_dump(bench_dump(candidate)).records,
        measure=measure, metric=metric, top=top, min_support=1,
    )
