"""``repro.bench``: kernel and end-to-end benchmark harness.

Times the vectorized kernels of :mod:`repro.kernels.batch` against the
scalar golden implementations of :mod:`repro.kernels.reference`, and whole
planner runs with ``kernels="batch"`` against ``kernels="reference"``,
asserting bit-identical results while measuring the speedup.

Run it as ``python -m repro.bench``; results land in ``BENCH_kernels.json``
(a stable, CI-diffable schema).  ``--check`` compares against a committed
baseline (``benchmarks/BENCH_baseline.json``) and exits non-zero when any
kernel's batch time regresses by more than the allowed factor, which is how
CI guards the hot paths.  See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.collision import make_checker
from repro.core.config import moped_config
from repro.core.connect import RRTConnectPlanner
from repro.core.counters import OpCounter
from repro.core.metrics import wave_occupancy
from repro.core.robots import get_robot
from repro.core.rrtstar import RRTStarPlanner, plan
from repro.geometry.motion import interpolate_configs
from repro.geometry.rotations import random_rotation_2d, random_rotation_3d
from repro.kernels import batch, reference
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
    reports best-of-N wall times and the speedup.
    """
    rng = np.random.default_rng(seed)
    repeats = 3 if quick else 7
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

    Asserts the two backends produce bit-identical paths, costs, and
    operation-counter totals before reporting wall times — a perf number for
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
        fast, gold = results["batch"], results["reference"]
        same_path = len(fast.path) == len(gold.path) and all(
            np.array_equal(a, b) for a, b in zip(fast.path, gold.path)
        )
        if not same_path or fast.path_cost != gold.path_cost:
            raise AssertionError(f"{label}: batch and reference plans diverged")
        if fast.counter.to_dict() != gold.counter.to_dict():
            raise AssertionError(f"{label}: operation counters diverged")
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


def bench_wave(quick: bool = False, seed: int = 3, wave_width: int = 8) -> List[Dict]:
    """Time the wavefront planner against the scalar loop.

    For every suite case three configurations run: the plain scalar loop
    (``speculation_depth = 0``, the PR 3 batch-backend semantics), the
    scalar speculative loop at ``depth = wave_width``, and the wavefront
    planner at ``wave_width``.  The wave run is asserted bit-identical to
    the scalar speculative run — paths, costs, operation counters, and
    per-round phase loads — before any time is reported.  Timings
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
            return time.perf_counter() - t0, result, planner

        # Correctness gate first: a perf number for a diverged run is
        # meaningless.  This is also the bench's speculation_depth > 0
        # coverage — the scalar speculative planner runs here every time.
        _, spec_result, _ = run(1, wave_width)
        _, wave_result, wave_planner = run(wave_width, 0)
        reason = _plans_equal(wave_result, spec_result)
        if reason is not None:
            raise AssertionError(
                f"{label}: wave W={wave_width} diverged from scalar "
                f"speculation_depth={wave_width}: {reason}"
            )

        times: Dict[str, List[float]] = {"scalar": [], "spec": [], "wave": []}
        for _ in range(reps):
            dt, _, _ = run(1, 0)
            times["scalar"].append(dt)
            dt, _, _ = run(1, wave_width)
            times["spec"].append(dt)
            dt, wave_result, wave_planner = run(wave_width, 0)
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
                "wave_width": wave_width,
                "max_samples": WAVE_SAMPLES,
                "scalar_s": scalar_s,
                "scalar_spec_s": spec_s,
                "wave_s": wave_s,
                "speedup_vs_scalar": scalar_s / wave_s,
                "speedup_vs_spec": spec_s / wave_s,
                "wave_occupancy": wave_occupancy(wave_result.rounds),
                "cache": wave_planner.cache_stats(),
                "path_cost": wave_result.path_cost,
                "num_nodes": wave_result.num_nodes,
                "equivalent": True,
            }
        )
    return records


# ------------------------------------------------------------------- edge


#: Whole-edge suite points: (label, robot, obstacles, checker).  Arm robots
#: only — the acceptance gate tracks the brute-OBB cases, where the stacked
#: edge kernels with the conservative AABB broadphase amortize best; the
#: two-stage case is reported for transparency (its per-configuration
#: baseline already funnels the exact SAT, so the margin is narrower).
EDGE_SUITE = (
    ("rozum/24obs/obb", "rozum", 24, "obb"),
    ("xarm7/24obs/obb", "xarm7", 24, "obb"),
    ("xarm7/24obs/two_stage", "xarm7", 24, "two_stage"),
)

#: Movements per measured pass and their wave grouping.  Fixed (independent
#: of ``--quick``) so quick CI runs and the committed full baseline share
#: the same (case, wave_width, edges) keys and the regression gate engages.
EDGE_COUNT = 192
EDGE_WAVE_WIDTH = 8


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
    """Time whole-edge validation against the per-configuration wave path.

    For every suite case three implementations process the same
    ``EDGE_COUNT`` random movements in waves of ``EDGE_WAVE_WIDTH``:

    * **pr4** — the previous wave backend: one interpolation ladder per
      edge, a single per-configuration ``config_results`` kernel pass over
      the wave's concatenated waypoints, then the scalar early-exit replay
      per edge;
    * **edge** — :meth:`~repro.core.collision.CollisionChecker.
      motion_results_batch`: the stacked whole-edge kernels behind one FK
      batch and the conservative AABB broadphase;
    * **scalar** — the reference backend's per-configuration walk, the
      golden semantics (correctness only, never timed).

    All three must agree on every verdict and every captured
    :class:`OpCounter` before any time is reported.  A fourth measurement
    replays the same waves through a warm whole-edge cache — the wavefront
    planner's steady state for repeated rewire candidates.
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
            (starts[i:i + EDGE_WAVE_WIDTH], ends[i:i + EDGE_WAVE_WIDTH])
            for i in range(0, EDGE_COUNT, EDGE_WAVE_WIDTH)
        ]
        checker = make_checker(checker_name, robot, env, resolution)
        golden = make_checker(
            checker_name, robot, env, resolution, kernels="reference"
        )

        def run_pr4(target=checker):
            out = []
            for wave_starts, wave_ends in waves:
                ladders = [
                    interpolate_configs(s, e, resolution)
                    for s, e in zip(wave_starts, wave_ends)
                ]
                verdicts, events = target.config_results(np.concatenate(ladders))
                pos = 0
                for ladder in ladders:
                    span = len(ladder)
                    captured = OpCounter()
                    verdict = target._replay_config_results(
                        verdicts[pos:pos + span], events[pos:pos + span], captured
                    )
                    out.append((verdict, captured))
                    pos += span
            return out

        def run_edge(target=checker):
            out = []
            for wave_starts, wave_ends in waves:
                out.extend(target.motion_results_batch(wave_starts, wave_ends))
            return out

        # Correctness gate first: a perf number for a diverged run is
        # meaningless.  Verdicts and captured counters of all three
        # implementations must match movement for movement.
        pr4_results = run_pr4()
        edge_results = run_edge()
        golden_results = run_edge(golden)
        for e, (a, b, c) in enumerate(
            zip(pr4_results, edge_results, golden_results)
        ):
            if not (a[0] == b[0] == c[0]):
                raise AssertionError(f"{label}: verdicts diverged at edge {e}")
            if not (a[1].to_dict() == b[1].to_dict() == c[1].to_dict()):
                raise AssertionError(f"{label}: counters diverged at edge {e}")

        pr4_s = _time(run_pr4, reps)
        edge_s = _time(run_edge, reps)
        cached = make_checker(
            checker_name, robot, env, resolution, edge_cache_size=4096
        )
        run_edge(cached)  # prime the whole-edge cache
        cached_s = _time(lambda: run_edge(cached), reps)

        records.append(
            {
                "case": label,
                "robot": robot_name,
                "obstacles": num_obstacles,
                "checker": checker_name,
                "wave_width": EDGE_WAVE_WIDTH,
                "edges": EDGE_COUNT,
                "pr4_s": pr4_s,
                "edge_s": edge_s,
                "cached_s": cached_s,
                "pr4_us_per_edge": pr4_s / EDGE_COUNT * 1e6,
                "edge_us_per_edge": edge_s / EDGE_COUNT * 1e6,
                "cached_us_per_edge": cached_s / EDGE_COUNT * 1e6,
                "speedup": pr4_s / edge_s if edge_s > 0 else float("inf"),
                "cached_speedup": (
                    pr4_s / cached_s if cached_s > 0 else float("inf")
                ),
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
CONNECT_WAVE_WIDTH = 8


def bench_connect(
    quick: bool = False, seed: int = 3, wave_width: int = CONNECT_WAVE_WIDTH
) -> List[Dict]:
    """Time bidirectional RRT-Connect against wave RRT* on feasibility.

    Both planners answer the same question — *find any collision-free
    path* — from identical tasks and seeds: the baseline is the wavefront
    RRT* loop at the same wave width with ``stop_on_goal`` (the PR 4/8
    first-feasible configuration), the candidate is the connect planner's
    batched alternating-trees loop.

    Correctness gates first: the connect run must be bit-identical across
    wave widths (W=1 vs W=``wave_width``: paths, costs, counters, rounds)
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
            return time.perf_counter() - t0, result, planner

        def run_rrtstar():
            config = moped_config(
                "v4", max_samples=CONNECT_SAMPLES, seed=5,
                wave_width=wave_width, stop_on_goal=True,
            )
            planner = RRTStarPlanner(robot, task, config)
            t0 = time.perf_counter()
            result = planner.plan()
            return time.perf_counter() - t0, result, planner

        # Correctness gates: wave-width invariance, repeat determinism,
        # and feasibility on both sides.  A perf number for a diverged or
        # failed run is meaningless.
        _, scalar_result, _ = run_connect(1)
        _, wave_result, _ = run_connect(wave_width)
        reason = _plans_equal(wave_result, scalar_result)
        if reason is not None:
            raise AssertionError(
                f"{label}: connect W={wave_width} diverged from W=1: {reason}"
            )
        _, repeat_result, _ = run_connect(wave_width)
        reason = _plans_equal(repeat_result, wave_result)
        if reason is not None:
            raise AssertionError(
                f"{label}: connect W={wave_width} is not reproducible "
                f"across repeats: {reason}"
            )
        if not wave_result.success:
            raise AssertionError(f"{label}: connect found no path")

        times: Dict[str, List[float]] = {"connect": [], "rrtstar": []}
        star_result = None
        connect_planner = None
        for _ in range(reps):
            dt, _, connect_planner = run_connect(wave_width)
            times["connect"].append(dt)
            dt, star_result, _ = run_rrtstar()
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
                "wave_width": wave_width,
                "max_samples": CONNECT_SAMPLES,
                "connect_s": connect_s,
                "rrtstar_s": rrtstar_s,
                "speedup": rrtstar_s / connect_s if connect_s > 0 else float("inf"),
                "connect_path_cost": wave_result.path_cost,
                "rrtstar_path_cost": star_result.path_cost,
                "connect_iterations": wave_result.iterations,
                "rrtstar_iterations": star_result.iterations,
                "connect_nodes": wave_result.num_nodes,
                "cache": connect_planner.cache_stats(),
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
    reports interleaved medians and the overhead ratio.  ``--faults-gate``
    fails CI when the inert run exceeds the <1% budget the zero-overhead
    contract promises (:mod:`repro.faults`).
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

    disabled, inert = results["disabled"], results["inert"]
    if (disabled.path_cost != inert.path_cost
            or disabled.counter.to_dict() != inert.counter.to_dict()):
        raise AssertionError(
            "inert fault injector changed the plan — the no-op contract is broken"
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


def check_faults_overhead(entry: Dict) -> List[str]:
    """Gate messages for a :func:`bench_faults_overhead` record (empty = pass)."""
    budget = entry["disabled_s"] * FAULTS_OVERHEAD_FACTOR + FAULTS_OVERHEAD_SLACK_S
    if entry["inert_s"] > budget:
        return [
            f"fault hooks overhead: inert {entry['inert_s']:.4f}s vs "
            f"disabled {entry['disabled_s']:.4f}s "
            f"({entry['overhead_pct']:+.2f}%, budget "
            f"{FAULTS_OVERHEAD_FACTOR:.2f}x + {FAULTS_OVERHEAD_SLACK_S}s)"
        ]
    return []


# ------------------------------------------------------------------- report


def run_benchmarks(
    quick: bool = False,
    skip_e2e: bool = False,
    seed: int = 0,
    wave: bool = False,
    wave_width: int = 8,
    faults: bool = False,
    edge: bool = False,
    connect: bool = False,
    portfolio: bool = False,
) -> Dict:
    """Full harness: kernel sweeps plus end-to-end planner runs."""
    report = {
        "schema": SCHEMA_VERSION,
        "emitter": "repro.bench",
        "mode": "quick" if quick else "full",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "kernels": bench_kernels(quick=quick, seed=seed),
        "end_to_end": [] if skip_e2e else bench_end_to_end(quick=quick),
        "wave": bench_wave(quick=quick, wave_width=wave_width) if wave else [],
        "edge": bench_edge(quick=quick) if edge else [],
        "connect": bench_connect(quick=quick) if connect else [],
        "portfolio": bench_portfolio(quick=quick) if portfolio else None,
        "faults": bench_faults_overhead(quick=quick) if faults else None,
    }
    return report


def save_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_to_baseline(
    report: Dict,
    baseline: Dict,
    factor: float = REGRESSION_FACTOR,
) -> List[str]:
    """Regression check: returns one message per kernel slower than allowed.

    A kernel regresses when its batch time exceeds ``factor`` times the
    committed baseline's batch time for the same (kernel, dim, size) point;
    a wave case regresses when its wave time exceeds ``factor`` times the
    baseline's wave time for the same (case, wave_width, max_samples)
    point.  Points missing from either report are skipped — the gate only
    compares what both runs measured.
    """
    def key(entry: Dict):
        return (entry["kernel"], entry["dim"], entry["size"])

    base_index = {key(entry): entry for entry in baseline.get("kernels", [])}
    failures: List[str] = []
    for entry in report.get("kernels", []):
        base = base_index.get(key(entry))
        if base is None:
            continue
        if entry["batch_s"] > factor * base["batch_s"]:
            failures.append(
                f"{entry['kernel']} dim={entry['dim']} size={entry['size']}: "
                f"{entry['batch_s']:.6f}s vs baseline {base['batch_s']:.6f}s "
                f"(> {factor:.1f}x)"
            )

    def wave_key(entry: Dict):
        return (entry["case"], entry["wave_width"], entry["max_samples"])

    wave_index = {wave_key(entry): entry for entry in baseline.get("wave", [])}
    for entry in report.get("wave", []):
        base = wave_index.get(wave_key(entry))
        if base is None:
            continue
        if entry["wave_s"] > factor * base["wave_s"]:
            failures.append(
                f"wave {entry['case']} W={entry['wave_width']}: "
                f"{entry['wave_s']:.4f}s vs baseline {base['wave_s']:.4f}s "
                f"(> {factor:.1f}x)"
            )

    def edge_key(entry: Dict):
        return (entry["case"], entry["wave_width"], entry["edges"])

    edge_index = {edge_key(entry): entry for entry in baseline.get("edge", [])}
    for entry in report.get("edge", []):
        base = edge_index.get(edge_key(entry))
        if base is None:
            continue
        if entry["edge_s"] > factor * base["edge_s"]:
            failures.append(
                f"edge {entry['case']} W={entry['wave_width']}: "
                f"{entry['edge_s']:.4f}s vs baseline {base['edge_s']:.4f}s "
                f"(> {factor:.1f}x)"
            )

    def connect_key(entry: Dict):
        return (entry["case"], entry["wave_width"], entry["max_samples"])

    connect_index = {
        connect_key(entry): entry for entry in baseline.get("connect", [])
    }
    for entry in report.get("connect", []):
        base = connect_index.get(connect_key(entry))
        if base is None:
            continue
        if entry["connect_s"] > factor * base["connect_s"]:
            failures.append(
                f"connect {entry['case']} W={entry['wave_width']}: "
                f"{entry['connect_s']:.4f}s vs baseline "
                f"{base['connect_s']:.4f}s (> {factor:.1f}x)"
            )
    return failures
