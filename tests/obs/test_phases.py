"""The per-run planner-phase accumulator (``repro.obs.PhaseRecorder``).

Every planner run times its phases into :attr:`PlanResult.phases`, with no
tracer or registry switched on; with metrics on, the ``repro_phase_*``
counters are written from that field once per run.
"""

import pytest

from repro import obs
from repro.core.config import moped_config
from repro.core.counters import OpCounter
from repro.core.planners import make_planner
from repro.core.robots import get_robot
from repro.service import PlanningService, build_requests
from repro.service.pool import PoolConfig
from repro.workloads import random_task

SAMPLES = 120

RUNS = [
    pytest.param("rrtstar", 1, id="rrtstar-W1"),
    pytest.param("rrtstar", 8, id="rrtstar-W8"),
    pytest.param("connect", 1, id="connect-W1"),
    pytest.param("connect", 8, id="connect-W8"),
]


@pytest.fixture(scope="module")
def task():
    return random_task("mobile2d", 8, seed=3)


def _plan(task, mode, width):
    """One seeded run; also returns how many samples the sampler drew."""
    config = moped_config("v4", max_samples=SAMPLES, seed=3, mode=mode,
                          wave_width=width)
    planner = make_planner(get_robot(task.robot_name), task, config)
    drawn = [0]
    name = "sample" if mode == "connect" else "sample_biased"
    draw = getattr(planner.sampler, name)

    def counted(*args, **kwargs):
        drawn[0] += 1
        return draw(*args, **kwargs)

    setattr(planner.sampler, name, counted)
    return planner.plan(), drawn[0]


def _calls_and_macs(result):
    """The repeatable part of a run's phases (wall seconds never repeat)."""
    return {name: (entry["calls"], entry["macs"])
            for name, entry in result.phases.items()}


def _speculated_waves(result):
    """Waves of more than one sample, read off the per-round records (a
    wave's rounds are consecutive and each carries the wave's width)."""
    waves, i = 0, 0
    while i < len(result.rounds):
        width = result.rounds[i].wave_width
        waves += width > 1
        i += width
    return waves


class TestRecorder:
    def test_accumulates_seconds_calls_and_mac_deltas(self):
        rec = obs.PhaseRecorder()
        counter = OpCounter()
        counter.record("sample", dim=2)  # before the phase: not attributed
        for _ in range(2):
            with rec.phase("collision", counter):
                counter.record("sat_obb_obb", n=3)
        with rec.phase("sample"):
            pass
        totals = rec.totals()
        assert list(totals) == ["sample", "collision"]  # PHASES order
        assert totals["collision"]["calls"] == 2
        assert totals["collision"]["macs"] == (
            counter.total_macs() - counter.macs["sample"]
        )
        assert totals["sample"] == {"seconds": totals["sample"]["seconds"],
                                    "calls": 1, "macs": 0.0}
        assert all(entry["seconds"] >= 0.0 for entry in totals.values())

    def test_needs_no_instrument(self):
        assert not obs.observing()
        rec = obs.PhaseRecorder()
        with rec.phase("nearest"):
            pass
        assert rec.totals()["nearest"]["calls"] == 1
        assert obs.get_tracer().spans == []
        assert len(obs.get_registry()) == 0


@pytest.mark.parametrize("mode,width", RUNS)
class TestPlannerRuns:
    def test_calls_and_macs_repeat_exactly(self, task, mode, width):
        first, _ = _plan(task, mode, width)
        second, _ = _plan(task, mode, width)
        assert {"sample", "nearest", "collision"} <= set(first.phases)
        assert _calls_and_macs(first) == _calls_and_macs(second)

    def test_sample_calls_equal_sample_events(self, task, mode, width):
        """A draw is a ``sample`` call when its round ran; a wave's draws
        past a bridge are timed under ``speculate``, with no call."""
        result, drawn = _plan(task, mode, width)
        events = result.counter.events["sample"]
        assert result.phases["sample"]["calls"] == events > 0
        assert drawn >= events
        if drawn > events:
            assert result.phases["speculate"]["calls"] == _speculated_waves(result)

    def test_phase_macs_within_run_total(self, task, mode, width):
        result, _ = _plan(task, mode, width)
        phase_macs = sum(entry["macs"] for entry in result.phases.values())
        assert 0 < phase_macs <= result.counter.total_macs()

    def test_speculate_times_each_multi_sample_wave(self, task, mode, width):
        result, _ = _plan(task, mode, width)
        if width == 1:
            assert "speculate" not in result.phases
            return
        assert result.phases["speculate"]["calls"] == _speculated_waves(result)
        assert result.phases["speculate"]["macs"] == 0.0

    def test_metrics_are_written_from_the_result(self, task, mode, width):
        previous = obs.install(obs.Tracer(enabled=False),
                               obs.MetricsRegistry(enabled=True))
        try:
            result, _ = _plan(task, mode, width)
            registry = obs.get_registry()
        finally:
            obs.restore(previous)
        for phase, entry in result.phases.items():
            assert registry.get("repro_phase_seconds_total").value(
                phase=phase) == entry["seconds"]
            assert registry.get("repro_phase_calls_total").value(
                phase=phase) == entry["calls"]
            assert registry.get("repro_phase_macs_total").value(
                phase=phase) == entry["macs"]


@pytest.mark.parametrize("workers", [0, 1], ids=["inline", "pool1"])
def test_untraced_service_batch_has_phase_axes(workers):
    requests = build_requests(
        moped_config("full", max_samples=SAMPLES, goal_bias=0.1),
        jobs=2,
    )  # trace=False
    pool_config = (PoolConfig(num_workers=workers, poll_interval_s=0.01)
                   if workers else None)
    with PlanningService(num_workers=workers, pool_config=pool_config) as svc:
        responses = svc.run_batch(requests)
        summary = svc.summary()
    assert all(r.status == "ok" and r.phase_seconds for r in responses)
    phases = summary["latency_s"]["phases"]
    assert {"sample", "nearest", "collision"} <= set(phases)
    assert phases["collision"]["max"] > 0


@pytest.mark.parametrize("mode,stop", [("connect", False), ("rrtstar", True)])
def test_draws_of_a_wave_that_ends_early_are_not_sample_calls(mode, stop):
    # A connect bridge, or a goal reached with stop_on_goal, ends the run
    # mid-wave: 24 and 72 samples drawn, 18 and 70 of them committed.
    task = random_task("mobile2d", 8, seed=1)
    config = moped_config("v4", max_samples=150, seed=1, mode=mode,
                          wave_width=8, stop_on_goal=stop)
    result = make_planner(get_robot("mobile2d"), task, config).plan()
    committed = result.counter.events["sample"]
    assert committed == result.iterations < 8 * _speculated_waves(result)
    assert result.phases["sample"]["calls"] == committed


def test_a_one_sample_tail_wave_is_not_speculated(task):
    # 57 samples at W=8: seven waves of 8, then one of a single sample.
    config = moped_config("v4", max_samples=57, seed=3, wave_width=8)
    result = make_planner(get_robot(task.robot_name), task, config).plan()
    assert [r.wave_width for r in result.rounds[-2:]] == [8, 1]
    assert result.phases["speculate"]["calls"] == 7 == _speculated_waves(result)
