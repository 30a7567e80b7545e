"""Unit tests for ``repro.faults``: rules, plans, and the injector."""

import pytest

from repro.errors import FaultInjected
from repro.faults import (
    HANG_SECONDS,
    SIDE_EFFECT_KINDS,
    SITES,
    TRANSPORT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    clear,
    execute_fault,
    get_injector,
    install_plan,
    set_injector,
)


class TestFaultRule:
    def test_spec_round_trip(self):
        rule = FaultRule("worker.send", "corrupt", p=0.5, after=3,
                         max_fires=2, delay_s=0.1)
        assert FaultRule.from_spec(rule.to_spec()) == rule

    def test_minimal_spec(self):
        rule = FaultRule.from_spec("planner.round:error")
        assert rule == FaultRule("planner.round", "error")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule("worker.recv", "meltdown")

    def test_unknown_site_rejected_when_strict(self):
        with pytest.raises(ValueError, match="site"):
            FaultRule.from_spec("warp.core:crash")
        assert FaultRule.from_spec("warp.core:crash", strict=False).site == "warp.core"

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultRule("worker.recv", "slow", p=1.5)
        with pytest.raises(ValueError):
            FaultRule("worker.recv", "slow", p=-0.1)

    def test_bad_spec_fields(self):
        with pytest.raises(ValueError):
            FaultRule.from_spec("worker.recv")
        with pytest.raises(ValueError):
            FaultRule.from_spec("worker.recv:slow:bogus=1")

    def test_kind_tables_are_disjoint(self):
        assert not set(SIDE_EFFECT_KINDS) & set(TRANSPORT_KINDS)
        assert all(":" not in site for site in SITES)


class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "planner.round:error@0.25;worker.send:corrupt:max=2", seed=7
        )
        assert FaultPlan.from_spec(plan.to_spec(), seed=7) == plan
        assert plan.seed == 7
        assert len(plan.rules) == 2

    def test_seed_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0)

    def test_for_sites_filters_by_prefix(self):
        plan = FaultPlan.from_spec(
            "planner.round:error;worker.send:corrupt;worker.recv:slow"
        )
        worker_only = plan.for_sites("worker.")
        assert {r.site for r in worker_only.rules} == {"worker.send", "worker.recv"}


class TestFaultInjector:
    def test_always_fires_at_p1(self):
        plan = FaultPlan.from_spec("worker.send:corrupt")
        injector = FaultInjector(plan)
        assert [injector.fire("worker.send") for _ in range(4)] == ["corrupt"] * 4

    def test_quiet_site_returns_none(self):
        injector = FaultInjector(FaultPlan.from_spec("worker.send:corrupt"))
        assert injector.fire("worker.recv") is None

    def test_inert_rules_dropped_at_construction(self):
        # p=0 on a frozen rule can never fire: the hot path must pay a
        # bare dict miss, not a rule-evaluation loop (the <1% contract).
        injector = FaultInjector(FaultPlan.from_spec("planner.collision:slow@0"))
        assert not injector.has_site("planner.collision")
        assert injector.fire("planner.collision") is None
        assert injector.fired == []

    def test_deterministic_per_seed_and_scope(self):
        plan = FaultPlan.from_spec("worker.send:corrupt@0.5", seed=11)

        def sequence(scope):
            injector = FaultInjector(plan, scope=scope)
            return [injector.fire("worker.send") for _ in range(64)]

        assert sequence("worker1") == sequence("worker1")
        assert sequence("worker1") != sequence("worker2")  # scopes diverge
        fires = [k for k in sequence("worker1") if k]
        assert 0 < len(fires) < 64  # probabilistic, not all-or-nothing

    def test_after_warmup_lets_early_calls_through(self):
        injector = FaultInjector(FaultPlan.from_spec("worker.send:drop:after=2"))
        assert injector.fire("worker.send") is None
        assert injector.fire("worker.send") is None
        assert injector.fire("worker.send") == "drop"

    def test_max_fires_caps_total(self):
        injector = FaultInjector(FaultPlan.from_spec("worker.send:drop:max=2"))
        kinds = [injector.fire("worker.send") for _ in range(5)]
        assert kinds == ["drop", "drop", None, None, None]

    def test_slow_sleeps_then_continues(self):
        naps = []
        injector = FaultInjector(
            FaultPlan.from_spec("worker.recv:slow:delay=0.25"),
            sleep=naps.append,
        )
        assert injector.fire("worker.recv") is None  # side effect, no kind
        assert naps == [0.25]

    def test_error_raises_fault_injected(self):
        injector = FaultInjector(FaultPlan.from_spec("worker.plan:error"))
        with pytest.raises(FaultInjected, match="worker.plan"):
            injector.fire("worker.plan", detail="job 7")

    def test_counts_by_site_and_kind(self):
        injector = FaultInjector(
            FaultPlan.from_spec("worker.send:drop:max=2;worker.recv:slow:max=1"),
            sleep=lambda s: None,
        )
        for _ in range(3):
            injector.fire("worker.send")
            injector.fire("worker.recv")
        assert injector.counts() == {"worker.send:drop": 2, "worker.recv:slow": 1}


class TestExecuteFault:
    def test_side_effect_kinds_act_and_transport_kinds_return(self):
        naps = []
        assert execute_fault("slow", delay_s=0.25, sleep=naps.append) is None
        assert execute_fault("hang", sleep=naps.append) is None
        assert naps == [0.25, HANG_SECONDS]
        with pytest.raises(FaultInjected, match="boom"):
            execute_fault("error", "boom")
        for kind in TRANSPORT_KINDS:
            assert execute_fault(kind) == kind

    def test_request_hook_runs_the_one_executor(self, monkeypatch, tmp_path):
        from repro.service import worker

        calls = []
        monkeypatch.setattr(worker, "execute_fault",
                            lambda kind, *args, **kw: calls.append(kind))
        flag = tmp_path / "flag"
        flag.write_text("")
        for fault in ("hang", "crash", "error", "slow:0.5",
                      f"flaky:{flag}", f"flaky:{flag}", "drop", None):
            worker.apply_fault(fault)
        # The flag is consumed by the first flaky crash; the retry is clean.
        assert calls == ["hang", "crash", "error", "slow", "crash"]
        assert not flag.exists()
        with pytest.raises(ValueError, match="unknown fault spec"):
            worker.apply_fault("bogus")

    def test_request_error_message(self):
        from repro.service.worker import apply_fault

        with pytest.raises(FaultInjected, match="injected worker error"):
            apply_fault("error")


class TestGlobalInjector:
    def test_default_is_none(self):
        previous = set_injector(None)
        try:
            assert get_injector() is None
        finally:
            set_injector(previous)

    def test_install_and_clear(self):
        previous = get_injector()
        try:
            injector = install_plan(FaultPlan.from_spec("worker.send:drop"))
            assert get_injector() is injector
            clear()
            assert get_injector() is None
            assert install_plan(None) is None  # None plan clears too
        finally:
            set_injector(previous)

    def test_set_injector_returns_previous(self):
        previous = get_injector()
        try:
            a = FaultInjector(FaultPlan.from_spec("worker.send:drop"))
            assert set_injector(a) is previous
            assert set_injector(None) is a
        finally:
            set_injector(previous)
