"""Portfolio racing: member expansion, winner policy, loser cancellation.

Covers the :mod:`repro.core.portfolio` vocabulary (entries, signatures,
win-rate learning) and the service-layer race orchestration in both inline
(``num_workers=0``) and pooled modes.  The load-bearing invariants:

* K=1 races are deterministic — the single member always wins.
* Every race member ends in a terminal status; losers are ``"cancelled"``.
* Races bypass the plan cache both ways (the race IS the measurement).
* Wins feed :class:`~repro.core.portfolio.PortfolioStats`, which drives
  the ``("auto",)`` learned default.
"""

import json
from dataclasses import replace

import pytest

from repro.core import portfolio
from repro.core.moped import config_for_variant
from repro.service import PlanningService, build_requests
from repro.service.pool import PoolConfig
from repro.service.request import TERMINAL_STATUSES, PlanRequest
from repro.workloads import random_task

FAST_POOL = PoolConfig(num_workers=2, default_timeout_s=60.0, max_retries=1,
                       backoff_base_s=0.01, poll_interval_s=0.01)


def race_request(names, seed=3, samples=400, request_id="race", robot="rozum",
                 obstacles=16):
    task = random_task(robot, obstacles, seed=seed)
    config = config_for_variant("full", max_samples=samples, seed=seed,
                                goal_bias=0.1)
    return PlanRequest(task=task, config=config, request_id=request_id,
                       portfolio=tuple(names))


class TestPortfolioModule:
    def test_member_config_keeps_seed_and_arms_deadline(self):
        base = config_for_variant("full", max_samples=200, seed=9)
        for name in portfolio.PLANNERS:
            member = portfolio.member_config(name, base)
            assert member.seed == base.seed
            assert member.max_samples == base.max_samples
            assert member.deadline_s == portfolio.DEFAULT_RACE_DEADLINE_S

    def test_member_config_respects_existing_deadline(self):
        base = config_for_variant("full", max_samples=200, seed=9,
                                  deadline_s=2.5)
        assert portfolio.member_config("connect", base).deadline_s == 2.5

    def test_member_config_modes(self):
        base = config_for_variant("full", max_samples=200, seed=9)
        assert portfolio.member_config("connect", base).mode == "connect"
        assert portfolio.member_config("wave", base).mode == "rrtstar"
        assert portfolio.member_config("wave", base).wave_width > 1
        assert portfolio.member_config("informed", base).informed

    def test_member_config_unknown_name(self):
        base = config_for_variant("full")
        with pytest.raises(KeyError, match="unknown portfolio planner"):
            portfolio.member_config("nope", base)

    def test_resolve_dedupes_preserving_order(self):
        assert portfolio.resolve(("wave", "connect", "wave")) == (
            "wave", "connect"
        )

    def test_resolve_auto_without_history(self):
        assert portfolio.resolve(("auto",)) == (portfolio.DEFAULT_PLANNER,)

    def test_resolve_auto_uses_learned_best(self):
        stats = portfolio.PortfolioStats()
        for _ in range(3):
            stats.record("rozum/16obs", "wave")
        stats.record("rozum/16obs", "connect")
        assert portfolio.resolve(("auto",), "rozum/16obs", stats) == ("wave",)
        # Unseen signature still falls back to the default.
        assert portfolio.resolve(("auto",), "xarm7/8obs", stats) == (
            portfolio.DEFAULT_PLANNER,
        )

    def test_resolve_rejects_unknown_and_empty(self):
        with pytest.raises(KeyError):
            portfolio.resolve(("bogus",))
        with pytest.raises(ValueError):
            portfolio.resolve(())

    def test_task_signature(self):
        task = random_task("rozum", 16, seed=0)
        assert portfolio.task_signature(task) == "rozum/16obs"

    def test_best_is_deterministic_on_ties(self):
        stats = portfolio.PortfolioStats()
        stats.record("s", "wave")
        stats.record("s", "connect")
        assert stats.best("s") == "connect"  # tie broken by name

    def test_stats_round_trip(self, tmp_path):
        path = str(tmp_path / "wins.json")
        stats = portfolio.PortfolioStats(path=path)
        stats.record("rozum/16obs", "connect")
        stats.record("rozum/16obs", "connect")
        data = json.loads((tmp_path / "wins.json").read_text())
        assert data == {"schema": 1,
                        "wins": {"rozum/16obs": {"connect": 2}}}
        reloaded = portfolio.PortfolioStats(path=path)
        assert reloaded.best("rozum/16obs") == "connect"

    def test_stats_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "wins": {}}))
        with pytest.raises(ValueError, match="schema"):
            portfolio.PortfolioStats(path=str(path))

    def test_save_is_atomic_no_temp_litter(self, tmp_path):
        # save() goes through a same-directory temp file + os.replace, so
        # the target is either the old snapshot or the new one — and on
        # success nothing else is left behind.
        path = tmp_path / "wins.json"
        stats = portfolio.PortfolioStats(path=str(path))
        for _ in range(5):
            stats.record("rozum/16obs", "connect")
        assert [p.name for p in tmp_path.iterdir()] == ["wins.json"]
        data = json.loads(path.read_text())
        assert data["wins"]["rozum/16obs"]["connect"] == 5

    def test_corrupt_stats_file_resets_with_warning(self, tmp_path):
        # Learned state: a truncated/corrupt snapshot (e.g. pre-atomic
        # crash damage) must warn and reset, never refuse to start.
        path = tmp_path / "wins.json"
        path.write_text('{"schema": 1, "wins": {"rozu')  # torn mid-write
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            stats = portfolio.PortfolioStats(path=str(path))
        assert stats.wins == {}
        # The instance is fully usable (and overwrites the damage).
        stats.record("s", "connect")
        assert portfolio.PortfolioStats(path=str(path)).best("s") == "connect"

    def test_non_object_stats_file_resets_with_warning(self, tmp_path):
        path = tmp_path / "wins.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(RuntimeWarning, match="does not hold an object"):
            stats = portfolio.PortfolioStats(path=str(path))
        assert stats.wins == {}


class TestInlineRace:
    def test_single_member_race_is_deterministic(self):
        """Portfolio K=1: the only member always wins, bit-identically."""
        runs = []
        for _ in range(2):
            service = PlanningService(num_workers=0)
            response = service.run_batch(
                [race_request(("connect",))]
            )[0]
            runs.append(response)
        a, b = runs
        assert a.status == "ok" and a.success
        assert a.planner == "connect"
        assert a.race["winner"] == "connect"
        assert a.race["planners"] == ["connect"]
        assert a.race["statuses"] == {"connect": "ok"}
        assert a.race["cancelled"] == 0
        assert a.path == b.path
        assert a.path_cost == b.path_cost
        assert a.op_events == b.op_events

    def test_inline_race_first_feasible_wins_and_losers_cancelled(self):
        service = PlanningService(num_workers=0)
        response = service.run_batch(
            [race_request(("connect", "wave"))]
        )[0]
        assert response.status == "ok" and response.success
        assert response.request_id == "race"
        assert response.race["winner"] in ("connect", "wave")
        statuses = response.race["statuses"]
        assert set(statuses) == {"connect", "wave"}
        for status in statuses.values():
            assert status in TERMINAL_STATUSES
        losers = [n for n, s in statuses.items() if s == "cancelled"]
        assert len(losers) == 1
        assert response.race["cancelled"] == 1
        assert response.race["signature"] == "rozum/16obs"

    def test_race_bypasses_cache(self):
        service = PlanningService(num_workers=0)
        first = service.run_batch([race_request(("connect",))])[0]
        second = service.run_batch(
            [race_request(("connect",), request_id="race2")]
        )[0]
        assert not first.cache_hit and not second.cache_hit
        assert len(service.cache) == 0

    def test_wins_feed_stats_and_auto(self, tmp_path):
        path = str(tmp_path / "wins.json")
        service = PlanningService(num_workers=0, portfolio_stats_path=path)
        response = service.run_batch([race_request(("connect",))])[0]
        winner = response.race["winner"]
        assert service.portfolio_stats.wins["rozum/16obs"] == {winner: 1}
        assert json.loads((tmp_path / "wins.json").read_text())["wins"]
        # "auto" now resolves to the recorded winner for this signature.
        auto = service.run_batch(
            [race_request(("auto",), request_id="race-auto")]
        )[0]
        assert auto.race["planners"] == [winner]

    def test_build_requests_portfolio_plumbing(self):
        config = config_for_variant("full", max_samples=50)
        requests = build_requests(config, jobs=2,
                                  portfolio=("connect", "wave"))
        assert all(r.portfolio == ("connect", "wave") for r in requests)
        requests = build_requests(replace(config, mode="connect"), jobs=1)
        assert requests[0].config.mode == "connect"

    def test_telemetry_sees_every_member(self):
        service = PlanningService(num_workers=0)
        service.run_batch([race_request(("connect", "wave"))])
        planners = sorted(
            r.attributes.get("planner") for r in service.telemetry.records
        )
        assert planners == ["connect", "wave"]


class TestPooledRace:
    def test_pooled_race_winner_and_terminal_losers(self):
        with PlanningService(pool_config=FAST_POOL) as service:
            response = service.run_batch(
                [race_request(("connect", "wave"))]
            )[0]
        assert response.status == "ok" and response.success
        assert response.planner == response.race["winner"]
        statuses = response.race["statuses"]
        assert set(statuses) == {"connect", "wave"}
        # The loser-cancellation all-terminal invariant: nobody is left
        # running or unaccounted for once the race resolves.
        for status in statuses.values():
            assert status in TERMINAL_STATUSES
        assert response.race["cancelled"] == sum(
            1 for s in statuses.values() if s == "cancelled"
        )

    def test_pooled_single_member_race_deterministic(self):
        responses = []
        for run in range(2):
            with PlanningService(pool_config=FAST_POOL) as service:
                responses.append(service.run_batch(
                    [race_request(("connect",))]
                )[0])
        a, b = responses
        assert a.race["winner"] == b.race["winner"] == "connect"
        assert a.path == b.path
        assert a.op_events == b.op_events

    def test_race_tokens_cleared_after_batch(self):
        with PlanningService(pool_config=FAST_POOL) as service:
            service.run_batch([race_request(("connect", "wave"))])
            pool = service._pool
            assert pool.cancel_flags.value == 0

    def test_mixed_batch_races_and_plain_jobs(self):
        plain = replace(race_request(("connect",), request_id="plain"),
                        portfolio=None)
        with PlanningService(pool_config=FAST_POOL) as service:
            responses = service.run_batch([
                race_request(("connect", "wave")),
                plain,
            ])
        assert [r.request_id for r in responses] == ["race", "plain"]
        assert responses[0].race["winner"] is not None
        assert responses[1].status == "ok" and not responses[1].race
