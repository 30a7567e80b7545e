"""Traffic harness: arrival processes, mixes, pacing, and the report gate.

Everything here is socket-free: arrival samplers and report reduction are
pure functions of seeded RNG / synthetic records, so the tests pin the
harness semantics without load-dependent timing.
"""

import random
import unittest

from repro.net.traffic import (
    ARRIVALS,
    TrafficConfig,
    TrafficResult,
    _Pacer,
    build_report,
    check_report,
    make_arrivals,
)
from repro.workloads.mixes import TRAFFIC_MIXES, draw_spec, mix_names


class TestArrivals(unittest.TestCase):
    def test_uniform_gaps_are_constant(self):
        gap = make_arrivals("uniform", 50.0, random.Random(1))
        self.assertTrue(all(gap() == 0.02 for _ in range(10)))

    def test_poisson_mean_matches_rate(self):
        gap = make_arrivals("poisson", 100.0, random.Random(7))
        draws = [gap() for _ in range(20000)]
        mean = sum(draws) / len(draws)
        self.assertAlmostEqual(mean, 0.01, delta=0.001)
        self.assertTrue(all(d >= 0.0 for d in draws))

    def test_burst_pattern_preserves_mean_rate(self):
        gap = make_arrivals("burst", 80.0, random.Random(0))
        draws = [gap() for _ in range(16)]  # two full bursts of 8
        self.assertEqual(draws.count(0.0), 14)
        self.assertAlmostEqual(sum(draws), 16 / 80.0)

    def test_unknown_process_rejected(self):
        with self.assertRaises(ValueError):
            make_arrivals("fractal", 10.0, random.Random(0))

    def test_nonpositive_rate_rejected(self):
        with self.assertRaises(ValueError):
            make_arrivals("uniform", 0.0, random.Random(0))

    def test_registry_names(self):
        self.assertEqual(sorted(ARRIVALS), ["burst", "poisson", "uniform"])


class TestPacer(unittest.TestCase):
    def test_slots_are_strictly_increasing_and_claimed_once(self):
        pacer = _Pacer(lambda: 0.5, start=100.0)
        slots = [pacer.claim() for _ in range(5)]
        self.assertEqual(slots, [100.0, 100.5, 101.0, 101.5, 102.0])


class TestMixes(unittest.TestCase):
    def test_known_mixes_present(self):
        for name in ("smoke", "cold", "mixed", "deadline"):
            self.assertIn(name, mix_names())

    def test_draw_is_deterministic_given_the_rng(self):
        a = [draw_spec("mixed", random.Random(5)) for _ in range(20)]
        b = [draw_spec("mixed", random.Random(5)) for _ in range(20)]
        self.assertEqual(a, b)

    def test_draws_stay_inside_the_seed_pool(self):
        rng = random.Random(3)
        pool = TRAFFIC_MIXES["smoke"][0]["seed_pool"]
        for _ in range(200):
            spec = draw_spec("smoke", rng)
            self.assertIn("seed", spec)
            self.assertTrue(0 <= spec["seed"] < pool)

    def test_seed_base_offsets_the_pool(self):
        rng = random.Random(3)
        spec = draw_spec("smoke", rng, seed_base=10_000)
        self.assertGreaterEqual(spec["seed"], 10_000)

    def test_deadline_mix_carries_the_deadline(self):
        spec = draw_spec("deadline", random.Random(0))
        self.assertEqual(spec["deadline_s"], 0.05)

    def test_unknown_mix_rejected(self):
        with self.assertRaises(ValueError):
            draw_spec("nope", random.Random(0))


class TestTrafficConfig(unittest.TestCase):
    def test_open_loop_requires_rps(self):
        with self.assertRaises(ValueError):
            TrafficConfig(mode="open")

    def test_bad_mode_rejected(self):
        with self.assertRaises(ValueError):
            TrafficConfig(mode="sideways")

    def test_needs_urls(self):
        with self.assertRaises(ValueError):
            TrafficConfig(urls=())


def _result(records, transport_errors=0, duration_s=2.0):
    result = TrafficResult(records=records, started_at=0.0,
                           finished_at=duration_s,
                           transport_errors=transport_errors)
    return result


def _record(code, status="ok", latency_s=0.05, cache_hit=False):
    return {"code": code, "status": status, "latency_s": latency_s,
            "cache_hit": cache_hit}


class TestBuildReport(unittest.TestCase):
    def test_report_splits_served_shed_errors(self):
        records = (
            [_record(200, latency_s=0.010 * (i + 1)) for i in range(10)]
            + [_record(202, status=None)] * 2
            + [_record(429, status="invalid")] * 4
            + [_record(500, status="error"), _record(0, "transport_error")]
        )
        config = TrafficConfig(mode="closed", rps=50.0, mix="smoke")
        report = build_report(_result(records, transport_errors=1), config)
        self.assertEqual(report["requests"], 18)
        self.assertEqual(report["served"], 12)
        self.assertEqual(report["shed"], 4)
        self.assertEqual(report["errors"], 2)  # the 500 and the transport 0
        self.assertEqual(report["transport_errors"], 1)
        self.assertAlmostEqual(report["shed_rate"], 4 / 18, places=4)
        self.assertAlmostEqual(report["error_rate"], 2 / 18, places=4)
        self.assertEqual(report["goodput_rps"], 6.0)  # 12 served / 2 s
        self.assertEqual(report["by_code"]["429"], 4)
        self.assertIsNotNone(report["latency_ms"]["p50"])
        self.assertLessEqual(report["latency_ms"]["p50"],
                             report["latency_ms"]["p99"])
        self.assertLessEqual(report["latency_ms"]["p99"],
                             report["latency_ms"]["max"])

    def test_cache_hits_counted_from_served_only(self):
        records = [_record(200, cache_hit=True),
                   _record(429, cache_hit=True),  # shed: not counted
                   _record(200)]
        report = build_report(_result(records),
                              TrafficConfig(mode="closed", mix="smoke"))
        self.assertEqual(report["cache_hits"], 1)

    def test_empty_run_has_null_percentiles(self):
        report = build_report(_result([]), TrafficConfig(mode="closed"))
        self.assertEqual(report["requests"], 0)
        self.assertIsNone(report["latency_ms"]["p50"])

    def test_report_is_schema_stamped(self):
        report = build_report(_result([_record(200)]),
                              TrafficConfig(mode="closed"))
        self.assertEqual(report["schema"], 2)
        self.assertEqual(report["emitter"], "repro.net.traffic")
        self.assertEqual(report["measure"], "latency_s")

    def test_include_records_carries_per_request_rows(self):
        records = [_record(200), _record(429)]
        config = TrafficConfig(mode="closed", mix="smoke")
        compact = build_report(_result(records), config)
        self.assertNotIn("records", compact)
        full = build_report(_result(records), config, include_records=True)
        self.assertEqual(len(full["records"]), 2)
        self.assertEqual(full["records"][0]["attributes"]["code"], "200")
        self.assertEqual(full["records"][1]["attributes"]["outcome"], "shed")

    def test_request_records_carry_workload_attributes(self):
        # The drill-down satellite: per-request rows must name the robot /
        # samples / deadline the spec asked for, so RCA can slice on them.
        from repro.net.traffic import _spec_attributes

        spec = {"robot": "xarm7", "obstacles": 16, "samples": 200,
                "seed": 3, "deadline_s": 0.05}
        attrs = _spec_attributes(spec)
        self.assertEqual(attrs["robot"], "xarm7")
        self.assertEqual(attrs["obstacles"], 16)
        self.assertEqual(attrs["samples"], 200)
        self.assertEqual(attrs["deadline"], "armed")
        self.assertEqual(_spec_attributes({"robot": "rozum"})["deadline"],
                         "none")


class TestCheckReport(unittest.TestCase):
    def _report(self, **overrides):
        records = [_record(200)] * 8 + [_record(429, status=None)] * 2
        report = build_report(_result(records), TrafficConfig(mode="closed"))
        report.update(overrides)
        return report

    def test_clean_report_passes(self):
        self.assertEqual(check_report(self._report()), [])

    def test_no_requests_is_a_violation(self):
        violations = check_report(
            build_report(_result([]), TrafficConfig(mode="closed"))
        )
        self.assertEqual(violations, ["no requests were issued"])

    def test_errors_violate_the_default_gate(self):
        # Admission control means overload must shed, never error: the
        # default gate is strict on errors and permissive on shed rate.
        report = self._report(error_rate=0.1, errors=1, transport_errors=0)
        violations = check_report(report)
        self.assertEqual(len(violations), 1)
        self.assertIn("error rate", violations[0])

    def test_shed_rate_cap_can_be_tightened(self):
        violations = check_report(self._report(), max_shed_rate=0.1)
        self.assertTrue(any("shed rate" in v for v in violations))

    def test_min_served_enforced(self):
        violations = check_report(self._report(), min_served=100)
        self.assertTrue(any("served" in v for v in violations))


if __name__ == "__main__":
    unittest.main()
