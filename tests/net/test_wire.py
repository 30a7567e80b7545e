"""Wire-format round trips: the HTTP payload schema, pinned.

These tests are the contract for ``POST /plan`` bodies and response
envelopes — every terminal status from the service taxonomy (including
``degraded``) must survive ``response_to_wire`` -> JSON ->
``response_from_wire`` byte-identically, and both request forms (full
task+config and compact spec) must hash to the same cache key after a
round trip, since that equality is what lets front ends share a tier.
"""

import json
import unittest

from repro.errors import InvalidRequest
from repro.net.wire import (
    HTTP_STATUS_FOR,
    WIRE_VERSION,
    error_body,
    http_status_for,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
    spec_to_request,
)
from repro.service.request import STATUSES, PlanResponse

SPEC = {"robot": "mobile2d", "obstacles": 8, "seed": 7, "samples": 120}


def _json_round_trip(payload):
    """Simulate the HTTP hop: encode to bytes, decode back."""
    return json.loads(json.dumps(payload).encode("utf-8"))


class TestRequestWire(unittest.TestCase):
    def test_spec_form_expands_deterministically(self):
        a = spec_to_request(dict(SPEC), request_id="a")
        b = spec_to_request(dict(SPEC), request_id="b")
        self.assertEqual(a.cache_key(), b.cache_key())

    def test_different_seeds_are_different_work(self):
        a = spec_to_request(dict(SPEC))
        b = spec_to_request(dict(SPEC, seed=8))
        self.assertNotEqual(a.cache_key(), b.cache_key())

    def test_full_form_round_trip_preserves_cache_key(self):
        original = spec_to_request(dict(SPEC, smooth=True, timeout_s=9.5),
                                   request_id="rt-1")
        data = _json_round_trip(request_to_wire(original))
        decoded = request_from_wire(data)
        self.assertEqual(decoded.cache_key(), original.cache_key())
        self.assertEqual(decoded.request_id, "rt-1")
        self.assertTrue(decoded.smooth)
        self.assertEqual(decoded.timeout_s, 9.5)

    def test_lanes_is_invalid_in_both_forms(self):
        # In-job lanes chose another planner; asking for them is a 400,
        # not a silently different plan.
        full = _json_round_trip(request_to_wire(spec_to_request(dict(SPEC))))
        with self.assertRaisesRegex(InvalidRequest, "lanes"):
            request_from_wire(dict(full, lanes=2))
        with self.assertRaisesRegex(InvalidRequest, "lanes"):
            request_from_wire({"spec": dict(SPEC, lanes=2)})
        self.assertEqual(http_status_for("invalid"), 400)

    def test_spec_body_and_full_body_agree(self):
        # The two request shapes the front end accepts must describe the
        # same work when built from the same spec.
        via_spec = request_from_wire({"spec": dict(SPEC)})
        via_full = request_from_wire(
            _json_round_trip(request_to_wire(spec_to_request(dict(SPEC))))
        )
        self.assertEqual(via_spec.cache_key(), via_full.cache_key())

    def test_deadline_spec_sets_anytime_config(self):
        request = spec_to_request(dict(SPEC, deadline_s=0.05))
        self.assertEqual(request.config.deadline_s, 0.05)

    def test_unknown_spec_key_is_invalid(self):
        with self.assertRaises(InvalidRequest):
            spec_to_request(dict(SPEC, samplez=100))

    def test_unknown_robot_is_invalid(self):
        # Through the HTTP-facing decoder: a typo'd robot must degrade to
        # InvalidRequest (-> 400), not escape as a KeyError (-> 500).
        with self.assertRaises(InvalidRequest):
            request_from_wire({"spec": dict(SPEC, robot="hexapod9000")})

    def test_non_object_bodies_are_invalid(self):
        for body in ([1, 2], "text", 42, None):
            with self.assertRaises(InvalidRequest):
                request_from_wire(body)

    def test_body_without_task_or_spec_is_invalid(self):
        with self.assertRaises(InvalidRequest):
            request_from_wire({"lanes": 2})

    def test_non_object_spec_is_invalid(self):
        with self.assertRaises(InvalidRequest):
            request_from_wire({"spec": [1, 2, 3]})

    def test_bad_config_field_is_invalid_not_a_crash(self):
        full = request_to_wire(spec_to_request(dict(SPEC)))
        full["config"]["no_such_knob"] = 1
        with self.assertRaises(InvalidRequest):
            request_from_wire(_json_round_trip(full))

    def test_simbr_capacity_below_three_is_invalid(self):
        # A capacity-2 SI-MBR tree builds invalid nodes, so the full form
        # carrying it is a 400, not a plan over a broken index.
        full = request_to_wire(spec_to_request(dict(SPEC)))
        full["config"]["simbr_capacity"] = 2
        with self.assertRaises(InvalidRequest):
            request_from_wire(_json_round_trip(full))
        full["config"]["simbr_capacity"] = 3
        request_from_wire(_json_round_trip(full)).validate()

    def test_removed_cache_knob_is_invalid(self):
        # Planner result-cache knobs no longer exist; a client still sending
        # one gets a 400, not a 5xx.
        full = request_to_wire(spec_to_request(dict(SPEC)))
        full["config"] = {"collision_cache": 4096}
        with self.assertRaises(InvalidRequest):
            request_from_wire(_json_round_trip(full))


class TestResponseWire(unittest.TestCase):
    def _response_for(self, status):
        return PlanResponse(
            request_id=f"resp-{status}",
            status=status,
            success=status in ("ok", "degraded"),
            path_cost=3.25 if status == "ok" else None,
            path=[[0.0, 0.0], [1.0, 2.0]] if status == "ok" else [],
            op_events={"collision_check": 12},
            op_macs={"collision_check": 480.0},
            plan_seconds=0.012,
            degraded_reason="deadline" if status == "degraded" else None,
            best_goal_distance=0.8 if status == "degraded" else None,
            error=None if status in ("ok", "degraded") else f"boom:{status}",
            attempts=2,
        )

    def test_every_terminal_status_round_trips(self):
        # Includes status="degraded" and the whole error taxonomy
        # (error/timeout/crash/poison/invalid).
        for status in STATUSES:
            original = self._response_for(status)
            wire = _json_round_trip(response_to_wire(original))
            self.assertEqual(wire["wire_version"], WIRE_VERSION)
            decoded = response_from_wire(wire)
            self.assertEqual(decoded.to_dict(), original.to_dict(),
                             f"status {status!r} did not round-trip")

    def test_degraded_fields_survive_the_wire(self):
        decoded = response_from_wire(
            _json_round_trip(response_to_wire(self._response_for("degraded")))
        )
        self.assertEqual(decoded.status, "degraded")
        self.assertEqual(decoded.degraded_reason, "deadline")
        self.assertEqual(decoded.best_goal_distance, 0.8)

    def test_path_can_be_elided(self):
        wire = response_to_wire(self._response_for("ok"), include_path=False)
        self.assertNotIn("path", wire)
        self.assertEqual(response_from_wire(_json_round_trip(wire)).path, [])

    def test_missing_wire_version_is_tolerated(self):
        wire = response_to_wire(self._response_for("ok"))
        del wire["wire_version"]
        self.assertEqual(response_from_wire(wire).status, "ok")

    def test_newer_wire_version_is_rejected(self):
        wire = response_to_wire(self._response_for("ok"))
        wire["wire_version"] = WIRE_VERSION + 1
        with self.assertRaises(ValueError):
            response_from_wire(wire)

    def test_unknown_status_is_rejected(self):
        wire = response_to_wire(self._response_for("ok"))
        wire["status"] = "sideways"
        with self.assertRaises(ValueError):
            response_from_wire(wire)

    def test_non_object_response_is_rejected(self):
        with self.assertRaises(ValueError):
            response_from_wire([1, 2, 3])


class TestHttpStatusMapping(unittest.TestCase):
    def test_every_service_status_has_an_http_code(self):
        for status in STATUSES:
            self.assertIn(status, HTTP_STATUS_FOR)

    def test_mapping_semantics(self):
        self.assertEqual(http_status_for("ok"), 200)
        # degraded is a served best-so-far result, not an error
        self.assertEqual(http_status_for("degraded"), 200)
        self.assertEqual(http_status_for("invalid"), 400)
        self.assertEqual(http_status_for("timeout"), 504)
        for status in ("crash", "error", "poison"):
            self.assertEqual(http_status_for(status), 500)

    def test_unknown_status_maps_to_500(self):
        self.assertEqual(http_status_for("??"), 500)

    def test_shed_has_no_service_status(self):
        # 429 happens before a request becomes a job — it must never
        # appear in the terminal-status map.
        self.assertNotIn(429, HTTP_STATUS_FOR.values())


class TestErrorBody(unittest.TestCase):
    def test_error_body_is_a_valid_response_envelope(self):
        body = _json_round_trip(error_body("invalid", "bad JSON", "req-9"))
        decoded = response_from_wire(body)
        self.assertEqual(decoded.status, "invalid")
        self.assertEqual(decoded.error, "bad JSON")
        self.assertEqual(decoded.request_id, "req-9")


if __name__ == "__main__":
    unittest.main()
