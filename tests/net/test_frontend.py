"""Front-end HTTP server: routes, admission control, and async results.

The server under test runs in-process (inline planning, no worker
subprocesses) on a background event-loop thread with real sockets, so the
HTTP parsing, keep-alive, and backpressure paths are the production ones.
The overload tests pin the acceptance criterion: saturation surfaces as
``429`` + ``Retry-After``, never as errors or a deadlock.
"""

import asyncio
import http.client
import json
import tempfile
import threading
import time
import unittest

from repro.net.frontend import FrontEndConfig, PlanFrontEnd
from repro.service.breaker import OPEN
from repro.service.journal import scan_journal

SPEC_BODY = {"spec": {"robot": "mobile2d", "obstacles": 4, "seed": 3,
                      "samples": 60}}


class _FrontEndFixture:
    """One PlanFrontEnd on its own event-loop thread (inline planning)."""

    def __init__(self, **overrides) -> None:
        overrides.setdefault("workers", 0)
        overrides.setdefault("port", 0)
        self.front = PlanFrontEnd(FrontEndConfig(**overrides))
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(timeout=5.0), "front end did not start"

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.front.start())
        self._ready.set()
        self.loop.run_forever()
        tasks = asyncio.all_tasks(self.loop)
        for task in tasks:
            task.cancel()
        if tasks:
            self.loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self.loop.run_until_complete(self.front.stop())
        self.loop.close()

    def stop(self) -> None:
        if self.loop.is_running():
            self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.front.port,
                                          timeout=30.0)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            raw = conn.getresponse()
            data = raw.read()
            headers = dict(raw.getheaders())
        finally:
            conn.close()
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"raw": data.decode("utf-8", "replace")}
        return raw.status, decoded, headers


class TestRoutes(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fx = _FrontEndFixture()

    @classmethod
    def tearDownClass(cls):
        cls.fx.stop()

    def test_plan_synchronous_ok(self):
        code, body, _ = self.fx.request("POST", "/plan", SPEC_BODY)
        self.assertEqual(code, 200)
        self.assertEqual(body["status"], "ok")
        self.assertEqual(body["wire_version"], 1)
        self.assertTrue(body["request_id"].startswith("net-"))

    def test_repeat_request_is_a_cache_hit(self):
        body = {"spec": dict(SPEC_BODY["spec"], seed=11)}
        first = self.fx.request("POST", "/plan", body)[1]
        self.assertFalse(first["cache_hit"])
        second = self.fx.request("POST", "/plan", body)[1]
        self.assertTrue(second["cache_hit"])

    def test_served_requests_leave_no_per_job_rows(self):
        for seed in (21, 22, 22):  # two misses and one cache hit
            body = {"spec": dict(SPEC_BODY["spec"], seed=seed)}
            self.assertEqual(self.fx.request("POST", "/plan", body)[0], 200)
        telemetry = self.fx.front.service.telemetry
        self.assertEqual(telemetry.records, [])
        self.assertEqual(telemetry.op_totals.total_macs(), 0)

    def test_async_mode_roundtrip(self):
        code, body, _ = self.fx.request("POST", "/plan?wait=0", SPEC_BODY)
        self.assertEqual(code, 202)
        result_id = body["id"]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            code, body, _ = self.fx.request("GET", f"/result/{result_id}")
            if code != 202:
                break
            time.sleep(0.05)
        self.assertEqual(code, 200)
        self.assertEqual(body["status"], "ok")
        self.assertEqual(body["request_id"], result_id)

    def test_unknown_result_id_is_404(self):
        code, _, _ = self.fx.request("GET", "/result/net-999999")
        self.assertEqual(code, 404)

    def test_bad_json_is_400(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.fx.front.port,
                                          timeout=10.0)
        try:
            conn.request("POST", "/plan", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            raw = conn.getresponse()
            body = json.loads(raw.read())
        finally:
            conn.close()
        self.assertEqual(raw.status, 400)
        self.assertEqual(body["status"], "invalid")

    def test_bad_robot_is_400_invalid(self):
        code, body, _ = self.fx.request(
            "POST", "/plan", {"spec": {"robot": "nope", "seed": 1}}
        )
        self.assertEqual(code, 400)
        self.assertEqual(body["status"], "invalid")

    def test_healthz_shape(self):
        code, body, _ = self.fx.request("GET", "/healthz")
        self.assertEqual(code, 200)
        self.assertEqual(body["status"], "ok")
        for key in ("queue_depth", "inflight", "shed", "cache", "breaker"):
            self.assertIn(key, body)

    def test_metrics_route_answers(self):
        code, _, headers = self.fx.request("GET", "/metrics")
        self.assertEqual(code, 200)
        self.assertIn("text/plain", headers.get("Content-Type", ""))

    def test_unknown_route_is_404(self):
        self.assertEqual(self.fx.request("GET", "/nope")[0], 404)

    def test_wrong_method_is_405(self):
        self.assertEqual(self.fx.request("GET", "/plan")[0], 405)
        self.assertEqual(self.fx.request("POST", "/healthz")[0], 405)


class TestAdmissionControl(unittest.TestCase):
    """The shed paths, driven deterministically (no timing races)."""

    def _handle(self, front, query="", body=b"{}"):
        return asyncio.run(front._handle_plan(query, body))

    def test_queue_depth_shed_is_429_with_retry_after(self):
        front = PlanFrontEnd(FrontEndConfig(workers=0, max_queue_depth=1))
        # Fill the intake without running the engine thread: depth == 1.
        front.engine.intake.put(object())
        code, payload, headers = self._handle(front)
        self.assertEqual(code, 429)
        self.assertTrue(payload["shed"])
        self.assertEqual(payload["reason"], "queue")
        self.assertIn("Retry-After", headers)
        self.assertGreaterEqual(int(headers["Retry-After"]), 1)
        self.assertEqual(front.shed["queue"], 1)

    def test_inflight_shed_is_429(self):
        front = PlanFrontEnd(FrontEndConfig(workers=0, max_inflight=1))
        front.inflight = 2
        code, payload, headers = self._handle(front)
        self.assertEqual(code, 429)
        self.assertEqual(payload["reason"], "inflight")
        self.assertIn("Retry-After", headers)

    def test_open_breaker_sheds_at_the_edge(self):
        front = PlanFrontEnd(FrontEndConfig(workers=0))

        class _StubBreaker:
            enabled = True
            state = OPEN
            cooldown_s = 4.0
            opened_at = time.monotonic()

        class _StubPool:
            breaker = _StubBreaker()

        front.service._pool = _StubPool()
        try:
            code, payload, headers = self._handle(front)
        finally:
            front.service._pool = None
        self.assertEqual(code, 429)
        self.assertEqual(payload["reason"], "breaker")
        # Retry-After reflects the breaker's remaining cooldown.
        self.assertGreaterEqual(int(headers["Retry-After"]), 1)
        self.assertLessEqual(int(headers["Retry-After"]), 4)

    def test_oversized_body_is_413(self):
        front = PlanFrontEnd(FrontEndConfig(workers=0))
        code, payload, _ = self._handle(front, body=b"__too_large__")
        self.assertEqual(code, 413)
        self.assertEqual(payload["status"], "invalid")


class TestReadinessAndDrain(unittest.TestCase):
    """Liveness vs readiness split, and the SIGTERM drain path."""

    def test_liveness_always_200_readiness_gates_on_drain(self):
        front = PlanFrontEnd(FrontEndConfig(workers=0))  # no journal: ready
        code, body, _ = front._handle_health("")
        self.assertEqual(code, 200)
        self.assertTrue(body["ready"])
        self.assertEqual(front._handle_health("ready=1")[0], 200)
        front.draining = True
        code, body, headers = front._handle_health("ready=1")
        self.assertEqual(code, 503)
        self.assertEqual(body["status"], "draining")
        self.assertIn("Retry-After", headers)
        # Liveness keeps answering 200: the process is alive, just
        # refusing new traffic — restart orchestrators key off the split.
        self.assertEqual(front._handle_health("")[0], 200)

    def test_not_ready_until_journal_recovery_completes(self):
        with tempfile.TemporaryDirectory() as tmp:
            front = PlanFrontEnd(FrontEndConfig(workers=0, journal_dir=tmp))
            try:
                self.assertFalse(front.ready.is_set())
                code, body, _ = front._handle_health("ready=1")
                self.assertEqual(code, 503)
                self.assertEqual(body["status"], "starting")
                front._recover()  # the engine's prepare step, run inline
                self.assertTrue(front.ready.is_set())
                code, body, _ = front._handle_health("ready=1")
                self.assertEqual(code, 200)
                self.assertTrue(body["recovery"]["enabled"])
            finally:
                front.service.close()
                front.service.journal.close()

    def test_draining_plan_requests_are_503_with_retry_after(self):
        front = PlanFrontEnd(FrontEndConfig(workers=0))
        front.draining = True
        code, payload, headers = asyncio.run(front._handle_plan("", b"{}"))
        self.assertEqual(code, 503)
        self.assertTrue(payload["shed"])
        self.assertEqual(payload["reason"], "draining")
        self.assertIn("Retry-After", headers)
        self.assertEqual(front.shed["draining"], 1)

    def test_drain_and_stop_marks_clean_shutdown(self):
        with tempfile.TemporaryDirectory() as tmp:
            fx = _FrontEndFixture(journal_dir=tmp, drain_deadline_s=10.0)
            try:
                self.assertTrue(fx.front.ready.wait(timeout=10.0),
                                "recovery never opened readiness")
                code, body, _ = fx.request("POST", "/plan", SPEC_BODY)
                self.assertEqual(code, 200)
                future = asyncio.run_coroutine_threadsafe(
                    fx.front.drain_and_stop(), fx.loop
                )
                self.assertTrue(future.result(timeout=15.0),
                                "drain missed its deadline while idle")
            finally:
                fx.stop()
            records, torn = scan_journal(tmp)
            kinds = [r["kind"] for r in records]
            self.assertFalse(torn)
            self.assertIn("admit", kinds)
            self.assertEqual(kinds[-1], "clean_shutdown")


class TestOverloadEndToEnd(unittest.TestCase):
    """Acceptance criterion: saturation -> 429s, no errors, no deadlock."""

    def test_saturated_engine_sheds_and_recovers(self):
        fx = _FrontEndFixture(max_queue_depth=1, retry_after_s=1.0)
        gate = threading.Event()
        original = fx.front.service.run_batch

        def gated(requests):
            gate.wait(timeout=30.0)
            return original(requests)

        fx.front.service.run_batch = gated
        try:
            # First request is admitted (async mode) and parks the engine
            # behind the gate, pinning queue depth at max.
            code, body, _ = fx.request("POST", "/plan?wait=0", SPEC_BODY)
            self.assertEqual(code, 202)
            result_id = body["id"]
            deadline = time.monotonic() + 5.0
            while fx.front.engine.depth() < 1:
                self.assertLess(time.monotonic(), deadline,
                                "engine never picked up the parked job")
                time.sleep(0.01)

            # Burst while saturated: every response is a clean 429 with
            # Retry-After — nothing errors, nothing blocks.
            for _ in range(8):
                code, payload, headers = fx.request("POST", "/plan",
                                                    SPEC_BODY)
                self.assertEqual(code, 429)
                self.assertTrue(payload["shed"])
                self.assertIn("Retry-After", headers)

            # Release the engine: the parked job completes and new
            # requests are admitted again — overload was transient.
            gate.set()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                code, body, _ = fx.request("GET", f"/result/{result_id}")
                if code != 202:
                    break
                time.sleep(0.05)
            self.assertEqual(code, 200)
            self.assertEqual(body["status"], "ok")
            code, body, _ = fx.request("POST", "/plan", SPEC_BODY)
            self.assertEqual(code, 200)
        finally:
            gate.set()
            fx.stop()


if __name__ == "__main__":
    unittest.main()
