"""One-command demo: shards + multi-process servers + traffic + report.

``python -m repro.net demo`` stands up the whole serving tier on
localhost — N cache-shard processes, M front-end server processes sharing
them through the consistent-hash ring — waits for every ``/healthz`` to
answer, drives a rate-paced closed-loop load for the requested duration,
prints the percentile report as JSON, and tears everything down.  Exit
code 0 means the run was *green*: at least one request served, zero
non-429 errors (overload surfaces as shed 429s, never failures), and a
well-formed percentile report.

Child processes are plain ``sys.executable -m repro.net shard|serve``
subprocesses (they inherit ``PYTHONPATH``), each announcing its bound
port on stdout as ``SHARD host:port`` / ``FRONTEND host:port`` — the
orchestration-by-parseable-stdout pattern, so the demo works with
ephemeral ports and no config files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

__all__ = ["run_demo"]

_START_TIMEOUT_S = 30.0


class _Child:
    """One managed subprocess that announces ``TAG host:port`` on stdout."""

    def __init__(self, tag: str, args: List[str]) -> None:
        self.tag = tag
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net"] + args,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.endpoint: Optional[str] = None

    def await_announce(self, timeout_s: float = _START_TIMEOUT_S) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"{self.tag} process exited before announcing "
                    f"(rc={self.proc.poll()})"
                )
            if line.startswith(self.tag + " "):
                self.endpoint = line.split()[1].strip()
                return self.endpoint
        raise RuntimeError(f"{self.tag} did not announce within {timeout_s}s")

    def kill(self) -> None:
        """SIGKILL — no drain, no goodbye (the crash scenarios' hammer)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.kill()


def _wait_healthy(url: str, timeout_s: float = _START_TIMEOUT_S) -> Dict:
    deadline = time.monotonic() + timeout_s
    last_error: Optional[str] = None
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=2.0) as resp:
                return json.loads(resp.read())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            last_error = str(exc)
            time.sleep(0.1)
    raise RuntimeError(f"{url} never became healthy: {last_error}")


def _wait_ready(url: str, timeout_s: float = _START_TIMEOUT_S) -> Dict:
    """Poll the *readiness* probe: 200 only after recovery has replayed.

    ``HTTPError`` (the 503 while starting/draining) is a ``URLError``
    subclass, so the retry loop covers both not-yet-listening and
    alive-but-not-ready.
    """
    deadline = time.monotonic() + timeout_s
    last_error: Optional[str] = None
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz?ready=1",
                                        timeout=2.0) as resp:
                return json.loads(resp.read())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            last_error = str(exc)
            time.sleep(0.1)
    raise RuntimeError(f"{url} never became ready: {last_error}")


def run_demo(
    rps: float = 200.0,
    duration_s: float = 10.0,
    servers: int = 2,
    shards: int = 2,
    workers: int = 2,
    mix: str = "smoke",
    arrival: str = "poisson",
    concurrency: int = 16,
    max_queue_depth: int = 32,
    seed: int = 0,
    out: Optional[str] = None,
    quiet: bool = False,
    rolling: bool = False,
    journal_dir: Optional[str] = None,
) -> int:
    """Stand the tier up, drive it, report, and tear it down (exit code).

    With ``rolling`` the demo additionally restarts each front end, one
    at a time, *while the load is running*: SIGTERM (graceful drain —
    admissions 503, inflight runs to terminal), wait for exit, respawn
    on the same port with the same journal directory, wait for the
    readiness probe, move to the next server.  Traffic runs with
    unavailable-retry on, so the gate stays "zero errors": every
    accepted request is served even though every server process was
    replaced mid-run.  Rolling mode arms journals (a temp directory per
    server unless ``journal_dir`` is given) and replication 2 on the
    shard tier, so the restart exercises the full durability stack.
    """
    from repro.net.traffic import (
        TrafficConfig,
        build_report,
        check_report,
        run_traffic,
    )

    if shards < 1 or servers < 1:
        raise ValueError("demo needs at least one shard and one server")
    if rolling and servers < 2:
        raise ValueError("rolling restart needs at least 2 servers "
                         "(someone must keep serving)")
    journal_root: Optional[str] = journal_dir
    if rolling and journal_root is None:
        journal_root = tempfile.mkdtemp(prefix="repro-demo-journal-")
    replication = min(2, shards) if rolling else 1
    children: List[_Child] = []
    say = (lambda *a: None) if quiet else (lambda *a: print(*a, flush=True))

    def serve_args(index: int, port: str) -> List[str]:
        args = [
            "serve", "--port", port,
            "--workers", str(workers),
            "--max-queue-depth", str(max_queue_depth),
            "--shards", ",".join(shard_endpoints),
        ]
        if journal_root:
            args += ["--journal-dir",
                     os.path.join(journal_root, f"server-{index}")]
        if replication > 1:
            args += ["--replication", str(replication)]
        return args

    try:
        shard_endpoints: List[str] = []
        for _ in range(shards):
            child = _Child("SHARD", ["shard", "--port", "0"])
            children.append(child)
            shard_endpoints.append(child.await_announce())
        say(f"demo: {shards} cache shard(s) up: {', '.join(shard_endpoints)}")

        urls: List[str] = []
        fronts: List[_Child] = []
        for index in range(servers):
            child = _Child("FRONTEND", serve_args(index, "0"))
            children.append(child)
            fronts.append(child)
            urls.append("http://" + child.await_announce())
        for url in urls:
            _wait_ready(url)
        say(f"demo: {servers} front end(s) ready: {', '.join(urls)} "
            f"({workers} workers each)")

        say(f"demo: driving closed-loop {arrival} traffic at {rps:g} rps "
            f"for {duration_s:g}s (mix={mix}"
            + (", rolling restarts" if rolling else "") + ") ...")
        config = TrafficConfig(
            urls=tuple(urls),
            mode="closed",
            duration_s=duration_s,
            concurrency=concurrency,
            rps=rps,
            arrival=arrival,
            mix=mix,
            seed=seed,
            retry_unavailable=rolling,
        )
        restarts: List[Dict] = []
        if rolling:
            holder: Dict[str, object] = {}

            def _drive() -> None:
                holder["result"] = run_traffic(config)

            driver = threading.Thread(target=_drive, daemon=True)
            driver.start()
            time.sleep(min(1.0, duration_s / 4))  # let load establish
            for index in range(servers):
                old = fronts[index]
                endpoint = old.endpoint
                port = endpoint.rpartition(":")[2]
                say(f"demo: rolling — draining {urls[index]} ...")
                t0 = time.monotonic()
                old.proc.terminate()  # SIGTERM: graceful drain
                old.proc.wait(timeout=_START_TIMEOUT_S)
                fresh = _Child("FRONTEND", serve_args(index, port))
                children.append(fresh)
                fronts[index] = fresh
                fresh.await_announce()
                ready = _wait_ready(urls[index])
                restarts.append({
                    "url": urls[index],
                    "downtime_s": round(time.monotonic() - t0, 3),
                    "recovery": ready.get("recovery"),
                })
                say(f"demo: rolling — {urls[index]} back "
                    f"({restarts[-1]['downtime_s']}s, recovery="
                    f"{json.dumps(ready.get('recovery'))})")
            driver.join()
            result = holder["result"]
        else:
            result = run_traffic(config)
        report = build_report(result, config)
        if rolling:
            report["rolling"] = {
                "restarts": restarts,
                "retried": result.retried,
                "journal_dir": journal_root,
            }

        # Fold the tier's server-side view into the report: per-server
        # health (cache stats include the shared shard tier) after load.
        report["servers"] = {url: _wait_healthy(url) for url in urls}
        report["shards"] = shard_endpoints

        print(json.dumps(report, indent=2))
        if out:
            import pathlib

            # File copy keeps the per-request rows so a gate failure can be
            # drilled into with ``python -m repro.obs rca``; stdout stays
            # record-free.
            full = build_report(result, config, include_records=True)
            full["servers"] = report["servers"]
            full["shards"] = shard_endpoints
            if rolling:
                full["rolling"] = report["rolling"]
            pathlib.Path(out).write_text(json.dumps(full, indent=2))
        violations = check_report(report)
        for violation in violations:
            print(f"DEMO GATE VIOLATION: {violation}", file=sys.stderr)
        if not violations:
            say(
                f"demo: green — served {report['served']}/{report['requests']} "
                f"(shed rate {report['shed_rate']:.1%}), p50/p95/p99 = "
                f"{report['latency_ms']['p50']}/{report['latency_ms']['p95']}/"
                f"{report['latency_ms']['p99']} ms"
            )
        return 1 if violations else 0
    finally:
        for child in reversed(children):
            child.stop()
