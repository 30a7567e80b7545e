"""The two workloads: set-up, measured phase, output checks.

Each workload function returns a :class:`Run`: the per-request samples
of its measured phase plus its throughput, the set-up times, CPU and
memory of the system under test.  Set-up is repeated ``SETUPS`` times
from a fresh process and the last set-up is the one measured; ``setup_s``
is their median.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import benchpath
import check
import inputs
import loadgen
from loadgen import Client, now

#: Fresh set-ups per run (the median is reported).  Each takes about
#: half a second; with 5 the median still spread by up to a quarter
#: between runs.
SETUPS = 11

#: serve-cold-mixed arrival rate (requests/s).  The class mix in
#: :data:`inputs.COLD_MIX` keeps the single worker a little under half busy
#: at this rate, and arrivals are spaced wider than the slowest class takes
#: even on a slow host, so a request rarely queues behind the one before.
COLD_RATE = 5.0

#: Latency limits behind ``slo_share`` (ms), one per workload, set from
#: the measured latency distributions on a 2-vCPU virtual machine: about
#: 2.3 times the median and 1.7 times the tail quantile of the mobile2d
#: class of ``serve-cold-mixed`` (130 and 175 ms), and 2.8 times the median
#: library plan (about 560 ms).  A slowdown of that size moves the share;
#: the host's own swings (up to 1.8 times between runs) mostly do not.
SLO_MS = {
    "plan-rrtstar-xarm7": 1600.0,
    "serve-cold-mixed": 300.0,
}

#: serve-cold-mixed capacity bursts: this many further fresh requests in
#: the same class mix, sent back to back over the open loop's connections
#: (a closed loop); ``throughput_per_s`` is their count over the time
#: they took.  The paced open loop's own completion rate is its offered
#: rate and would show nothing.  The open loop runs in
#: :data:`SEGMENTS` parts with a burst after each, so that the bursts
#: sample the host over the whole run as the latency quantiles do: one
#: 10 s burst at the end spread by 0.19 between runs, because this host's
#: speed moves by a tenth over tens of seconds.
CAPACITY_REQUESTS = 100
SEGMENTS = 5

CHILD_TIMEOUT_S = 60.0


@dataclass
class Request:
    """One measured request, as the benchmark saw it."""

    seq: int
    klass: str
    latency_s: float
    ok: bool
    success: bool = False
    path_cost: Optional[float] = None
    #: Straight-line C-space distance from start to goal.
    straight: float = 1.0
    late_s: float = 0.0
    request_id: str = ""
    start: float = 0.0
    end: float = 0.0
    bytes_out: int = 0
    bytes_in: int = 0
    macs: Dict[str, float] = field(default_factory=dict)


@dataclass
class Run:
    #: The latency-measured requests.
    requests: List[Request]
    #: ``None`` where the run skipped the end-to-end-only phases.
    throughput_per_s: Optional[float]
    setup_s: List[float]
    #: CPU seconds of the system under test while serving ``requests``.
    cpu_s: float
    peak_rss_mb: float
    trace_files: List[str] = field(default_factory=list)
    #: Requests of a throughput-only phase (checked and counted, but not
    #: in the latency metrics).
    extra: List[Request] = field(default_factory=list)


def _spawn(script: str, args: List[str], work: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, os.path.join(benchpath.BENCH_DIR, script)] + args,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=benchpath.child_env(work), cwd=benchpath.ROOT)
    # Pinned before it forks any worker, which inherits the affinity.
    os.sched_setaffinity(proc.pid, benchpath.cpu_split()[1])
    return proc


def _read_line(proc: subprocess.Popen, prefix: str) -> str:
    line = proc.stdout.readline()
    if not line.startswith(prefix):
        raise RuntimeError(f"child printed {line!r}, expected {prefix!r}")
    return line.strip()


def stop(proc: subprocess.Popen, sig=signal.SIGTERM,
         timeout: float = CHILD_TIMEOUT_S) -> None:
    """Signal ``proc`` and wait until it has ended (kill on timeout)."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


# ------------------------------------------------------------------ library


def plan_library(seed: int, seconds: float, work: str, trace: bool = False,
                 full: bool = True) -> Tuple[Run, List[Dict]]:
    """``plan-rrtstar-xarm7``: closed-loop ``plan()`` calls in one process.

    ``full`` repeats set-up ``SETUPS`` times (once otherwise)."""
    setups = SETUPS if full else 1
    out = os.path.join(work, "libplan.json")
    trace_out = os.path.join(work, "libplan-trace.json") if trace else None
    times: List[float] = []
    proc = None
    try:
        for k in range(setups):
            args = ["--seed", str(seed), "--seconds", str(seconds), "--out", out]
            if trace_out:
                args += ["--trace-out", trace_out]
            t0 = now()
            proc = _spawn("libplan.py", args, work)
            _read_line(proc, "READY")
            times.append(now() - t0)
            if k < setups - 1:
                proc.stdin.write("quit\n")
                proc.stdin.flush()
                proc.wait(timeout=CHILD_TIMEOUT_S)
                stop(proc)
        proc.stdin.write("go\n")
        proc.stdin.flush()
        if proc.wait(timeout=seconds + 120) != 0:
            raise RuntimeError("library workload process failed")
    finally:
        if proc is not None:
            stop(proc, signal.SIGKILL)
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    requests, outputs = [], []
    for item in data["results"]:
        requests.append(Request(
            seq=item["index"], klass="rrtstar",
            latency_s=item["end"] - item["start"], ok=True,
            success=item["success"], path_cost=item["path_cost"],
            straight=item["straight"], request_id=f"m-{item['index']}",
            start=item["start"], end=item["end"], macs=item["macs"]))
        outputs.append(item)
    return Run(requests, len(requests) / (data["stop"] - data["start"]), times,
               data["cpu_s"], data["peak_rss_mb"],
               [trace_out] if trace_out else []), outputs


def check_library(seed: int, outputs: List[Dict], plant: Optional[str]) -> None:
    for item in outputs:
        item["task"] = inputs.plan_task(seed, item["index"])
        item["config"] = inputs.plan_config(seed, item["index"])
    if plant:
        check.plant(plant, outputs)
    for item in outputs:
        check.check_path(item["task"], item["config"], item["path"],
                         item["path_cost"], item["success"],
                         label=f"task {item['index']}")
    first = outputs[0]
    from repro.service.request import PlanRequest

    check.check_replay(PlanRequest(task=first["task"], config=first["config"]),
                       first["path"], first["path_cost"], label="task 0")


# ------------------------------------------------------------------ serving


class Server:
    """A front-end child process with its own journal directory."""

    def __init__(self, work: str, tag: str, trace_dir: Optional[str]) -> None:
        journal = os.path.join(work, f"journal-{tag}")
        args = ["--journal-dir", journal]
        if trace_dir:
            args += ["--trace-dir", trace_dir]
        self.proc = _spawn("server.py", args, work)
        host, port = _read_line(self.proc, "FRONTEND").split()[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def wait_ready(self) -> None:
        client = Client(self.host, self.port)
        try:
            deadline = now() + CHILD_TIMEOUT_S
            while now() < deadline:
                status, _ = client.get("/healthz?ready=1")
                if status == 200:
                    return
                time.sleep(0.005)
            raise RuntimeError("front end never became ready")
        finally:
            client.close()

    def post(self, body: bytes) -> Dict:
        client = Client(self.host, self.port)
        try:
            status, data = client.post(body)
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"set-up request failed with HTTP {status}")
        return json.loads(data)

    def stop(self) -> None:
        stop(self.proc)


def _setup_server(work: str, tag: str, trace_dir: Optional[str]) -> Tuple[Server, float]:
    t0 = now()
    server = Server(work, tag, trace_dir)
    try:
        server.wait_ready()
        server.post(inputs.warmup_request().body(f"w-{tag}-warm"))
    except BaseException:
        server.stop()
        raise
    return server, now() - t0


def serve_cold(seed: int, seconds: float, work: str, trace: bool = False,
               full: bool = True) -> Tuple[Run, List[Dict]]:
    """``serve-cold-mixed``: paced open loop, every request a cache miss.

    ``full`` repeats set-up ``SETUPS`` times (once otherwise) and adds the
    closed-loop capacity bursts behind ``throughput_per_s``."""
    setups = SETUPS if full else 1
    due, requests = inputs.cold_inputs(seed, COLD_RATE, seconds)
    extra = inputs.mixed_requests(seed, CAPACITY_REQUESTS,
                                  inputs.CAPACITY_FIRST) if full else []

    trace_dir = None
    if trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir, exist_ok=True)
    times: List[float] = []
    server = None
    clients: List[Client] = []
    try:
        for k in range(setups):
            server, elapsed = _setup_server(
                work, str(k), trace_dir if k == setups - 1 else None)
            times.append(elapsed)
            if k < setups - 1:
                server.stop()
        clients = [Client(server.host, server.port)
                   for _ in range(loadgen.max_connections())]

        def cpu() -> float:
            return loadgen.cpu_seconds(loadgen.process_tree(server.proc.pid))

        samples: List[loadgen.Sample] = []
        capacity: List[loadgen.Sample] = []
        cpu_s = busy_s = 0.0
        for k in range(SEGMENTS):
            lo, hi = len(due) * k // SEGMENTS, len(due) * (k + 1) // SEGMENTS
            cpu0 = cpu()
            samples += _send(clients, [d - due[lo] for d in due[lo:hi]],
                             "m", requests, lo, now() + 0.01)
            cpu_s += cpu() - cpu0
            lo, hi = len(extra) * k // SEGMENTS, len(extra) * (k + 1) // SEGMENTS
            if hi > lo:
                start = now()
                burst = _send(clients, [0.0] * (hi - lo), "c", extra, lo, start)
                busy_s += max(s.done for s in burst) - start
                capacity += burst
        throughput = len(capacity) / busy_s if capacity else None
        rss = loadgen.peak_rss_mb(loadgen.process_tree(server.proc.pid))
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()
    out, outputs = _served(samples, requests)
    extra_out, extra_outputs = _served(capacity, extra)
    files = []
    if trace_dir:
        files = [os.path.join(trace_dir, f) for f in sorted(os.listdir(trace_dir))
                 if f.endswith(".json")]
    return (Run(out, throughput, times, cpu_s, rss, files, extra_out),
            outputs + extra_outputs)


def _send(clients: List[Client], offsets: List[float], prefix: str,
          requests: List[inputs.ServeRequest], first: int,
          start: float) -> List[loadgen.Sample]:
    """Send ``requests[first:]`` due at ``start + offsets``; samples carry
    their index into ``requests``."""
    def body_for(i):
        rid = f"{prefix}-{first + i}"
        return rid, requests[first + i].body(rid)

    samples = loadgen.open_loop(clients, offsets, body_for, start)
    for sample in samples:
        sample.seq += first
    return samples


def _served(samples: List[loadgen.Sample], requests: List[inputs.ServeRequest]
            ) -> Tuple[List[Request], List[Dict]]:
    """The client's samples as :class:`Request` rows, plus the served
    outputs to check."""
    out: List[Request] = []
    outputs: List[Dict] = []
    for s in samples:
        req = requests[s.seq]
        payload = {}
        if s.status == 200 and s.body:
            payload = json.loads(s.body)
        ok = s.status == 200 and payload.get("status") in ("ok", "degraded")
        out.append(Request(
            seq=s.seq, klass=req.klass, latency_s=s.latency, ok=ok,
            success=bool(ok and payload.get("success") and payload.get("path")),
            path_cost=payload.get("path_cost"), late_s=s.late,
            straight=_straight(req.request.task),
            request_id=s.request_id, start=s.due, end=s.done,
            bytes_out=s.bytes_out, bytes_in=s.bytes_in,
            macs=_macs(payload)))
        if ok:
            outputs.append({"request_id": s.request_id, "request": req.request,
                            "task": req.request.task,
                            "path": payload.get("path", []),
                            "path_cost": payload.get("path_cost"),
                            "success": bool(payload.get("success"))})
    return out, outputs


def _straight(task) -> float:
    import numpy as np

    return float(np.linalg.norm(np.asarray(task.goal) - np.asarray(task.start)))


def _macs(payload: Dict) -> Dict[str, float]:
    if not payload.get("op_macs"):
        return {}
    from repro.core.counters import OpCounter

    counter = OpCounter.from_dict({"events": payload.get("op_events", {}),
                                   "macs": payload["op_macs"]})
    return counter.macs_by_category()


def check_serve(outputs: List[Dict], plant: Optional[str]) -> None:
    """Check every served path; replay the first request of each robot."""
    if plant:
        check.plant(plant, outputs)
    replayed = set()
    for out in outputs:
        cost = out["path_cost"] if out["path_cost"] is not None else float("inf")
        label = f"request {out['request_id']}"
        check.check_path(out["task"], out["request"].config, out["path"], cost,
                         out["success"], label=label)
        if out["task"].robot_name not in replayed:
            replayed.add(out["task"].robot_name)
            check.check_replay(out["request"], out["path"], out["path_cost"],
                               label=label)
