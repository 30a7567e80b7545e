"""The benchmark's own load driver: one process, at most ``nproc`` threads.

Each thread owns one keep-alive HTTP/1.1 connection and sends one request
at a time.  :func:`open_loop` follows a schedule of due times.  A request
is timed from when it was *due*, so a request that waited for a free
connection carries that wait in its latency; how late it was sent is
reported separately as generator lateness.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from stats import lateness, open_loop_latency

now = time.monotonic


@dataclass
class Sample:
    """One request as the client saw it."""

    seq: int
    request_id: str
    due: float
    sent: float
    done: float
    status: int
    bytes_out: int
    bytes_in: int
    body: bytes = b""

    @property
    def late(self) -> float:
        return lateness(self.due, self.sent)

    @property
    def latency(self) -> float:
        return open_loop_latency(self.due, self.done)


def max_connections() -> int:
    return max(1, os.cpu_count() or 1)


class Client:
    """One keep-alive connection to the front end."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def post(self, body: bytes) -> Tuple[int, bytes]:
        try:
            return self._post(body)
        except (OSError, http.client.HTTPException):
            # One reconnect: a keep-alive socket the server closed is not
            # a failed request; a second failure is.
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port,
                                                   timeout=self.timeout)
            return self._post(body)

    def _post(self, body: bytes) -> Tuple[int, bytes]:
        self.conn.request("POST", "/plan", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Tuple[int, bytes]:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def _send(client: Client, seq: int, rid: str, body: bytes, due: float) -> Sample:
    sent = now()
    try:
        status, data = client.post(body)
    except (OSError, http.client.HTTPException):
        status, data = 0, b""  # a transport error: counted as failed
    return Sample(seq, rid, due, sent, now(), status, len(body), len(data), data)


def open_loop(clients: List[Client], due: List[float],
              body_for: Callable[[int], Tuple[str, bytes]],
              start: float) -> List[Sample]:
    """Send request ``i`` at ``start + due[i]`` over the free connections."""
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []

    def worker(client: Client) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(due):
                    return
                cursor[0] += 1
            rid, body = body_for(i)
            due_at = start + due[i]
            wait = due_at - now()
            if wait > 0:
                time.sleep(wait)
            sample = _send(client, i, rid, body, due_at)
            with lock:
                samples.append(sample)

    _run_threads(worker, clients)
    return sorted(samples, key=lambda s: s.seq)


def _run_threads(target, clients: List[Client]) -> None:
    """Drive one client per thread; the calling thread drives the first,
    so the process runs no more threads than there are clients."""
    errors: List[BaseException] = []

    def guarded(client: Client) -> None:
        try:
            target(client)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(c,), daemon=True)
               for c in clients[1:]]
    for thread in threads:
        thread.start()
    guarded(clients[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ------------------------------------------------------------ /proc readers


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its descendants (Linux ``/proc`` children lists)."""
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children",
                          encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except FileNotFoundError:
                continue
    return out


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds of ``pids`` (those still alive)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def peak_rss_mb(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except FileNotFoundError:
            continue
    return total / 1024.0
