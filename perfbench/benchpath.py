"""Locate the repository's sources from inside the benchmark directory."""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def require_repro() -> None:
    """Put ``src/`` first on ``sys.path``; exit 2 when the package is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env(tmpdir: str) -> dict:
    """Environment for benchmark child processes: sources on PYTHONPATH and
    temporary files under ``tmpdir``, inside the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = tmpdir
    parts = [SRC, BENCH_DIR]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def cpu_split():
    """(load-generator CPUs, system-under-test CPUs).

    With two or more CPUs the benchmark's own process keeps the first and
    the system under test gets the rest.  Hand-offs between the front
    end's threads and the worker then stay on one CPU instead of waking
    another, which in a virtual machine costs a variable exit to the host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])

