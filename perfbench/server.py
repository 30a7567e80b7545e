"""Launch one planning front end for the serving workloads.

Runs :class:`repro.net.frontend.PlanFrontEnd` through ``run_server`` with
one pool worker, the write-ahead journal on (default fsync) in the given
directory, and the in-process plan cache.  Prints ``FRONTEND host:port``
when listening; SIGTERM drains and stops it.

With ``--trace-dir`` the benchmark's timing wrappers are installed before
the pool forks, and every process (front end and workers) writes its
spans to that directory when it ends.

    python3 perfbench/server.py --journal-dir DIR [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchpath  # noqa: E402  (puts the repository's src/ on sys.path)

benchpath.require_repro()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    import repro.net.frontend as frontend
    from repro.net.frontend import FrontEndConfig

    recorder = None
    if args.trace_dir:
        import tracing

        recorder = tracing.Recorder()
        tracing.install_core(recorder)
        tracing.install_frontend(recorder)
        tracing.install_worker(recorder, lambda: os.path.join(
            args.trace_dir, f"worker-{os.getpid()}.json"))

    config = FrontEndConfig(workers=1, journal_dir=args.journal_dir)
    frontend.run_server(config, announce=True)
    if recorder is not None:
        recorder.dump(os.path.join(args.trace_dir, f"frontend-{os.getpid()}.json"))


if __name__ == "__main__":
    main()
