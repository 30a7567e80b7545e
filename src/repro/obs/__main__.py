"""Observability CLI: run profiles and root-cause drill-downs.

Usage::

    python -m repro.obs report --trace /tmp/t.json --metrics /tmp/m.prom
    python -m repro.obs report --metrics /tmp/m.prom
    python -m repro.obs report --trace /tmp/t.json --json

    python -m repro.obs rca baseline.json candidate.json --metric p95
    python -m repro.obs rca chaos.json --split fault=clean --measure wall_seconds
    python -m repro.obs rca-smoke --out rca-report.json

``report`` merges the files a run exported (``repro.service --trace
--metrics``) into one profile: the
per-phase time/MAC breakdown table comes from the metrics file's
``repro_phase_*`` counters, span totals from the trace; ``--json`` emits
the merged structure machine-readably instead.

``rca`` runs the :mod:`repro.obs.rca` drill-down over two dumps of the
one drill-down row format (or one dump split by an ``attr=value``
predicate) and prints the ranked attribute combinations explaining the
metric delta.  ``rca-smoke`` is the self-check CI runs: it plants a known
regression slice in a synthetic fixture and fails unless the analyzer
ranks it #1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

from repro.obs.report import render_report, report_from_files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="merge trace/metrics files into a run profile"
    )
    report.add_argument("--trace", default=None,
                        help="Chrome trace_event JSON from a traced run")
    report.add_argument("--metrics", default=None,
                        help="Prometheus .prom (or registry .json) export")
    report.add_argument("--json", action="store_true",
                        help="print the merged report as JSON")

    rca = sub.add_parser(
        "rca", help="root-cause drill-down: name the slice that moved a "
                    "metric between two dumps"
    )
    rca.add_argument("baseline", help="baseline dump: any stamped records "
                                      "dump (service telemetry, chaos, "
                                      "traffic) or a repro.bench report")
    rca.add_argument("candidate", nargs="?", default=None,
                     help="candidate dump; omit when using --split")
    rca.add_argument("--split", default=None, metavar="ATTR=VALUE",
                     help="analyze ONE dump: matching records become the "
                          "baseline, the rest the candidate (attr!=value "
                          "inverts); e.g. fault=clean")
    rca.add_argument("--measure", default="auto",
                     help="record measure to analyze, or attr=value for the "
                          "indicator of that attribute value (e.g. "
                          "outcome=error); default: the measure the dump "
                          "is stamped with")
    rca.add_argument("--metric", default="p95",
                     choices=("p50", "p95", "p99", "mean", "max", "sum",
                              "count"),
                     help="statistic of the measure (default: %(default)s)")
    rca.add_argument("--top", type=int, default=5,
                     help="findings to report (default: %(default)s)")
    rca.add_argument("--max-depth", type=int, default=3,
                     help="largest attribute combination to search "
                          "(default: %(default)s)")
    rca.add_argument("--min-support", type=int, default=1,
                     help="minimum records a slice needs on either side")
    rca.add_argument("--json", action="store_true",
                     help="print the machine report instead of the table")
    rca.add_argument("--out", default=None, metavar="PATH",
                     help="also write the machine report JSON here")

    smoke = sub.add_parser(
        "rca-smoke", help="self-check: plant a 3x regression slice in a "
                          "synthetic fixture and demand rca ranks it #1"
    )
    smoke.add_argument("--out", default=None, metavar="PATH",
                       help="write the smoke report JSON here (the CI "
                            "artifact)")
    return parser


def _run_rca(args) -> int:
    from repro.obs.rca import analyze, load_dump, split_records

    if (args.candidate is None) == (args.split is None):
        print("repro.obs rca: need either a candidate dump or --split "
              "attr=value (exactly one)", file=sys.stderr)
        return 2
    try:
        dump = load_dump(args.baseline)
        if args.split is not None:
            baseline, candidate = split_records(dump.records, args.split)
        else:
            other = load_dump(args.candidate)
            if other.emitter != dump.emitter:
                raise ValueError(
                    f"dump emitters differ: {args.baseline} is from "
                    f"{dump.emitter}, {args.candidate} from {other.emitter}"
                )
            baseline, candidate = dump.records, other.records
        measure = dump.measure if args.measure == "auto" else args.measure
        result = analyze(
            baseline, candidate, measure=measure, metric=args.metric,
            top=args.top, max_depth=args.max_depth,
            min_support=args.min_support,
        )
    except ValueError as exc:
        print(f"repro.obs rca: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result.to_dict(), indent=2))
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        if args.trace is None and args.metrics is None:
            print("repro.obs report: need --trace and/or --metrics",
                  file=sys.stderr)
            return 2
        report = report_from_files(trace=args.trace, metrics=args.metrics)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_report(report))
        return 0
    if args.command == "rca":
        return _run_rca(args)
    if args.command == "rca-smoke":
        from repro.obs.rca import rca_smoke

        return rca_smoke(out=args.out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
