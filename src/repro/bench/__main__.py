"""CLI for the benchmark harness: ``python -m repro.bench``.

Runs every section of :data:`repro.bench.SECTIONS` once (``--section NAME``
picks some) and writes ``BENCH_kernels.json``.  With ``--check`` it gates
each entry against the fastest time for its key over the committed
baselines (every ``benchmarks/BENCH_*.json`` unless ``--baseline`` names
others) and exits 1 on a failure, after drilling the delta down to the
regressed slice.
"""

from __future__ import annotations

import argparse
import glob
import json
import pathlib
import sys

from repro.bench import (
    REGRESSION_FACTOR,
    SECTIONS,
    analyze_bench_reports,
    compare_to_baseline,
    load_report,
    merge_baselines,
    run_benchmarks,
    save_report,
)

#: Baselines ``--check`` reads by default: every committed report.
BASELINE_GLOB = "benchmarks/BENCH_*.json"


def main(argv=None) -> int:
    names = [section.name for section in SECTIONS]
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark batch kernels and planner runs against the scalar reference.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweeps and single planner cases (the CI smoke mode)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"gate every entry (> {REGRESSION_FACTOR:.1f}x its fastest "
             "baseline time, or over the fault-hook budget) and exit 1 on "
             "a failure",
    )
    parser.add_argument(
        "--section", nargs="+", action="extend", choices=names, metavar="NAME",
        help=f"run only these sections (default: all of {', '.join(names)})",
    )
    parser.add_argument(
        "--output", default="BENCH_kernels.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", nargs="+", metavar="PATH",
        help=f"baseline reports for --check (default: every {BASELINE_GLOB})",
    )
    parser.add_argument(
        "--rca-output", default="BENCH_rca.json", metavar="PATH",
        help="where a failed --check writes the repro.obs.rca drill-down "
             "naming the regressed slice (default: %(default)s; '' to skip)",
    )
    args = parser.parse_args(argv)

    if args.check:
        # Read the baselines before the run can write one of them.
        paths = args.baseline or sorted(glob.glob(BASELINE_GLOB))
        if not paths:
            print(f"no baseline matches {BASELINE_GLOB}; cannot --check",
                  file=sys.stderr)
            return 2
        try:
            baseline = merge_baselines([load_report(path) for path in paths])
        except FileNotFoundError as exc:
            print(f"baseline {exc.filename} not found; cannot --check",
                  file=sys.stderr)
            return 2

    report = run_benchmarks(quick=args.quick, sections=args.section)
    save_report(report, args.output)

    print(f"wrote {args.output} ({report['mode']} mode)")
    for section in SECTIONS:
        for entry in report.get(section.name) or []:
            print(f"  {section.line(entry)}")
    if not args.check:
        return 0

    failures = compare_to_baseline(report, baseline)
    if failures:
        print("perf regressions detected:", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        # Name the slice: drill the baseline-vs-candidate delta down to
        # the attribute combination that moved it, and leave the
        # machine report next to the bench output for CI to upload.
        try:
            rca = analyze_bench_reports(baseline, report)
            print(rca.render(), file=sys.stderr)
            if args.rca_output:
                pathlib.Path(args.rca_output).write_text(
                    json.dumps(rca.to_dict(), indent=2)
                )
                print(f"rca drill-down written to {args.rca_output}",
                      file=sys.stderr)
        except Exception as exc:  # the gate verdict must never be masked
            print(f"rca drill-down unavailable: {exc}", file=sys.stderr)
        return 1
    print(
        f"perf check passed (no entry > {REGRESSION_FACTOR:.1f}x its fastest "
        f"time in {len(paths)} baseline(s), no in-run check failed)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
