"""CLI for the benchmark harness: ``python -m repro.bench``.

Writes ``BENCH_kernels.json`` (see :mod:`repro.bench` for the schema) and,
with ``--check``, gates against the committed baseline so CI fails when a
kernel's batch time regresses beyond the allowed factor.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import (
    REGRESSION_FACTOR,
    analyze_bench_reports,
    check_faults_overhead,
    compare_to_baseline,
    load_report,
    run_benchmarks,
    save_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark batch kernels and planner runs against the scalar reference.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep + single end-to-end case (the CI smoke mode)",
    )
    parser.add_argument(
        "--skip-e2e", action="store_true",
        help="kernel microbenchmarks only, no full planner runs",
    )
    parser.add_argument(
        "--output", default="BENCH_kernels.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against --baseline and exit 1 on kernel regressions",
    )
    parser.add_argument(
        "--baseline", default="benchmarks/BENCH_baseline.json",
        help="committed baseline report for --check (default: %(default)s)",
    )
    parser.add_argument(
        "--factor", type=float, default=REGRESSION_FACTOR,
        help="allowed slowdown factor vs baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--rca-output", default="BENCH_rca.json", metavar="PATH",
        help="where a failed --check writes the repro.obs.rca drill-down "
             "naming the regressed slice (default: %(default)s; '' to skip)",
    )
    parser.add_argument("--seed", type=int, default=0, help="data-generation seed")
    parser.add_argument(
        "--wave", action="store_true",
        help="also bench the wavefront planner (asserts bit-equality with "
             "one-sample waves at the same speculation depth)",
    )
    parser.add_argument(
        "--wave-width", type=int, default=8,
        help="wave width W for --wave runs (default: %(default)s)",
    )
    parser.add_argument(
        "--edge", action="store_true",
        help="also bench whole-edge validation (asserts verdict and counter "
             "bit-equality with the reference kernels)",
    )
    parser.add_argument(
        "--connect", action="store_true",
        help="also bench bidirectional RRT-Connect against wave RRT* on "
             "feasibility queries (asserts connect bit-reproducibility "
             "across wave widths and repeats)",
    )
    parser.add_argument(
        "--portfolio", action="store_true",
        help="also run the portfolio racing smoke (race two planners "
             "through a real pool, assert winner + cancelled-loser "
             "accounting)",
    )
    parser.add_argument(
        "--faults-gate", action="store_true",
        help="also bench the fault-injection hooks (disabled vs inert "
             "injector, interleaved) and exit 1 if the disabled-path "
             "overhead budget (<1%%) is exceeded",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(
        quick=args.quick, skip_e2e=args.skip_e2e, seed=args.seed,
        wave=args.wave, wave_width=args.wave_width, faults=args.faults_gate,
        edge=args.edge, connect=args.connect, portfolio=args.portfolio,
    )
    save_report(report, args.output)

    print(f"wrote {args.output} ({report['mode']} mode)")
    for entry in report["kernels"]:
        print(
            f"  kernel {entry['kernel']:16s} dim={entry['dim']} "
            f"size={entry['size']:>9s}  batch={entry['batch_s'] * 1e6:9.1f}us "
            f"reference={entry['reference_s'] * 1e6:10.1f}us  "
            f"speedup={entry['speedup']:6.1f}x"
        )
    for entry in report["end_to_end"]:
        print(
            f"  e2e    {entry['case']:22s} batch={entry['batch_s']:.2f}s "
            f"reference={entry['reference_s']:.2f}s  "
            f"speedup={entry['speedup']:.2f}x  (bit-identical: {entry['equivalent']})"
        )
    for entry in report["wave"]:
        print(
            f"  wave   {entry['case']:22s} W={entry['wave_width']:<3d} "
            f"scalar={entry['scalar_s']:.3f}s wave={entry['wave_s']:.3f}s  "
            f"speedup={entry['speedup_vs_scalar']:.2f}x  "
            f"occ={entry['wave_occupancy']:.2f}  "
            f"(bit-identical: {entry['equivalent']})"
        )

    for entry in report.get("edge", []):
        print(
            f"  edge   {entry['case']:22s} W={entry['wave_width']:<3d} "
            f"edge={entry['edge_us_per_edge']:6.1f}us/edge  "
            f"(bit-identical: {entry['equivalent']})"
        )

    for entry in report.get("connect", []):
        print(
            f"  connect {entry['case']:21s} W={entry['wave_width']:<3d} "
            f"rrtstar={entry['rrtstar_s']:.3f}s "
            f"connect={entry['connect_s']:.3f}s  "
            f"speedup={entry['speedup']:.2f}x  "
            f"iters={entry['connect_iterations']}/{entry['rrtstar_iterations']}  "
            f"(bit-reproducible: {entry['equivalent']})"
        )

    portfolio = report.get("portfolio")
    if portfolio:
        wins = " ".join(
            f"{name}={count}" for name, count in sorted(portfolio["wins"].items())
        )
        print(
            f"  portfolio {portfolio['case']:19s} "
            f"race={'+'.join(portfolio['planners'])} "
            f"jobs={portfolio['jobs']} workers={portfolio['workers']}  "
            f"wins[{wins}]  {portfolio['elapsed_s']:.2f}s  "
            f"(losers terminal: {portfolio['equivalent']})"
        )

    faults = report.get("faults")
    if faults:
        print(
            f"  faults {faults['case']:22s} disabled={faults['disabled_s']:.3f}s "
            f"inert={faults['inert_s']:.3f}s  "
            f"overhead={faults['overhead_pct']:+.2f}%  "
            f"(bit-identical: {faults['equivalent']})"
        )
        gate_failures = check_faults_overhead(faults)
        if gate_failures:
            for message in gate_failures:
                print(f"  {message}", file=sys.stderr)
            return 1
        print("faults gate passed (disabled injection hooks within <1% budget)")

    if args.check:
        try:
            baseline = load_report(args.baseline)
        except FileNotFoundError:
            print(f"baseline {args.baseline} not found; cannot --check", file=sys.stderr)
            return 2
        failures = compare_to_baseline(report, baseline, factor=args.factor)
        if failures:
            print("kernel perf regressions detected:", file=sys.stderr)
            for message in failures:
                print(f"  {message}", file=sys.stderr)
            # Name the slice: drill the baseline-vs-candidate delta down to
            # the attribute combination that moved it, and leave the
            # machine report next to the bench output for CI to upload.
            try:
                rca = analyze_bench_reports(baseline, report)
                print(rca.render(), file=sys.stderr)
                rca_path = args.rca_output
                if rca_path:
                    import json as _json
                    import pathlib as _pathlib

                    _pathlib.Path(rca_path).write_text(
                        _json.dumps(rca.to_dict(), indent=2)
                    )
                    print(f"rca drill-down written to {rca_path}",
                          file=sys.stderr)
            except Exception as exc:  # the gate verdict must never be masked
                print(f"rca drill-down unavailable: {exc}", file=sys.stderr)
            return 1
        print(f"perf check passed (no kernel > {args.factor:.1f}x slower than baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
