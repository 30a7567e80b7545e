"""Tests for the ``repro.bench`` harness: schema, gate, and CLI smoke."""

import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

from repro.bench import (
    REGRESSION_FACTOR,
    bench_kernels,
    compare_to_baseline,
    load_report,
    run_benchmarks,
    save_report,
)


def make_report(kernels):
    return {"schema": 1, "kernels": kernels, "end_to_end": []}


def entry(kernel="obb_obb_grid", dim=3, size="18x32", batch_s=1e-4, reference_s=1e-2):
    return {
        "kernel": kernel,
        "dim": dim,
        "size": size,
        "batch_s": batch_s,
        "reference_s": reference_s,
        "speedup": reference_s / batch_s,
    }


class TestRegressionGate:
    def test_passes_when_fast(self):
        base = make_report([entry(batch_s=1e-4)])
        now = make_report([entry(batch_s=1.5e-4)])
        assert compare_to_baseline(now, base) == []

    def test_fails_on_regression(self):
        base = make_report([entry(batch_s=1e-4)])
        now = make_report([entry(batch_s=3e-4)])
        failures = compare_to_baseline(now, base)
        assert len(failures) == 1
        assert "obb_obb_grid" in failures[0]

    def test_unmatched_points_are_skipped(self):
        base = make_report([entry(size="18x8")])
        now = make_report([entry(size="36x48", batch_s=99.0)])
        assert compare_to_baseline(now, base) == []

    def test_factor_is_respected(self):
        base = make_report([entry(batch_s=1e-4)])
        at_bound = make_report([entry(batch_s=REGRESSION_FACTOR * 1e-4)])
        past_bound = make_report([entry(batch_s=REGRESSION_FACTOR * 1.01e-4)])
        assert compare_to_baseline(at_bound, base) == []
        assert compare_to_baseline(past_bound, base)

    def test_failed_check_writes_rca_drilldown(self, tmp_path, monkeypatch,
                                               capsys):
        # A forced gate failure must produce the machine artifact naming
        # the regressed slice (the CI drill-down wiring).
        from repro.bench import __main__ as bench_main

        base = make_report([entry(batch_s=1e-4),
                            entry(kernel="aabb_aabb_grid", batch_s=1e-4)])
        now = make_report([entry(batch_s=5e-4),
                           entry(kernel="aabb_aabb_grid", batch_s=1e-4)])
        now["mode"] = "quick"
        now["wave"] = []
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(base))
        monkeypatch.setattr(bench_main, "run_benchmarks", lambda **_: now)
        rca_path = tmp_path / "BENCH_rca.json"
        code = bench_main.main([
            "--check", "--baseline", str(baseline_path),
            "--output", str(tmp_path / "report.json"),
            "--rca-output", str(rca_path),
        ])
        assert code == 1
        payload = json.loads(rca_path.read_text())
        assert payload["emitter"] == "repro.obs.rca"
        top = payload["findings"][0]["attributes"]
        assert top.get("kernel") == "obb_obb_grid"
        assert "obb_obb_grid" in capsys.readouterr().err


class TestHarness:
    @pytest.fixture(scope="class")
    def quick_report(self):
        return run_benchmarks(quick=True, sections=["kernels"])

    def test_schema_fields(self, quick_report):
        assert quick_report["schema"] == 1
        assert quick_report["mode"] == "quick"
        assert {"python", "numpy", "machine"} <= set(quick_report["host"])
        assert quick_report["end_to_end"] == []
        assert quick_report["kernels"]

    def test_kernel_entries_complete(self, quick_report):
        for item in quick_report["kernels"]:
            assert {"kernel", "dim", "size", "batch_s", "reference_s", "speedup"} <= set(item)
            assert item["batch_s"] > 0 and item["reference_s"] > 0

    def test_covers_all_sat_kernels(self, quick_report):
        names = {item["kernel"] for item in quick_report["kernels"]}
        assert {
            "aabb_aabb_grid", "aabb_obb_grid", "obb_obb_grid",
            "obb_obb_pairs", "aabb_obb_pairs", "nearest_index", "radius_mask",
        } <= names

    def test_report_roundtrip(self, quick_report, tmp_path):
        path = tmp_path / "report.json"
        save_report(quick_report, str(path))
        assert load_report(str(path)) == json.loads(path.read_text())

    def test_bench_kernels_rejects_divergence(self, monkeypatch):
        """The harness refuses to time kernels that disagree with golden."""
        from repro.kernels import batch as batch_mod

        def broken(*args, **kwargs):
            import numpy as np
            return np.zeros((1, 1), dtype=bool)

        monkeypatch.setattr(batch_mod, "aabb_aabb_grid", broken)
        with pytest.raises(AssertionError):
            bench_kernels(quick=True, seed=0)


class TestBaselineFile:
    def test_committed_baseline_is_valid(self):
        report = load_report(str(REPO / "benchmarks" / "BENCH_baseline.json"))
        assert report["schema"] == 1
        assert report["kernels"]
        e2e = {item["case"]: item for item in report["end_to_end"]}
        # The acceptance configuration is recorded with its measured speedup
        # and the bit-identical equivalence flag.
        rozum = e2e["rozum/32obs/v4"]
        assert rozum["equivalent"] is True
        assert rozum["speedup"] >= 3.0


def wave_entry(case="mobile2d/32obs/v1-norewire", wave_width=8,
               max_samples=600, wave_s=0.15, scalar_s=0.24):
    return {
        "case": case,
        "robot": "mobile2d",
        "obstacles": 32,
        "variant": "v1",
        "wave_width": wave_width,
        "max_samples": max_samples,
        "scalar_s": scalar_s,
        "scalar_spec_s": scalar_s * 1.05,
        "wave_s": wave_s,
        "speedup_vs_scalar": scalar_s / wave_s,
        "speedup_vs_spec": scalar_s * 1.05 / wave_s,
        "wave_occupancy": 0.95,
        "path_cost": 1.0,
        "num_nodes": 100,
        "equivalent": True,
    }


class TestWaveGate:
    def test_passes_when_fast(self):
        base = {"schema": 1, "wave": [wave_entry(wave_s=0.15)]}
        now = {"schema": 1, "wave": [wave_entry(wave_s=0.2)]}
        assert compare_to_baseline(now, base) == []

    def test_fails_on_wave_regression(self):
        base = {"schema": 1, "wave": [wave_entry(wave_s=0.15)]}
        now = {"schema": 1, "wave": [wave_entry(wave_s=0.4)]}
        failures = compare_to_baseline(now, base)
        assert len(failures) == 1
        assert "wave mobile2d/32obs/v1-norewire" in failures[0]

    def test_unmatched_wave_points_are_skipped(self):
        base = {"schema": 1, "wave": [wave_entry(wave_width=8)]}
        now = {"schema": 1, "wave": [wave_entry(wave_width=16, wave_s=99.0)]}
        assert compare_to_baseline(now, base) == []

    def test_kernel_and_wave_failures_combine(self):
        base = {
            "schema": 1,
            "kernels": [entry(batch_s=1e-4)],
            "wave": [wave_entry(wave_s=0.15)],
        }
        now = {
            "schema": 1,
            "kernels": [entry(batch_s=3e-4)],
            "wave": [wave_entry(wave_s=0.4)],
        }
        assert len(compare_to_baseline(now, base)) == 2


class TestWaveWorkGate:
    """The wave rows' work counts: one kernel call per wave, SI-MBR walks
    for at most a tenth of the wave samples."""

    def counted(self, **counts):
        work = {"kernel_calls_per_wave": 1, "walks": 60, "wave_samples": 600}
        return dict(wave_entry(), **dict(work, **counts))

    def test_counts_within_the_gate_pass(self):
        from repro.bench import check_wave_work

        assert check_wave_work(self.counted()) == []

    def test_a_second_call_or_more_walks_fail(self):
        from repro.bench import check_wave_work

        base = {"schema": 1, "wave": [self.counted()]}
        two = self.counted(kernel_calls_per_wave=2)
        assert compare_to_baseline({"schema": 1, "wave": [two]}, base) == [
            "wave mobile2d/32obs/v1-norewire W=8: 2 kernel calls in one wave (> 1)"
        ]
        walks = check_wave_work(self.counted(walks=61))
        assert walks == ["wave mobile2d/32obs/v1-norewire W=8: 61 SI-MBR walks "
                         "for 600 wave samples (> 10%)"]

    def test_rows_without_counts_are_gated_on_time_alone(self):
        from repro.bench import check_wave_work

        assert check_wave_work(wave_entry()) == []

    def test_a_plan_is_counted(self):
        from repro.bench import _wave_work
        from repro.core.moped import config_for_variant
        from repro.core.robots import get_robot
        from repro.core.rrtstar import RRTStarPlanner
        from repro.workloads.generator import random_task

        config = config_for_variant("v4", max_samples=120, seed=2, wave_width=8)
        planner = RRTStarPlanner(get_robot("xarm7"), random_task("xarm7", 12, seed=2),
                                 config)
        work = _wave_work(planner)
        result = work.pop("result")
        assert work["waves"] == result.phases["speculate"]["calls"] == 15
        assert work["wave_samples"] == 120
        assert work["kernel_calls_per_wave"] == 1
        assert work["waves"] <= work["kernel_calls"] <= work["edges"]
        assert work["walks"] <= 12


class TestEverySectionGate:
    """compare_to_baseline gates each timed section the same way."""

    SECTIONS = {
        "kernels": (entry(batch_s=1e-4), "batch_s", "size",
                    "obb_obb_grid dim=3 size=18x32: 0.000300s vs baseline "
                    "0.000100s (> 2.0x)"),
        "wave": ({"case": "c", "wave_width": 8, "max_samples": 600,
                  "wave_s": 0.1}, "wave_s", "max_samples",
                 "wave c W=8: 0.3000s vs baseline 0.1000s (> 2.0x)"),
        "edge": ({"case": "c", "wave_width": 8, "edges": 192,
                  "edge_s": 0.1}, "edge_s", "edges",
                 "edge c W=8: 0.3000s vs baseline 0.1000s (> 2.0x)"),
        "connect": ({"case": "c", "wave_width": 8, "max_samples": 600,
                     "connect_s": 0.1}, "connect_s", "max_samples",
                    "connect c W=8: 0.3000s vs baseline 0.1000s (> 2.0x)"),
    }

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_three_times_slower_fails_and_unmatched_key_is_skipped(
        self, section
    ):
        base_entry, time_field, key_field, message = self.SECTIONS[section]
        slow = dict(base_entry, **{time_field: 3 * base_entry[time_field]})
        base = {"schema": 1, section: [base_entry]}
        assert compare_to_baseline({"schema": 1, section: [slow]}, base) == [message]
        unmatched = dict(slow, **{key_field: "other"})
        assert compare_to_baseline({"schema": 1, section: [unmatched]},
                                   base) == []


class TestWaveBaselineFile:
    def test_committed_wave_baseline_is_valid(self):
        from repro.bench import WAVE_SAMPLES, WAVE_SUITE

        report = load_report(str(REPO / "benchmarks" / "BENCH_wave.json"))
        assert report["schema"] == 1
        cases = {item["case"]: item for item in report["wave"]}
        # Every suite point is measured at the shared sampling budget with
        # the bit-equality flag set.
        for label, *_ in WAVE_SUITE:
            assert cases[label]["equivalent"] is True
            assert cases[label]["max_samples"] == WAVE_SAMPLES
            assert cases[label]["wave_s"] > 0
        # The acceptance claim: >= 2x end-to-end over the PR 3 batch
        # backend on a 32-obstacle case, at healthy lane occupancy.
        ref = report["pr3_reference"]
        assert ref["case"] in cases
        assert cases[ref["case"]]["obstacles"] == 32
        assert ref["speedup_vs_pr3"] >= 2.0
        assert ref["wave_occupancy"] >= 0.9


COMMITTED = sorted((REPO / "benchmarks").glob("BENCH_*.json"))


def committed_baselines():
    return {path.name: load_report(str(path)) for path in COMMITTED}


def run_main(argv):
    from repro.bench import __main__ as bench_main

    return bench_main.main(argv)


class TestSectionTable:
    def test_cli_runs_every_section_once(self, tmp_path, monkeypatch):
        import dataclasses

        import repro.bench as bench

        calls = []

        def fake(name):
            return lambda quick: calls.append((name, quick)) or []

        monkeypatch.setattr(bench, "SECTIONS", tuple(
            dataclasses.replace(section, run=fake(section.name))
            for section in bench.SECTIONS
        ))
        monkeypatch.setattr("repro.bench.__main__.SECTIONS", bench.SECTIONS)
        assert run_main(["--quick", "--check", "--output",
                         str(tmp_path / "r.json"),
                         "--baseline", *map(str, COMMITTED)]) == 0
        assert calls == [(section.name, True) for section in bench.SECTIONS]
        assert [name for name, _ in calls].count("kernels") == 1

    def test_section_picks_and_every_key_is_present(self, monkeypatch):
        import dataclasses

        import repro.bench as bench

        monkeypatch.setattr(bench, "SECTIONS", tuple(
            dataclasses.replace(section, run=lambda quick, n=section.name: [n])
            for section in bench.SECTIONS
        ))
        report = run_benchmarks(sections=["wave", "faults"])
        assert {name: report[name] for name in ("kernels", "wave", "faults")} \
            == {"kernels": [], "wave": ["wave"], "faults": ["faults"]}
        with pytest.raises(ValueError, match="unknown bench sections"):
            run_benchmarks(sections=["nope"])

    @pytest.mark.parametrize("flag", [
        "--skip-e2e", "--wave", "--wave-width=8", "--edge", "--connect",
        "--portfolio", "--faults-gate", "--factor=2", "--seed=0",
    ])
    def test_folded_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit) as info:
            run_main([flag])
        assert info.value.code == 2


class TestFaultsBudgetLine:
    """The faults line and message name the budget the gate enforces."""

    @staticmethod
    def faults_entry(inert_s):
        disabled_s = 0.15
        return {"case": "mobile2d/16obs/v4", "max_samples": 200, "reps": 5,
                "disabled_s": disabled_s, "inert_s": inert_s,
                "overhead_pct": 100.0 * (inert_s / disabled_s - 1.0),
                "equivalent": True}

    def run_check(self, tmp_path, monkeypatch, inert_s):
        report = {"schema": 1, "mode": "quick",
                  "faults": [self.faults_entry(inert_s)]}
        monkeypatch.setattr("repro.bench.__main__.run_benchmarks",
                            lambda **_: report)
        return run_main(["--check", "--output", str(tmp_path / "r.json"),
                         "--rca-output", "",
                         "--baseline", *map(str, COMMITTED)])

    def test_pass_line_names_the_enforced_budget(self, tmp_path, monkeypatch,
                                                 capsys):
        # budget = 0.15 s * 1.01 + 10 ms = 0.1615 s, i.e. +7.67% here.
        assert self.run_check(tmp_path, monkeypatch, inert_s=0.154) == 0
        out = capsys.readouterr().out
        assert "overhead=+2.67% within budget +7.67% (1.01x + 10ms = 0.1615s)" \
            in out
        assert "<1%" not in out

    def test_fail_message_names_the_enforced_budget(self, tmp_path,
                                                    monkeypatch, capsys):
        assert self.run_check(tmp_path, monkeypatch, inert_s=0.162) == 1
        err = capsys.readouterr().err
        assert "fault hooks: inert 0.1620s vs disabled 0.1500s, " \
            "overhead=+8.00% over budget +7.67%" in err


def gated_keys():
    """Every gated key a --quick or full run produces, from the suites."""
    import numpy as np

    import repro.bench as bench

    return {
        "kernels": {
            (case["kernel"], case["dim"], case["size"])
            for quick in (True, False)
            for case in bench._kernel_cases(quick, np.random.default_rng(0))
        },
        "wave": {(label, bench.WAVE_WIDTH, bench.WAVE_SAMPLES)
                 for label, *_ in bench.WAVE_SUITE},
        "edge": {(label, width, bench.EDGE_COUNT)
                 for label, *_, width in bench.EDGE_SUITE},
        "connect": {(label, bench.WAVE_WIDTH, bench.CONNECT_SAMPLES)
                    for label, *_ in bench.CONNECT_SUITE},
    }


#: The per-file gate of the five-step CI bench job this gate replaces:
#: (report key, key fields, time field, message label, digits), factor 2.
PARENT_GATED = (
    ("kernels", ("kernel", "dim", "size"), "batch_s",
     "{kernel} dim={dim} size={size}", 6),
    ("wave", ("case", "wave_width", "max_samples"), "wave_s",
     "wave {case} W={wave_width}", 4),
    ("edge", ("case", "wave_width", "edges"), "edge_s",
     "edge {case} W={wave_width}", 4),
    ("connect", ("case", "wave_width", "max_samples"), "connect_s",
     "connect {case} W={wave_width}", 4),
)

#: Its steps: the baseline file each step gated, and the sections in that
#: step's report (the kernel sweep ran in every step).
PARENT_STEPS = (
    ("BENCH_baseline.json", ("kernels", "end_to_end")),
    ("BENCH_wave.json", ("kernels", "wave")),
    ("BENCH_edge.json", ("kernels", "edge")),
    ("BENCH_connect.json", ("kernels", "connect")),
)


def parent_gate(report, baseline):
    failures = []
    for section, fields, time_field, label, digits in PARENT_GATED:
        base_index = {tuple(e[name] for name in fields): e
                      for e in baseline.get(section, [])}
        for e in report.get(section, []):
            base = base_index.get(tuple(e[name] for name in fields))
            if base is None:
                continue
            now, then = e[time_field], base[time_field]
            if now > 2.0 * then:
                failures.append(f"{label.format(**e)}: {now:.{digits}f}s vs "
                                f"baseline {then:.{digits}f}s (> 2.0x)")
    return failures


def perturbed_report(baselines, seed):
    """Every committed gated entry, its time a multiple of one file's."""
    import numpy as np

    from repro.bench import SECTIONS

    rng = np.random.default_rng(seed)
    report = {"schema": 1}
    for section in SECTIONS:
        if section.factor is None:
            continue
        by_key = {}
        for name in sorted(baselines):
            for e in baselines[name].get(section.name) or []:
                by_key.setdefault(section.key_of(e), []).append(e)
        entries = []
        for key in sorted(by_key, key=str):
            e = by_key[key][rng.integers(len(by_key[key]))]
            factor = rng.choice([1.0, 1.5, 1.9, 2.0, 2.1, 2.5, 3.0, 3.5])
            entries.append(dict(e, **{section.time: e[section.time] * factor}))
        report[section.name] = entries
    return report


class TestOneRunGate:
    def test_every_gated_key_has_a_committed_baseline(self):
        # compare_to_baseline skips keys missing from the baseline, so a
        # renamed case would otherwise disengage its gate without a word.
        from repro.bench import SECTIONS, merge_baselines

        merged = merge_baselines(list(committed_baselines().values()))
        keys = gated_keys()
        assert set(keys) == {s.name for s in SECTIONS if s.factor is not None}
        for section in SECTIONS:
            if section.factor is None:
                continue
            committed = {section.key_of(e) for e in merged[section.name]}
            missing = keys[section.name] - committed
            assert not missing, f"{section.name} keys without a baseline: {missing}"

    def test_gate_equals_the_per_file_gates(self):
        from repro.bench import merge_baselines

        baselines = committed_baselines()
        merged = merge_baselines(list(baselines.values()))
        for seed in range(40):
            report = perturbed_report(baselines, seed)
            per_file = {name: parent_gate({s: report.get(s, []) for s in sections},
                                          baselines[name])
                        for name, sections in PARENT_STEPS}
            old = [message for messages in per_file.values()
                   for message in messages]
            new = compare_to_baseline(report, merged)
            labels = [message.split(": ")[0] for message in new]
            assert len(labels) == len(set(labels))
            assert set(labels) == {message.split(": ")[0] for message in old}
            assert set(new) <= set(old)
            assert len(new) < sum(len(e) for k, e in report.items() if k != "schema")

    def test_drilldown_names_a_planted_slow_kernel(self):
        # A quick report against the committed baselines: the full-mode
        # points only the baselines hold (600-sample end-to-end runs,
        # larger kernel sizes) must not outrank the one slowed kernel.
        import numpy as np

        import repro.bench as bench
        from repro.bench import analyze_bench_reports, merge_baselines

        merged = merge_baselines(list(committed_baselines().values()))
        quick = {(c["kernel"], c["dim"], c["size"])
                 for c in bench._kernel_cases(True, np.random.default_rng(0))}
        planted = ("obb_obb_grid", 3, "18x32")
        kernels = []
        for e in merged["kernels"]:
            key = (e["kernel"], e["dim"], e["size"])
            if key in quick:
                slow = 3.0 if key == planted else 1.0
                kernels.append(dict(e, batch_s=e["batch_s"] * slow))
        e2e = dict(merged["end_to_end"][0], max_samples=300, batch_s=0.5)
        report = {"schema": 1, "mode": "quick", "kernels": kernels,
                  "end_to_end": [e2e], "wave": merged["wave"],
                  "edge": merged["edge"], "connect": merged["connect"]}
        failures = compare_to_baseline(report, merged)
        assert [m.split(": ")[0] for m in failures] == [
            "obb_obb_grid dim=3 size=18x32"]
        top = analyze_bench_reports(merged, report).findings[0]
        assert top.attributes.get("kernel") == "obb_obb_grid"
        assert top.attributes.get("dim") == "3"

    @pytest.mark.parametrize("drift", [1.0, 1.5])
    def test_drilldown_names_the_failed_kernel_over_drifted_entries(self, drift):
        # A quick run's microsecond kernel fails its gate while a
        # millisecond wave case drifts 1.7x and every other kernel
        # ``drift``x, all within their 2x gates: the drill-down must name
        # the failed kernel, not the larger delta or the broad drift.
        import numpy as np

        import repro.bench as bench
        from repro.bench import analyze_bench_reports, merge_baselines

        merged = merge_baselines(list(committed_baselines().values()))
        quick = {(c["kernel"], c["dim"], c["size"])
                 for c in bench._kernel_cases(True, np.random.default_rng(0))}
        planted = ("obb_obb_pairs", 2, "256")
        assert planted in quick
        kernels = [dict(e, batch_s=e["batch_s"] * (2.2 if key == planted else drift))
                   for e in merged["kernels"]
                   for key in [(e["kernel"], e["dim"], e["size"])] if key in quick]
        wave = [dict(e, wave_s=e["wave_s"] * (1.7 if e["case"] == "xarm7/24obs/v4"
                                              else 1.0))
                for e in merged["wave"]]
        report = {"schema": 1, "mode": "quick", "kernels": kernels,
                  "wave": wave, "edge": merged["edge"], "connect": merged["connect"]}
        failures = compare_to_baseline(report, merged)
        assert [m.split(": ")[0] for m in failures] == [
            "obb_obb_pairs dim=2 size=256"]
        top = analyze_bench_reports(merged, report).findings[0]
        assert top.attributes.get("kernel") == "obb_obb_pairs"
        assert top.attributes.get("dim") == "2"

    def test_no_gated_key_in_two_committed_files(self):
        # One committed entry per gated key: a refresh rewrites one file,
        # and no stale copy elsewhere can bind the gate instead.
        from repro.bench import SECTIONS

        for section in SECTIONS:
            if section.factor is None:
                continue
            owner = {}
            for name, report in committed_baselines().items():
                for e in report.get(section.name) or []:
                    key = section.key_of(e)
                    assert key not in owner, (
                        f"{section.name} {key} in {owner.get(key)} and {name}")
                    owner[key] = name


class TestPlantedDivergence:
    """The one command refuses to time a section whose results diverge."""

    def check(self, tmp_path, section, match):
        with pytest.raises(AssertionError, match=match):
            run_main(["--quick", "--check", "--section", section,
                      "--output", str(tmp_path / "r.json"),
                      "--baseline", *map(str, COMMITTED)])

    def test_kernel_vs_reference(self, tmp_path, monkeypatch):
        import numpy as np

        from repro.kernels import batch as batch_mod

        monkeypatch.setattr(batch_mod, "aabb_aabb_grid",
                            lambda *a: np.zeros((1, 1), dtype=bool))
        self.check(tmp_path, "kernels", "aabb_aabb_grid .* disagrees")

    def test_end_to_end_without_a_path(self, tmp_path, monkeypatch):
        import repro.bench as bench

        real = bench.plan

        def no_path(robot, task, config):
            result = real(robot, task, config)
            result.success = False
            return result

        monkeypatch.setattr(bench, "plan", no_path)
        self.check(tmp_path, "end_to_end", "batch backend found no path")

    def test_end_to_end(self, tmp_path, monkeypatch):
        import repro.bench as bench

        real = bench.plan

        def diverging(robot, task, config):
            result = real(robot, task, config)
            if config.kernels == "reference":
                result.num_nodes += 1
            return result

        monkeypatch.setattr(bench, "plan", diverging)
        self.check(tmp_path, "end_to_end", "plans diverged: node counts differ")

    def test_wave(self, tmp_path, monkeypatch):
        import repro.bench as bench

        class Diverging(bench.RRTStarPlanner):
            def plan(self):
                result = super().plan()
                if self.config.wave_width > 1:
                    result.num_nodes += 1
                return result

        monkeypatch.setattr(bench, "RRTStarPlanner", Diverging)
        self.check(tmp_path, "wave", "wave W=8 diverged .* node counts differ")

    def test_edge(self, tmp_path, monkeypatch):
        import repro.bench as bench

        real = bench.make_checker

        def diverging(*args, **kwargs):
            checker = real(*args, **kwargs)
            if kwargs.get("kernels") == "reference":
                walk = checker.motion_results_batch
                checker.motion_results_batch = lambda s, e: [
                    (not verdict, counter) for verdict, counter in walk(s, e)
                ]
            return checker

        monkeypatch.setattr(bench, "make_checker", diverging)
        self.check(tmp_path, "edge", "verdicts diverged at edge 0")

    def test_connect(self, tmp_path, monkeypatch):
        import repro.bench as bench

        class Diverging(bench.RRTConnectPlanner):
            def plan(self):
                result = super().plan()
                if self.config.wave_width > 1:
                    result.path_cost += 1.0
                return result

        monkeypatch.setattr(bench, "RRTConnectPlanner", Diverging)
        self.check(tmp_path, "connect", "connect W=8 diverged from W=1")
