"""The planning command's shell interface: ``python -m repro.service``.

A single task is ``--jobs 1 --workers 0``: one generated (or loaded) task,
planned inline with the one config the planner flags describe.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.moped import config_for_variant
from repro.core.planners import make_planner
from repro.core.robots import get_robot
from repro.service.__main__ import build_parser, main
from repro.workloads import random_task

REPO = pathlib.Path(__file__).resolve().parent.parent
ONE = ["--jobs", "1", "--workers", "0"]
TASK = ["--robot", "mobile2d", "--obstacles", "8", "--seed", "4",
        "--goal-bias", "0.2"]


def run_one(capsys, *argv):
    """Plan one task inline; return (exit code, stdout summary, stderr)."""
    code = main(ONE + TASK + list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def responses_of(tmp_path, capsys, *argv):
    """The ``--responses`` file of one inline task, as a list of dicts."""
    out_file = tmp_path / "responses.json"
    run_one(capsys, *argv, "--responses", str(out_file))
    return json.loads(out_file.read_text())


def library_plan(samples, variant="full"):
    """The plan ``make_planner(...).plan()`` gives for ``TASK``."""
    task = random_task("mobile2d", 8, seed=4, task_id=0)
    config = config_for_variant(variant, max_samples=samples, seed=4,
                                goal_bias=0.2)
    return make_planner(get_robot("mobile2d"), task, config).plan()


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.robot == "mobile2d"
        assert args.variant == "full"
        assert args.wave == 1

    def test_rejects_unknown_robot(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--robot", "optimus"])

    def test_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--variant", "v9"])


class TestMain:
    def test_plans_and_reports(self, capsys):
        code, summary, err = run_one(capsys, "--samples", "200")
        assert code == 0
        assert summary["jobs"] == 1 and summary["ok"] == 1
        assert err.startswith("job-000: ok success=True cost=")

    def test_writes_result_json(self, tmp_path, capsys):
        (response,) = responses_of(tmp_path, capsys, "--samples", "150")
        result = library_plan(150)
        assert response["iterations"] == 150 and response["success"]
        assert response["path"] == [p.tolist() for p in result.path]
        assert response["path_cost"] == result.path_cost

    def test_smooth_flag(self, tmp_path, capsys):
        (raw,) = responses_of(tmp_path, capsys, "--samples", "250")
        (smoothed,) = responses_of(tmp_path, capsys, "--samples", "250",
                                   "--smooth")
        assert raw["success"] and smoothed["success"]
        assert smoothed["path_cost"] <= raw["path_cost"]
        assert len(smoothed["path"]) <= len(raw["path"])
        assert smoothed["path"][0] == raw["path"][0]
        assert smoothed["path"][-1] == raw["path"][-1]

    def test_render_flag(self, capsys):
        code, summary, err = run_one(capsys, "--samples", "150", "--render")
        assert code == 0 and summary["jobs"] == 1
        assert "+----" in err  # the ASCII border, kept off stdout

    def test_task_round_trip(self, tmp_path, capsys):
        from repro.io import save_task

        task = random_task("mobile2d", 8, seed=2)
        task_file = tmp_path / "task.json"
        save_task(task, task_file)  # one task object, not a suite list
        out_file = tmp_path / "telemetry.json"
        code = main(["--tasks", str(task_file), "--workers", "0",
                     "--samples", "150", "--seed", "0", "--goal-bias", "0.2",
                     "--out", str(out_file)])
        assert code == 0
        (record,) = json.loads(out_file.read_text())["records"]
        assert record["attributes"]["obstacles"] == "8"

    def test_baseline_variant(self, tmp_path, capsys):
        (response,) = responses_of(tmp_path, capsys, "--samples", "150",
                                   "--variant", "baseline")
        result = library_plan(150, variant="baseline")
        assert result.path_cost < library_plan(150).path_cost
        assert response["path"] == [p.tolist() for p in result.path]
        assert response["op_events"] == dict(result.counter.events)


class TestKernelsFlag:
    def test_default_is_batch(self):
        assert build_parser().parse_args([]).kernels == "batch"

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--kernels", "simd"])

    def test_backends_agree_end_to_end(self, capsys):
        def untimed(summary):
            return {k: v for k, v in summary.items()
                    if k not in ("latency_s", "elapsed_s", "throughput_per_s")}

        _, batch_summary, batch_err = run_one(
            capsys, "--samples", "150", "--kernels", "batch")
        _, reference_summary, reference_err = run_one(
            capsys, "--samples", "150", "--kernels", "reference")
        assert batch_err == reference_err
        assert untimed(batch_summary) == untimed(reference_summary)


class TestPlannerFlags:
    def test_every_planner_flag_reaches_the_worker_config(self, monkeypatch,
                                                           capsys):
        import repro.core.planners as planners

        seen = []
        real = planners.make_planner

        def capture(robot, task, config):
            seen.append(config)
            return real(robot, task, config)

        monkeypatch.setattr(planners, "make_planner", capture)
        code = main(ONE + ["--variant", "v2", "--samples", "77",
                           "--goal-bias", "0.3", "--seed", "5",
                           "--deadline", "9.5", "--mode", "connect",
                           "--wave", "4", "--kernels", "reference"])
        capsys.readouterr()
        assert code == 0
        assert seen == [config_for_variant(
            "v2", max_samples=77, goal_bias=0.3, seed=5, deadline_s=9.5,
            mode="connect", wave_width=4, kernels="reference",
        )]


class TestUsageErrors:
    @pytest.mark.parametrize("bad", [
        ["--jobs", "0"],
        ["--duplicate", "0"],
        ["--workers", "-1"],
        ["--retries", "-1"],
        ["--timeout", "-1"],
        ["--cache-capacity", "-1"],
        ["--inject", "hang:9"],
        ["--samples", "0"],
        ["--wave", "0"],
    ], ids=lambda bad: bad[0].lstrip("-"))
    def test_bad_value_is_a_usage_error(self, bad):
        # --workers 1 so --retries reaches the pool config; every value is
        # rejected before a worker starts.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--jobs", "1",
             "--samples", "20", "--workers", "1", *bad],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
        assert "Traceback" not in proc.stderr
