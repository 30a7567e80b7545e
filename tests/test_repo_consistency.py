"""Repository consistency checks: docs, benches, and registries agree."""

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDesignDocConsistency:
    def test_every_referenced_bench_exists(self):
        """Each bench file named in DESIGN.md's experiment index is real."""
        design = (REPO / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/([a-z0-9_]+\.py)", design))
        assert referenced, "DESIGN.md lists no bench files?"
        for name in referenced:
            assert (REPO / "benchmarks" / name).exists(), f"missing {name}"

    def test_every_bench_file_is_referenced_somewhere(self):
        """No orphan bench targets: DESIGN.md or EXPERIMENTS.md mentions each."""
        docs = (REPO / "DESIGN.md").read_text() + (REPO / "EXPERIMENTS.md").read_text()
        for path in (REPO / "benchmarks").glob("test_*.py"):
            assert path.name in docs, f"{path.name} not documented"

    def test_claimed_modules_exist(self):
        """Module paths named in DESIGN.md's inventory import cleanly."""
        design = (REPO / "DESIGN.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", design))
        import importlib

        for name in sorted(modules):
            importlib.import_module(name)


class TestRunAllRegistry:
    def test_runners_cover_all_paper_figures(self):
        from repro.analysis.run_all import RUNNERS

        expected = {"fig03", "fig05", "fig06", "fig08", "fig10", "fig14",
                    "fig15", "fig16", "fig17", "fig18", "fig19L", "fig19R",
                    "snr_buffers", "caching"}
        assert expected <= set(RUNNERS)

    def test_runner_callables_have_docstrings(self):
        from repro.analysis.run_all import RUNNERS

        for name, runner in RUNNERS.items():
            assert runner.__doc__, f"{name} runner lacks a docstring"


class TestExamplesExist:
    def test_readme_examples_table_matches_directory(self):
        readme = (REPO / "examples" / "README.md").read_text()
        scripts = {p.name for p in (REPO / "examples").glob("*.py")}
        referenced = set(re.findall(r"`([a-z_0-9]+\.py)`", readme))
        assert referenced <= scripts
        assert len(scripts) >= 7

    def test_all_examples_compile(self):
        import ast

        for path in (REPO / "examples").glob("*.py"):
            ast.parse(path.read_text(), filename=str(path))


class TestPackageMetadata:
    def test_version_consistent(self):
        import repro

        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_console_scripts_resolve(self):
        # A regex, not tomllib: tomllib is 3.11+ and the package supports 3.9.
        import importlib

        pyproject = (REPO / "pyproject.toml").read_text()
        block = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                          pyproject, re.M | re.S).group(1)
        scripts = re.findall(r'^([\w-]+)\s*=\s*"([\w.]+):(\w+)"', block, re.M)
        assert {"repro-serve", "repro-figures"} <= {name for name, _, _ in scripts}
        for _, module, attr in scripts:
            assert callable(getattr(importlib.import_module(module), attr))
