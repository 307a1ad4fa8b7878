"""Tests for the documentation satellite: docs files, docstring coverage."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    """Import ``tools/check_docstrings.py`` as a module."""
    path = REPO_ROOT / "tools" / "check_docstrings.py"
    spec = importlib.util.spec_from_file_location("check_docstrings", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocstringCoverage:
    def test_bench_and_harness_meet_the_ci_threshold(self, capsys):
        checker = _load_checker()
        status = checker.main(
            [
                "--fail-under",
                "90",
                str(REPO_ROOT / "src" / "repro" / "bench"),
                str(REPO_ROOT / "src" / "repro" / "engine"),
                str(REPO_ROOT / "src" / "repro" / "harness"),
                str(REPO_ROOT / "src" / "repro" / "sim"),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0, out
        assert "PASSED" in out

    def test_checker_fails_on_undocumented_code(self, tmp_path, capsys):
        undocumented = tmp_path / "bare.py"
        undocumented.write_text("def f():\n    return 1\n")
        checker = _load_checker()
        assert checker.main(["--fail-under", "90", str(undocumented)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_checker_rejects_missing_target(self, capsys):
        checker = _load_checker()
        assert checker.main(["--fail-under", "90", str(REPO_ROOT / "nope.txt")]) == 2


class TestDocsFiles:
    @pytest.fixture(scope="class")
    def architecture_text(self):
        return (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")

    @pytest.fixture(scope="class")
    def authoring_text(self):
        return (REPO_ROOT / "docs" / "AUTHORING_PROBLEMS.md").read_text(encoding="utf-8")

    def test_architecture_covers_every_layer(self, architecture_text):
        for package in (
            "repro.netlist",
            "repro.sim",
            "repro.meshes",
            "repro.switching",
            "repro.bench",
            "repro.prompts",
            "repro.llm",
            "repro.evalkit",
            "repro.engine",
            "repro.harness",
        ):
            assert package in architecture_text, package

    def test_architecture_documents_the_cache_layers(self, architecture_text):
        assert "SimulationCache" in architecture_text
        assert "netlist_fingerprint" in architecture_text
        assert "GoldenStore" in architecture_text

    def test_authoring_guide_references_the_runnable_example(self, authoring_text):
        assert "examples/custom_pack.py" in authoring_text
        assert (REPO_ROOT / "examples" / "custom_pack.py").exists()

    def test_architecture_documents_batched_execution(self, architecture_text):
        assert "Batched execution" in architecture_text
        assert "evaluate_batch" in architecture_text
        assert "variability" in architecture_text
        assert "examples/monte_carlo_yield.py" in architecture_text

    def test_monte_carlo_example_runs(self, capsys):
        """The docs' Monte-Carlo yield snippet must execute end to end."""
        import runpy

        path = REPO_ROOT / "examples" / "monte_carlo_yield.py"
        module = runpy.run_path(str(path), run_name="example")
        assert module["main"]() == 0
        out = capsys.readouterr().out
        assert "yield:" in out
        assert "fused executor passes:" in out

    def test_doc_cli_commands_use_real_flags(self, authoring_text, architecture_text):
        import argparse

        from repro.harness.cli import build_parser
        from repro.service.cli import build_parser as build_service_parser

        def collect_flags(parser):
            flags = set()
            for action in parser._actions:
                flags.update(action.option_strings)
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        flags.update(collect_flags(sub))
            return flags

        known_flags = collect_flags(build_parser()) | collect_flags(
            build_service_parser()
        )
        for text in (authoring_text, architecture_text):
            for flag in re.findall(r"--[a-z-]+\b", text):
                if flag in ("--fail-under", "--verbose"):  # check_docstrings CLI
                    continue
                assert flag in known_flags, f"doc references unknown CLI flag {flag}"

    def test_doc_python_references_exist(self, architecture_text):
        import importlib

        for reference in re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", architecture_text):
            parts = reference.split(".")
            target = None
            for split in range(len(parts), 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:split]))
                except ModuleNotFoundError:
                    continue
                for attribute in parts[split:]:
                    target = getattr(target, attribute, None)
                    assert target is not None, f"doc references missing {reference}"
                break
            assert target is not None, f"doc references missing module {reference}"
