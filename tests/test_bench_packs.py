"""Tests for the problem-pack subsystem: registry, core invariance, CLI."""

from __future__ import annotations

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.bench import (
    CORE_PACK_NAME,
    GoldenStore,
    Problem,
    ProblemPack,
    all_problems,
    find_problem_by_description,
    get_pack,
    get_problem,
    pack_names,
    pack_summaries,
    problems_by_category,
    register_pack,
    unregister_pack,
)
from repro.bench.problems import (
    fundamental,
    interconnects,
    optical_computing,
    switches,
    wdm_links,
)
from repro.evalkit import EvaluationConfig, Evaluator, pass_at_k_by_pack
from repro.harness import SweepConfig, packs_text, run_model, table1_text
from repro.harness.cli import main
from repro.llm import PerfectDesigner
from repro.netlist import validate_netlist
from repro.netlist.validation import PortSpec
from repro.prompts.system_prompt import PromptConfig, build_system_prompt
from tests.conftest import TEST_NUM_WAVELENGTHS

#: The seed's 24 problem names, in Table I enumeration order.
SEED_PROBLEM_NAMES = (
    "clements_4x4",
    "clements_8x8",
    "reck_4x4",
    "reck_8x8",
    "nls",
    "umatrix_block",
    "direct_modulator",
    "qpsk_modulator",
    "qam8_modulator",
    "qam64_modulator",
    "wdm_mux",
    "wdm_demux",
    "optical_hybrid",
    "os_2x2",
    "crossbar_4x4",
    "crossbar_8x8",
    "spanke_4x4",
    "spanke_8x8",
    "benes_4x4",
    "benes_8x8",
    "spankebenes_4x4",
    "spankebenes_8x8",
    "mzi_ps",
    "mzm",
)


def _seed_enumeration():
    """Rebuild the suite exactly as the seed's fixed table did."""
    problems = []
    problems.extend(optical_computing.build_problems())
    problems.extend(interconnects.build_problems())
    problems.extend(switches.build_problems())
    problems.extend(fundamental.build_problems())
    return problems


class TestCorePackInvariance:
    """The core pack must reproduce the seed's 24 problems byte for byte."""

    def test_core_name_order_is_the_seed_order(self):
        assert tuple(p.name for p in all_problems()) == SEED_PROBLEM_NAMES

    def test_default_equals_explicit_core(self):
        assert all_problems() is all_problems(CORE_PACK_NAME)

    def test_core_problems_match_seed_enumeration_exactly(self):
        seed = _seed_enumeration()
        core = all_problems()
        assert len(core) == len(seed) == 24
        for packed, original in zip(core, seed):
            assert packed.name == original.name
            assert packed.title == original.title
            assert packed.category == original.category
            assert packed.summary == original.summary
            assert packed.description == original.description
            assert packed.port_spec == original.port_spec
            assert packed.golden_netlist().to_json() == original.golden_netlist().to_json()

    def test_core_problems_are_stamped_core(self):
        assert {p.pack for p in all_problems()} == {CORE_PACK_NAME}

    def test_core_system_prompt_has_no_pack_note(self):
        prompt = build_system_prompt(config=PromptConfig())
        assert "<<<Benchmark pack>>>" not in prompt


class TestPackRegistry:
    def test_builtin_packs_present_core_first(self):
        names = pack_names()
        assert names[0] == CORE_PACK_NAME
        assert "wdm-links" in names

    def test_get_pack_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available packs"):
            get_pack("no-such-pack")

    def test_all_problems_unknown_pack_raises(self):
        with pytest.raises(KeyError, match="available packs"):
            all_problems("no-such-pack")

    def test_duplicate_registration_rejected(self):
        pack = get_pack("wdm-links")
        with pytest.raises(ValueError, match="already registered"):
            register_pack(pack)
        register_pack(pack, replace_existing=True)  # idempotent escape hatch

    def test_builtin_packs_cannot_be_unregistered(self):
        with pytest.raises(ValueError, match="cannot be unregistered"):
            unregister_pack(CORE_PACK_NAME)

    def test_unknown_pack_param_rejected(self):
        with pytest.raises(KeyError, match="does not accept parameter"):
            all_problems("wdm-links", {"flux": 1})

    def test_duplicate_problem_names_rejected(self):
        def bad_builder(params):
            problem = all_problems()[0]
            return [problem, problem]

        pack = ProblemPack(
            name="broken-pack",
            title="Broken",
            description="duplicate names",
            categories=("Optical Computing",),
            builder=bad_builder,
        )
        with pytest.raises(RuntimeError, match="duplicate problem names"):
            pack.build_problems()

    def test_undeclared_category_rejected(self):
        pack = ProblemPack(
            name="misfiled-pack",
            title="Misfiled",
            description="category not declared",
            categories=("Some Other Category",),
            builder=lambda params: [all_problems()[0]],
        )
        with pytest.raises(RuntimeError, match="does not declare"):
            pack.build_problems()

    def test_expected_count_enforced_for_default_build(self):
        pack = ProblemPack(
            name="short-pack",
            title="Short",
            description="too few problems",
            categories=("Fundamental Devices",),
            builder=lambda params: [get_problem("mzi_ps")],
            expected_count=2,
        )
        with pytest.raises(RuntimeError, match="must contain 2 problems"):
            pack.build_problems()

    def test_pack_summaries_cover_all_packs(self):
        summaries = {entry["name"]: entry for entry in pack_summaries()}
        assert summaries[CORE_PACK_NAME]["num_problems"] == 24
        assert summaries["wdm-links"]["parametric"] is True

    def test_enumeration_is_cached_and_thread_safe(self):
        results = []

        def enumerate_pack():
            results.append(all_problems("wdm-links"))

        threads = [threading.Thread(target=enumerate_pack) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result is results[0] for result in results)


class TestWdmLinksPack:
    def test_default_enumeration(self):
        problems = all_problems("wdm-links")
        assert [p.name for p in problems] == [
            f"wdm_{kind}_{n}ch"
            for n in (2, 4, 8)
            for kind in ("mux", "demux", "link")
        ]
        assert {p.pack for p in problems} == {"wdm-links"}

    def test_goldens_validate_against_port_specs(self):
        for problem in all_problems("wdm-links"):
            validate_netlist(problem.golden_netlist(), port_spec=problem.port_spec)

    def test_parametric_override(self):
        problems = all_problems("wdm-links", {"channels": (3,), "spacing": 0.1})
        assert [p.name for p in problems] == ["wdm_mux_3ch", "wdm_demux_3ch", "wdm_link_3ch"]
        mux = problems[0].golden_netlist()
        radii = sorted(inst.settings["radius"] for inst in mux.instances.values())
        assert radii == [5.0, 5.1, 5.2]

    def test_link_port_spec_matches_channels(self):
        link = get_problem("wdm_link_4ch", "wdm-links")
        assert link.port_spec == PortSpec(num_inputs=4, num_outputs=4)

    def test_channel_radii_validation(self):
        with pytest.raises(ValueError, match="num_channels"):
            wdm_links.channel_radii(0)
        with pytest.raises(ValueError, match="spacing"):
            wdm_links.channel_radii(4, spacing=0.0)

    def test_descriptions_unique_and_well_formed(self):
        problems = all_problems("wdm-links")
        descriptions = [p.description for p in problems]
        assert len(set(descriptions)) == len(descriptions)
        for description in descriptions:
            assert "Ports:" in description

    def test_problems_by_category_uses_pack_categories(self):
        grouped = problems_by_category("wdm-links")
        assert list(grouped) == [wdm_links.CATEGORY_MULTIPLEXING, wdm_links.CATEGORY_LINKS]
        assert len(grouped[wdm_links.CATEGORY_LINKS]) == 3

    def test_find_problem_by_description(self):
        problem = get_problem("wdm_link_2ch", "wdm-links")
        found = find_problem_by_description(f"prefix\n{problem.description}\nsuffix")
        assert found is not None and found.name == "wdm_link_2ch"

    def test_perfect_designer_passes_wdm_problems(self):
        problems = [
            get_problem("wdm_mux_2ch", "wdm-links"),
            get_problem("wdm_link_2ch", "wdm-links"),
        ]
        evaluator = Evaluator(
            EvaluationConfig(samples_per_problem=1, num_wavelengths=TEST_NUM_WAVELENGTHS)
        )
        report = evaluator.run_suite(PerfectDesigner(), problems)
        assert report.pack == "wdm-links"
        assert report.pass_at_k(1, metric="functional", max_feedback=0) == pytest.approx(100.0)


class TestGoldenStoreNamespacing:
    def test_disk_artefacts_are_namespaced_per_pack(self, tmp_path):
        core_store = GoldenStore(
            num_wavelengths=TEST_NUM_WAVELENGTHS, cache_dir=tmp_path
        )
        wdm_store = GoldenStore(
            num_wavelengths=TEST_NUM_WAVELENGTHS, cache_dir=tmp_path, pack="wdm-links"
        )
        core_store.response_for("mzi_ps")
        wdm_store.response_for("wdm_mux_2ch")
        names = sorted(path.name for path in tmp_path.glob("*.json"))
        assert any(name.startswith("core.mzi_ps.golden.") for name in names)
        assert any(name.startswith("wdm-links.wdm_mux_2ch.golden.") for name in names)

    def test_string_lookup_resolves_against_store_pack(self):
        store = GoldenStore(num_wavelengths=TEST_NUM_WAVELENGTHS, pack="wdm-links")
        response = store.response_for("wdm_demux_2ch")
        assert response is store.response_for("wdm_demux_2ch")  # memory hit

    def test_reparameterised_pack_gets_fresh_artefact(self, tmp_path):
        narrow = GoldenStore(
            num_wavelengths=TEST_NUM_WAVELENGTHS, cache_dir=tmp_path, pack="wdm-links"
        )
        wide = GoldenStore(
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            cache_dir=tmp_path,
            pack="wdm-links",
            pack_params={"spacing": 0.2},
        )
        narrow.response_for("wdm_mux_2ch")
        wide.response_for("wdm_mux_2ch")
        artefacts = list(tmp_path.glob("wdm-links.wdm_mux_2ch.golden.*.json"))
        assert len(artefacts) == 2  # different golden fingerprints


class TestHarnessPackSelection:
    def test_sweep_config_selects_pack_problems(self):
        config = SweepConfig(pack="wdm-links", pack_params={"channels": (2,)})
        assert [p.name for p in config.select_problems()] == [
            "wdm_mux_2ch",
            "wdm_demux_2ch",
            "wdm_link_2ch",
        ]

    def test_prompt_config_carries_pack_note_for_non_core(self):
        config = SweepConfig(pack="wdm-links")
        prompt_config = config.prompt_config(include_restrictions=False)
        assert prompt_config.pack_note is not None
        assert "WDM" in prompt_config.pack_note
        prompt = build_system_prompt(config=prompt_config)
        assert "<<<Benchmark pack>>>" in prompt
        assert SweepConfig().prompt_config(include_restrictions=False).pack_note is None

    def test_run_model_on_wdm_pack(self):
        config = SweepConfig(
            samples_per_problem=1,
            max_feedback_iterations=0,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            pack="wdm-links",
            pack_params={"channels": (2,)},
        )
        report = run_model(PerfectDesigner(), include_restrictions=False, config=config)
        assert report.pack == "wdm-links"
        assert report.pass_at_k(1, metric="functional", max_feedback=0) == pytest.approx(100.0)

    def test_pass_at_k_by_pack_groups_reports(self):
        core_config = SweepConfig(
            samples_per_problem=1,
            max_feedback_iterations=0,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            problems=("mzi_ps",),
        )
        wdm_config = SweepConfig(
            samples_per_problem=1,
            max_feedback_iterations=0,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            pack="wdm-links",
            pack_params={"channels": (2,)},
            problems=("wdm_mux_2ch",),
        )
        reports = [
            run_model(PerfectDesigner(), include_restrictions=False, config=core_config),
            run_model(PerfectDesigner(), include_restrictions=False, config=wdm_config),
        ]
        aggregated = pass_at_k_by_pack(reports, 1, metric="functional")
        assert aggregated == {
            "core": pytest.approx(100.0),
            "wdm-links": pytest.approx(100.0),
        }

    def test_sweep_with_non_default_pack_params_runs(self):
        # Regression: parameter overrides change the problem descriptions, and
        # the simulated designers must still recognise the problems.
        from repro.harness import run_sweep
        from repro.llm import DEFAULT_PROFILES

        config = SweepConfig(
            samples_per_problem=1,
            max_feedback_iterations=0,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            pack="wdm-links",
            pack_params={"channels": (3,), "spacing": 0.1},
            problems=("wdm_mux_3ch",),
        )
        sweep = run_sweep(
            config, profiles=DEFAULT_PROFILES[:1], restriction_settings=(False,)
        )
        assert sweep.packs() == ["wdm-links"]

    def test_reparameterised_pack_gets_fresh_memory_golden(self):
        # Regression: the in-memory golden cache must key on the golden
        # design's content, not just (pack, name).
        store = GoldenStore(num_wavelengths=TEST_NUM_WAVELENGTHS, pack="wdm-links")
        default_problem = get_problem("wdm_mux_2ch", "wdm-links")
        wide_problem = get_problem("wdm_mux_2ch", "wdm-links", {"spacing": 0.2})
        default_response = store.response_for(default_problem)
        wide_response = store.response_for(wide_problem)
        assert default_response is not wide_response

    def test_reregistration_invalidates_cached_suites(self):
        try:
            register_pack(
                ProblemPack(
                    name="mutable-pack",
                    title="Mutable",
                    description="re-registration test",
                    categories=("Fundamental Devices",),
                    builder=lambda params: [get_problem("mzi_ps")],
                )
            )
            assert [p.name for p in all_problems("mutable-pack")] == ["mzi_ps"]
            register_pack(
                ProblemPack(
                    name="mutable-pack",
                    title="Mutable",
                    description="re-registration test",
                    categories=("Fundamental Devices",),
                    builder=lambda params: [get_problem("mzm")],
                ),
                replace_existing=True,
            )
            assert [p.name for p in all_problems("mutable-pack")] == ["mzm"]
        finally:
            unregister_pack("mutable-pack")
        with pytest.raises(KeyError):
            all_problems("mutable-pack")

    def test_table1_text_names_non_core_pack(self):
        text = table1_text("wdm-links")
        assert "(pack: wdm-links)" in text
        assert "WDM link 8ch" in text
        assert "(pack:" not in table1_text()

    def test_packs_text_lists_builtins(self):
        text = packs_text()
        assert "core" in text and "wdm-links" in text


class TestCliPackFlags:
    def test_list_packs(self, capsys):
        assert main(["--list-packs"]) == 0
        out = capsys.readouterr().out
        assert "Registered problem packs" in out
        assert "wdm-links" in out

    def test_missing_target_without_list_packs_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_table1_pack_flag(self, capsys):
        assert main(["table1", "--pack", "wdm-links"]) == 0
        assert "(pack: wdm-links)" in capsys.readouterr().out

    def test_bad_pack_param_syntax_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--pack", "wdm-links", "--pack-param", "channels"])
        assert exit_info.value.code == 2, "a usage error"
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_sweep_pack_end_to_end(self, capsys, tmp_path):
        output = tmp_path / "wdm_results.json"
        code = main(
            [
                "table3",
                "--pack",
                "wdm-links",
                "--pack-param",
                "channels=[2]",
                "--problems",
                "wdm_mux_2ch",
                "wdm_link_2ch",
                "--samples",
                "1",
                "--feedback",
                "1",
                "--wavelengths",
                str(TEST_NUM_WAVELENGTHS),
                "--workers",
                "2",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE III" in out
        assert "(pack: wdm-links)" in out
        assert "[wdm-links]" in out
        payload = json.loads(output.read_text())
        assert all(report["pack"] == "wdm-links" for report in payload.values())


class TestAuthoringGuideExample:
    """The docs/AUTHORING_PROBLEMS.md worked example must run end to end."""

    @pytest.fixture(scope="class")
    def custom_pack_module(self):
        path = Path(__file__).resolve().parent.parent / "examples" / "custom_pack.py"
        spec = importlib.util.spec_from_file_location("custom_pack_example", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.register()
        yield module
        unregister_pack("splitter-trees")

    def test_pack_registers_and_enumerates(self, custom_pack_module):
        problems = all_problems("splitter-trees")
        assert [p.name for p in problems] == [
            "splitter_tree_2way",
            "splitter_tree_4way",
            "splitter_tree_8way",
        ]
        for problem in problems:
            validate_netlist(problem.golden_netlist(), port_spec=problem.port_spec)

    def test_perfect_designer_passes_the_example_pack(self, custom_pack_module):
        evaluator = Evaluator(
            EvaluationConfig(samples_per_problem=1, num_wavelengths=TEST_NUM_WAVELENGTHS)
        )
        report = evaluator.run_suite(PerfectDesigner(), all_problems("splitter-trees"))
        assert report.pack == "splitter-trees"
        assert report.pass_at_k(1, metric="functional") == pytest.approx(100.0)

    def test_example_main_runs(self, custom_pack_module, capsys):
        custom_pack_module.main()
        out = capsys.readouterr().out
        assert "splitter-trees" in out
        assert "functionality Pass@1 = 100.0%" in out
