"""Tests for the evaluation loop (Fig. 1): syntax check, functional check, feedback."""

import gc
from collections import Counter

import pytest

from repro.bench import GoldenStore, get_problem
from repro.engine import ExecutionEngine
from repro.evalkit import EvaluationConfig, Evaluator
from repro.harness.runner import SweepConfig, run_sweep
from repro.llm import EchoDesigner, PerfectDesigner, SimulatedDesigner, format_response
from repro.netlist import ErrorCategory
from repro.prompts import PromptConfig, build_system_prompt
from repro.sim.registry import ModelInfo, default_registry
from tests.conftest import TEST_NUM_WAVELENGTHS


class TestEvaluateResponse:
    def test_golden_passes(self, evaluator, mzi_ps_problem):
        response = format_response("analysis", mzi_ps_problem.golden_netlist().to_json())
        outcome = evaluator.evaluate_response(mzi_ps_problem, response)
        assert outcome.syntax_ok and outcome.functional_ok
        assert outcome.error is None

    def test_bare_json_also_passes(self, evaluator, mzi_ps_problem):
        outcome = evaluator.evaluate_response(
            mzi_ps_problem, mzi_ps_problem.golden_netlist().to_json()
        )
        assert outcome.syntax_ok

    def test_markdown_fences_fail_as_extra_content(self, evaluator, mzi_ps_problem):
        response = format_response(
            "analysis", f"```json\n{mzi_ps_problem.golden_netlist().to_json()}\n```"
        )
        outcome = evaluator.evaluate_response(mzi_ps_problem, response)
        assert not outcome.syntax_ok
        assert outcome.error.category is ErrorCategory.EXTRA_CONTENT

    def test_wrong_parameter_is_functional_error(self, evaluator, mzi_ps_problem):
        from repro.bench.problems.fundamental import mzi_ps_golden

        response = format_response("analysis", mzi_ps_golden(delta_length=50.0).to_json())
        outcome = evaluator.evaluate_response(mzi_ps_problem, response)
        assert outcome.syntax_ok
        assert not outcome.functional_ok
        assert outcome.error.category is ErrorCategory.FUNCTIONAL

    def test_wrong_structure_is_functional_error(self, evaluator):
        from repro.bench.problems.fundamental import mzi_ps_golden

        problem = get_problem("mzm")
        response = format_response("analysis", mzi_ps_golden().to_json())
        outcome = evaluator.evaluate_response(problem, response)
        assert outcome.syntax_ok
        assert not outcome.functional_ok

    def test_wrong_port_count_detected(self, evaluator, mzi_ps_problem):
        netlist = mzi_ps_problem.golden_netlist()
        del netlist.ports["O1"]
        outcome = evaluator.evaluate_response(
            mzi_ps_problem, format_response("a", netlist.to_json())
        )
        assert outcome.error.category is ErrorCategory.WRONG_PORT_COUNT

    def test_gibberish_is_other_syntax(self, evaluator, mzi_ps_problem):
        outcome = evaluator.evaluate_response(mzi_ps_problem, "I cannot help with that.")
        assert outcome.error.category is ErrorCategory.OTHER_SYNTAX

    def test_nan_setting_is_functional_error(self, evaluator):
        # json.loads accepts NaN, the draft validates and simulates, and its
        # NaN spectra must fail the comparison with the golden response.
        problem = get_problem("clements_4x4")
        netlist = problem.golden_netlist()
        netlist.instances["mzi1"].settings["theta"] = float("nan")
        assert '"theta": NaN' in netlist.to_json()
        outcome = evaluator.evaluate_response(problem, format_response("a", netlist.to_json()))
        assert outcome.syntax_ok and outcome.nonfinite
        assert not outcome.functional_ok
        assert outcome.error.category is ErrorCategory.FUNCTIONAL
        assert "inf" in outcome.error.detail


class TestStoredErrors:
    """Stored attempt errors carry no traceback, so failed drafts are freed at once."""

    def test_classified_errors_and_their_chains_carry_no_traceback(self, evaluator, mzi_ps_problem):
        truncated = mzi_ps_problem.golden_netlist().to_json()[:-3]
        items = [
            # Balanced but invalid JSON: the error is chained to a JSONDecodeError.
            (mzi_ps_problem, format_response("a", 'note {"netlist": {"instances": {,}}}')),
            (mzi_ps_problem, "no result section"),
            (mzi_ps_problem, format_response("a", f"```json\n{truncated}}}\n```")),
        ]
        outcomes = [evaluator.evaluate_response(*item) for item in items]
        outcomes += evaluator.evaluate_responses(items)
        assert outcomes[0].error.__cause__ is not None
        for outcome in outcomes:
            link = outcome.error
            assert link is not None
            while link is not None:
                assert link.__traceback__ is None
                link = link.__cause__ or link.__context__

    def test_a_sweep_leaves_no_frames_or_netlists_as_cyclic_garbage(self):
        config = SweepConfig(
            problems=("mzi_ps", "clements_4x4", "benes_8x8"),
            samples_per_problem=2,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
        )
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = run_sweep(config)
            gc.collect()
            garbage = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        attempts = [
            attempt
            for report in result.reports.values()
            for samples in report.results.values()
            for sample in samples
            for attempt in sample.attempts
        ]
        assert any(not attempt.syntax_ok for attempt in attempts)
        assert {name: garbage[name] for name in ("frame", "traceback", "Netlist", "Instance")} == {
            "frame": 0, "traceback": 0, "Netlist": 0, "Instance": 0,
        }


class TestFeedbackLoop:
    def test_perfect_designer_passes_first_try(self, evaluator, mzi_ps_problem):
        sample = evaluator.run_sample(PerfectDesigner(), mzi_ps_problem, sample_index=0)
        assert len(sample.attempts) == 1
        assert sample.attempts[0].passed
        assert sample.first_pass_iteration("functional") == 0

    def test_echo_designer_exhausts_iterations(self, evaluator, mzi_ps_problem):
        sample = evaluator.run_sample(
            EchoDesigner("not a netlist"), mzi_ps_problem, sample_index=0
        )
        assert len(sample.attempts) == evaluator.config.max_feedback_iterations + 1
        assert sample.first_pass_iteration("syntax") is None

    def test_feedback_reaches_the_designer(self, golden_store, mzi_ps_problem):
        # A designer that passes only once it has received at least one
        # feedback turn: proves the loop actually extends the conversation.
        class FeedbackAwareDesigner:
            name = "FeedbackAware"

            def complete(self, messages, *, seed=None):
                user_turns = [m for m in messages if m.role == "user"]
                if len(user_turns) < 2:
                    return "garbage"
                return format_response("fixed", mzi_ps_problem.golden_netlist().to_json())

        config = EvaluationConfig(
            samples_per_problem=1,
            max_feedback_iterations=2,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
        )
        evaluator = Evaluator(config, golden_store=golden_store)
        sample = evaluator.run_sample(FeedbackAwareDesigner(), mzi_ps_problem, 0)
        assert sample.first_pass_iteration("functional") == 1

    def test_run_suite_subset(self, evaluator, suite):
        report = evaluator.run_suite(PerfectDesigner(), suite[:3])
        assert len(report.results) == 3
        assert report.pass_at_k(1, metric="functional", max_feedback=0) == pytest.approx(100.0)

    def test_restrictions_flag_recorded(self, golden_store, suite):
        config = EvaluationConfig(
            samples_per_problem=1,
            max_feedback_iterations=0,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            include_restrictions=True,
        )
        evaluator = Evaluator(config, golden_store=golden_store)
        report = evaluator.run_suite(PerfectDesigner(), suite[:1])
        assert report.with_restrictions

    def test_prompt_config_override(self, evaluator, suite):
        report = evaluator.run_suite(
            PerfectDesigner(), suite[:1], prompt_config=PromptConfig(include_restrictions=True)
        )
        assert report.with_restrictions

    def test_mismatched_golden_store_rejected(self, golden_store):
        config = EvaluationConfig(num_wavelengths=golden_store.num_wavelengths + 5)
        with pytest.raises(ValueError, match="wavelength grid"):
            Evaluator(config, golden_store=golden_store)

    def test_keep_responses_flag(self, golden_store, mzi_ps_problem):
        config = EvaluationConfig(
            samples_per_problem=1,
            max_feedback_iterations=0,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            keep_responses=True,
        )
        evaluator = Evaluator(config, golden_store=golden_store)
        sample = evaluator.run_sample(PerfectDesigner(), mzi_ps_problem, 0)
        assert sample.attempts[0].response_text is not None


class TestRegistryDefault:
    """Without ``registry=``, drafts validate against the engine's registry."""

    @staticmethod
    def _engine_with_mywg():
        engine = ExecutionEngine()
        base = engine.registry.get("waveguide")
        engine.registry.register(
            ModelInfo(
                name="mywg",
                func=base.func,
                description="A copy of the waveguide registered on the engine",
                input_ports=base.input_ports,
                output_ports=base.output_ports,
                parameters=dict(base.parameters),
            )
        )
        return engine

    @staticmethod
    def _mywg_draft(problem):
        netlist = problem.golden_netlist()
        netlist.models["waveguide"] = "mywg"
        return netlist

    def test_a_model_registered_on_the_engine_validates(self, mzi_ps_problem):
        engine = self._engine_with_mywg()
        evaluator = Evaluator(EvaluationConfig(num_wavelengths=TEST_NUM_WAVELENGTHS), engine=engine)
        netlist = self._mywg_draft(mzi_ps_problem)
        # The engine simulates the draft ...
        engine.evaluate(netlist, evaluator.golden_store.wavelengths, port_spec=mzi_ps_problem.port_spec)
        # ... so the evaluator must accept it, and its prompt must document the model.
        outcome = evaluator.evaluate_response(mzi_ps_problem, format_response("a", netlist.to_json()))
        assert outcome.error is None and outcome.syntax_ok and outcome.functional_ok
        assert evaluator.registry is engine.registry
        assert "mywg:" in build_system_prompt(evaluator.registry)

    def test_the_golden_stores_engine_registry_is_the_default(self, mzi_ps_problem):
        engine = self._engine_with_mywg()
        store = GoldenStore(num_wavelengths=TEST_NUM_WAVELENGTHS, engine=engine)
        evaluator = Evaluator(EvaluationConfig(num_wavelengths=TEST_NUM_WAVELENGTHS), golden_store=store)
        assert evaluator.registry is engine.registry and evaluator.engine is engine
        draft = format_response("a", self._mywg_draft(mzi_ps_problem).to_json())
        assert evaluator.evaluate_response(mzi_ps_problem, draft).functional_ok

    def test_an_explicit_registry_still_wins(self, mzi_ps_problem):
        engine = self._engine_with_mywg()
        evaluator = Evaluator(
            EvaluationConfig(num_wavelengths=TEST_NUM_WAVELENGTHS),
            engine=engine,
            registry=default_registry(),
        )
        draft = format_response("a", self._mywg_draft(mzi_ps_problem).to_json())
        outcome = evaluator.evaluate_response(mzi_ps_problem, draft)
        assert outcome.error.category is ErrorCategory.UNDEFINED_MODEL


class TestSimulatedDesignerThroughEvaluator:
    def test_feedback_improves_pass_rate(self, golden_store, suite):
        config = EvaluationConfig(
            samples_per_problem=3,
            max_feedback_iterations=3,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
        )
        evaluator = Evaluator(config, golden_store=golden_store)
        designer = SimulatedDesigner("Claude 3.5 Sonnet")
        report = evaluator.run_suite(designer, suite[:6])
        no_feedback = report.pass_at_k(1, metric="syntax", max_feedback=0)
        with_feedback = report.pass_at_k(1, metric="syntax", max_feedback=3)
        assert with_feedback >= no_feedback

    def test_pass5_geq_pass1(self, golden_store, suite):
        config = EvaluationConfig(
            samples_per_problem=5,
            max_feedback_iterations=0,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
        )
        evaluator = Evaluator(config, golden_store=golden_store)
        report = evaluator.run_suite(SimulatedDesigner("GPT-4"), suite[:5])
        assert report.pass_at_k(5, metric="syntax", max_feedback=0) >= report.pass_at_k(
            1, metric="syntax", max_feedback=0
        )
