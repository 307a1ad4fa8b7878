"""Tests for the evaluation loop (Fig. 1): syntax check, functional check, feedback."""

import gc
import threading
from collections import Counter
from itertools import groupby

import pytest

from repro.bench import GoldenStore, find_problem_by_description, get_problem
from repro.bench.packs import get_pack
from repro.engine import EngineConfig, ExecutionEngine
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

    def test_nan_setting_is_other_syntax(self, evaluator):
        # json.loads accepts NaN and the draft validates, but the device
        # model rejects the setting before simulating it.
        problem = get_problem("clements_4x4")
        netlist = problem.golden_netlist()
        netlist.instances["mzi1"].settings["theta"] = float("nan")
        assert '"theta": NaN' in netlist.to_json()
        outcome = evaluator.evaluate_response(problem, format_response("a", netlist.to_json()))
        assert not outcome.syntax_ok and not outcome.nonfinite
        assert outcome.error.category is ErrorCategory.OTHER_SYNTAX
        assert "'theta' must be a finite number" in outcome.error.detail

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "null", "1e999"])
    def test_non_finite_json_settings_are_other_syntax(self, evaluator, token):
        problem = get_problem("wdm_mux")
        netlist = problem.golden_netlist()
        netlist.instances["ring1"].settings["radius"] = 12345.5
        text = netlist.to_json().replace("12345.5", token)
        assert f'"radius": {token}' in text
        outcome = evaluator.evaluate_response(problem, format_response("a", text))
        assert not outcome.syntax_ok
        assert outcome.error.category is ErrorCategory.OTHER_SYNTAX
        assert "instance 'ring1'" in outcome.error.detail
        assert "'radius' must be a finite number" in outcome.error.detail

    def test_every_numeric_setting_of_every_core_golden_rejects_non_finite_values(
        self, evaluator
    ):
        registry = evaluator.registry
        checked = 0
        for problem in get_pack("core").build_problems():
            golden = problem.golden_netlist()
            for name, inst in golden.instances.items():
                info = registry.get(golden.models[inst.component])
                for key in inst.settings:
                    default = info.parameters[key]
                    if isinstance(default, bool) or not isinstance(default, (int, float)):
                        continue
                    for bad in (None, float("nan"), float("inf")):
                        netlist = problem.golden_netlist()
                        netlist.instances[name].settings[key] = bad
                        outcome = evaluator.evaluate_response(
                            problem, format_response("a", netlist.to_json())
                        )
                        assert outcome.error.category is ErrorCategory.OTHER_SYNTAX, (
                            problem.name, name, key, bad
                        )
                        assert f"instance {name!r}" in outcome.error.detail
                        assert f"setting {key!r} must be a finite number" in outcome.error.detail
                    checked += 1
        assert checked == 32


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

    def test_run_samples_runs_each_problem_in_lockstep_and_matches_one_unit_runs(
        self, golden_store
    ):
        config = EvaluationConfig(num_wavelengths=TEST_NUM_WAVELENGTHS)
        designer = SimulatedDesigner("GPT-4o")
        problems = [get_problem(name) for name in ("mzi_ps", "nls", "clements_4x4")]
        # Problems interleaved: run_samples groups them, first appearance first.
        units = [(designer, problems[i % 3], i // 3, None) for i in range(9)]
        evaluator = Evaluator(config, engine=ExecutionEngine(EngineConfig(workers=2)))
        finished = []
        samples = evaluator.run_samples(
            units, on_done=lambda index, _: finished.append((index, threading.get_ident()))
        )
        # Every trajectory is reported once, on the calling thread, and a
        # problem's trajectories all finish before the next problem starts.
        assert sorted(index for index, _ in finished) == list(range(9))
        assert {thread for _, thread in finished} == {threading.get_ident()}
        assert [units[index][1].name for index, _ in finished] == [
            name for name in ("mzi_ps", "nls", "clements_4x4") for _ in range(3)
        ]
        alone = Evaluator(config, golden_store=golden_store)
        for unit, sample in zip(units, samples):
            assert sample == alone.run_sample(*unit[:3])
        assert any(len(sample.attempts) > 1 for sample in samples)

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


class _LoggingDesigner:
    """Logs every call as ``(problem, feedback iteration, system prompt, thread)``.

    Answers with the golden netlist from feedback iteration ``passes_at`` on
    (never when ``None``) and with a non-netlist before it; a call about the
    problem named ``fails_on`` raises.  Several designers may share one log.
    """

    def __init__(self, log, passes_at=None, fails_on=None, name="Logging"):
        self.log = log
        self.passes_at = passes_at
        self.fails_on = fails_on
        self.name = name

    def complete(self, messages, *, seed=None):
        problem = find_problem_by_description(messages[1].content)
        iteration = sum(message.role == "assistant" for message in messages)
        self.log.append((problem.name, iteration, messages[0].content, threading.get_ident()))
        if problem.name == self.fails_on:
            raise RuntimeError(f"designer unavailable for {problem.name}")
        if self.passes_at is not None and iteration >= self.passes_at:
            return format_response("golden", problem.golden_json)
        return "not a netlist"


class TestRunSamples:
    """The one trajectory driver: each problem's trajectories in lockstep."""

    @staticmethod
    def _evaluator(golden_store, workers=2):
        config = EvaluationConfig(
            max_feedback_iterations=2, num_wavelengths=TEST_NUM_WAVELENGTHS
        )
        return Evaluator(
            config,
            golden_store=golden_store,
            engine=ExecutionEngine(EngineConfig(workers=workers)),
        )

    def test_a_problems_trajectories_start_only_when_its_group_begins(self, golden_store):
        log = []
        designer = _LoggingDesigner(log)
        names = ("nls", "mzi_ps", "clements_4x4")
        units = [(designer, get_problem(names[i % 3]), i // 3, None) for i in range(6)]
        samples = self._evaluator(golden_store).run_samples(units)
        # Interleaved units run problem by problem, in order of first
        # appearance: each problem's 2 x 3 drafts before the next one's first.
        assert [entry[0] for entry in log] == [name for name in names for _ in range(6)]
        assert [len(sample.attempts) for sample in samples] == [3] * 6

    def test_a_group_advances_one_feedback_iteration_at_a_time(
        self, golden_store, mzi_ps_problem
    ):
        log = []
        units = [
            (_LoggingDesigner(log, passes_at=passes_at), mzi_ps_problem, index, None)
            for index, passes_at in enumerate((None, 0, 1, None))
        ]
        samples = self._evaluator(golden_store).run_samples(units)
        # Every active trajectory drafts iteration k before any drafts k + 1,
        # and a finished trajectory drafts no more.
        assert [entry[1] for entry in log] == [0] * 4 + [1] * 3 + [2] * 2
        assert [len(sample.attempts) for sample in samples] == [3, 1, 2, 3]
        assert [sample.attempts[-1].passed for sample in samples] == [False, True, True, False]

    def test_units_keep_their_given_order_inside_a_group(self, golden_store):
        placed = (("mzi_ps", 2), ("nls", 0), ("mzi_ps", 0), ("nls", 1), ("mzi_ps", 1))
        units = [(PerfectDesigner(), get_problem(name), index, None) for name, index in placed]
        finished = []
        samples = self._evaluator(golden_store).run_samples(
            units, on_done=lambda index, _: finished.append(index)
        )
        # All five pass at once: each group reports in given order, and the
        # results come back in unit order.
        assert finished == [0, 2, 4, 1, 3]
        assert [(sample.problem, sample.sample_index) for sample in samples] == list(placed)

    def test_drafts_run_on_the_pool_and_are_judged_on_the_calling_thread(
        self, golden_store, mzi_ps_problem, monkeypatch
    ):
        evaluator = self._evaluator(golden_store)
        judge = evaluator.evaluate_response
        judged = []

        def judging(problem, response_text):
            judged.append(threading.get_ident())
            return judge(problem, response_text)

        monkeypatch.setattr(evaluator, "evaluate_response", judging)
        log = []
        designer = _LoggingDesigner(log)
        evaluator.run_samples([(designer, mzi_ps_problem, index, None) for index in range(4)])
        caller = threading.get_ident()
        assert judged == [caller] * 12
        assert len(log) == 12 and caller not in {entry[3] for entry in log}

    def test_on_done_fires_as_each_trajectory_finishes(self, golden_store, mzi_ps_problem):
        log = []
        units = [
            (_LoggingDesigner(log), mzi_ps_problem, 0, None),
            (_LoggingDesigner(log, passes_at=0), mzi_ps_problem, 1, None),
        ]
        reported = []
        self._evaluator(golden_store).run_samples(
            units,
            on_done=lambda index, sample: reported.append((index, len(log), len(sample.attempts))),
        )
        # The second unit passes at once and is reported after the first
        # iteration's two drafts, while the first unit still has two to go.
        assert reported == [(1, 2, 1), (0, 4, 3)]

    def test_a_designer_error_propagates_after_the_finished_groups_are_reported(
        self, golden_store
    ):
        log = []
        designer = _LoggingDesigner(log, passes_at=0, fails_on="nls")
        placed = (("mzi_ps", 0), ("nls", 0), ("mzi_ps", 1))
        units = [(designer, get_problem(name), index, None) for name, index in placed]
        reported = []
        with pytest.raises(RuntimeError, match="designer unavailable for nls"):
            self._evaluator(golden_store).run_samples(
                units, on_done=lambda index, _: reported.append(index)
            )
        # The mzi_ps group finished and was reported before nls began.
        assert reported == [0, 2]
        assert [entry[0] for entry in log] == ["mzi_ps", "mzi_ps", "nls"]

    def test_no_units_run_no_trajectories(self, golden_store):
        def never(index, sample):
            raise AssertionError("on_done fired without a unit")

        assert self._evaluator(golden_store).run_samples([], on_done=never) == []

    def test_run_sample_passes_its_prompt_config_to_the_designer(
        self, golden_store, mzi_ps_problem
    ):
        evaluator = self._evaluator(golden_store, workers=1)
        log = []
        designer = _LoggingDesigner(log, passes_at=0)
        restricted = PromptConfig(include_restrictions=True)
        evaluator.run_sample(designer, mzi_ps_problem, 0)
        evaluator.run_sample(designer, mzi_ps_problem, 0, prompt_config=restricted)
        assert [entry[2] for entry in log] == [
            build_system_prompt(evaluator.registry, PromptConfig(include_restrictions=False)),
            build_system_prompt(evaluator.registry, restricted),
        ]
        assert log[0][2] != log[1][2]

    def test_a_sweep_runs_every_client_and_setting_of_a_problem_in_one_group(self):
        log = []
        clients = [
            _LoggingDesigner(log, passes_at=1, name="Late"),
            _LoggingDesigner(log, passes_at=0, name="Early"),
        ]
        config = SweepConfig(
            samples_per_problem=2,
            max_feedback_iterations=1,
            num_wavelengths=TEST_NUM_WAVELENGTHS,
            problems=("mzi_ps", "nls"),
            workers=2,
        )
        result = run_sweep(config, clients=clients, restriction_settings=(False, True))
        # The sweep's units are restriction-major, yet one problem's 2 x 2 x 2
        # trajectories (12 drafts) all run before the other problem's first.
        groups = [(name, len(list(calls))) for name, calls in groupby(e[0] for e in log)]
        assert sorted(groups) == [("mzi_ps", 12), ("nls", 12)]
        first = groups[0][0]
        assert len({entry[2] for entry in log if entry[0] == first}) == 2
        assert len(result.reports) == 4


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
