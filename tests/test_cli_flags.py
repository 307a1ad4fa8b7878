"""Tests of the sweep flags both front doors generate from one declaration.

``python -m repro.harness`` and ``jobs submit`` build their sweep flags from
the fields of :class:`~repro.harness.runner.SweepConfig` and
:class:`~repro.service.spec.JobSpec`.  The reference mappings below are the
hand-written ones those generated parsers replaced; each invocation must
still produce the config they produced.  Values the field checks reject, and
names that resolve to no problem, pack or profile, end as a usage error
(exit 2), never as a traceback or a silently odd sweep.
"""

from __future__ import annotations

import argparse
from dataclasses import fields

import pytest

from repro.harness.cli import _sweep_config, build_parser
from repro.harness.cli import main as harness_main
from repro.harness.runner import SweepConfig, SweepSpec, _parse_pack_params
from repro.service.cli import _spec_from_args
from repro.service.cli import build_parser as build_service_parser
from repro.service.cli import main as service_main
from repro.service.spec import JobSpec


# ----------------------------------------------------------------------
# Reference oracles: the hand-written mappings the generated flags replaced
# ----------------------------------------------------------------------
def reference_sweep_config(args: argparse.Namespace) -> SweepConfig:
    return SweepConfig(
        samples_per_problem=args.samples,
        max_feedback_iterations=args.feedback,
        num_wavelengths=args.wavelengths,
        base_seed=args.seed,
        problems=tuple(args.problems) if args.problems else None,
        workers=args.workers,
        cache_dir=args.cache_dir,
        pack=args.pack,
        pack_params=_parse_pack_params(args.pack_param),
        execution_mode=args.execution_mode,
        processes=args.processes,
        retry_attempts=args.retry_attempts,
        retry_backoff=args.retry_backoff,
        unit_timeout=args.unit_timeout,
        journal_dir=args.journal_dir,
        resume=args.resume,
    )


def reference_spec_from_args(args: argparse.Namespace) -> JobSpec:
    restrictions = {
        "both": (False, True),
        "with": (True,),
        "without": (False,),
    }[args.restrictions]
    fields = {
        "kind": args.kind,
        "restrictions": restrictions,
        "samples_per_problem": args.samples,
        "max_feedback_iterations": args.feedback,
        "num_wavelengths": args.wavelengths,
        "base_seed": args.seed,
        "problems": tuple(args.problems) if args.problems else None,
        "pack": args.pack,
        "pack_params": _parse_pack_params(args.pack_param),
        "execution_mode": args.execution_mode,
        "processes": args.processes,
        "retry_attempts": args.retry_attempts,
        "retry_backoff": args.retry_backoff,
        "unit_timeout": args.unit_timeout,
    }
    if args.models:
        fields["models"] = tuple(args.models)
    return JobSpec(**fields)


#: The harness invocations of ``.github/workflows/ci.yml``.
CI_HARNESS_INVOCATIONS = [
    "sweep --samples 2 --wavelengths 11 --workers 1 --output identity_sequential.json",
    "sweep --samples 2 --wavelengths 11 --workers 2 --output identity_threads.json",
    "sweep --samples 2 --wavelengths 11 --execution-mode process --processes 2 "
    "--output identity_process.json",
    "sweep --problems mzi_ps --samples 2 --wavelengths 11 --workers 2 --cache-dir .simcache",
    "sweep --pack wdm-links --pack-param channels=[2] --samples 1 --wavelengths 11 "
    "--workers 2 --cache-dir .simcache",
    "sweep --pack variability --pack-param corners=1 --samples 2 --wavelengths 11",
    "sweep --problems mzi_ps clements_4x4 --samples 2 --wavelengths 11 "
    "--execution-mode process --processes 2 --cache-dir .simcache",
    "sweep --problems mzi_ps --samples 2 --wavelengths 11 --journal-dir .journal --resume",
    "sweep --problems mzi_ps --samples 2 --wavelengths 11 "
    "--journal-dir .journal --resume --output kill_resume_resumed.json",
    "sweep --problems mzi_ps --samples 2 --wavelengths 11 --output kill_resume_uninterrupted.json",
]

#: The ``jobs submit`` invocation of ``.github/workflows/ci.yml``.
CI_SUBMIT_INVOCATIONS = [
    "jobs --port 7341 submit --models GPT-4o --restrictions without --samples 2 "
    "--feedback 1 --wavelengths 11 --problems mzi_ps --wait",
]

#: Every sweep flag of the harness away from its default.
HARNESS_ALL_FLAGS = (
    "sweep --samples 3 --feedback 2 --wavelengths 7 --seed 9 --problems mzi_ps nls "
    "--pack wdm-links --pack-param channels=[2,4] --pack-param spacing=0.2 "
    "--execution-mode process --processes 3 "
    "--retry-attempts 5 --retry-backoff 0.5 --unit-timeout 30 --workers 2 "
    "--cache-dir cache --journal-dir journal --resume"
)

#: Every flag of ``jobs submit`` away from its default.
SUBMIT_ALL_FLAGS = (
    "jobs --port 7341 submit --kind evaluate --models GPT-4 --restrictions with "
    "--samples 3 --feedback 2 --wavelengths 7 --seed 9 --problems mzi_ps nls "
    "--pack wdm-links --pack-param channels=[2,4] --pack-param spacing=0.2 "
    "--execution-mode process --processes 3 "
    "--retry-attempts 5 --retry-backoff 0.5 --unit-timeout 30 "
    "--priority 2 --dedupe --idempotent --wait"
)

#: The non-default sweep fields both all-flags invocations set.
SPEC_VALUES = dict(
    samples_per_problem=3,
    max_feedback_iterations=2,
    num_wavelengths=7,
    base_seed=9,
    problems=("mzi_ps", "nls"),
    pack="wdm-links",
    pack_params={"channels": [2, 4], "spacing": 0.2},
    execution_mode="process",
    processes=3,
    retry_attempts=5,
    retry_backoff=0.5,
    unit_timeout=30.0,
)


@pytest.mark.parametrize("command", [*CI_HARNESS_INVOCATIONS, HARNESS_ALL_FLAGS])
def test_harness_config_matches_the_reference_mapping(command):
    args = build_parser().parse_args(command.split())
    assert _sweep_config(args) == reference_sweep_config(args)


@pytest.mark.parametrize("command", [*CI_SUBMIT_INVOCATIONS, SUBMIT_ALL_FLAGS])
def test_submit_spec_matches_the_reference_mapping(command):
    args = build_service_parser().parse_args(command.split())
    assert _spec_from_args(args) == reference_spec_from_args(args)


def test_all_flags_reach_their_fields():
    config = _sweep_config(build_parser().parse_args(HARNESS_ALL_FLAGS.split()))
    assert config == SweepConfig(
        **SPEC_VALUES,
        workers=2,
        cache_dir="cache",
        journal_dir="journal",
        resume=True,
    )
    for spec_field in fields(SweepConfig):
        assert getattr(config, spec_field.name) != spec_field.default, spec_field.name
    spec = _spec_from_args(build_service_parser().parse_args(SUBMIT_ALL_FLAGS.split()))
    assert spec == JobSpec(
        **SPEC_VALUES, kind="evaluate", models=("GPT-4",), restrictions=(True,)
    )


def test_default_invocations_keep_the_flag_defaults():
    # The namespaces the hand-declared parsers produced with no sweep flags.
    sweep_defaults = {
        "samples": 5, "feedback": 3, "wavelengths": 41, "seed": 0, "problems": None,
        "pack": "core", "pack_param": None,
        "execution_mode": "thread", "processes": 0, "retry_attempts": 2,
        "retry_backoff": 0.1, "unit_timeout": None,
    }
    harness = vars(build_parser().parse_args(["sweep"]))
    assert harness == {
        **sweep_defaults,
        "target": "sweep", "model": "GPT-4o", "output": None, "list_packs": False,
        "workers": 1, "cache_dir": None, "journal_dir": None, "resume": False,
    }
    submit = vars(build_service_parser().parse_args(["jobs", "--port", "1", "submit"]))
    assert submit == {
        **sweep_defaults,
        "command": "jobs", "host": "127.0.0.1", "port": 1, "connect_retries": 3,
        "connect_backoff": 0.05, "verb": "submit", "kind": "sweep", "models": None,
        "restrictions": "both", "priority": 0, "dedupe": False, "idempotent": False,
        "wait": False,
    }
    assert _sweep_config(build_parser().parse_args(["sweep"])) == SweepConfig()


def _option_flags(parser: argparse.ArgumentParser) -> set:
    return {flag for action in parser._actions for flag in action.option_strings} - {
        "-h",
        "--help",
    }


def _subparser(parser: argparse.ArgumentParser, *path: str) -> argparse.ArgumentParser:
    for name in path:
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[name]
    return parser


def test_submit_declares_the_harness_spec_flags_plus_its_own():
    spec_flags = {spec_field.metadata["flag"] for spec_field in fields(SweepSpec)}
    harness_flags = _option_flags(build_parser())
    assert spec_flags <= harness_flags
    assert _option_flags(_subparser(build_service_parser(), "jobs", "submit")) == spec_flags | {
        "--kind",
        "--models",
        "--restrictions",
        "--priority",
        "--dedupe",
        "--idempotent",
        "--wait",
    }
    for parser in (build_parser(), _subparser(build_service_parser(), "jobs", "submit")):
        choices = {
            flag: action.choices
            for action in parser._actions
            for flag in action.option_strings
            if action.choices is not None
        }
        assert choices["--execution-mode"] == ["thread", "process"]


RETIRED_FLAGS = [
    ["--solver-backend", "dense"],
    ["--plan-cache-entries", "7"],
    ["--wavelength-chunk", "5"],
    ["--batch-size", "4"],
]


@pytest.mark.parametrize("argv", RETIRED_FLAGS, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "main, prefix",
    [
        (harness_main, ["sweep"]),
        (service_main, ["jobs", "--port", "1", "submit"]),
    ],
    ids=["harness", "jobs-submit"],
)
def test_retired_solver_flags_are_usage_errors(main, prefix, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*prefix, *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv)}" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# Values the field checks reject
# ----------------------------------------------------------------------
BAD_VALUES = [
    ("samples_per_problem", 0, ["--samples", "0"]),
    ("num_wavelengths", 0, ["--wavelengths", "0"]),
    ("max_feedback_iterations", -1, ["--feedback", "-1"]),
]


@pytest.mark.parametrize("name, value, _argv", BAD_VALUES)
@pytest.mark.parametrize("cls", [SweepConfig, JobSpec])
def test_bad_sweep_values_are_rejected(cls, name, value, _argv):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("name, _value, argv", BAD_VALUES)
@pytest.mark.parametrize(
    "main, prefix",
    [
        (harness_main, ["table3"]),
        (service_main, ["jobs", "--port", "1", "submit"]),
    ],
    ids=["harness", "jobs-submit"],
)
def test_cli_turns_bad_sweep_values_into_usage_errors(main, prefix, name, _value, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*prefix, *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"{name} must be >=" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# Names that resolve to nothing
# ----------------------------------------------------------------------
UNKNOWN_NAMES = [
    (["--problems", "nosuch"], "unknown problems requested"),
    (["--pack", "nosuch"], "unknown problem pack 'nosuch'"),
    (["--pack-param", "nosuch"], "--pack-param must look like KEY=VALUE"),
]


@pytest.mark.parametrize("argv, message", UNKNOWN_NAMES, ids=["problems", "pack", "pack-param"])
@pytest.mark.parametrize(
    "main, prefix",
    [
        (harness_main, ["table3"]),
        (service_main, ["jobs", "--port", "1", "submit"]),
    ],
    ids=["harness", "jobs-submit"],
)
def test_cli_turns_unknown_names_into_usage_errors(main, prefix, argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*prefix, *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert message in err
    assert "Traceback" not in err


def test_submit_turns_an_unknown_model_into_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        service_main(["jobs", "--port", "1", "submit", "--models", "GPT-99"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "unknown profile 'GPT-99'" in err
