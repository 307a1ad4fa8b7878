"""Job specifications accepted by the evaluation service.

A :class:`JobSpec` is the wire format of one unit of service work: a sweep
(or single-model evaluation) over one problem pack under one parameter set.
Specs are plain-data and JSON-round-trippable -- they cross the daemon's
line-delimited-JSON protocol and are rebuilt worker-side -- and carry the
sweep's semantic :meth:`~JobSpec.fingerprint` so the results store can
deduplicate re-submissions of the same evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Tuple

from ..harness.journal import sweep_fingerprint
from ..harness.runner import SweepConfig, SweepSpec
from ..llm.profiles import get_profile, profile_names

__all__ = ["JOB_KINDS", "JobSpec"]

#: Fields older specs carried that no longer exist; stored ``spec_json`` rows
#: still hold them, so :meth:`JobSpec.from_dict` drops them.  None was
#: semantic, so dropping them changes no fingerprint.
RETIRED_FIELDS: Tuple[str, ...] = ("solver_backend", "batch_size")

#: Recognised job kinds: ``"sweep"`` evaluates every requested model under
#: every requested restriction setting; ``"evaluate"`` is the single-model,
#: single-restriction special case (exactly one of each is enforced).
JOB_KINDS: Tuple[str, ...] = ("sweep", "evaluate")


@dataclass(frozen=True)
class JobSpec(SweepSpec):
    """One sweep/evaluate request, as submitted to the service.

    The sweep fields are :class:`~repro.harness.runner.SweepSpec`'s, declared
    there once; a job adds its ``kind``, the simulated designer profiles
    it runs (``models``, default: all five paper profiles; each name is
    stored as its profile spells it, so any spelling ``get_profile``
    accepts is the same job) and the prompt
    configurations (``restrictions``, default: both the with- and
    without-restrictions settings).  The local-run fields of
    :class:`~repro.harness.runner.SweepConfig` (``workers``, ``cache_dir``,
    ``journal_dir``, ``resume``) are deliberately absent: they belong to the
    service, not the job.
    """

    kind: str = "sweep"
    models: Tuple[str, ...] = field(default_factory=profile_names)
    restrictions: Tuple[bool, ...] = (False, True)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; choose one of {list(JOB_KINDS)}")
        # One spelling per profile: the lookup is case-insensitive, the
        # fingerprint, the journal and the report keys are not.
        try:
            models = tuple(get_profile(name).name for name in self.models)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "restrictions", tuple(bool(r) for r in self.restrictions))
        if not self.models:
            raise ValueError("a job must request at least one model")
        if not self.restrictions:
            raise ValueError("a job must request at least one restriction setting")
        if self.kind == "evaluate" and (len(self.models) != 1 or len(self.restrictions) != 1):
            raise ValueError(
                "an 'evaluate' job runs exactly one model under one restriction "
                f"setting; got {len(self.models)} models x {len(self.restrictions)} settings"
            )

    def validate(self) -> None:
        """Resolve the problem selection, raising ``KeyError`` on unknown names.

        Submission-time validation: an unknown pack or problem fails the
        submit call with a clear error instead of failing the job later in a
        worker.  Model names are resolved on construction.
        """
        self.sweep_config().select_problems()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-container form (tuples become lists; JSON-ready)."""
        payload = asdict(self)
        payload["models"] = list(self.models)
        payload["restrictions"] = list(self.restrictions)
        payload["problems"] = list(self.problems) if self.problems is not None else None
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output (or protocol JSON).

        Keys of :data:`RETIRED_FIELDS` are dropped, so specs stored by older
        versions still load; any other unknown key raises ``ValueError``.
        """
        data = {key: value for key, value in payload.items() if key not in RETIRED_FIELDS}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        for key in ("models", "restrictions", "problems"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def canonical_json(self) -> str:
        """Sorted-key, compact JSON form (the stored spec document)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """The job's semantic identity, shared with the sweep journal.

        :func:`~repro.harness.journal.sweep_fingerprint` of the spec, its
        models and its restriction settings: only the fields declared
        semantic participate.  Two submissions of the same evaluation share
        a fingerprint whatever their kind, execution tier or retry budget --
        none of them changes a report -- which is what lets the store
        deduplicate them.
        """
        return sweep_fingerprint(self, self.models, self.restrictions)

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def sweep_config(self, **local: object) -> SweepConfig:
        """The :class:`SweepConfig` this job runs under.

        Copies every :class:`SweepSpec` field and takes the local-run fields
        (``cache_dir``, ``workers``, ``journal_dir``, ``resume``, ...) from
        ``local``: the service owns placement, parallelism and
        checkpointing, none of which is part of the spec or its fingerprint.
        """
        shared = {spec_field.name: getattr(self, spec_field.name) for spec_field in fields(SweepSpec)}
        return SweepConfig(**shared, **local)  # type: ignore[arg-type]
