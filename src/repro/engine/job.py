"""Verification jobs: the unit of work of the batch engine.

A :class:`VerificationJob` is a small, picklable description of "verify
this specification with these options".  It names the specification
(registry name + optional mutation key, or a DSL spec file path) or
embeds it as ``spec``; batch admission resolves a named spec once and
hands the runner a job embedding it, which is what a worker receives.

:func:`execute_job` is the single execution path used by every runner
-- serial or parallel, fresh or replayed from cache they all produce
the same :class:`JobResult` shape, whose ``payload`` is exactly
:func:`repro.core.serialize.result_to_dict` of the verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..obs import clock
from ..core.options import RunOptions
from ..core.protocol import ProtocolSpec
from ..core.serialize import result_to_dict
from ..core.verifier import verify
from .guard import Guard, _CancelFlag

__all__ = [
    "JobStatus",
    "VerificationJob",
    "JobResult",
    "execute_job",
    "payload_summary",
    "registry_jobs",
]


class JobStatus:
    """Terminal status of one job (plain strings, JSON-friendly)."""

    VERIFIED = "verified"
    VIOLATION = "violation"
    ERROR = "error"
    TIMEOUT = "timeout"
    CRASH = "crash"
    #: The lint preflight refused to dispatch a statically-broken spec.
    REJECTED = "rejected"
    #: The circuit breaker refused to dispatch a spec whose fingerprint
    #: has repeatedly crashed or hung workers (see
    #: :class:`repro.engine.resilience.CircuitBreaker`).  Terminal for
    #: this run, but never cached: the breaker may have cooled down by
    #: the next run, so a resume re-admits the job through a half-open
    #: probe.
    QUARANTINED = "quarantined"
    #: A guard budget (deadline, visits, states, RSS, soft-cancel)
    #: expired before the fixpoint: the payload carries everything
    #: computed so far, but the verdict is inconclusive.
    PARTIAL = "partial"
    #: A liveness-mode job found no erroneous state but did find a
    #: starvable request: the payload's ``liveness`` key carries the
    #: lasso witnesses.  A safety violation takes precedence -- a job
    #: is ``violation`` even if it is also not live.
    LIVENESS_VIOLATION = "liveness-violation"

    #: Statuses for which a verification actually completed and
    #: produced a payload.
    COMPLETED = (VERIFIED, VIOLATION, LIVENESS_VIOLATION)
    #: Statuses that carry a (possibly partial) verification payload.
    WITH_PAYLOAD = (VERIFIED, VIOLATION, LIVENESS_VIOLATION, PARTIAL)


@dataclass(frozen=True)
class VerificationJob:
    """One unit of batch-verification work.

    Exactly one spec source must be given: ``protocol`` (registry
    name), ``spec_file`` (DSL path) or ``spec`` (an in-memory
    specification).  ``mutant`` optionally applies a named mutation to
    the resolved specification.

    ``options`` (:class:`~repro.core.options.RunOptions`) says how to
    verify it.  ``options.preflight`` is honoured by the batch engine
    *before dispatching to a worker*: ``"reject"`` turns error-severity
    findings into a ``rejected`` result (no worker ever sees the job),
    ``"annotate"`` records the findings on the result but verifies
    anyway.  The budgets run under a cooperative
    :class:`~repro.engine.guard.Guard`: an exhausted budget yields a
    structured ``partial`` result instead of an error.  Every option
    but ``preflight`` is part of the cache key (see
    :func:`repro.engine.fingerprint.job_key`).
    """

    protocol: str | None = None
    mutant: str | None = None
    spec_file: str | None = None
    spec: ProtocolSpec | None = field(default=None, compare=False)
    options: RunOptions = RunOptions()
    label: str = ""

    def __post_init__(self) -> None:
        sources = [
            s for s in (self.protocol, self.spec_file, self.spec) if s is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                "a VerificationJob needs exactly one of protocol / "
                "spec_file / spec"
            )
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.protocol is not None:
            base = self.protocol
        elif self.spec_file is not None:
            base = Path(self.spec_file).stem
        else:
            assert self.spec is not None
            base = self.spec.name
        return f"{base}+{self.mutant}" if self.mutant else base

    # ------------------------------------------------------------------
    def resolve_spec(self) -> ProtocolSpec:
        """Instantiate the protocol this job verifies.

        Raises ``KeyError`` (unknown protocol/mutation), ``OSError`` or
        ``DslError`` (bad spec file) -- callers map these to the
        usage-error exit status.  A spec file is parsed, not validated:
        :func:`~repro.core.verifier.verify` validates every spec it runs.
        """
        if self.spec is not None:
            spec = self.spec
        elif self.spec_file is not None:
            from ..protocols.dsl import parse_protocol_file

            spec = parse_protocol_file(self.spec_file)
        else:
            from ..protocols.registry import get_protocol

            assert self.protocol is not None
            spec = get_protocol(self.protocol)
        if self.mutant is not None:
            from ..protocols.mutations import get_mutant

            spec = get_mutant(spec, self.mutant)
        return spec

    def to_meta(self) -> dict[str, Any]:
        """JSON-able description of the job (for cache/journal records)."""
        return {
            "label": self.label,
            "protocol": self.protocol,
            "mutant": self.mutant,
            "spec_file": self.spec_file,
            "inline_spec": self.spec.name if self.spec is not None else None,
            **self.options.to_dict(),
        }


def registry_jobs(
    names: Sequence[str],
    options: RunOptions,
    *,
    mutant: str | None = None,
    mutants: bool = False,
) -> list[VerificationJob]:
    """One job per registry protocol in *names*, then its mutant matrix.

    ``"all"`` expands to the zoo, repeated names collapse to their first
    occurrence and an unknown name raises ``KeyError``.  Each protocol's
    job applies ``mutant`` (when given); ``mutants`` adds one job per
    applicable safety mutant right after it.
    """
    if not names:  # a spec-file-only batch needs no registry
        return []
    from ..protocols.mutations import mutants_for
    from ..protocols.registry import get_protocol, protocol_names

    expanded = [
        each
        for name in names
        for each in (protocol_names() if name == "all" else (name,))
    ]
    jobs = []
    for name in dict.fromkeys(expanded):  # dedupe, keep order
        spec = get_protocol(name)
        jobs.append(VerificationJob(protocol=name, mutant=mutant, options=options))
        if mutants:
            jobs.extend(
                VerificationJob(protocol=name, mutant=m.mutation.key, options=options)
                for m in mutants_for(spec)
            )
    return jobs


def payload_summary(payload: dict[str, Any]) -> dict[str, Any]:
    """The few payload fields a batch reports per job.

    ``visits`` and ``expanded`` come from the expansion stats,
    ``essential`` counts the essential states and ``reason`` is a
    partial result's exhaustion reason (``None`` for a complete one).
    The result cache stores this beside each payload, so a cache hit
    reports it without decoding the payload.
    """
    return {
        "visits": payload["stats"]["visits"],
        "expanded": payload["stats"]["expanded"],
        "essential": len(payload["essential_states"]),
        "reason": (payload.get("partial") or {}).get("reason"),
    }


_ENCODE = json.JSONEncoder(sort_keys=True).encode
#: List items encoded per piece by :func:`_json_chunks`.
_BATCH = 8


def _json_chunks(payload: dict[str, Any]) -> Iterator[bytes]:
    """``json.dumps(payload, sort_keys=True)`` as UTF-8, in pieces.

    The one canonical encoding of a payload: the bytes a cache entry
    stores and the bytes a parallel worker ships.  A payload runs to a
    few MB, and encoding one whole holds a buffer of about twice its
    size; encoding each top-level value, and long top-level lists
    ``_BATCH`` items at a time, bounds that buffer and still runs in
    the C encoder.
    """
    opener = b"{"
    for key in sorted(payload):
        yield opener + _ENCODE(key).encode("utf-8") + b": "
        opener = b", "
        value = payload[key]
        if not isinstance(value, list) or not value:
            yield _ENCODE(value).encode("utf-8")
            continue
        for start in range(0, len(value), _BATCH):
            items = _ENCODE(value[start : start + _BATCH])[1:-1]
            yield (b", " if start else b"[") + items.encode("utf-8")
        yield b"]"
    yield b"}" if payload else b"{}"


class _Payload:
    """``JobResult.payload``: a dict, or JSON bytes decoded on first read.

    The bytes are the payload's :func:`_json_chunks` encoding: those the
    result cache has checked against their digest, or those a parallel
    worker encoded before sending its result.  Most results are
    reported from the summary alone and never decode them.
    """

    def __get__(self, result: "JobResult | None", owner: type) -> Any:
        if result is None:
            return None  # the dataclass field's default
        value = result.__dict__["_payload"]
        if isinstance(value, bytes):
            value = result.__dict__["_payload"] = json.loads(value)
        return value

    def __set__(self, result: "JobResult", value: Any) -> None:
        result.__dict__["_payload"] = value


@dataclass
class JobResult:
    """Outcome of one job, however it was obtained.

    ``payload`` is the :func:`result_to_dict` rendering of the
    verification (present iff the verification completed); a cache hit
    passes it as JSON bytes, decoded on first access.  ``summary`` is
    :func:`payload_summary` of it.  ``cached`` marks results replayed
    from the persistent cache.
    """

    job: VerificationJob
    status: str
    payload: dict[str, Any] | bytes | None = _Payload()  # type: ignore[assignment]
    error: str | None = None
    attempts: int = 1
    elapsed: float = 0.0
    cached: bool = False
    fingerprint: str | None = None
    #: Preflight findings (``Diagnostic.to_dict()`` records), attached
    #: when the job ran with ``preflight`` enabled.
    lint: list[dict[str, Any]] | None = None
    summary: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.summary is None and self.payload is not None:
            self.summary = payload_summary(self.payload)

    def payload_chunks(self) -> list[bytes]:
        """The payload's :func:`_json_chunks` encoding, without decoding
        held bytes: those bytes as they are, or a dict encoded once."""
        value = self.__dict__["_payload"]
        if isinstance(value, bytes):
            return [value]
        return list(_json_chunks(value))

    @property
    def completed(self) -> bool:
        """True iff a verification ran to completion (either verdict)."""
        return self.status in JobStatus.COMPLETED

    @property
    def partial(self) -> bool:
        """True iff a budget expired and this is a partial result."""
        return self.status == JobStatus.PARTIAL

    @property
    def exhausted_reason(self) -> str | None:
        """Why a partial result stopped early (``None`` otherwise)."""
        if self.status != JobStatus.PARTIAL or self.summary is None:
            return None
        return self.summary["reason"]

    @property
    def ok(self) -> bool:
        """True iff the specification verified cleanly."""
        return self.status == JobStatus.VERIFIED

    @property
    def verdict(self) -> str:
        """Display verdict for summary tables."""
        return {
            JobStatus.VERIFIED: "VERIFIED",
            JobStatus.VIOLATION: "FAILED",
            JobStatus.LIVENESS_VIOLATION: "NOT-LIVE",
            JobStatus.ERROR: "ERROR",
            JobStatus.TIMEOUT: "TIMEOUT",
            JobStatus.CRASH: "CRASH",
            JobStatus.REJECTED: "REJECTED",
            JobStatus.QUARANTINED: "QUARANTINED",
            JobStatus.PARTIAL: "PARTIAL",
        }[self.status]


def execute_job(
    job: VerificationJob, *, cancel: "_CancelFlag | None" = None
) -> JobResult:
    """Run one job to completion (or budget exhaustion) in this process.

    Never raises: resolution or verification failures are folded into
    an ``error``-status result so one bad specification cannot abort a
    sweep (the parallel runner additionally guards against crashes and
    hangs at the process level).

    ``options.preflight`` is not applied here: the batch engine lints
    each job at admission (see :func:`repro.engine.batch.run_batch`).

    The job's budgets run under a :class:`~repro.engine.guard.Guard`,
    so an exhausted budget -- or an external soft-cancel via
    ``cancel``, which is how a timed-out worker is asked to wrap up
    before the SIGKILL deadline -- yields a structured ``partial``
    result carrying the essential-set-so-far and the frontier.  Any
    violations found before exhaustion are definitive, so a partial
    run that found one still reports ``violation``.
    """
    started = clock.monotonic()
    try:
        spec = job.resolve_spec()
        report = verify(
            spec,
            options=replace(job.options, preflight="off"),
            guard=Guard(job.options.budget(), cancel=cancel),
        )
        result = report.result
        if result.violations:
            status = JobStatus.VIOLATION
        elif result.partial:
            status = JobStatus.PARTIAL
        elif result.liveness is not None and result.liveness.violations:
            status = JobStatus.LIVENESS_VIOLATION
        else:
            status = JobStatus.VERIFIED
        return JobResult(
            job,
            status,
            payload=result_to_dict(result),
            error=(
                result.exhausted.describe()
                if result.partial and result.exhausted is not None
                else None
            ),
            elapsed=clock.monotonic() - started,
        )
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return JobResult(
            job,
            JobStatus.ERROR,
            error=f"{type(exc).__name__}: {exc}",
            elapsed=clock.monotonic() - started,
        )
