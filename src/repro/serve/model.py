"""Campaign model: submissions, campaign records, report rendering.

A *campaign* is one batch-verification request submitted to the
service: a set of specifications (registry names, optional mutant
matrices, inline DSL sources), the verification options, and the
scheduling attributes (tenant, priority lane).  The model layer is
pure data -- parsing and validating ``POST /campaigns`` bodies into
:class:`CampaignRequest`, materializing them as engine
:class:`~repro.engine.job.VerificationJob` lists, and rendering the
engine's :class:`~repro.engine.batch.BatchReport` into the structured
JSON that ``GET /campaigns/{id}`` serves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..core.options import FIELD_NAMES, RunOptions
from ..engine.job import VerificationJob, registry_jobs
from ..engine.batch import BatchReport
from ..obs import clock

__all__ = [
    "PRIORITIES",
    "CampaignRequest",
    "Campaign",
    "CampaignState",
    "campaign_id",
    "report_to_dict",
]

#: Scheduler lanes, highest priority first; workers always drain in
#: this order.
PRIORITIES: tuple[str, ...] = ("high", "normal", "low")


@dataclass(frozen=True)
class CampaignRequest:
    """One validated ``POST /campaigns`` body.

    Exactly what a client may ask for: registry protocols (``"all"``
    expands to the zoo), an optional mutant matrix, inline DSL
    specifications (``name -> source`` -- inline, so clients never need
    a shared filesystem with the server), the scheduling attributes and
    the per-job run options.  On the wire the options are flat body
    keys in :meth:`RunOptions.to_dict` form.  Budgets (``deadline`` /
    ``max_visits``) are *requests*; the scheduler may clamp them
    further to the tenant's remaining allotment.
    """

    protocols: tuple[str, ...] = ()
    mutants: bool = False
    specs: tuple[tuple[str, str], ...] = ()
    tenant: str = "default"
    priority: str = "normal"
    options: RunOptions = RunOptions()

    def __post_init__(self) -> None:
        if not self.protocols and not self.specs:
            raise ValueError(
                "a campaign needs at least one protocol or inline spec"
            )
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {'/'.join(PRIORITIES)}, "
                f"not {self.priority!r}"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError("tenant must be a non-empty string")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Any) -> "CampaignRequest":
        """Parse and validate a request body; ``ValueError`` means 400."""
        if not isinstance(payload, dict):
            raise ValueError("campaign body must be a JSON object")
        own = {"protocols", "mutants", "specs", "tenant", "priority"}
        unknown = set(payload) - own - set(FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown campaign fields: {sorted(unknown)}")
        protocols = payload.get("protocols", [])
        if not isinstance(protocols, list) or not all(
            isinstance(p, str) for p in protocols
        ):
            raise ValueError("protocols must be a list of names")
        specs = payload.get("specs", {})
        if not isinstance(specs, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in specs.items()
        ):
            raise ValueError("specs must map names to DSL source strings")
        if not isinstance(payload.get("mutants", False), bool):
            raise ValueError("mutants must be a boolean")
        return cls(
            protocols=tuple(protocols),
            mutants=payload.get("mutants", False),
            specs=tuple(sorted(specs.items())),
            tenant=payload.get("tenant", "default"),
            priority=payload.get("priority", "normal"),
            options=RunOptions.from_dict(
                {k: v for k, v in payload.items() if k not in own}
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering (persisted as ``campaign.json``)."""
        return {
            "protocols": list(self.protocols),
            "mutants": self.mutants,
            "specs": dict(self.specs),
            "tenant": self.tenant,
            "priority": self.priority,
            **self.options.to_dict(),
        }

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Resolve every named protocol and parse every inline spec.

        Called at submission time so bad requests fail with a 400
        instead of erroring asynchronously inside a worker.  All
        resolution problems surface as ``ValueError``.

        When the campaign asks for ``preflight: "reject"`` the inline
        specs are additionally linted here: a spec the preflight would
        reject anyway fails the whole submission up front, with the
        findings in the 400 body, instead of producing a ``rejected``
        job result minutes later.
        """
        from ..protocols.dsl import DslError, parse_protocol
        from ..protocols.registry import resolve_specs

        for name in self.protocols:
            try:
                resolve_specs(name)
            except KeyError as exc:
                raise ValueError(
                    exc.args[0] if exc.args else f"unknown protocol {name!r}"
                )
        for name, source in self.specs:
            try:
                parse_protocol(source, default_name=name)
            except DslError as exc:
                raise ValueError(f"inline spec {name!r}: {exc}")
        if self.options.preflight == "reject":
            from ..lint import Severity, lint_source

            for name, source in self.specs:
                report = lint_source(source, name=name)
                errors = [
                    d
                    for d in report.diagnostics
                    if d.severity is Severity.ERROR
                ]
                if errors:
                    summary = "; ".join(
                        f"{d.rule}: {d.message}" for d in errors
                    )
                    raise ValueError(
                        f"inline spec {name!r} fails lint preflight: {summary}"
                    )

    def jobs(
        self,
        spec_dir: Path,
        *,
        deadline_cap: float | None = None,
        max_visits_cap: int | None = None,
    ) -> list[VerificationJob]:
        """Materialize the request as engine jobs.

        Inline DSL sources are written under ``spec_dir`` (once -- a
        resumed campaign reuses the files, so job labels and
        fingerprints stay identical across server restarts) and
        referenced by path, keeping every job picklable.  The caps are
        the scheduler's per-tenant clamp: each job's effective budgets
        are the minimum of what the request asked for and what the
        tenant has left.
        """
        options = self.options
        if deadline_cap is not None:
            deadline = options.deadline
            options = replace(
                options,
                deadline=(
                    deadline_cap if deadline is None else min(deadline, deadline_cap)
                ),
            )
        if max_visits_cap is not None:
            options = replace(
                options, max_visits=min(options.max_visits, max_visits_cap)
            )

        jobs = registry_jobs(self.protocols, options, mutants=self.mutants)
        for name, source in self.specs:
            spec_dir.mkdir(parents=True, exist_ok=True)
            path = spec_dir / f"{name}.proto"
            if not path.exists():
                path.write_text(source, encoding="utf-8")
            jobs.append(VerificationJob(spec_file=str(path), options=options))
        return jobs


def campaign_id(seq: int, request: CampaignRequest) -> str:
    """``c<seq>-<digest8>``: a monotonic sequence plus a content hash.

    The sequence keeps ids unique across identical resubmissions (which
    are answered from the result cache, not deduplicated away); the
    digest makes ids self-describing enough to spot replays in logs.
    """
    digest = hashlib.sha256(
        json.dumps(request.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()
    return f"c{seq:04d}-{digest[:8]}"


class CampaignState:
    """Lifecycle of one campaign (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    #: The campaign could not run at all (spec resolution blew up
    #: outside job isolation); the ``error`` field says why.
    FAILED = "failed"


@dataclass
class Campaign:
    """One submitted campaign and everything known about it so far."""

    id: str
    request: CampaignRequest
    created: float = field(default_factory=clock.wall)
    state: str = CampaignState.QUEUED
    started: float | None = None
    finished: float | None = None
    #: True when this record was recovered from disk after a server
    #: restart and the run must resume from its journal.
    resumed: bool = False
    exit_code: int | None = None
    error: str | None = None
    report: dict[str, Any] | None = None

    @property
    def done(self) -> bool:
        """True iff the campaign reached a terminal state."""
        return self.state in (CampaignState.DONE, CampaignState.FAILED)

    def to_dict(self, *, with_report: bool = True) -> dict[str, Any]:
        """The ``GET /campaigns/{id}`` rendering."""
        out: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "created": round(self.created, 3),
            "started": round(self.started, 3) if self.started else None,
            "finished": round(self.finished, 3) if self.finished else None,
            "resumed": self.resumed,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "exit_code": self.exit_code,
            "error": self.error,
        }
        if with_report:
            out["report"] = self.report
        return out


def report_to_dict(report: BatchReport) -> dict[str, Any]:
    """The structured ``BatchReport`` served by ``GET /campaigns/{id}``.

    One record per job (input order, like the engine's summary table)
    plus the roll-up counts and the uniform 0/1/2 exit code.  Payload
    summaries mirror the journal's ``job_finish`` fields; full payloads
    stay in the result cache, addressable via ``GET /cache/{fp}``.
    """
    results = []
    for result in report.results:
        summary = result.summary or {}
        results.append(
            {
                "job": result.job.to_meta(),
                "label": result.job.label,
                "status": result.status,
                "verdict": result.verdict,
                "ok": result.ok,
                "cached": result.cached,
                "attempts": result.attempts,
                "elapsed": round(result.elapsed, 6),
                "fingerprint": result.fingerprint,
                "visits": summary.get("visits"),
                "expanded": summary.get("expanded"),
                "essential": summary.get("essential"),
                "error": result.error,
            }
        )
    return {
        "results": results,
        "counts": {
            "jobs": len(report.results),
            "verified": report.verified,
            "violations": report.violations,
            "not_live": report.not_live,
            "errors": report.errors,
            "partials": report.partials,
            "rejected": report.rejected,
            "cache_hits": report.cache_hits,
        },
        "cache_lookups": (
            {
                "hits": report.cache_lookup_hits,
                "misses": report.cache_lookup_misses,
            }
            if report.cache_lookup_hits is not None
            else None
        ),
        "wall": round(report.wall, 4),
        "exit_code": report.exit_code,
    }
