"""Batch orchestration: verify many specifications fast and reproducibly.

:func:`run_batch` is the engine's front door.  It fingerprints every
job's specification, replays cached results where possible, runs the
remainder through a serial or parallel runner, journals every event
and persists fresh results back into the cache:

    jobs ──fingerprint──► cache? ──hit──────────────► results
                             │
                            miss ──runner (N procs)──► results ──► cache

The returned :class:`BatchReport` keeps results in input-job order (so
serial and parallel runs compare equal), knows the CLI exit status and
renders the end-of-run summary table.

Robustness: results are journaled and cached *incrementally*, the
moment each job finishes -- not at the end of the run -- so a batch
killed at job ``k`` keeps its first ``k`` results.  A ``SIGINT``
flushes a ``run_aborted`` event before re-raising, and
``resume=RunJournal.read(path)`` replays the finished jobs of an
interrupted run (through the journal for terminal errors and through
the result cache for verdicts), re-dispatching only the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..obs import NOOP_SPAN
from ..obs import active as _active_collector
from ..obs import clock
from ..analysis.reporting import batch_summary_table, lint_table
from ..core.protocol import ProtocolSpec
from .cache import ResultCache
from .fingerprint import ENGINE_VERSION, spec_fingerprint
from .job import JobResult, JobStatus, VerificationJob
from .journal import RunJournal
from .resilience import BackoffPolicy, BatchCancelled, BreakerState, CircuitBreaker
from .runner import CancelFlag, ParallelRunner, SerialRunner, make_runner

__all__ = ["BatchReport", "run_batch"]


@dataclass
class BatchReport:
    """Everything produced by one :func:`run_batch` call."""

    results: list[JobResult]
    wall: float
    journal: RunJournal = field(default_factory=RunJournal)
    #: Result-cache lookup totals for this run (``None`` when the run
    #: had no cache).  Unlike :attr:`cache_hits`, these come straight
    #: from :class:`~repro.engine.cache.ResultCache` and so also count
    #: corrupted entries rewritten as misses.
    cache_lookup_hits: int | None = None
    cache_lookup_misses: int | None = None

    # ------------------------------------------------------------------
    @property
    def verified(self) -> int:
        """Jobs whose specification verified cleanly."""
        return sum(1 for r in self.results if r.status == JobStatus.VERIFIED)

    @property
    def violations(self) -> int:
        """Jobs whose verification found coherence violations."""
        return sum(1 for r in self.results if r.status == JobStatus.VIOLATION)

    @property
    def not_live(self) -> int:
        """Safety-clean jobs with a starvable request (liveness modes)."""
        return sum(
            1
            for r in self.results
            if r.status == JobStatus.LIVENESS_VIOLATION
        )

    @property
    def errors(self) -> int:
        """Jobs that errored, timed out, crashed or were rejected."""
        return sum(
            1 for r in self.results if not r.completed and not r.partial
        )

    @property
    def partials(self) -> int:
        """Jobs whose budgets expired: partial, inconclusive results."""
        return sum(1 for r in self.results if r.partial)

    @property
    def rejected(self) -> int:
        """Jobs the lint preflight refused to dispatch."""
        return sum(1 for r in self.results if r.status == JobStatus.REJECTED)

    @property
    def quarantined(self) -> int:
        """Jobs the circuit breaker refused to dispatch."""
        return sum(
            1 for r in self.results if r.status == JobStatus.QUARANTINED
        )

    @property
    def cache_hits(self) -> int:
        """Jobs replayed from the persistent cache."""
        return sum(1 for r in self.results if r.cached)

    @property
    def ok(self) -> bool:
        """True iff every job completed and verified."""
        return self.verified == len(self.results)

    @property
    def exit_code(self) -> int:
        """CLI exit status: 0 ok, 1 violations (safety or liveness),
        2 job errors.

        Partial results count as errors here: the batch did not fully
        verify everything, so success cannot be claimed -- but any
        violations found before a budget expired are definitive and
        take the dedicated status.
        """
        if self.errors or self.partials:
            return 2
        if self.violations or self.not_live:
            return 1
        return 0

    # ------------------------------------------------------------------
    def rows(self) -> list[list[str]]:
        """Summary-table rows, one per job in input order."""
        rows = []
        for result in self.results:
            payload = result.payload
            rows.append(
                [
                    result.job.label,
                    result.verdict,
                    str(len(payload["essential_states"])) if payload else "-",
                    str(payload["stats"]["visits"]) if payload else "-",
                    f"{result.elapsed * 1000:.0f} ms",
                    "lint"
                    if result.status == JobStatus.REJECTED
                    else "breaker"
                    if result.status == JobStatus.QUARANTINED
                    else ("cache" if result.cached else "run"),
                ]
            )
        return rows

    def summary_table(self) -> str:
        """The end-of-run summary table."""
        return batch_summary_table(self.rows())

    def lint_rows(self) -> list[list[str]]:
        """One row per preflight finding across all jobs."""
        rows = []
        for result in self.results:
            for finding in result.lint or ():
                location = finding.get("location", {})
                where = location.get("file") or location.get("symbol") or "-"
                if location.get("line") is not None:
                    where += f":{location['line']}"
                rows.append(
                    [
                        result.job.label,
                        finding.get("rule", "?"),
                        finding.get("severity", "?"),
                        where,
                        finding.get("message", ""),
                    ]
                )
        return rows

    def lint_table(self) -> str:
        """Rendered preflight-findings table ('' when there are none)."""
        rows = self.lint_rows()
        if not rows:
            return ""
        return lint_table(rows)

    def counts_line(self) -> str:
        """One-line roll-up printed under the summary table."""
        line = (
            f"{len(self.results)} jobs: {self.verified} verified, "
            f"{self.violations} with violations, {self.errors} errors"
        )
        if self.not_live:
            line += f", {self.not_live} not live"
        if self.partials:
            line += f", {self.partials} partial"
        if self.rejected:
            line += f" ({self.rejected} rejected by preflight)"
        if self.quarantined:
            line += f" ({self.quarantined} quarantined by breaker)"
        line += f"; {self.cache_hits} cache hits"
        if self.cache_lookup_misses is not None:
            line += f" / {self.cache_lookup_misses} misses"
        line += f"; wall {self.wall:.2f}s"
        return line


def run_batch(
    jobs: Sequence[VerificationJob],
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    journal: RunJournal | None = None,
    timeout: float | None = None,
    retries: int = 1,
    grace: float | None = None,
    runner: SerialRunner | ParallelRunner | None = None,
    resume: Sequence[dict[str, Any]] | None = None,
    backoff: BackoffPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    cancel: CancelFlag | None = None,
) -> BatchReport:
    """Verify every job, reusing cached results and journaling the run.

    Parameters
    ----------
    jobs:
        The work list; results come back in the same order.  Each job
        carries its own :class:`~repro.core.options.RunOptions`; a
        job's ``preflight`` lint runs in *this* process, before cache
        lookup and worker dispatch, so a rejected job never reaches a
        worker.
    workers:
        Worker processes.  ``1`` (with no ``timeout``) runs serially in
        this process.
    cache:
        Persistent result cache; ``None`` disables caching entirely.
    journal:
        Event sink; a fresh in-memory journal is created when omitted.
    timeout / retries:
        Per-job wall-clock budget and retry bound for timed-out or
        crashed jobs (timeouts need ``workers >= 1`` processes, see
        :class:`~repro.engine.runner.SerialRunner`).
    grace:
        Soft-cancel window for timed-out workers: how long they get to
        emit a partial result before SIGKILL (parallel runners only;
        ``None`` keeps the runner default).
    runner:
        Explicit runner instance (overrides ``workers``/``timeout``/
        ``retries``/``grace``); used by tests to compare execution
        strategies.
    resume:
        Event stream of an interrupted run (``RunJournal.read(path)``):
        jobs whose ``job_finish`` record carries a terminal
        ``error``/``rejected`` status are adopted from the journal
        without re-dispatching; verified / violation / partial verdicts
        replay through the result cache as usual; timed-out and crashed
        jobs -- and anything the interrupt cut short -- are re-run.
    backoff:
        Retry backoff policy (:class:`~repro.engine.resilience.
        BackoffPolicy`): timed-out/crashed jobs are redispatched after
        an exponentially growing, deterministically jittered delay
        instead of immediately.  Parallel runners only.
    breaker:
        Circuit breaker (:class:`~repro.engine.resilience.
        CircuitBreaker`) keyed by spec fingerprint: specs already
        quarantined are refused at admission with a ``quarantined``
        result (``breaker_open`` journal event, never cached), and
        repeated crashes/hangs during this run trip the breaker
        mid-flight.  Share one breaker across calls to carry
        quarantine state between campaigns.
    cancel:
        Graceful-drain flag (anything with ``is_set()``): when another
        thread sets it, dispatch stops, in-flight jobs are
        soft-cancelled through their guards and the batch raises
        :class:`~repro.engine.resilience.BatchCancelled` after
        flushing a resumable ``run_aborted`` journal -- the same
        contract as ``SIGINT``, minus the signal.

    A ``KeyboardInterrupt`` mid-dispatch flushes a ``run_aborted``
    event (results finished so far are already journaled and cached --
    both happen incrementally) and re-raises, so the run can later be
    picked up with ``resume``.
    """
    jobs = list(jobs)
    if journal is None:
        journal = RunJournal()
    started = clock.monotonic()
    coll = _active_collector()
    if coll is not None:
        coll.count("engine.jobs", len(jobs))
        # Touch the cache counters so profile reports always show them,
        # even for cache-less (or all-miss) runs; ResultCache.get does
        # the actual per-lookup counting.
        coll.count("engine.cache.hits", 0)
        coll.count("engine.cache.misses", 0)
    cache_hits_before, cache_misses_before = (
        (cache.hits, cache.misses) if cache is not None else (0, 0)
    )
    journal.emit(
        "run_start",
        jobs=len(jobs),
        workers=workers,
        engine=ENGINE_VERSION,
        cache_dir=str(cache.root) if cache is not None else None,
        journal=str(journal.path) if journal.path is not None else None,
    )

    # A resumed run adopts the prior journal's terminal error/rejected
    # records outright; everything else goes through normal admission
    # (where the incremental cache turns finished verdicts into hits).
    replayable: dict[str, dict[str, Any]] = {}
    if resume is not None:
        finished_prior: dict[str, dict[str, Any]] = {}
        for record in resume:
            if record.get("event") == "job_finish" and "job" in record:
                finished_prior[record["job"]] = record
        replayable = {
            label: record
            for label, record in finished_prior.items()
            if record.get("status") in (JobStatus.ERROR, JobStatus.REJECTED)
        }
        journal.emit(
            "run_resume",
            journal=str(journal.path) if journal.path is not None else None,
            completed=len(finished_prior),
            remaining=sum(
                1 for job in jobs if job.label not in finished_prior
            ),
        )

    results: list[JobResult | None] = [None] * len(jobs)
    fingerprints: dict[int, str] = {}
    lint_findings: dict[int, list[dict[str, Any]]] = {}
    to_run: list[int] = []

    with coll.span("batch.admit", jobs=len(jobs)) if coll is not None else NOOP_SPAN:
        for i, job in enumerate(jobs):
            prior = replayable.get(job.label)
            if prior is not None:
                results[i] = JobResult(
                    job,
                    prior["status"],
                    error=prior.get("error"),
                    attempts=int(prior.get("attempts", 1)),
                    elapsed=float(prior.get("elapsed", 0.0)),
                )
                journal.emit(
                    "job_replayed", job=job.label, status=prior["status"]
                )
                _finish(journal, results[i])
                continue
            # Lint and fingerprint read one resolved spec (one behaviour
            # table); a spec file is linted leniently, then resolved.
            ended: JobResult | None = None
            try:
                spec = job.resolve_spec() if job.spec_file is None else None
                if job.options.preflight != "off":
                    ended = _preflight(journal, job, spec, lint_findings, i)
                if ended is None:
                    fingerprint = spec_fingerprint(
                        spec if spec is not None else job.resolve_spec()
                    )
            except Exception as exc:  # noqa: BLE001 - spec errors are data here
                error = f"{type(exc).__name__}: {exc}"
                ended = JobResult(
                    job, JobStatus.ERROR, error=error, lint=lint_findings.get(i)
                )
            if ended is not None:  # rejected by preflight, or an error
                results[i] = ended
                journal.emit("job_start", job=job.label, fingerprint=None)
                _finish(journal, ended)
                continue
            journal.emit("job_start", job=job.label, fingerprint=fingerprint)
            fingerprints[i] = fingerprint
            if cache is not None:
                hit = cache.get(fingerprint, job)
                if hit is not None:
                    hit.lint = lint_findings.get(i)
                    results[i] = hit
                    journal.emit(
                        "cache_hit",
                        job=job.label,
                        key=cache.key_for(fingerprint, job),
                    )
                    _finish(journal, hit)
                    continue
            # Cache misses that would hit a tripped breaker are refused
            # here, before any worker sees them (cache hits above are
            # served regardless -- quarantine protects workers, and a
            # replay touches none).  A half-open breaker lets the job
            # through: the runner dispatches it as the cooldown probe.
            if (
                breaker is not None
                and breaker.state(fingerprint) == BreakerState.OPEN
            ):
                journal.emit(
                    "breaker_open",
                    job=job.label,
                    key=fingerprint,
                    reason="open",
                    transition="open",
                    retry_after=round(breaker.retry_after(fingerprint), 3),
                )
                results[i] = JobResult(
                    job,
                    JobStatus.QUARANTINED,
                    error=(
                        "circuit breaker open for this spec fingerprint "
                        f"(retry after {breaker.retry_after(fingerprint):.1f}s)"
                    ),
                    attempts=0,
                    lint=lint_findings.get(i),
                )
                _finish(journal, results[i])
                continue
            to_run.append(i)

    if to_run:
        if runner is None:
            runner = make_runner(
                workers=workers,
                timeout=timeout,
                retries=retries,
                grace=grace,
                backoff=backoff,
                breaker=breaker,
            )

        def on_result(k: int, result: JobResult) -> None:
            # Cache then journal the moment a job finishes: a batch
            # killed mid-run keeps everything finished so far, and a
            # journaled job_finish always implies the cache entry
            # (when cacheable) already landed -- which is what lets a
            # resumed run trust the journal.
            i = to_run[k]
            result.fingerprint = fingerprints[i]
            result.lint = lint_findings.get(i)
            results[i] = result
            if cache is not None:
                cache.put(fingerprints[i], jobs[i], result)
            _finish(journal, result)

        run_kwargs: dict[str, Any] = {}
        if backoff is not None or breaker is not None:
            run_kwargs["keys"] = [fingerprints[i] for i in to_run]
        if cancel is not None:
            run_kwargs["cancel"] = cancel
        try:
            with (
                coll.span("batch.dispatch", jobs=len(to_run))
                if coll is not None
                else NOOP_SPAN
            ):
                runner.run(
                    [jobs[i] for i in to_run],
                    on_event=lambda event, fields: journal.emit(event, **fields),
                    on_result=on_result,
                    **run_kwargs,
                )
        except (KeyboardInterrupt, BatchCancelled):
            journal.emit(
                "run_aborted",
                jobs=len(jobs),
                finished=sum(1 for r in results if r is not None),
            )
            journal.close()
            raise

    final = [r for r in results if r is not None]
    assert len(final) == len(jobs)
    wall = clock.monotonic() - started
    report = BatchReport(results=final, wall=wall, journal=journal)
    if cache is not None:
        report.cache_lookup_hits = cache.hits - cache_hits_before
        report.cache_lookup_misses = cache.misses - cache_misses_before
    journal.emit(
        "run_end",
        jobs=len(jobs),
        verified=report.verified,
        violations=report.violations,
        not_live=report.not_live,
        errors=report.errors,
        partials=report.partials,
        rejected=report.rejected,
        quarantined=report.quarantined,
        cache_hits=report.cache_hits,
        cache_lookups=(
            {
                "hits": report.cache_lookup_hits,
                "misses": report.cache_lookup_misses,
            }
            if cache is not None
            else None
        ),
        wall=round(wall, 4),
        # Self-profiling runs (an active repro.obs collector) stamp the
        # run's metric totals into the journal's final event.
        metrics=coll.metrics_snapshot() if coll is not None else None,
    )
    return report


def _lint_job(job: VerificationJob, spec: ProtocolSpec | None):
    """Lint the specification a job will verify, without validating it.

    *spec* is the job's resolved specification.  Spec-file jobs pass
    ``None``: ``resolve_spec`` runs the full structural validation for
    DSL files, which raises on exactly the problems the linter is meant
    to report, so they are parsed leniently here (syntax errors become
    ``PL000`` findings) and statically-broken files reach the analyzer
    instead of blowing up before it.
    """
    from ..lint import lint_source, lint_spec

    if spec is None:
        from pathlib import Path

        text = Path(job.spec_file).read_text(encoding="utf-8")
        if job.mutant is None:
            return lint_source(
                text, name=Path(job.spec_file).stem, path=job.spec_file
            )
        from ..protocols.dsl import parse_protocol
        from ..protocols.mutations import get_mutant

        spec = parse_protocol(
            text,
            default_name=Path(job.spec_file).stem,
            source_path=job.spec_file,
        )
        return lint_spec(get_mutant(spec, job.mutant), target=job.label)
    return lint_spec(spec, target=job.label)


def _preflight(
    journal: RunJournal,
    job: VerificationJob,
    spec: ProtocolSpec | None,
    lint_findings: dict[int, list[dict[str, Any]]],
    index: int,
) -> JobResult | None:
    """Lint one job's spec (see :func:`_lint_job`) before dispatch; a
    result means rejection.

    Emits the ``lint`` journal event, stashes the findings for
    attachment to whatever result the job eventually produces, and --
    in ``"reject"`` mode -- returns a terminal ``rejected`` result for
    specs failing an error-severity rule.
    """
    report = _lint_job(job, spec)
    findings = [d.to_dict() for d in report.diagnostics]
    journal.emit(
        "lint",
        job=job.label,
        mode=job.options.preflight,
        errors=report.errors,
        warnings=report.warnings,
        infos=report.infos,
        suppressed=len(report.suppressed),
        findings=findings,
    )
    if findings:
        lint_findings[index] = findings
    if job.options.preflight == "reject" and not report.ok:
        coll = _active_collector()
        if coll is not None:
            coll.count("engine.preflight.rejected")
        first = next(
            d for d in report.diagnostics if d.severity.value == "error"
        )
        return JobResult(
            job,
            JobStatus.REJECTED,
            error=(
                f"preflight: {report.errors} lint error"
                f"{'s' if report.errors != 1 else ''} "
                f"({first.rule}: {first.message})"
            ),
            lint=findings,
        )
    return None


def _finish(journal: RunJournal, result: JobResult) -> None:
    """Emit the per-job completion record."""
    stats: dict[str, Any] = (
        result.payload.get("stats", {}) if result.payload else {}
    )
    if result.partial:
        coll = _active_collector()
        if coll is not None:
            coll.count("engine.partial")
    journal.emit(
        "job_finish",
        job=result.job.label,
        status=result.status,
        ok=result.ok,
        cached=result.cached,
        attempts=result.attempts,
        elapsed=round(result.elapsed, 6),
        visits=stats.get("visits"),
        expanded=stats.get("expanded"),
        essential=(
            len(result.payload["essential_states"]) if result.payload else None
        ),
        error=result.error,
    )
