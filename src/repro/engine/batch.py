"""Batch orchestration: verify many specifications fast and reproducibly.

:func:`run_batch` is the engine's front door.  It admits each job as
the runner draws it -- fingerprints the job's specification and
replays a cached result where possible -- runs the remainder on a
serial or parallel runner, journals every event and persists fresh
results back into the cache:

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
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..obs.collector import NOOP_SPAN
from ..obs.collector import active as _active_collector
from ..obs import clock
from ..analysis.reporting import batch_summary_table, lint_table
from ..core.protocol import ProtocolSpec
from .fingerprint import ENGINE_VERSION, spec_fingerprint
from .job import JobResult, JobStatus, VerificationJob
from .journal import RunJournal
from .resilience import BackoffPolicy, BatchCancelled, BreakerState, CircuitBreaker
from .runner import CancelFlag, SerialRunner, make_runner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lint.model import LintReport
    from .cache import ResultCache
    from .pool import ParallelRunner

__all__ = ["BatchReport", "run_batch"]

#: Fingerprints of registry jobs, keyed by ``(protocol, mutant)``, for
#: the life of the process (a ``repro serve`` hashes each once).
#: Registry protocols and mutations are code, so an entry cannot go
#: stale; spec-file and inline-spec jobs always hash.  Two threads that
#: miss the same key at once both hash it and store the same value.
_REGISTRY_FINGERPRINTS: dict[tuple[str, str | None], str] = {}


def _fingerprint(job: VerificationJob, spec: ProtocolSpec) -> str:
    """*job*'s spec fingerprint, hashed at most once per registry job."""
    if job.protocol is None:
        return spec_fingerprint(spec)
    key = (job.protocol, job.mutant)
    fingerprint = _REGISTRY_FINGERPRINTS.get(key)
    if fingerprint is None:
        fingerprint = _REGISTRY_FINGERPRINTS[key] = spec_fingerprint(spec)
    return fingerprint


@dataclass
class BatchReport:
    """Everything produced by one :func:`run_batch` call."""

    results: list[JobResult]
    wall: float
    journal: RunJournal = field(default_factory=RunJournal)
    #: Result-cache lookups of this run's own admissions (``None`` when
    #: the run had no cache).  Unlike :attr:`cache_hits`, these count
    #: lookups, so corrupted entries rewritten as misses show up too.
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
            summary = result.summary
            rows.append(
                [
                    result.job.label,
                    result.verdict,
                    str(summary["essential"]) if summary else "-",
                    str(summary["visits"]) if summary else "-",
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
        this process; out-of-range runner settings raise ``ValueError``.
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
        ``retries``/``grace``/``backoff``), e.g. the one the service
        keeps for all its campaigns.  It draws ``(fingerprint, job)``
        pairs from one lazy stream; each job is admitted as it is
        drawn and carries the spec admission resolved.
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
    if runner is None:
        runner = make_runner(
            workers=workers,
            timeout=timeout,
            retries=retries,
            grace=grace,
            backoff=backoff,
            breaker=breaker,
        )
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
    # Counted here, not read off the cache: one cache may serve several
    # concurrent batches (the service runs campaigns in threads).
    lookups = {"hits": 0, "misses": 0}
    journal.emit(
        "run_start",
        jobs=len(jobs),
        workers=runner.workers,
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
    keys: dict[int, str] = {}  # cache keys, computed once per job
    lint_findings: dict[int, list[dict[str, Any]]] = {}
    to_run: list[int] = []

    def admit(i: int, job: VerificationJob) -> ProtocolSpec | None:
        """Settle job *i* (journal replay, preflight, error, cache hit or
        quarantine), or queue it in ``to_run`` and return its spec."""
        prior = replayable.get(job.label)
        if prior is not None:
            results[i] = JobResult(
                job,
                prior["status"],
                error=prior.get("error"),
                attempts=int(prior.get("attempts", 1)),
                elapsed=float(prior.get("elapsed", 0.0)),
            )
            journal.emit("job_replayed", job=job.label, status=prior["status"])
            _finish(journal, results[i])
            return None
        # Lint, fingerprint and verification read one resolved spec:
        # one behaviour table per job in this process.
        ended: JobResult | None = None
        try:
            spec = job.resolve_spec()
            if job.options.preflight != "off":
                from ..lint import lint_spec

                report = lint_spec(spec, target=job.label)
                ended = _preflight(journal, job, report, lint_findings, i)
            if ended is None:
                fingerprint = _fingerprint(job, spec)
        except Exception as exc:  # noqa: BLE001 - spec errors are data here
            from ..protocols.dsl import DslError

            if isinstance(exc, DslError) and job.options.preflight != "off":
                # An unparsable spec file still gets its PL000 finding.
                from ..lint import lint_path

                report = lint_path(job.spec_file)
                ended = _preflight(journal, job, report, lint_findings, i)
            ended = ended or JobResult(
                job,
                JobStatus.ERROR,
                error=f"{type(exc).__name__}: {exc}",
                lint=lint_findings.get(i),
            )
        if ended is not None:  # rejected by preflight, or an error
            results[i] = ended
            journal.emit("job_start", job=job.label, fingerprint=None)
            _finish(journal, ended)
            return None
        journal.emit("job_start", job=job.label, fingerprint=fingerprint)
        fingerprints[i] = fingerprint
        if cache is not None:
            key = keys[i] = cache.key_for(fingerprint, job)
            hit = cache.get(fingerprint, job, key)
            lookups["hits" if hit is not None else "misses"] += 1
            if hit is not None:
                hit.lint = lint_findings.get(i)
                results[i] = hit
                journal.emit("cache_hit", job=job.label, key=key)
                _finish(journal, hit)
                return None
        # Cache misses that would hit a tripped breaker are refused
        # here, before any worker sees them (cache hits above are
        # served regardless -- quarantine protects workers, and a
        # replay touches none).  A half-open breaker lets the job
        # through: the runner dispatches it as the cooldown probe.
        if breaker is not None and breaker.state(fingerprint) == BreakerState.OPEN:
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
            return None
        to_run.append(i)
        return spec

    def on_result(k: int, result: JobResult) -> None:
        # Cache then journal the moment a job finishes: a batch killed
        # mid-run keeps everything finished so far, and a journaled
        # job_finish always implies the cache entry (when cacheable)
        # already landed -- which is what lets a resumed run trust the
        # journal.
        i = to_run[k]
        result.job = jobs[i]
        result.fingerprint = fingerprints[i]
        result.lint = lint_findings.get(i)
        results[i] = result
        if cache is not None:
            cache.put(fingerprints[i], jobs[i], result, keys[i])
        _finish(journal, result)

    def admitted() -> Iterator[tuple[str, VerificationJob]]:
        # The runner draws each job when it can run it and verifies the
        # spec admission resolved (a worker receives it pickled).
        for i, job in enumerate(jobs):
            with coll.span("batch.admit") if coll is not None else NOOP_SPAN:
                spec = admit(i, job)
            if spec is not None:
                yield fingerprints[i], VerificationJob(
                    spec=spec, options=job.options, label=job.label
                )

    try:
        with coll.span("batch.dispatch") if coll is not None else NOOP_SPAN:
            runner.run(
                admitted(),
                on_event=lambda event, fields: journal.emit(event, **fields),
                on_result=on_result,
                cancel=cancel,
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
        report.cache_lookup_hits = lookups["hits"]
        report.cache_lookup_misses = lookups["misses"]
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


def _preflight(
    journal: RunJournal,
    job: VerificationJob,
    report: "LintReport",
    lint_findings: dict[int, list[dict[str, Any]]],
    index: int,
) -> JobResult | None:
    """Record one job's preflight lint *report*; a result means rejection.

    Emits the ``lint`` journal event, stashes the findings for
    attachment to whatever result the job eventually produces, and --
    in ``"reject"`` mode -- returns a terminal ``rejected`` result for
    specs failing an error-severity rule.
    """
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
    summary = result.summary or {}
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
        visits=summary.get("visits"),
        expanded=summary.get("expanded"),
        essential=summary.get("essential"),
        error=result.error,
    )
