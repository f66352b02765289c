"""repro.engine -- parallel batch verification with caching and journaling.

The paper's headline claim is that symbolic expansion makes protocol
verification cheap enough to run *routinely* over whole families of
protocols.  This subsystem owns that workflow: it turns "verify many
specifications" from a for-loop in a script into a serving-shaped
engine with

* a picklable job model (:class:`VerificationJob`) and canonical spec
  fingerprints (:func:`spec_fingerprint`),
* a crash-isolated multiprocessing pool with per-job timeouts and
  bounded retries (:class:`ParallelRunner`, serial fallback included),
* a persistent content-addressed result cache (:class:`ResultCache`)
  so re-running a zoo or mutant sweep only verifies changed specs,
* a structured JSONL run journal (:class:`RunJournal`) with an
  end-of-run summary table,
* cooperative resource budgets (:class:`Budget` / :class:`Guard`) that
  degrade exhausted runs into first-class *partial* results instead of
  errors, with crash-safe incremental journaling so interrupted
  batches resume via ``run_batch(..., resume=RunJournal.read(path))``,
  and
* a deterministic fault-injection harness (:mod:`repro.engine.faults`)
  that the chaos tests use to prove all of the above under worker
  crashes, hangs, torn journals and corrupt cache entries, and
* supervised-retry policies (:mod:`repro.engine.resilience`):
  exponential backoff with deterministic jitter, a per-fingerprint
  circuit breaker that quarantines repeat offenders
  (:class:`CircuitBreaker`, ``quarantined`` results), and a graceful
  drain-cancel contract (:class:`BatchCancelled`) used by the service
  layer for clean shutdowns.

Quickstart::

    from repro.engine import VerificationJob, ResultCache, run_batch

    jobs = [VerificationJob(protocol=name) for name in ("msi", "illinois")]
    report = run_batch(jobs, workers=4, cache=ResultCache())
    print(report.summary_table())

The CLI front end is ``repro batch`` (see ``repro batch --help``), and
``repro mutants`` / the fragility sweep run on the same engine.
"""

from .batch import BatchReport, run_batch
from .cache import ResultCache, default_cache_dir
from .fingerprint import ENGINE_VERSION, job_key, spec_fingerprint
from .guard import Budget, Exhaustion, ExhaustionReason, Guard, current_rss_mb
from .job import JobResult, JobStatus, VerificationJob, execute_job, registry_jobs
from .journal import JournalFollower, RunJournal
from .resilience import BackoffPolicy, BatchCancelled, BreakerState, CircuitBreaker
from .runner import ParallelRunner, SerialRunner, make_runner

__all__ = [
    "ENGINE_VERSION",
    "BackoffPolicy",
    "BatchCancelled",
    "BatchReport",
    "BreakerState",
    "Budget",
    "CircuitBreaker",
    "Exhaustion",
    "ExhaustionReason",
    "Guard",
    "JobResult",
    "JobStatus",
    "JournalFollower",
    "ParallelRunner",
    "ResultCache",
    "RunJournal",
    "SerialRunner",
    "VerificationJob",
    "current_rss_mb",
    "default_cache_dir",
    "execute_job",
    "job_key",
    "make_runner",
    "registry_jobs",
    "run_batch",
    "spec_fingerprint",
]
