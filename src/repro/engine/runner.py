"""Job runners: serial in-process execution and a crash-isolated pool.

Both runners take one iterable of ``(key, job)`` pairs and draw from
it lazily: :func:`~repro.engine.batch.run_batch` admits each job as it
is drawn, and the job carries the spec admission resolved (a worker
receives it pickled).  ``key``, the spec fingerprint, names the job
for breaker supervision and backoff jitter.

:class:`SerialRunner` executes jobs one after another in the calling
process -- the zero-dependency fallback, and the fastest option for
small sweeps on small machines.

:class:`ParallelRunner` (in :mod:`repro.engine.pool`, loaded only
when :func:`make_runner` builds one) keeps a crash-isolated pool of
worker processes with per-job timeouts and supervised retries.

Both runners also accept an external ``cancel`` flag for graceful
drain: when it is set, no further jobs are drawn, every in-flight
job is soft-cancelled through the same Guard path as a timeout (its
partial result is journaled; jobs that ignore the soft-cancel are
SIGKILLed after the grace window and left unfinished), and the runner
raises :class:`~repro.engine.resilience.BatchCancelled` so the batch
orchestrator can flush a resumable ``run_aborted`` journal.

Results are always returned in input order, so serial and parallel
execution of the same job list are interchangeable; ``on_result``
fires as each job finishes, so the batch orchestrator can journal and
cache incrementally, which is what makes an interrupted batch resumable.

All timing (deadlines, per-job elapsed, queue wait) goes through
:mod:`repro.obs.clock`, the same clock as the rest of the engine, so
runner timings are directly comparable with journal and profile data.
When a :mod:`repro.obs` collector is active, both runners record one
``engine.job`` span per dispatch attempt plus queue-wait / busy-time
metrics; with no collector the instrumentation reduces to a single
``None`` check.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..obs.collector import active as _active_collector
from ..obs import clock
from .job import JobResult, VerificationJob, execute_job
from .resilience import BackoffPolicy, BatchCancelled, CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import ParallelRunner

__all__ = ["SerialRunner", "ParallelRunner", "make_runner"]

#: Minimal duck type for the external drain flag: anything with
#: ``is_set()`` works (``threading.Event``, ``multiprocessing.Event``).
CancelFlag = Any

#: Signature of the optional event sink (job_retry / job_cancel /
#: job_timeout / job_crash / job_partial notifications, forwarded to
#: the run journal by the batch orchestrator).
EventSink = Callable[[str, dict[str, Any]], None]

#: Signature of the optional per-result sink: called with ``(input
#: index, result)`` the moment a job reaches its terminal result.
ResultSink = Callable[[int, "JobResult"], None]


def __getattr__(name: str) -> Any:
    """PEP 562: :class:`~repro.engine.pool.ParallelRunner` stays
    importable from here, where profiling harnesses wrap it by name,
    but loads only on first access -- a serial batch never runs it."""
    if name != "ParallelRunner":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .pool import ParallelRunner

    globals()["ParallelRunner"] = ParallelRunner
    return ParallelRunner


class SerialRunner:
    """Execute jobs sequentially in the calling process.

    It has no timeouts and no retries: both need process isolation to be
    enforceable, so use :class:`ParallelRunner` (even with one worker)
    when runaway specifications are a concern.
    """

    #: Jobs in flight at once (journaled as ``run_start.workers``).
    workers = 1

    def run(
        self,
        jobs: Iterable[tuple[str, VerificationJob]],
        on_event: EventSink | None = None,
        on_result: ResultSink | None = None,
        *,
        cancel: CancelFlag | None = None,
    ) -> list[JobResult]:
        """Run every ``(key, job)``, drawn when the previous job has
        finished; results are in input order.

        ``key`` is unused: the breaker guards against crashes and
        hangs, which only process isolation survives.  ``cancel`` is
        the graceful-drain flag: when another thread sets it, the job
        in flight wraps up with a partial result through its guard and
        :class:`~repro.engine.resilience.BatchCancelled` is raised.
        """
        coll = _active_collector()
        run_started = clock.monotonic()
        if coll is not None:
            coll.gauge("engine.workers", 1)
        results = []
        for index, (_, job) in enumerate(jobs):
            if cancel is not None and cancel.is_set():
                raise BatchCancelled(finished=len(results))
            started = clock.monotonic()
            if coll is not None:
                coll.observe("engine.queue.wait", started - run_started)
            result = execute_job(job, cancel=cancel)
            ended = clock.monotonic()
            if coll is not None:
                coll.add_span(
                    "engine.job",
                    started,
                    ended=ended,
                    job=job.label,
                    status=result.status,
                )
                coll.observe("engine.job.elapsed", ended - started)
                coll.count("engine.worker.busy_seconds", ended - started)
            if result.partial and on_event is not None:
                on_event(
                    "job_partial",
                    {
                        "job": job.label,
                        "reason": result.exhausted_reason,
                        "attempt": 1,
                    },
                )
            results.append(result)
            if on_result is not None:
                on_result(index, result)
            if (
                cancel is not None
                and cancel.is_set()
                and result.partial
                and result.exhausted_reason == "cancelled"
            ):
                # The drain flag cut this job short; its partial is
                # journaled (so nothing is lost) but never cached, so a
                # resumed run re-verifies it with full budgets.
                raise BatchCancelled(finished=len(results) - 1)
        return results


def _check_limits(
    workers: int, timeout: float | None, retries: int, grace: float | None
) -> None:
    """Refuse runner settings no run can honour (``ValueError``)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be positive and finite, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if grace is not None and not 0 <= grace < math.inf:
        raise ValueError(f"grace must be >= 0 and finite, got {grace}")


def make_runner(
    *,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    grace: float | None = None,
    backoff: BackoffPolicy | None = None,
    breaker: CircuitBreaker | None = None,
) -> SerialRunner | ParallelRunner:
    """The right runner for the requested parallelism.

    One worker and no timeout stays in-process (serial fallback); more
    workers -- or any timeout, which needs process isolation to be
    enforceable -- builds a :class:`ParallelRunner`.  ``grace`` is the
    soft-cancel window granted to timed-out workers, ``backoff`` /
    ``breaker`` the retry-supervision policies (all parallel only:
    crashes and hangs cannot survive without process isolation, so the
    serial runner has nothing to back off from or quarantine).
    Out-of-range settings raise ``ValueError`` whichever runner they
    would build.
    """
    _check_limits(workers, timeout, retries, grace)
    if workers == 1 and timeout is None:
        return SerialRunner()
    from .pool import ParallelRunner

    return ParallelRunner(
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        breaker=breaker,
        **({} if grace is None else {"grace": grace}),
    )
