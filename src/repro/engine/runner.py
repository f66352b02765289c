"""Job runners: serial in-process execution and a crash-isolated pool.

:class:`SerialRunner` executes jobs one after another in the calling
process -- the zero-dependency fallback, and the fastest option for
small sweeps on small machines.

:class:`ParallelRunner` maintains a pool of persistent worker
processes, each connected to the parent by its own duplex pipe.  Jobs
are dispatched one at a time to idle workers; the parent multiplexes
completions with :func:`multiprocessing.connection.wait` and enforces
a per-job wall-clock timeout in two stages.  First a **soft cancel**:
the worker's shared cancel flag is set, which the job's guard polls
from the hot loop, so a cooperative job wraps up and returns a
*partial* result -- everything verified so far -- within a ``grace``
window.  Only when the grace window also expires is the worker
SIGKILLed and respawned.  A worker that dies mid-job (segfault,
``os._exit``, OOM-kill) is likewise detected through its closed pipe,
so one pathological specification can never take down a sweep.
Timed-out and crashed jobs are retried a bounded number of times
before being reported as ``timeout``/``crash`` results; deterministic
in-job exceptions are *not* retried (they are folded into ``error``
results by :func:`~repro.engine.job.execute_job` inside the worker),
and a partial result delivered during the grace window is terminal --
re-running it against the same budgets would only exhaust them again.

Retries are *supervised* (see :mod:`repro.engine.resilience`): an
optional :class:`~repro.engine.resilience.BackoffPolicy` delays each
retry with deterministic seeded jitter instead of redispatching
immediately (the ``job_retry`` event records the ``delay``), and an
optional :class:`~repro.engine.resilience.CircuitBreaker` -- keyed by
the per-job ``keys`` the batch orchestrator supplies, i.e. spec
fingerprints -- quarantines specs that keep crashing or hanging:
once the breaker trips, the job is finalized with a structured
``quarantined`` result (``breaker_open`` event) instead of burning
further worker respawns.

Both runners also accept an external ``cancel`` flag for graceful
drain: when it is set, no further jobs are dispatched, every in-flight
job is soft-cancelled through the same Guard path as a timeout (its
partial result is journaled; jobs that ignore the soft-cancel are
SIGKILLed after the grace window and left unfinished), and the runner
raises :class:`~repro.engine.resilience.BatchCancelled` so the batch
orchestrator can flush a resumable ``run_aborted`` journal.

Results are always returned in input order, so serial and parallel
execution of the same job list are interchangeable.  The optional
``on_result`` callback fires the moment each job reaches its terminal
result (in completion order, not input order): the batch orchestrator
uses it to journal and cache incrementally, which is what makes an
interrupted batch resumable.

All timing (deadlines, per-job elapsed, queue wait) goes through
:mod:`repro.obs.clock`, the same clock as the rest of the engine, so
runner timings are directly comparable with journal and profile data.
When a :mod:`repro.obs` collector is active, both runners record one
``engine.job`` span per dispatch attempt plus queue-wait / busy-time
metrics; with no collector the instrumentation reduces to a single
``None`` check.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..obs.collector import active as _active_collector
from ..obs import clock
from .job import JobResult, JobStatus, VerificationJob, execute_job
from .resilience import BackoffPolicy, BatchCancelled, BreakerState, CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.process
    from multiprocessing.connection import Connection

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

#: How long the parent blocks waiting for completions before checking
#: deadlines again (seconds).
_TICK = 0.05


class SerialRunner:
    """Execute jobs sequentially in the calling process.

    It has no timeouts and no retries: both need process isolation to be
    enforceable, so use :class:`ParallelRunner` (even with one worker)
    when runaway specifications are a concern.
    """

    def run(
        self,
        jobs: Iterable[VerificationJob],
        on_event: EventSink | None = None,
        on_result: ResultSink | None = None,
        *,
        keys: Sequence[str] | None = None,
        cancel: CancelFlag | None = None,
    ) -> list[JobResult]:
        """Run every job, drawn one at a time; results are in input order.

        ``keys`` is accepted for interface parity with
        :class:`ParallelRunner` but unused: breaker supervision guards
        against crashes and hangs, which need process isolation to
        survive in the first place (in-process failures are already
        folded into deterministic ``error`` results).  ``cancel`` is
        the graceful-drain flag: when another thread sets it, the job
        in flight wraps up with a partial result through its guard and
        :class:`~repro.engine.resilience.BatchCancelled` is raised
        before the next dispatch.
        """
        del keys
        coll = _active_collector()
        run_started = clock.monotonic()
        if coll is not None:
            coll.gauge("engine.workers", 1)
        results = []
        for index, job in enumerate(jobs):
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


def _worker_main(conn: Connection, cancel: Any = None) -> None:
    """Worker loop: receive ``(token, job)``, send ``(token, result)``
    with the result's payload as its canonical JSON bytes.

    ``cancel`` is the slot's shared soft-cancel event: cleared before
    each job (it may still be set from a previous grace window) and
    handed to the job's guard, which polls it from the hot loop.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            conn.close()
            return
        token, job = task
        if cancel is not None:
            cancel.clear()
        result = execute_job(job, cancel=cancel)
        if result.payload is not None:
            # Encode here, in parallel, rather than pickle the dict: the
            # parent hashes and caches these bytes as they are.
            result.payload = b"".join(result.payload_chunks())
        try:
            conn.send((token, result))
        except (BrokenPipeError, OSError):
            return


class _Slot:
    """One worker process and its dispatch state."""

    __slots__ = (
        "proc",
        "conn",
        "cancel",
        "token",
        "index",
        "attempt",
        "started",
        "cancelled_at",
    )

    def __init__(
        self,
        proc: multiprocessing.process.BaseProcess,
        conn: Connection,
        cancel: Any = None,
    ):
        self.proc = proc
        self.conn = conn
        self.cancel = cancel
        self.token: int | None = None  # None <=> idle
        self.index = -1
        self.attempt = 0
        self.started = 0.0
        #: When the soft-cancel was requested (``None`` <=> not yet).
        self.cancelled_at: float | None = None


class ParallelRunner:
    """Crash-isolated multiprocessing worker pool with per-job timeouts."""

    def __init__(
        self,
        *,
        workers: int | None = None,
        timeout: float | None = None,
        retries: int = 1,
        grace: float = 1.0,
        backoff: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        # Imported here, not at module level: a serial batch never
        # loads multiprocessing (or the pickle and socket modules it
        # pulls in).
        import multiprocessing
        import os

        self.workers = max(1, int(workers or (os.cpu_count() or 1)))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        #: Soft-cancel grace window (seconds): how long a timed-out
        #: worker gets to emit its partial result before SIGKILL.
        self.grace = max(0.0, float(grace))
        #: Retry backoff policy (``None`` retries immediately, the
        #: pre-supervision behavior).
        self.backoff = backoff
        #: Per-key circuit breaker (``None`` disables quarantining).
        #: Shared across runs when the caller keeps the runner around.
        self.breaker = breaker
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform: its default
            self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------------------
    def _spawn(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        cancel = self._ctx.Event()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, cancel), daemon=True
        )
        proc.start()
        child_conn.close()  # the parent keeps only its end
        return _Slot(proc, parent_conn, cancel)

    def _retire(self, slot: _Slot) -> None:
        """Forcefully tear down a worker (timeout or crash path)."""
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.proc.is_alive():
            slot.proc.terminate()
        slot.proc.join(1.0)
        if slot.proc.is_alive():  # pragma: no cover - stubborn process
            slot.proc.kill()
            slot.proc.join(1.0)

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[VerificationJob],
        on_event: EventSink | None = None,
        on_result: ResultSink | None = None,
        *,
        keys: Sequence[str] | None = None,
        cancel: CancelFlag | None = None,
    ) -> list[JobResult]:
        """Run every job across the pool; results are in input order.

        ``keys`` aligns with ``jobs`` and names each job for breaker
        supervision and backoff jitter (the batch orchestrator passes
        spec fingerprints; job labels are the fallback).  ``cancel`` is
        the graceful-drain flag: once set, dispatch stops, in-flight
        jobs are soft-cancelled (partials journaled, hung workers
        SIGKILLed after the grace window and left unfinished) and
        :class:`~repro.engine.resilience.BatchCancelled` is raised.
        """
        jobs = list(jobs)
        if keys is not None and len(keys) != len(jobs):
            raise ValueError(
                f"keys length {len(keys)} does not match {len(jobs)} jobs"
            )
        if not jobs:
            return []
        from multiprocessing.connection import wait as connection_wait

        coll = _active_collector()
        run_started = clock.monotonic()
        if coll is not None:
            coll.gauge("engine.workers", self.workers)

        def emit(event: str, **fields: Any) -> None:
            if on_event is not None:
                on_event(event, fields)

        def record_job(slot: _Slot, status: str) -> None:
            """Observability record for one finished dispatch attempt."""
            if coll is None:
                return
            ended = clock.monotonic()
            coll.add_span(
                "engine.job",
                slot.started,
                ended=ended,
                job=jobs[slot.index].label,
                attempt=slot.attempt,
                status=status,
            )
            coll.observe("engine.job.elapsed", ended - slot.started)
            coll.count("engine.worker.busy_seconds", ended - slot.started)

        results: list[JobResult | None] = [None] * len(jobs)
        pending: deque[tuple[int, int]] = deque(
            (i, 1) for i in range(len(jobs))
        )  # (job index, attempt number)
        #: Retries waiting out their backoff: (ready at, index, attempt).
        delayed: list[tuple[float, int, int]] = []
        draining = False
        tokens = itertools.count()
        slots = [self._spawn() for _ in range(min(self.workers, len(jobs)))]

        def key_for(index: int) -> str:
            return keys[index] if keys is not None else jobs[index].label

        def finalize(index: int, result: JobResult) -> None:
            """Record a terminal result and notify the result sink."""
            results[index] = result
            if on_result is not None:
                on_result(index, result)

        def fail_or_retry(slot: _Slot, status: str, error: str) -> None:
            """Requeue, quarantine or finalize a job after timeout/crash."""
            reason = "timeout" if status == JobStatus.TIMEOUT else "crash"
            record_job(slot, status)
            index, attempt = slot.index, slot.attempt
            key = key_for(index)
            transition = None
            if self.breaker is not None:
                transition = self.breaker.record_failure(key)
            if draining:
                # Leave the job unfinished: the drain ends with
                # BatchCancelled, so a resumed run re-dispatches it.
                pass
            elif (
                self.breaker is not None
                and self.breaker.state(key) == BreakerState.OPEN
            ):
                emit(
                    "breaker_open",
                    job=jobs[index].label,
                    key=key,
                    reason=reason,
                    transition=transition or "open",
                    cooldown=self.breaker.cooldown,
                )
                finalize(
                    index,
                    JobResult(
                        jobs[index],
                        JobStatus.QUARANTINED,
                        error=(
                            f"circuit breaker opened after repeated {reason} "
                            f"(last: {error})"
                        ),
                        attempts=attempt,
                        elapsed=clock.monotonic() - slot.started,
                    ),
                )
            elif attempt <= self.retries:
                delay = 0.0
                if self.backoff is not None:
                    delay = self.backoff.delay(key, attempt + 1)
                    if coll is not None:
                        coll.observe("engine.retry.backoff", delay)
                emit(
                    "job_retry",
                    job=jobs[index].label,
                    attempt=attempt,
                    reason=reason,
                    delay=round(delay, 6),
                )
                if delay > 0:
                    delayed.append((clock.monotonic() + delay, index, attempt + 1))
                else:
                    pending.append((index, attempt + 1))
            else:
                finalize(
                    index,
                    JobResult(
                        jobs[index],
                        status,
                        error=error,
                        attempts=attempt,
                        elapsed=clock.monotonic() - slot.started,
                    ),
                )
            self._retire(slot)
            if draining:
                slots.remove(slot)
            else:
                slots[slots.index(slot)] = self._spawn()

        try:
            while pending or delayed or any(s.token is not None for s in slots):
                if cancel is not None and not draining and cancel.is_set():
                    # Graceful drain: stop dispatching, ask every
                    # in-flight job to wrap up through the same
                    # soft-cancel path as a timeout.
                    draining = True
                    pending.clear()
                    delayed.clear()
                    now = clock.monotonic()
                    for slot in slots:
                        if slot.token is not None and slot.cancelled_at is None:
                            slot.cancel.set()
                            slot.cancelled_at = now
                            emit(
                                "job_cancel",
                                job=jobs[slot.index].label,
                                attempt=slot.attempt,
                                reason="drain",
                                grace=self.grace,
                            )

                if delayed:
                    # Promote retries whose backoff has elapsed.
                    now = clock.monotonic()
                    due = sorted(d for d in delayed if d[0] <= now)
                    if due:
                        delayed = [d for d in delayed if d[0] > now]
                        pending.extend((i, a) for _, i, a in due)

                for slot in list(slots):
                    while slot.token is None and pending:
                        index, attempt = pending.popleft()
                        key = key_for(index)
                        if self.breaker is not None and not self.breaker.allow(
                            key
                        ):
                            # The breaker tripped while this job (or its
                            # retry) sat in the queue; quarantine it
                            # without burning a worker.
                            emit(
                                "breaker_open",
                                job=jobs[index].label,
                                key=key,
                                reason="open",
                                transition="open",
                                cooldown=self.breaker.cooldown,
                            )
                            finalize(
                                index,
                                JobResult(
                                    jobs[index],
                                    JobStatus.QUARANTINED,
                                    error=(
                                        "circuit breaker open for this spec "
                                        "fingerprint"
                                    ),
                                    attempts=max(0, attempt - 1),
                                ),
                            )
                            continue
                        slot.token = next(tokens)
                        slot.index = index
                        slot.attempt = attempt
                        slot.started = clock.monotonic()
                        if coll is not None:
                            coll.observe(
                                "engine.queue.wait", slot.started - run_started
                            )
                        try:
                            slot.conn.send((slot.token, jobs[index]))
                        except (BrokenPipeError, OSError):
                            # The worker died between jobs; replace it and
                            # put the task back without burning an attempt.
                            pending.appendleft((index, attempt))
                            slot.token = None
                            self._retire(slot)
                            slots[slots.index(slot)] = self._spawn()
                        break

                busy = [s for s in slots if s.token is not None]
                if not busy:
                    if delayed:
                        # Nothing in flight; sleep until the next retry
                        # is due (bounded by the usual tick).
                        next_due = min(d[0] for d in delayed)
                        time.sleep(
                            max(0.0, min(_TICK, next_due - clock.monotonic()))
                        )
                    continue
                for conn in connection_wait(
                    [s.conn for s in busy], timeout=_TICK
                ):
                    slot = next(s for s in busy if s.conn is conn)
                    try:
                        token, result = conn.recv()
                    except (EOFError, OSError):
                        exitcode = slot.proc.exitcode
                        emit(
                            "job_crash",
                            job=jobs[slot.index].label,
                            attempt=slot.attempt,
                            exitcode=exitcode,
                        )
                        fail_or_retry(
                            slot,
                            JobStatus.CRASH,
                            f"worker died (exit code {exitcode})",
                        )
                        continue
                    if token != slot.token:  # pragma: no cover - stale echo
                        continue
                    record_job(slot, result.status)
                    if self.breaker is not None:
                        # Any delivered result -- even an in-job error --
                        # means the worker survived; only crashes and
                        # hangs count against the breaker.
                        self.breaker.record_success(key_for(slot.index))
                    result.attempts = slot.attempt
                    if result.partial:
                        # Terminal, whether the budget was the job's own
                        # or the soft-cancel: retrying against the same
                        # budgets would only exhaust them again.
                        emit(
                            "job_partial",
                            job=jobs[slot.index].label,
                            reason=result.exhausted_reason,
                            attempt=slot.attempt,
                        )
                    finalize(slot.index, result)
                    slot.token = None
                    slot.cancelled_at = None

                now = clock.monotonic()
                for slot in list(slots):
                    if slot.token is None:
                        continue
                    if (
                        self.timeout is not None
                        and slot.cancelled_at is None
                        and now - slot.started > self.timeout
                    ):
                        # Stage one: ask nicely.  The worker's guard
                        # polls the cancel flag and, if the job
                        # cooperates, sends back a partial result
                        # within the grace window.
                        slot.cancel.set()
                        slot.cancelled_at = now
                        emit(
                            "job_cancel",
                            job=jobs[slot.index].label,
                            attempt=slot.attempt,
                            timeout=self.timeout,
                            grace=self.grace,
                        )
                    elif (
                        slot.cancelled_at is not None
                        and now - slot.cancelled_at > self.grace
                    ):
                        # Stage two: the job ignored the soft-cancel
                        # (hung in native code, spinning in react());
                        # SIGKILL the worker and retry or report.  The
                        # same window bounds a drain, which is how the
                        # drain deadline stays `grace` even for jobs
                        # with no per-job timeout.
                        emit(
                            "job_timeout",
                            job=jobs[slot.index].label,
                            attempt=slot.attempt,
                            timeout=self.timeout,
                        )
                        fail_or_retry(
                            slot,
                            JobStatus.TIMEOUT,
                            (
                                f"exceeded {self.timeout:g}s wall-clock budget"
                                if self.timeout is not None
                                else "ignored the drain soft-cancel"
                            ),
                        )
        finally:
            for slot in slots:
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                slot.proc.join(0.5)
                self._retire(slot)

        if draining:
            raise BatchCancelled(
                finished=sum(1 for r in results if r is not None)
            )
        assert all(r is not None for r in results)
        return [r for r in results if r is not None]


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
    """
    if workers <= 1 and timeout is None:
        return SerialRunner()
    kwargs: dict[str, Any] = {
        "workers": workers,
        "timeout": timeout,
        "retries": retries,
        "backoff": backoff,
        "breaker": breaker,
    }
    if grace is not None:
        kwargs["grace"] = grace
    return ParallelRunner(**kwargs)
