"""The crash-isolated worker pool (see :mod:`repro.engine.runner`).

:class:`ParallelRunner` maintains a pool of persistent worker
processes, each connected to the parent by its own duplex pipe and
spawned when a drawn job needs it.  A job is drawn when a worker is
idle and no retry is due.  The parent multiplexes completions
with :func:`multiprocessing.connection.wait` and enforces a per-job
wall-clock timeout in two stages.  First a **soft cancel**:
the worker's shared cancel flag is set, which the job's guard polls
from the hot loop, so a cooperative job wraps up and returns a
*partial* result -- everything verified so far -- within a ``grace``
window.  Only when the grace window also expires is the worker
SIGKILLed (the next job drawn gets a fresh one).  A worker that dies
mid-job (segfault, ``os._exit``, OOM-kill) is likewise detected
through its closed pipe, so one pathological specification can never
take down a sweep.
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
optional :class:`~repro.engine.resilience.CircuitBreaker`, keyed by
``key``, quarantines specs that keep crashing or hanging: once the
breaker trips, the job is finalized with a structured ``quarantined``
result (``breaker_open`` event) instead of burning further worker
respawns.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Any, Iterable

from ..obs.collector import active as _active_collector
from ..obs import clock
from .job import JobResult, JobStatus, VerificationJob, execute_job
from .resilience import BackoffPolicy, BatchCancelled, BreakerState, CircuitBreaker
from .runner import CancelFlag, EventSink, ResultSink, _check_limits

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.process
    from multiprocessing.connection import Connection

__all__ = ["ParallelRunner"]

#: How long the parent blocks waiting for completions before checking
#: deadlines again (seconds).
_TICK = 0.05


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
        workers: int,
        timeout: float | None = None,
        retries: int = 1,
        grace: float = 1.0,
        backoff: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        _check_limits(workers, timeout, retries, grace)
        # Imported here, not at module level: a serial batch never
        # loads multiprocessing (or the pickle and socket modules it
        # pulls in).
        import multiprocessing

        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        #: Soft-cancel grace window (seconds): how long a timed-out
        #: worker gets to emit its partial result before SIGKILL.
        self.grace = grace
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
        jobs: Iterable[tuple[str, VerificationJob]],
        on_event: EventSink | None = None,
        on_result: ResultSink | None = None,
        *,
        cancel: CancelFlag | None = None,
    ) -> list[JobResult]:
        """Run every ``(key, job)`` across the pool; results are in input
        order.

        A job is drawn when a worker is idle (or may still be spawned)
        and no retry is due.  ``cancel`` is the graceful-drain flag:
        once set, drawing stops, in-flight jobs are soft-cancelled
        (partials journaled, hung workers SIGKILLed after the grace
        window and left unfinished) and
        :class:`~repro.engine.resilience.BatchCancelled` is raised.
        """
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
                job=unfinished[slot.index][1].label,
                attempt=slot.attempt,
                status=status,
            )
            coll.observe("engine.job.elapsed", ended - slot.started)
            coll.count("engine.worker.busy_seconds", ended - slot.started)

        stream = iter(jobs)
        #: Results by input index, and the ``(key, job)`` of each drawn
        #: job until it has one (a finished job's spec is not kept).
        results: list[JobResult | None] = []
        unfinished: dict[int, tuple[str, VerificationJob]] = {}
        #: Retries to dispatch: (due at, job index, attempt number).
        retries: list[tuple[float, int, int]] = []
        exhausted = draining = False
        tokens = itertools.count()
        slots: list[_Slot] = []

        def next_task() -> tuple[int, int] | None:
            """The earliest due retry, else the next job drawn from *jobs*."""
            nonlocal exhausted
            due = min(retries, default=None)
            if due is not None and due[0] <= clock.monotonic():
                retries.remove(due)
                return due[1], due[2]
            if exhausted or draining:
                return None
            item = next(stream, None)
            if item is None:
                exhausted = True
                return None
            unfinished[len(results)] = item
            results.append(None)
            return len(results) - 1, 1

        def finalize(index: int, result: JobResult) -> None:
            """Record a terminal result and notify the result sink."""
            results[index] = result
            del unfinished[index]
            if on_result is not None:
                on_result(index, result)

        def quarantine(
            index: int, error: str, attempts: int, elapsed: float = 0.0, **fields: Any
        ) -> None:
            """Finalize a job the open breaker refuses (``breaker_open``)."""
            key, job = unfinished[index]
            emit(
                "breaker_open",
                job=job.label,
                key=key,
                cooldown=self.breaker.cooldown,
                **fields,
            )
            finalize(
                index,
                JobResult(
                    job,
                    JobStatus.QUARANTINED,
                    error=error,
                    attempts=attempts,
                    elapsed=elapsed,
                ),
            )

        def fail_or_retry(slot: _Slot, status: str, error: str) -> None:
            """Requeue, quarantine or finalize a job after timeout/crash."""
            reason = "timeout" if status == JobStatus.TIMEOUT else "crash"
            record_job(slot, status)
            index, attempt = slot.index, slot.attempt
            key, job = unfinished[index]
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
                quarantine(
                    index,
                    f"circuit breaker opened after repeated {reason} (last: {error})",
                    attempt,
                    clock.monotonic() - slot.started,
                    reason=reason,
                    transition=transition or "open",
                )
            elif attempt <= self.retries:
                delay = 0.0
                if self.backoff is not None:
                    delay = self.backoff.delay(key, attempt + 1)
                    if coll is not None:
                        coll.observe("engine.retry.backoff", delay)
                emit(
                    "job_retry",
                    job=job.label,
                    attempt=attempt,
                    reason=reason,
                    delay=round(delay, 6),
                )
                retries.append((clock.monotonic() + delay, index, attempt + 1))
            else:
                finalize(
                    index,
                    JobResult(
                        job,
                        status,
                        error=error,
                        attempts=attempt,
                        elapsed=clock.monotonic() - slot.started,
                    ),
                )
            # The next job drawn spawns a fresh worker in its place.
            self._retire(slot)
            slots.remove(slot)

        try:
            while (
                retries
                or not (exhausted or draining)
                or any(s.token is not None for s in slots)
            ):
                if cancel is not None and not draining and cancel.is_set():
                    # Graceful drain: stop drawing, ask every in-flight
                    # job to wrap up through the same soft-cancel path
                    # as a timeout.
                    draining = True
                    retries.clear()
                    now = clock.monotonic()
                    for slot in slots:
                        if slot.token is not None and slot.cancelled_at is None:
                            slot.cancel.set()
                            slot.cancelled_at = now
                            emit(
                                "job_cancel",
                                job=unfinished[slot.index][1].label,
                                attempt=slot.attempt,
                                reason="drain",
                                grace=self.grace,
                            )

                while True:
                    slot = next((s for s in slots if s.token is None), None)
                    if slot is None and len(slots) == self.workers:
                        break
                    task = next_task()
                    if task is None:
                        break
                    index, attempt = task
                    key, job = unfinished[index]
                    if self.breaker is not None and not self.breaker.allow(key):
                        # The breaker tripped since this job (or its
                        # retry) was queued; quarantine it without
                        # burning a worker.
                        quarantine(
                            index,
                            "circuit breaker open for this spec fingerprint",
                            max(0, attempt - 1),
                            reason="open",
                            transition="open",
                        )
                        continue
                    if slot is None:
                        slot = self._spawn()
                        slots.append(slot)
                    slot.token = next(tokens)
                    slot.index = index
                    slot.attempt = attempt
                    slot.started = clock.monotonic()
                    if coll is not None:
                        coll.observe(
                            "engine.queue.wait", slot.started - run_started
                        )
                    try:
                        slot.conn.send((slot.token, job))
                    except (BrokenPipeError, OSError):
                        # The worker died between jobs; retire it and
                        # put the task back without burning an attempt.
                        retries.append((0.0, index, attempt))
                        self._retire(slot)
                        slots.remove(slot)

                busy = [s for s in slots if s.token is not None]
                if not busy:
                    if retries:
                        # Nothing in flight; sleep until the next retry
                        # is due (bounded by the usual tick).
                        next_due = min(retries)[0]
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
                            job=unfinished[slot.index][1].label,
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
                        self.breaker.record_success(unfinished[slot.index][0])
                    result.attempts = slot.attempt
                    if result.partial:
                        # Terminal, whether the budget was the job's own
                        # or the soft-cancel: retrying against the same
                        # budgets would only exhaust them again.
                        emit(
                            "job_partial",
                            job=unfinished[slot.index][1].label,
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
                    label = unfinished[slot.index][1].label
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
                            job=label,
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
                            job=label,
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

        finished = [r for r in results if r is not None]
        if draining:
            raise BatchCancelled(finished=len(finished))
        assert len(finished) == len(results)
        return finished
