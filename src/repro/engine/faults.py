"""Deterministic fault injection for the batch engine's chaos tests.

Robustness claims ("a crashing worker cannot take down a sweep", "an
interrupted batch resumes where it stopped") are worthless untested,
and untestable with real faults -- segfaults and SIGKILLs do not strike
reproducibly.  This module makes failure a *plan*: every fault is keyed
by job index under a fixed seed, so a chaos test runs the same disaster
twice and asserts the same recovery.

Ingredients:

* :class:`Fault` / :class:`FaultPlan` -- which jobs fail and how
  (``crash`` the worker, ``hang`` until SIGKILL, run ``slow`` enough to
  trip the runner's soft-cancel);
* :class:`FaultedSpec` -- a delegating protocol wrapper that detonates
  the fault inside ``react`` **only in worker processes**: the parent
  lints and fingerprints the very same spec (its ``reaction_table``
  calls ``react`` in every present-set) without triggering it; the
  table is cached off the instance, so a worker's unpickled copy
  probes ``react`` afresh and the fault fires there;
* :func:`inject` -- apply a plan to a job list;
* :func:`corrupt_cache_entry` / :func:`tear_journal` /
  :func:`corrupt_store_file` -- storage-level faults: a flipped-bit
  cache entry, a journal whose final line was cut mid-write, and a
  campaign-store JSON file overwritten with garbage;
* :func:`choke_journal` -- service-level disk exhaustion: wrap a live
  journal's file backing so the *n*-th append raises ``ENOSPC``,
  proving the run survives on the in-memory stream;
* :class:`KillSwitchJournal` -- a journal that raises
  ``KeyboardInterrupt`` (or delivers a real signal, e.g. ``SIGTERM``)
  after *n* ``job_finish`` events, simulating an operator's Ctrl-C or
  an orchestrator's kill at a precise point in the run.

Faults with ``once=True`` detonate exactly one worker attempt and let
every later attempt through -- the shape of a transient infrastructure
failure, which supervised retries must absorb without changing the
verdict.  One-shot state must survive the detonation itself (the
worker dies with it), so it lives in marker files under the
``marker_dir`` given to :func:`inject`: the first attempt to
exclusive-create the marker wins and detonates.

Tearing an SSE connection needs no helper here: the chaos tests sever
the client socket mid-stream and reconnect with ``?offset=N``, which
the serve layer must answer byte-identically.

Worker-only detonation relies on process names: ``multiprocessing``
children are never called ``MainProcess``.  Faults therefore require a
:class:`~repro.engine.runner.ParallelRunner`; under a serial runner a
faulted spec behaves exactly like its inner spec.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.protocol import ProtocolSpec
from ..core.reactions import Ctx, Outcome
from ..core.symbols import Op
from .cache import ResultCache
from .job import VerificationJob
from .journal import RunJournal

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultedSpec",
    "inject",
    "choke_journal",
    "corrupt_cache_entry",
    "corrupt_store_file",
    "tear_journal",
    "KillSwitchJournal",
]

#: Supported fault kinds.
FAULT_KINDS = ("crash", "hang", "slow")


@dataclass(frozen=True)
class Fault:
    """One injected failure mode.

    ``crash`` kills the worker with ``os._exit`` (simulating a
    segfault or OOM-kill: no exception, no cleanup); ``hang`` spins
    forever ignoring everything except SIGKILL; ``slow`` sleeps
    ``delay`` seconds in *every* reaction, so the job runs -- and
    cooperates with soft-cancel -- but cannot finish within a tight
    timeout.

    ``once=True`` makes the fault transient: exactly one worker
    attempt detonates, every later attempt behaves like the sound
    spec.  Requires a ``marker_dir`` at :func:`inject` time so the
    "already detonated" state survives the dying worker.
    """

    kind: str
    delay: float = 0.05
    once: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, not {self.kind!r}"
            )


class FaultPlan:
    """Deterministic assignment of faults to job indices."""

    def __init__(
        self, faults: Mapping[int, Fault] | None = None, *, seed: int = 0
    ) -> None:
        self.faults = dict(faults or {})
        self.seed = seed

    @classmethod
    def random(
        cls,
        n_jobs: int,
        *,
        seed: int,
        rate: float = 0.25,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "FaultPlan":
        """A reproducible random plan: same seed, same disasters."""
        rng = random.Random(seed)
        faults = {
            i: Fault(rng.choice(list(kinds)))
            for i in range(n_jobs)
            if rng.random() < rate
        }
        return cls(faults, seed=seed)

    def fault_for(self, index: int) -> Fault | None:
        """The fault planned for job *index* (``None`` for sound jobs)."""
        return self.faults.get(index)


def _in_worker() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


class FaultedSpec(ProtocolSpec):
    """Delegating wrapper that detonates a :class:`Fault` in workers.

    Everything -- states, error patterns, reactions -- forwards to the
    inner specification, so in the parent process (fingerprinting,
    preflight, validation) the wrapper is behaviourally identical to
    its inner spec.  Inside a worker process, ``react`` triggers the
    fault instead.  The name is suffixed with the fault kind so a
    faulted spec never shares a fingerprint with its sound original.
    """

    def __init__(
        self,
        inner: ProtocolSpec,
        fault: Fault,
        marker: str | Path | None = None,
    ) -> None:
        if fault.once and marker is None:
            raise ValueError(
                "a once-only fault needs a marker path (inject with "
                "marker_dir=...) so its state survives the dying worker"
            )
        self.inner = inner
        self.fault = fault
        #: One-shot claim file: the first worker attempt to create it
        #: detonates; later attempts see it and run soundly.
        self.marker = str(marker) if marker is not None else None
        self.name = f"{inner.name}+fault-{fault.kind}"
        self.full_name = f"{inner.full_name or inner.name} (faulted: {fault.kind})"
        self.states = inner.states
        self.invalid = inner.invalid
        self.uses_sharing_detection = inner.uses_sharing_detection
        self.operations = inner.operations
        self.error_patterns = inner.error_patterns
        self.owner_states = inner.owner_states
        self.exclusive_states = inner.exclusive_states
        self.shared_fill_state = inner.shared_fill_state

    def applicable(self, state: str, op: Op) -> bool:
        return self.inner.applicable(state, op)

    def _armed(self) -> bool:
        """Should this reaction detonate?  Claims the one-shot marker."""
        if not self.fault.once:
            return True
        assert self.marker is not None
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False  # already detonated on an earlier attempt
        os.close(fd)
        return True

    def react(self, state: str, op: Op, ctx: Ctx) -> Outcome:
        if _in_worker() and self._armed():
            if self.fault.kind == "crash":
                os._exit(13)
            if self.fault.kind == "hang":
                while True:  # pragma: no cover - ended by SIGKILL
                    time.sleep(0.05)
            time.sleep(self.fault.delay)
        return self.inner.react(state, op, ctx)


def inject(
    jobs: Sequence[VerificationJob],
    plan: FaultPlan,
    *,
    marker_dir: str | Path | None = None,
) -> list[VerificationJob]:
    """Apply *plan* to a job list: planned jobs get a faulted spec.

    Labels are preserved so journals, caches and resume logic address
    the faulted jobs exactly like their sound counterparts.
    ``marker_dir`` (required when the plan contains ``once`` faults) is
    where the one-shot claim files live, one per faulted job index.
    """
    if marker_dir is not None:
        marker_dir = Path(marker_dir)
        marker_dir.mkdir(parents=True, exist_ok=True)
    out: list[VerificationJob] = []
    for i, job in enumerate(jobs):
        fault = plan.fault_for(i)
        if fault is None:
            out.append(job)
            continue
        marker = (
            marker_dir / f"fault-{plan.seed}-{i}.detonated"
            if marker_dir is not None
            else None
        )
        out.append(
            replace(
                job,
                protocol=None,
                mutant=None,
                spec_file=None,
                spec=FaultedSpec(job.resolve_spec(), fault, marker=marker),
                label=job.label,
            )
        )
    return out


def corrupt_cache_entry(
    cache: ResultCache,
    fingerprint: str,
    job: VerificationJob,
    payload: str = '{"status": "verified", "payload": [1,',
) -> Path:
    """Overwrite *job*'s cache entry with garbage; returns its path.

    The default payload is torn JSON; pass valid-JSON-wrong-shape text
    to exercise the shape checks instead of the parser.
    """
    key = cache.key_for(fingerprint, job)
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload, encoding="utf-8")
    return path


def corrupt_store_file(
    path: str | Path, payload: str = '{"state": "running", "request": [1,'
) -> Path:
    """Overwrite a campaign-store JSON file with garbage; returns it.

    Simulates a crash mid-``os.replace`` or filesystem damage in the
    service's state directory: recovery
    (:meth:`repro.serve.store.CampaignStore.load_all`) must skip the
    damaged campaign with a warning instead of refusing to start.
    """
    path = Path(path)
    path.write_text(payload, encoding="utf-8")
    return path


class _ChokingWriter:
    """File-object wrapper whose *n*-th write raises ``ENOSPC``."""

    def __init__(self, fh: Any, after: int) -> None:
        self._fh = fh
        self.after = int(after)
        self.writes = 0

    def write(self, data: str) -> int:
        if self.writes >= self.after:
            import errno

            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        self.writes += 1
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def choke_journal(journal: RunJournal, *, after: int) -> None:
    """Make *journal*'s file backing fail with ``ENOSPC`` after *n* writes.

    The journal must keep the run alive on its in-memory event stream
    (one ``RuntimeWarning``, file backing dropped) -- the service-level
    disk-full drill.  No-op for in-memory journals.
    """
    if journal._fh is not None:
        journal._fh = _ChokingWriter(journal._fh, after)  # type: ignore[assignment]


def tear_journal(path: str | Path, *, drop_bytes: int = 7) -> None:
    """Cut the final *drop_bytes* bytes off a journal file.

    Simulates a run killed mid-``write``: the last JSONL line is left
    torn, which :meth:`RunJournal.read` must skip while recovering
    every complete line before it.
    """
    path = Path(path)
    size = path.stat().st_size
    with path.open("rb+") as fh:
        fh.truncate(max(0, size - drop_bytes))


class KillSwitchJournal(RunJournal):
    """A journal that pulls the plug after *after* ``job_finish`` events.

    The interrupt fires *after* the triggering event is fully written
    and flushed -- exactly like an operator's Ctrl-C between jobs --
    and only once, so the batch orchestrator's ``run_aborted``
    handling can still journal the abort.

    By default the plug is a raised ``KeyboardInterrupt`` (Ctrl-C).
    ``signum`` delivers a real signal to this process instead (e.g.
    ``signal.SIGTERM``), exercising whatever handler the CLI installed
    -- the shape of a container orchestrator's kill.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        after: int,
        mode: str = "new",
        signum: int | None = None,
    ) -> None:
        super().__init__(path, mode=mode)
        self.after = int(after)
        self.signum = signum
        self.fired = False

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        record = super().emit(event, **fields)
        if (
            not self.fired
            and event == "job_finish"
            and self.count("job_finish") >= self.after
        ):
            self.fired = True
            if self.signum is not None:
                # The signal is delivered synchronously on this thread:
                # the interpreter runs the handler at the next bytecode
                # boundary, right after os.kill returns.
                os.kill(os.getpid(), self.signum)
            else:
                raise KeyboardInterrupt
        return record
