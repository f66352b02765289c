"""Supervised-retry policies: backoff, circuit breaking, drain cancel.

PR 4 made single failures survivable (crash isolation, bounded
retries, soft-cancel); this module makes *repeated* failure cheap and
*systemic* shutdown clean, which is what separates a batch tool from a
long-running service:

* :class:`BackoffPolicy` -- exponential backoff with **deterministic
  seeded jitter** for retry scheduling.  Immediate retries turn one
  pathological spec into a fork bomb (crash, respawn, crash...); jitter
  keeps a fleet of retries from synchronizing.  Determinism matters
  here the same way it does in :mod:`repro.engine.faults`: a chaos test
  must observe the same delays twice, so the jitter is a pure function
  of ``(seed, key, attempt)``, never of global randomness.

* :class:`CircuitBreaker` -- per-spec-fingerprint supervision.  A spec
  that keeps crashing or hanging its workers is *quarantined*: the
  breaker trips open after ``threshold`` consecutive failures, further
  admissions of that fingerprint are refused with a structured
  terminal result (``JobStatus.QUARANTINED``) instead of burning
  worker respawns, and after ``cooldown`` seconds the breaker
  half-opens to let exactly one probe back through -- success closes
  it, failure re-opens it.  Keying on the *behavioral fingerprint*
  (not the label) means a spec quarantined under one name stays
  quarantined under every alias, across campaigns sharing the breaker.

* :class:`BatchCancelled` -- the structured "stop now, keep
  everything" signal used by graceful drain: a runner that observes an
  external cancel flag soft-cancels its in-flight jobs through the
  existing Guard path, stops dispatching, and raises this instead of
  returning, so :func:`~repro.engine.batch.run_batch` can flush a
  resumable ``run_aborted`` journal exactly as it does for SIGINT.

All timing goes through :mod:`repro.obs.clock` (injectable for
deterministic tests); breaker transitions are metered under
``engine.breaker.*`` and backoff delays under ``engine.retry.backoff``
(see the :data:`repro.obs.metrics.CATALOG`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from ..obs.collector import active as _active_collector
from ..obs import clock

__all__ = [
    "BackoffPolicy",
    "BatchCancelled",
    "BreakerState",
    "CircuitBreaker",
]


class BatchCancelled(Exception):
    """A run was stopped by an external cancel flag (graceful drain).

    Raised by the runners once every in-flight job has been
    soft-cancelled and collected; ``finished`` says how many jobs
    reached a terminal result before the drain.  The batch
    orchestrator turns it into a ``run_aborted`` journal event and
    re-raises, so callers (the campaign service's drain path) see the
    same resumable-journal contract as a SIGINT.
    """

    def __init__(self, finished: int = 0) -> None:
        super().__init__(f"batch cancelled after {finished} finished jobs")
        self.finished = finished


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential retry backoff with deterministic seeded jitter.

    The delay before retry attempt ``attempt`` (2 = first retry) is::

        base * factor**(attempt - 2)    capped at max_delay

    then jittered by up to ``+-jitter`` (a fraction) using a hash of
    ``(seed, key, attempt)`` -- a pure function, so two runs of the
    same plan back off identically while distinct jobs (distinct
    keys) desynchronize.
    """

    base: float = 0.1
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"backoff base must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before dispatching retry *attempt* of *key*."""
        if self.base == 0:
            return 0.0
        raw = min(self.max_delay, self.base * self.factor ** max(0, attempt - 2))
        if self.jitter == 0:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        # 8 bytes of hash -> a uniform fraction in [0, 1).
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 + self.jitter * (2.0 * fraction - 1.0))


class BreakerState:
    """Lifecycle of one breaker entry (plain strings, JSON-friendly)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class _Entry:
    __slots__ = ("failures", "state", "opened_at", "probing")

    def __init__(self) -> None:
        self.failures = 0
        self.state = BreakerState.CLOSED
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Per-key failure supervision with open/half-open/closed states.

    Keys are spec fingerprints (any string works).  ``threshold``
    consecutive failures trip the key open; after ``cooldown`` seconds
    the next :meth:`allow` admits exactly one half-open probe, whose
    outcome (:meth:`record_success` / :meth:`record_failure`) closes
    or re-opens the breaker.  ``now`` is injectable so chaos tests can
    drive the cooldown deterministically.
    """

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 30.0,
        now: Callable[[], float] = clock.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"breaker cooldown must be > 0, got {cooldown}")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.now = now
        self._entries: dict[str, _Entry] = {}

    # ------------------------------------------------------------------
    def _entry(self, key: str) -> _Entry:
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
        return entry

    def state(self, key: str) -> str:
        """The key's current state, applying any due cooldown expiry."""
        entry = self._entries.get(key)
        if entry is None:
            return BreakerState.CLOSED
        if (
            entry.state == BreakerState.OPEN
            and self.now() - entry.opened_at >= self.cooldown
        ):
            entry.state = BreakerState.HALF_OPEN
            entry.probing = False
            coll = _active_collector()
            if coll is not None:
                coll.count("engine.breaker.half_open")
        return entry.state

    def retry_after(self, key: str) -> float:
        """Seconds until an open key half-opens (0 when admissible)."""
        entry = self._entries.get(key)
        if entry is None or entry.state != BreakerState.OPEN:
            return 0.0
        return max(0.0, self.cooldown - (self.now() - entry.opened_at))

    def allow(self, key: str) -> bool:
        """May a job with this key be dispatched right now?

        Closed keys always pass.  Open keys are refused until the
        cooldown expires; the first ``allow`` after expiry admits the
        half-open probe, and further calls are refused until the
        probe's outcome is recorded.
        """
        state = self.state(key)
        if state == BreakerState.CLOSED:
            return True
        if state == BreakerState.OPEN:
            return False
        entry = self._entry(key)
        if entry.probing:
            return False
        entry.probing = True
        return True

    # ------------------------------------------------------------------
    def record_success(self, key: str) -> None:
        """A dispatch with this key finished; close and forget it."""
        self._entries.pop(key, None)

    def record_failure(self, key: str) -> str | None:
        """Account one crash/hang; returns the transition it caused.

        ``"opened"`` -- the failure count reached the threshold and the
        breaker tripped; ``"reopened"`` -- a half-open probe failed;
        ``None`` -- the key is still closed (or already open).
        """
        entry = self._entry(key)
        state = self.state(key)
        coll = _active_collector()
        if state == BreakerState.HALF_OPEN:
            entry.state = BreakerState.OPEN
            entry.opened_at = self.now()
            entry.probing = False
            entry.failures += 1
            if coll is not None:
                coll.count("engine.breaker.reopen")
            return "reopened"
        entry.failures += 1
        if state == BreakerState.CLOSED and entry.failures >= self.threshold:
            entry.state = BreakerState.OPEN
            entry.opened_at = self.now()
            if coll is not None:
                coll.count("engine.breaker.open")
            return "opened"
        return None

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-able view for diagnostics endpoints (``/healthz``)."""
        return {
            key: {
                "state": self.state(key),
                "failures": entry.failures,
                "retry_after": round(self.retry_after(key), 3),
            }
            for key, entry in sorted(self._entries.items())
        }
