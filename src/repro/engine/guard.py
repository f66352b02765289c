"""Cooperative resource budgets: degrade gracefully instead of dying.

Theorem 1 guarantees the symbolic expansion *terminates*, but says
nothing about *when*: mutant zoos, adversarial DSL specs and the
explicit Figure 2 baseline at large ``n`` all hit wall-clock limits,
state explosion or memory pressure long before convergence.  A
:class:`Guard` turns those hard failures into structured **partial
results**: the expansion loops poll the guard, and when a budget is
exhausted they stop cleanly and return everything computed so far --
the essential-set prefix, the unexplored frontier and the exhaustion
reason -- instead of raising or being SIGKILLed with nothing to show.

The design is deliberately cooperative (the Murphi / SPIN lineage of
bounded search): the guard never interrupts anything itself.  Hot
loops call :meth:`Guard.check` once per generated state; the integer
budgets, the monotonic clock and the cancel flag are all cheap enough
to consult on every call (generating one symbolic state costs orders
of magnitude more), while the RSS probe -- a procfs read -- is only
polled every ``rss_stride`` calls.

Budgets:

* ``deadline`` -- wall-clock seconds for the run (monotonic clock);
* ``max_visits`` -- generated-state budget (the paper's "visits");
* ``max_states`` -- retained-state budget (worklist + essential set);
* ``max_rss_mb`` -- resident-set watchdog, polled from
  ``/proc/self/status`` where available (silently disabled elsewhere);
* ``cancel`` -- an external cancellation flag (any object with
  ``is_set()``, e.g. ``multiprocessing.Event``); this is how the
  parallel runner's soft-cancel grace window asks a worker to wrap up
  and emit its partial result before the SIGKILL deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol

from ..obs.collector import active as _active_collector
from ..obs import clock

__all__ = [
    "ExhaustionReason",
    "Exhaustion",
    "Budget",
    "Guard",
    "current_rss_mb",
]


class ExhaustionReason:
    """Why a guarded run stopped early (plain strings, JSON-friendly)."""

    DEADLINE = "deadline"
    VISITS = "visits"
    STATES = "states"
    RSS = "rss"
    #: An external soft-cancel (runner timeout grace window, SIGINT...).
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class Exhaustion:
    """One exhausted budget: the reason, the limit and the observed value."""

    reason: str
    limit: float | None
    observed: float

    def describe(self) -> str:
        """Human-readable one-liner for reports and error fields."""
        if self.reason == ExhaustionReason.CANCELLED:
            return "cancelled by the runner"
        unit = {
            ExhaustionReason.DEADLINE: "s",
            ExhaustionReason.VISITS: " visits",
            ExhaustionReason.STATES: " states",
            ExhaustionReason.RSS: " MB RSS",
        }[self.reason]
        return f"exhausted {self.reason} budget ({self.limit:g}{unit})"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering for payloads and journal events."""
        return {
            "reason": self.reason,
            "limit": self.limit,
            "observed": round(self.observed, 3),
        }


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits for one verification run.

    All fields are optional; ``None`` disables that budget.  An empty
    budget (plus no cancel flag) makes :meth:`Guard.check` a no-op.
    """

    deadline: float | None = None
    max_visits: int | None = None
    max_states: int | None = None
    max_rss_mb: float | None = None

    def __post_init__(self) -> None:
        for name in ("deadline", "max_visits", "max_states", "max_rss_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"budget {name} must be positive, got {value}")

    @property
    def bounded(self) -> bool:
        """True iff at least one budget is set."""
        return any(
            value is not None
            for value in (
                self.deadline,
                self.max_visits,
                self.max_states,
                self.max_rss_mb,
            )
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering (for journal/cache records)."""
        return {
            "deadline": self.deadline,
            "max_visits": self.max_visits,
            "max_states": self.max_states,
            "max_rss_mb": self.max_rss_mb,
        }


class _CancelFlag(Protocol):  # pragma: no cover - typing only
    def is_set(self) -> bool: ...


def current_rss_mb() -> float | None:
    """Resident set size of this process in MB, or ``None`` if unknown.

    Reads ``/proc/self/status`` (Linux); on platforms without procfs
    the RSS watchdog silently disables itself rather than guessing.
    """
    try:
        text = Path("/proc/self/status").read_text(encoding="ascii")
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmRSS:"):
            parts = line.split()
            if len(parts) >= 2 and parts[1].isdigit():
                return int(parts[1]) / 1024.0  # kB -> MB
    return None


class Guard:
    """Polls a :class:`Budget` (and an optional cancel flag) cheaply.

    The guard is created when the run starts (it captures the start
    time) and is then polled from the hot loop.  Once exhausted it
    stays exhausted: every later ``check`` returns the same
    :class:`Exhaustion`, so a loop that misses one poll still stops at
    the next.
    """

    __slots__ = (
        "budget",
        "cancel",
        "rss_stride",
        "started",
        "exhausted",
        "_calls",
    )

    def __init__(
        self,
        budget: Budget | None = None,
        *,
        cancel: _CancelFlag | None = None,
        rss_stride: int = 64,
    ) -> None:
        self.budget = budget if budget is not None else Budget()
        self.cancel = cancel
        self.rss_stride = max(1, int(rss_stride))
        self.started = clock.monotonic()
        self.exhausted: Exhaustion | None = None
        self._calls = 0

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True iff this guard can ever trip (some budget or a cancel)."""
        return self.budget.bounded or self.cancel is not None

    def elapsed(self) -> float:
        """Seconds since the guard was armed."""
        return clock.monotonic() - self.started

    # ------------------------------------------------------------------
    def check(self, *, visits: int = 0, states: int = 0) -> Exhaustion | None:
        """Poll every budget; the first exhausted one wins and sticks.

        ``visits`` and ``states`` are the caller's running totals.
        Everything except the RSS probe is consulted on every call; the
        procfs read happens only every ``rss_stride`` calls.
        """
        if self.exhausted is not None:
            return self.exhausted
        self._calls += 1
        coll = _active_collector()
        if coll is not None:
            coll.count("guard.checks")
        budget = self.budget
        if budget.max_visits is not None and visits >= budget.max_visits:
            return self._trip(ExhaustionReason.VISITS, budget.max_visits, visits)
        if budget.max_states is not None and states >= budget.max_states:
            return self._trip(ExhaustionReason.STATES, budget.max_states, states)
        if self.cancel is not None and self.cancel.is_set():
            return self._trip(ExhaustionReason.CANCELLED, None, 1.0)
        if budget.deadline is not None:
            elapsed = self.elapsed()
            if elapsed >= budget.deadline:
                return self._trip(ExhaustionReason.DEADLINE, budget.deadline, elapsed)
        if budget.max_rss_mb is not None and self._calls % self.rss_stride == 0:
            rss = current_rss_mb()
            if rss is not None and rss >= budget.max_rss_mb:
                return self._trip(ExhaustionReason.RSS, budget.max_rss_mb, rss)
        return None

    def _trip(self, reason: str, limit: float | None, observed: float) -> Exhaustion:
        self.exhausted = Exhaustion(reason, limit, float(observed))
        coll = _active_collector()
        if coll is not None:
            coll.count("guard.exhausted")
        return self.exhausted
