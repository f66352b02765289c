"""The executable snooping multiprocessor (simulation substrate).

Ties processors, direct-mapped caches, the snooping bus, main memory
and the golden-value checker together.  Every access is bus-serialized
and atomic -- the paper's system model (Section 2.4: "we assumed atomic
accesses throughout this paper").

The simulator serves two roles in the reproduction:

* it *executes* the very same protocol specifications the symbolic
  verifier analyses, providing an end-to-end sanity check that a
  verified protocol really returns the latest value on every load;
* it is the *testing-based baseline* of experiment E6: random
  simulation detects injected protocol bugs only if the trace happens
  to drive the system into an erroneous configuration, illustrating the
  incompleteness argument of the paper's introduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs.collector import active as _active_collector
from ..core.protocol import ProtocolSpec
from ..core.symbols import Op
from .bus import Bus, BusStats
from .cache import Cache
from .checker import CoherenceViolation, GoldenChecker
from .memory import MainMemory
from .trace import Access, AccessKind, Trace

if TYPE_CHECKING:
    from ..obs.collector import Collector

__all__ = ["CoherenceViolationError", "SystemStats", "SimulationReport", "System"]


class CoherenceViolationError(Exception):
    """A read returned stale data (raised in strict checking mode)."""

    def __init__(self, violation: CoherenceViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class SystemStats:
    """Aggregate counters over one simulation."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    replacements: int = 0
    stalled: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view of the counters."""
        return {
            "accesses": self.accesses,
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "replacements": self.replacements,
            "stalled": self.stalled,
        }

    def flush(
        self, coll: "Collector", base: dict[str, int] | None = None
    ) -> None:
        """Add these counters (less *base*) to ``sim.*`` metrics."""
        baseline = base or {}
        for key, value in self.as_dict().items():
            coll.count(f"sim.{key}", value - baseline.get(key, 0))


@dataclass
class SimulationReport:
    """Result of running a trace through the system."""

    stats: SystemStats
    bus: BusStats
    violations: tuple[CoherenceViolation, ...] = field(default_factory=tuple)
    #: Index of the first violating access, or None.
    first_violation: int | None = None

    @property
    def ok(self) -> bool:
        """True iff no violation was found."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable summary."""
        verdict = (
            "no violations"
            if self.ok
            else f"{len(self.violations)} violations (first at access "
            f"#{self.first_violation})"
        )
        return (
            f"{self.stats.accesses} accesses "
            f"({self.stats.hits} hits / {self.stats.misses} misses, "
            f"{self.stats.replacements} replacements, "
            f"{self.bus.transactions} bus transactions): {verdict}"
        )


class System:
    """A snooping-bus multiprocessor executing one coherence protocol.

    Parameters
    ----------
    spec:
        The protocol driving every cache controller.
    n_processors:
        One private cache per processor.
    num_sets:
        Sets per cache; conflicting blocks trigger the replacement
        operation (the paper's ``Rep``).
    assoc:
        Ways per set (1 = direct-mapped); victims are chosen LRU.
    strict:
        Raise :class:`CoherenceViolationError` on the first stale read
        instead of recording it.
    """

    def __init__(
        self,
        spec: ProtocolSpec,
        n_processors: int,
        *,
        num_sets: int = 8,
        assoc: int = 1,
        strict: bool = True,
    ) -> None:
        if n_processors < 1:
            raise ValueError("need at least one processor")
        self.spec = spec
        self.strict = strict
        self.memory = MainMemory()
        self.caches = [
            Cache(i, num_sets, spec.invalid, assoc=assoc)
            for i in range(n_processors)
        ]
        self.bus = Bus(spec, self.caches, self.memory)
        self.checker = GoldenChecker()
        self.stats = SystemStats()
        self._violations: list[CoherenceViolation] = []
        self._next_version = 1
        self._access_index = 0

    # ------------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        """Total number of processors in the system."""
        return len(self.caches)

    def violations(self) -> tuple[CoherenceViolation, ...]:
        """All stale reads recorded so far (non-strict mode)."""
        return tuple(self._violations)

    # ------------------------------------------------------------------
    def _ensure_room(self, pid: int, addr: int) -> bool:
        """Evict a conflicting block (issuing ``Rep``) before a fill.

        Returns False when the victim cannot be replaced (e.g. a locked
        line pins its set) -- the triggering access must then stall.
        """
        replaceable = lambda s: self.spec.applicable(s, Op.REPLACE)  # noqa: E731
        victim = self.caches[pid].victim_for(addr, replaceable)
        if victim is None:
            return True
        if not replaceable(victim.state):
            return False
        self.stats.replacements += 1
        self.bus.transact(pid, Op.REPLACE, victim.addr, None)
        return True

    def read(self, pid: int, addr: int) -> int | None:
        """Processor *pid* loads block *addr*; returns the value read.

        Returns ``None`` when the protocol stalls the read (blocked on a
        locked block) -- no value was observed.
        """
        access = Access(pid, AccessKind.READ, addr)
        self.stats.accesses += 1
        self.stats.reads += 1
        cache = self.caches[pid]
        if cache.holds(addr):
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            if not self._ensure_room(pid, addr):
                self.stats.stalled += 1
                self._access_index += 1
                return None
        value = self.bus.transact(pid, Op.READ, addr, None)
        if value is None:
            self.stats.stalled += 1
            self._access_index += 1
            return None
        self.caches[pid].touch(addr)
        violation = self.checker.check_read(self._access_index, access, value)
        self._access_index += 1
        if violation is not None:
            self._violations.append(violation)
            if self.strict:
                raise CoherenceViolationError(violation)
        return value

    def write(self, pid: int, addr: int) -> int | None:
        """Processor *pid* stores a new version into *addr*.

        Returns the stored version, or ``None`` when the write stalled
        (in which case the golden value is not advanced -- the store
        never happened).
        """
        self.stats.accesses += 1
        self.stats.writes += 1
        cache = self.caches[pid]
        if cache.holds(addr):
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            if not self._ensure_room(pid, addr):
                self.stats.stalled += 1
                self._access_index += 1
                return None
        version = self._next_version
        self._next_version += 1
        if self.bus.transact(pid, Op.WRITE, addr, version) is None:
            self.stats.stalled += 1
            self._access_index += 1
            return None
        self.caches[pid].touch(addr)
        self.checker.record_write(addr, version)
        self._access_index += 1
        return version

    def lock(self, pid: int, addr: int) -> bool:
        """Processor *pid* lock-acquires block *addr* (if supported).

        Returns True on success, False when the acquisition stalled
        (another cache holds the block locked).
        """
        if Op.LOCK not in self.spec.operations:
            raise ValueError(f"{self.spec.name} has no LOCK operation")
        self.stats.accesses += 1
        cache = self.caches[pid]
        if not cache.holds(addr) and not self._ensure_room(pid, addr):
            self.stats.stalled += 1
            self._access_index += 1
            return False
        if not self.spec.applicable(cache.state_of(addr), Op.LOCK):
            self._access_index += 1
            return True  # already holding the lock
        result = self.bus.transact(pid, Op.LOCK, addr, None)
        self._access_index += 1
        if result is None:
            self.stats.stalled += 1
            return False
        return True

    def unlock(self, pid: int, addr: int) -> None:
        """Processor *pid* releases a lock it holds on *addr* (no-op
        when it does not hold the block locked)."""
        if Op.UNLOCK not in self.spec.operations:
            raise ValueError(f"{self.spec.name} has no UNLOCK operation")
        self.stats.accesses += 1
        state = self.caches[pid].state_of(addr)
        if self.spec.applicable(state, Op.UNLOCK):
            self.bus.transact(pid, Op.UNLOCK, addr, None)
        self._access_index += 1

    def replace(self, pid: int, addr: int) -> None:
        """Explicitly evict *addr* from *pid*'s cache (if present)."""
        if self.caches[pid].holds(addr):
            self.stats.replacements += 1
            self.bus.transact(pid, Op.REPLACE, addr, None)

    # ------------------------------------------------------------------
    def run(self, trace: Trace, *, stop_on_violation: bool = True) -> SimulationReport:
        """Execute a whole trace; returns the simulation report.

        In non-strict mode violations are recorded and (optionally) the
        run continues, measuring *when* testing would have caught a bug.
        """
        # Per-access instrumentation would dominate the simulator's
        # cost, so a profiled run gets one `sim.run` span and a flush
        # of the stat deltas once the trace finishes.
        coll = _active_collector()
        if coll is not None:
            run_span = coll.span(
                "sim.run", protocol=self.spec.name, n=self.n_processors
            )
            run_span.__enter__()
            stats_before = self.stats.as_dict()
            bus_before = self.bus.stats.as_dict()
        try:
            for access in trace:
                if access.pid >= self.n_processors:
                    raise ValueError(
                        f"trace references processor {access.pid} but the "
                        f"system has {self.n_processors}"
                    )
                before = len(self._violations)
                if access.kind is AccessKind.READ:
                    self.read(access.pid, access.addr)
                elif access.kind is AccessKind.WRITE:
                    self.write(access.pid, access.addr)
                elif access.kind is AccessKind.LOCK:
                    self.lock(access.pid, access.addr)
                else:
                    self.unlock(access.pid, access.addr)
                if stop_on_violation and len(self._violations) > before:
                    break
        finally:
            if coll is not None:
                self.stats.flush(coll, stats_before)
                self.bus.stats.flush(coll, bus_before)
                run_span.set(
                    accesses=self.stats.accesses - stats_before["accesses"],
                    transactions=(
                        self.bus.stats.transactions
                        - bus_before["transactions"]
                    ),
                )
                run_span.__exit__(None, None, None)
        return SimulationReport(
            stats=self.stats,
            bus=self.bus.stats,
            violations=tuple(self._violations),
            first_violation=(
                self._violations[0].index if self._violations else None
            ),
        )

    # ------------------------------------------------------------------
    def coherence_snapshot(self, addr: int) -> dict[str, object]:
        """Debug view of one block: per-cache states/values and memory."""
        return {
            "states": [c.state_of(addr) for c in self.caches],
            "values": [
                (line.value if (line := c.line_for(addr)) is not None else None)
                for c in self.caches
            ],
            "memory": self.memory.peek(addr),
            "golden": self.checker.expected(addr),
        }
