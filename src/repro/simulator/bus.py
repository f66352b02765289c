"""Snooping bus: applies protocol outcomes to concrete caches.

The bus is the serialization point of a snooping multiprocessor: one
transaction at a time, observed by every cache.  ``transact`` builds the
initiator's :class:`~repro.core.reactions.Ctx` by snooping the other
caches (this *is* the sharing-detection function in hardware), asks the
shared protocol specification for the :class:`Outcome`, and applies it:
write-backs and write-throughs to memory, state changes and update
broadcasts to the snooping caches, and the block fill to the initiator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.protocol import ProtocolSpec
from ..core.reactions import Ctx, INITIATOR
from ..core.semantics import is_store
from ..core.symbols import CountCase, Op
from .cache import Cache
from .memory import MainMemory

if TYPE_CHECKING:
    from ..obs.collector import Collector

__all__ = ["BusStats", "Bus"]


@dataclass
class BusStats:
    """Counters of coherence activity on the bus."""

    transactions: int = 0
    cache_to_cache: int = 0
    writebacks: int = 0
    writethroughs: int = 0
    invalidations: int = 0
    updates: int = 0
    stalls: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view of the counters."""
        return {
            "transactions": self.transactions,
            "cache_to_cache": self.cache_to_cache,
            "writebacks": self.writebacks,
            "writethroughs": self.writethroughs,
            "invalidations": self.invalidations,
            "updates": self.updates,
            "stalls": self.stalls,
        }

    def flush(
        self, coll: "Collector", base: dict[str, int] | None = None
    ) -> None:
        """Add these counters (less *base*) to ``sim.bus.*`` metrics.

        The bus stays uninstrumented per transaction; callers snapshot
        ``as_dict()`` before a run and flush the delta afterwards.
        """
        baseline = base or {}
        for key, value in self.as_dict().items():
            coll.count(f"sim.bus.{key}", value - baseline.get(key, 0))


class Bus:
    """The shared snooping bus connecting caches and memory."""

    def __init__(self, spec: ProtocolSpec, caches: list[Cache], memory: MainMemory) -> None:
        self.spec = spec
        self.caches = caches
        self.memory = memory
        self.stats = BusStats()

    # ------------------------------------------------------------------
    def snoop_ctx(self, initiator: int, addr: int) -> Ctx:
        """Context the initiator observes for *addr* (the shared lines)."""
        present: set[str] = set()
        copies = 0
        for cache in self.caches:
            if cache.cache_id == initiator:
                continue
            state = cache.state_of(addr)
            if state != self.spec.invalid:
                present.add(state)
                copies += 1
        if copies == 0:
            case = CountCase.ZERO
        elif copies == 1:
            case = CountCase.ONE
        else:
            case = CountCase.MANY
        return Ctx(present=frozenset(present), copies=case)

    def _holder_of(self, initiator: int, addr: int, symbol: str) -> Cache:
        """Some other cache holding *addr* in *symbol* (bus arbitration)."""
        for cache in self.caches:
            if cache.cache_id != initiator and cache.state_of(addr) == symbol:
                return cache
        raise AssertionError(
            f"{self.spec.name}: outcome names {symbol} holder for block "
            f"{addr:#x} but none exists"
        )

    # ------------------------------------------------------------------
    def transact(
        self, initiator: int, op: Op, addr: int, store_value: int | None
    ) -> int | None:
        """Run one bus transaction; returns the initiator's final value.

        ``store_value`` must be provided exactly for write operations; it
        is the freshly versioned value the processor stores.  Returns
        ``None`` when the protocol stalls the operation (blocked on a
        locked block): nothing happened and the caller should retry.
        """
        spec = self.spec
        store = is_store(op)
        if store != (store_value is not None):
            raise ValueError("store_value must accompany writes and only writes")

        cache = self.caches[initiator]
        state = cache.state_of(addr)
        ctx = self.snoop_ctx(initiator, addr)
        outcome = spec.react(state, op, ctx)
        if outcome.stalled:
            self.stats.stalls += 1
            return None

        uses_bus = (
            outcome.load_from is not None
            or outcome.writeback_from is not None
            or outcome.write_through
            or bool(outcome.observers)
        )
        if uses_bus:
            self.stats.transactions += 1

        # Phase 1: write-back (before the fill, cf. Synapse).
        if outcome.writeback_from is not None:
            if outcome.writeback_from == INITIATOR:
                line = cache.line_for(addr)
                assert line is not None, "initiator writes back a block it lacks"
                self.memory.write(addr, line.value)
            else:
                holder = self._holder_of(initiator, addr, outcome.writeback_from)
                self.memory.write(addr, holder.line_for(addr).value)  # type: ignore[union-attr]
            self.stats.writebacks += 1

        # Phase 2: block fill.
        if outcome.load_from is not None:
            if outcome.load_from.kind == "memory":
                fill_value = self.memory.read(addr)
            else:
                holder = self._holder_of(
                    initiator, addr, outcome.load_from.symbol or ""
                )
                fill_value = holder.line_for(addr).value  # type: ignore[union-attr]
                self.stats.cache_to_cache += 1
            cache.fill(addr, outcome.next_state, fill_value)

        # Phase 3: the store itself.
        if store:
            assert store_value is not None
            if outcome.next_state != spec.invalid and cache.line_for(addr) is None:
                raise AssertionError(
                    f"{spec.name}: write outcome ends valid without a fill "
                    f"for an absent block"
                )
            if cache.line_for(addr) is not None:
                cache.set_value(addr, store_value)
            if outcome.write_through:
                self.memory.write(addr, store_value)
                self.stats.writethroughs += 1

        # Phase 4: snooping caches react.
        for other in self.caches:
            if other.cache_id == initiator:
                continue
            other_state = other.state_of(addr)
            if other_state == spec.invalid:
                continue
            reaction = outcome.observer_for(other_state)
            if reaction.next_state == spec.invalid:
                other.evict(addr)
                self.stats.invalidations += 1
                continue
            other.set_state(addr, reaction.next_state)
            if store and reaction.updated:
                assert store_value is not None
                other.set_value(addr, store_value)
                self.stats.updates += 1

        # Phase 5: the initiator's state settles.
        if outcome.next_state == spec.invalid:
            cache.evict(addr)
            return 0
        cache.set_state(addr, outcome.next_state)
        line = cache.line_for(addr)
        assert line is not None
        return line.value
