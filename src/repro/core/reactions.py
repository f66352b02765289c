"""Protocol reaction model: what one operation does to the whole system.

A cache coherence protocol (Section 2.3 of the paper) is specified per
*initiating* cache: given the initiator's current FSM state, the
operation (read / write / replacement) and what the initiator can
observe about the rest of the system (the :class:`Ctx`), the protocol
produces an :class:`Outcome` describing

* the initiator's next state,
* where the initiator's data comes from on a miss (:class:`LoadFrom`),
* how every other cache holding a copy reacts (:class:`ObserverReaction`
  per observer FSM state -- snooping protocols react uniformly per
  state, which is what makes class-wise symbolic expansion possible),
* whether and from where main memory is written.

The same :class:`Outcome` drives three engines: the symbolic expansion
(:mod:`repro.core.expansion`), the concrete product-machine enumeration
(:mod:`repro.enumeration.product`) and the executable multiprocessor
simulator (:mod:`repro.simulator`), guaranteeing that all three agree on
protocol semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

from .symbols import CountCase

__all__ = [
    "INITIATOR",
    "LoadFrom",
    "MEMORY",
    "from_cache",
    "ObserverReaction",
    "Outcome",
    "Ctx",
    "observation_contexts",
    "stay",
    "stall",
]

#: Sentinel naming the initiating cache as a write-back source.
INITIATOR = "@initiator"


@dataclass(frozen=True)
class LoadFrom:
    """Source of the block data loaded by the initiator on a miss."""

    kind: str  # "memory" or "cache"
    symbol: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("memory", "cache"):
            raise ValueError(f"bad load source kind: {self.kind}")
        if (self.kind == "cache") != (self.symbol is not None):
            raise ValueError("cache sources need a symbol; memory must not have one")

    def __str__(self) -> str:
        return "memory" if self.kind == "memory" else f"cache[{self.symbol}]"


#: The block is supplied by main memory.
MEMORY = LoadFrom("memory")


def from_cache(symbol: str) -> LoadFrom:
    """The block is supplied cache-to-cache by a cache in *symbol*."""
    return LoadFrom("cache", symbol)


@dataclass(frozen=True)
class ObserverReaction:
    """Reaction of every (other) cache currently in one FSM state.

    ``next_state`` is the observer's state after snooping the bus
    transaction.  ``updated`` marks write-update protocols: on a store,
    the observer's copy receives the newly written value (stays fresh)
    instead of silently going stale.
    """

    next_state: str
    updated: bool = False


def stay(state: str) -> ObserverReaction:
    """Convenience: observer keeps its state (and is not updated)."""
    return ObserverReaction(state)


def stall(state: str) -> "Outcome":
    """Convenience: the operation is refused; the system is unchanged.

    Used by blocking protocols (locked states): the initiator stays in
    *state*, no data moves, and the operation is conceptually retried
    after the blocker releases the block.
    """
    return Outcome(state, stalled=True)


@dataclass(frozen=True)
class Outcome:
    """Complete effect of one operation by one cache.

    ``observers`` is keyed by observer FSM state; states without an entry
    are unaffected.  ``writeback_from`` names the FSM state of the cache
    that writes its copy back to memory during the transaction (or
    :data:`INITIATOR`); ``write_through`` means the *newly stored* value
    is propagated to memory as part of a write.
    """

    next_state: str
    load_from: LoadFrom | None = None
    observers: Mapping[str, ObserverReaction] = field(default_factory=dict)
    writeback_from: str | None = None
    write_through: bool = False
    #: The operation was refused and will be retried later: nothing at
    #: all happens (used to model blocking on locked blocks).
    stalled: bool = False

    def __post_init__(self) -> None:
        # Freeze the observer mapping so outcomes are safely shareable.
        object.__setattr__(self, "observers", MappingProxyType(dict(self.observers)))
        if self.stalled and (
            self.load_from is not None
            or self.observers
            or self.writeback_from is not None
            or self.write_through
        ):
            raise ValueError("a stalled outcome must have no side effects")

    def observer_for(self, state: str) -> ObserverReaction:
        """Reaction of observers in *state* (defaults to no change)."""
        reaction = self.observers.get(state)
        return reaction if reaction is not None else ObserverReaction(state)


@dataclass(frozen=True)
class Ctx:
    """What the initiating cache observes about the other caches.

    ``present`` is the set of FSM states (excluding the protocol's
    invalid state) held by at least one *other* cache; ``copies`` is the
    abstract number of valid copies held by other caches.  In the
    symbolic engine both fields are made definite by scenario
    case-splitting; in the concrete engines they are computed exactly.

    This is precisely the information exposed by real snooping hardware:
    the bus "shared"/"owned" response lines (the paper's
    *sharing-detection* function) plus which cache answers the request.
    """

    present: frozenset[str] = frozenset()
    copies: CountCase = CountCase.ZERO

    @property
    def any_copy(self) -> bool:
        """True iff at least one other cache holds a valid copy.

        This is the value of the sharing-detection function ``f_i``
        (Section 2.1) from the initiator's perspective.
        """
        return self.copies.is_present

    def has(self, *symbols: str) -> bool:
        """True iff another cache is in any of the given FSM states."""
        return any(sym in self.present for sym in symbols)


def observation_contexts(valid: Sequence[str]) -> tuple[Ctx, ...]:
    """Every context a cache can observe, given the *valid* states.

    In the paper's model (Definition 1) a cache sees the rest of the
    system only through the present-set, so the powerset of the valid
    states enumerates every distinguishable context: the empty set with
    ZERO copies, then each non-empty subset with MANY copies (``copies``
    only ever matters through :attr:`Ctx.any_copy`, which the present-set
    already decides), ordered by size and then by sorted state names.
    Every prober of ``react`` -- IR lowering, the spec fingerprint,
    lint, the Definition 1 FSM and :meth:`ProtocolSpec.validate` --
    reads this one domain.
    """
    ordered = sorted(valid)
    contexts = [Ctx(frozenset(), CountCase.ZERO)]
    for size in range(1, len(ordered) + 1):
        contexts.extend(
            Ctx(frozenset(combo), CountCase.MANY)
            for combo in combinations(ordered, size)
        )
    return tuple(contexts)
