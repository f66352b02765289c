"""Exhaustive enumeration of the global state space (paper Figure 2).

The conventional algorithm the paper improves upon: a worklist search
over the *explicit* product state space for a fixed number of caches.
Two equivalence relations are offered:

* **strict** -- two global states are equal only componentwise
  (Section 3.1); the space grows like ``m^n``;
* **counting** -- states equal up to cache permutation are merged
  (Definition 5); the space grows polynomially but still depends on
  ``n``.

Every generated state is counted as a *visit* (the quantity in the
paper's ``n·k·m^n`` estimate) so experiment E4 can plot the blow-up the
symbolic method avoids.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs.collector import active as _active_collector
from ..obs import clock
from ..core.errors import (
    ErrorKind,
    Violation,
    concrete_pattern_violations,
)
from ..core.protocol import ProtocolSpec
from ..core.symbols import DataValue
from .product import ConcreteState, concrete_successors, initial_concrete

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Exhaustion, Guard

__all__ = [
    "Equivalence",
    "EnumerationStats",
    "EnumerationResult",
    "enumerate_space",
    "concrete_violations",
]


class Equivalence(str, enum.Enum):
    """State equivalence used for pruning the explicit search."""

    #: Componentwise equality (Section 3.1's baseline).
    STRICT = "strict"
    #: Equality up to cache permutation (Definition 5).
    COUNTING = "counting"


@dataclass
class EnumerationStats:
    """Instrumentation for one exhaustive search."""

    #: States generated, including duplicates (the paper's "visits").
    visits: int = 0
    #: Distinct states retained under the chosen equivalence.
    unique_states: int = 0
    #: States popped and expanded.
    expanded: int = 0
    #: Peak frontier size.
    max_frontier: int = 0
    #: Wall-clock seconds.
    elapsed: float = 0.0


@dataclass
class EnumerationResult:
    """Output of :func:`enumerate_space`."""

    spec: ProtocolSpec
    n: int
    equivalence: Equivalence
    stats: EnumerationStats
    states: tuple[ConcreteState, ...]
    violations: tuple[Violation, ...]
    #: Example erroneous concrete states (at most one per violation).
    erroneous: tuple[ConcreteState, ...] = field(default_factory=tuple)
    #: True when a guard budget expired before the frontier emptied:
    #: ``states`` is the reachable prefix enumerated so far.
    partial: bool = False
    #: Why the search stopped early (``None`` for complete runs).
    exhausted: "Exhaustion | None" = None
    #: Frontier states not yet expanded when the budget expired.
    frontier: tuple[ConcreteState, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True iff the search completed and found no erroneous state.

        Partial runs are never ``ok`` (unreached states could still be
        erroneous), but any violations they found are definitive.
        """
        return not self.violations and not self.partial


def concrete_violations(spec: ProtocolSpec, state: ConcreteState) -> list[Violation]:
    """Erroneous-state checks on one concrete global state.

    The same conditions the symbolic verifier evaluates: the protocol's
    forbidden state combinations, a readable obsolete copy, and the loss
    of the most recently written value.
    """
    violations = [
        Violation(ErrorKind.INCOMPATIBLE_STATES, message)
        for message in concrete_pattern_violations(state.counts(), spec.error_patterns)
    ]
    fresh_somewhere = state.mdata is DataValue.FRESH
    for sym, data in zip(state.states, state.cdata):
        if sym == spec.invalid:
            continue
        if data is DataValue.OBSOLETE:
            violations.append(
                Violation(
                    ErrorKind.READABLE_OBSOLETE,
                    f"a processor can read obsolete data from a {sym} copy",
                )
            )
        if data is DataValue.FRESH:
            fresh_somewhere = True
    if not fresh_somewhere:
        violations.append(
            Violation(
                ErrorKind.VALUE_LOST,
                "the most recently written value survives nowhere",
            )
        )
    return violations


def enumerate_space(
    spec: ProtocolSpec,
    n: int,
    *,
    equivalence: Equivalence = Equivalence.STRICT,
    guard: "Guard | None" = None,
) -> EnumerationResult:
    """Run the Figure 2 worklist search for *n* caches.

    The ``guard`` owns every budget: when one expires the search stops
    cleanly and returns a **partial** result carrying the states
    enumerated so far, the unexpanded frontier and the exhaustion
    reason.  Without a guard the search runs to its fixpoint; the
    product space is finite but grows exponentially in ``n``, so a
    caller that cannot bound ``n`` passes a guard.
    """
    stats = EnumerationStats()
    started = clock.monotonic()

    # One None check per site is the whole uninstrumented cost; the
    # explicit search is hot enough that it gets no per-visit spans,
    # only the frontier-depth histogram and final counters.
    coll = _active_collector()
    if coll is not None:
        root_span = coll.span(
            "enumerate", protocol=spec.name, n=n, equivalence=equivalence.value
        )
        root_span.__enter__()

    def key(state: ConcreteState) -> ConcreteState:
        return state.canonical() if equivalence is Equivalence.COUNTING else state

    init = initial_concrete(spec, n)
    frontier: deque[ConcreteState] = deque([init])
    seen: dict[ConcreteState, ConcreteState] = {key(init): init}
    violations: list[Violation] = []
    erroneous: list[ConcreteState] = []
    reported: set[ConcreteState] = set()

    def check(state: ConcreteState) -> None:
        k = key(state)
        if k in reported:
            return
        found = concrete_violations(spec, state)
        if found:
            reported.add(k)
            violations.extend(found)
            erroneous.append(state)

    check(init)
    exhausted: "Exhaustion | None" = None
    try:
        while frontier and exhausted is None:
            stats.max_frontier = max(stats.max_frontier, len(frontier))
            current = frontier.popleft()
            stats.expanded += 1
            if coll is not None:
                coll.observe("enumerate.frontier.depth", len(frontier) + 1)
            for transition in concrete_successors(spec, current):
                stats.visits += 1
                if guard is not None:
                    exhausted = guard.check(visits=stats.visits, states=len(seen))
                    if exhausted is not None:
                        # The interrupted state heads the frontier.
                        frontier.appendleft(current)
                        break
                target = transition.target
                k = key(target)
                if k in seen:
                    continue
                seen[k] = target
                check(target)
                frontier.append(target)
    finally:
        if coll is not None:
            root_span.__exit__(None, None, None)

    stats.unique_states = len(seen)
    stats.elapsed = clock.monotonic() - started
    if coll is not None:
        coll.count("enumerate.visits", stats.visits)
        coll.count("enumerate.unique", stats.unique_states)
        coll.count("enumerate.expanded", stats.expanded)
        root_span.set(visits=stats.visits, unique=stats.unique_states)
    return EnumerationResult(
        spec=spec,
        n=n,
        equivalence=equivalence,
        stats=stats,
        states=tuple(seen.values()),
        violations=tuple(violations),
        erroneous=tuple(erroneous),
        partial=exhausted is not None,
        exhausted=exhausted,
        frontier=tuple(frontier) if exhausted is not None else (),
    )
