"""Essential-state generation: the worklist algorithm of Figure 3.

Starting from ``(Invalid+)`` the algorithm repeatedly expands a working
composite state, discards every successor *contained* in an already
known state and removes every known state contained in a new successor
(both directions of pruning are justified by the monotonicity results,
Lemmas 1-2 / Corollaries 1-2).  The surviving, fully expanded states are
the **essential states** (Definition 10); by Theorem 1 they symbolically
characterize every state an exhaustive enumeration could ever reach, for
any number of caches.

The implementation instruments every step so the paper's quantitative
claims can be reproduced:

* ``stats.visits`` counts generated states -- the quantity the paper
  reports as "22 state visits" for the Illinois protocol;
* an optional :class:`TraceEntry` log records each visit with its
  disposition, regenerating the Appendix A.2 listing;
* a discovery archive keeps predecessor links for counterexample
  (:class:`~repro.core.errors.Witness`) extraction, even across pruning.

Pruning is selectable (:class:`PruningMode`) so the ablation experiment
E8 can quantify the value of containment over exact-duplicate detection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..obs.collector import active as _active_collector
from ..obs import clock
from . import covering
from .composite import CompositeState
from .covering import contains
from .errors import (
    Violation,
    Witness,
    check_data_consistency,
    check_patterns,
)
from .expansion import SymbolicExpander
from .protocol import ProtocolSpec
from .result import (
    ExpansionResult,
    ExpansionStats,
    PruningMode,
    SymbolicTransition,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The guard lives in the engine layer (above core); explore() only
    # relies on its check() protocol, so no runtime import is needed
    # and the core -> engine dependency stays a typing artifact.
    from ..engine.guard import Exhaustion, Guard

__all__ = [
    "PruningMode",
    "Disposition",
    "TraceEntry",
    "ExpansionStats",
    "ExpansionResult",
    "explore",
    "essential_home",
]


class Disposition(str, enum.Enum):
    """What happened to one generated state."""

    NEW = "new"
    DUPLICATE = "duplicate"
    CONTAINED = "contained"
    SUPERSEDES = "supersedes"


@dataclass(frozen=True)
class TraceEntry:
    """One expansion step, in the style of the Appendix A.2 listing."""

    source: CompositeState
    label: str
    target: CompositeState
    disposition: Disposition

    def render(self) -> str:
        """Multi-line human-readable rendering."""
        mark = {
            Disposition.NEW: "",
            Disposition.DUPLICATE: "  (already known)",
            Disposition.CONTAINED: "  (contained, discarded)",
            Disposition.SUPERSEDES: "  (supersedes earlier states)",
        }[self.disposition]
        return (
            f"{self.source.pretty(annotations=False)} --{self.label}--> "
            f"{self.target.pretty(annotations=False)}{mark}"
        )


def _check_state(
    state: CompositeState, spec: ProtocolSpec, augmented: bool
) -> list[Violation]:
    """All violations exhibited by one composite state."""
    violations = check_patterns(state, spec.error_patterns)
    if augmented:
        violations.extend(check_data_consistency(state, spec.invalid))
    return violations


def _witness_for(
    state: CompositeState,
    violations: Sequence[Violation],
    discovery: dict[CompositeState, tuple[CompositeState, str] | None],
) -> Witness:
    """Reconstruct the path from the initial state to *state*."""
    steps: list[tuple[CompositeState, str]] = []
    cursor: CompositeState | None = state
    while cursor is not None:
        entry = discovery[cursor]
        if entry is None:
            break
        pred, label = entry
        steps.append((pred, label))
        cursor = pred
    steps.reverse()
    return Witness(tuple(steps), state, tuple(violations))


def explore(
    spec: ProtocolSpec,
    *,
    augmented: bool = True,
    pruning: PruningMode = PruningMode.CONTAINMENT,
    keep_trace: bool = False,
    stop_on_error: bool = False,
    guard: "Guard | None" = None,
) -> ExpansionResult:
    """Run the Figure 3 algorithm to its fixpoint.

    Parameters
    ----------
    spec:
        The protocol to expand.
    augmented:
        Track ``cdata``/``mdata`` context variables (Definition 4) and
        run the data-consistency checks of Definition 3.
    pruning:
        Containment pruning (the paper's algorithm) or plain duplicate
        detection (ablation baseline).
    keep_trace:
        Record a :class:`TraceEntry` per generated state (Appendix A.2).
    stop_on_error:
        Stop at the first erroneous state instead of exploring fully.
    guard:
        Optional :class:`repro.engine.guard.Guard` polled once per
        generated state; it owns every budget.  When one expires the
        run stops cleanly and returns a **partial** result
        (``partial=True``) carrying the essential-set-so-far, the
        unexplored frontier and the exhaustion reason -- it never
        raises.  Without a guard the run goes to its fixpoint: the
        composite-state space is finite, so the worklist empties.
    """
    expander = SymbolicExpander(spec, augmented=augmented)
    stats = ExpansionStats()
    started = clock.monotonic()

    # Observability: `coll` is None on uninstrumented runs, and every
    # instrumentation site below hides behind that one local check --
    # the disabled path stays as hot as it ever was.
    coll = _active_collector()
    if coll is not None:
        root_span = coll.span(
            "expand",
            protocol=spec.name,
            pruning=pruning.value,
            augmented=augmented,
        )
        root_span.__enter__()
        prune_span = f"prune.{pruning.value}"

    initial = expander.initial_state()
    working: list[CompositeState] = [initial]
    visited: list[CompositeState] = []
    discovery: dict[CompositeState, tuple[CompositeState, str] | None] = {
        initial: None
    }
    trace: list[TraceEntry] = []
    violations: list[Violation] = []
    witnesses: list[Witness] = []
    reported: set[CompositeState] = set()

    def record_error(state: CompositeState) -> bool:
        """Check and record violations; returns True when found."""
        if state in reported:
            return False
        found = _check_state(state, spec, augmented)
        if found:
            reported.add(state)
            violations.extend(found)
            witnesses.append(_witness_for(state, found, discovery))
            return True
        return False

    record_error(initial)

    stop = False
    exhausted: "Exhaustion | None" = None
    try:
        if coll is not None:
            covering.set_probe(
                lambda hit: coll.count(
                    "covering.contains.hits" if hit else "covering.contains.misses"
                )
            )
        while working and not stop and exhausted is None:
            stats.max_worklist = max(stats.max_worklist, len(working))
            current = working.pop(0)
            stats.expanded += 1
            discard_current = False
            if coll is not None:
                coll.observe("expand.worklist.depth", len(working) + 1)
                step_span = coll.span("expand.step", worklist=len(working) + 1)
                step_span.__enter__()

            for transition in expander.successors(current):
                stats.visits += 1
                if guard is not None:
                    exhausted = guard.check(
                        visits=stats.visits,
                        states=len(working) + len(visited) + 1,
                    )
                    if exhausted is not None:
                        break
                target = transition.target
                if target not in discovery:
                    discovery[target] = (current, str(transition.label))

                if coll is not None:
                    witness_started = coll.now()
                if record_error(target) and stop_on_error:
                    stop = True
                if coll is not None:
                    coll.add_span("witness.check", witness_started)
                    prune_started = coll.now()

                if pruning is PruningMode.CONTAINMENT:
                    if (
                        contains(target, current)
                        or any(contains(target, p) for p in working)
                        or any(contains(target, q) for q in visited)
                    ):
                        stats.discarded_contained += 1
                        disposition = (
                            Disposition.DUPLICATE
                            if target == current
                            or target in working
                            or target in visited
                            else Disposition.CONTAINED
                        )
                    else:
                        before = len(working) + len(visited)
                        working = [p for p in working if not contains(p, target)]
                        visited = [q for q in visited if not contains(q, target)]
                        removed = before - len(working) - len(visited)
                        stats.removed_superseded += removed
                        working.append(target)
                        disposition = (
                            Disposition.SUPERSEDES if removed else Disposition.NEW
                        )
                        if contains(current, target):
                            # Figure 3: "if (A ⊆ A') then discard A and
                            # terminate all FOR loops starting a new run."
                            discard_current = True
                else:  # PruningMode.DUPLICATES
                    if target == current or target in working or target in visited:
                        stats.duplicates += 1
                        disposition = Disposition.DUPLICATE
                    else:
                        working.append(target)
                        disposition = Disposition.NEW
                if coll is not None:
                    coll.add_span(
                        prune_span, prune_started, disposition=disposition.value
                    )
                if keep_trace:
                    trace.append(
                        TraceEntry(current, str(transition.label), target, disposition)
                    )
                if discard_current or stop:
                    break

            if coll is not None:
                step_span.__exit__(None, None, None)
            if not discard_current and not stop and exhausted is None:
                # (On an early stop or an exhausted budget the current
                # state is only partially expanded, so it must not
                # masquerade as essential.)
                visited.append(current)
            elif exhausted is not None:
                # The interrupted state heads the unexplored frontier.
                working.insert(0, current)

        stats.scenarios = expander.scenarios_evaluated
        essential = tuple(visited)

        # Final pass: edges of the global transition diagram between the
        # essential states (every successor of an essential state is, by
        # the pruning invariant, contained in some essential state).
        # Skipped on partial runs: the invariant only holds at fixpoint.
        if coll is not None:
            edges_started = coll.now()
        edges: dict[tuple[CompositeState, str, CompositeState], SymbolicTransition] = {}
        if not stop and exhausted is None:
            for source in essential:
                for transition in expander.successors(source):
                    home = essential_home(transition.target, essential, pruning)
                    key = (source, str(transition.label), home)
                    if key not in edges:
                        edges[key] = SymbolicTransition(source, transition.label, home)
        if coll is not None:
            coll.add_span("expand.edges", edges_started, transitions=len(edges))
    finally:
        if coll is not None:
            covering.set_probe(None)
            root_span.__exit__(None, None, None)

    stats.elapsed = clock.monotonic() - started
    if coll is not None:
        coll.count("expand.visits", stats.visits)
        coll.count("expand.expanded", stats.expanded)
        coll.count("expand.pruned.contained", stats.discarded_contained)
        coll.count("expand.pruned.superseded", stats.removed_superseded)
        coll.count("expand.pruned.duplicate", stats.duplicates)
        coll.count("expand.scenarios", stats.scenarios)
        coll.gauge("expand.worklist.peak", stats.max_worklist)
        root_span.set(
            essential=len(essential),
            visits=stats.visits,
            partial=exhausted is not None,
        )
    return ExpansionResult(
        spec=spec,
        augmented=augmented,
        pruning=pruning,
        initial=initial,
        essential=essential,
        transitions=tuple(edges.values()),
        stats=stats,
        violations=tuple(violations),
        witnesses=tuple(witnesses),
        trace=tuple(trace),
        partial=exhausted is not None,
        exhausted=exhausted,
        frontier=tuple(working) if exhausted is not None else (),
    )


def essential_home(
    state: CompositeState,
    essential: Sequence[CompositeState],
    pruning: PruningMode,
) -> CompositeState:
    """The essential state containing *state* (itself if listed).

    Public because lasso replay (:mod:`repro.liveness.replay`) and the
    interpreter's liveness oracle (:mod:`repro.testkit.diff`) close
    their steps over the essential set with the same covering map.
    """
    if pruning is PruningMode.DUPLICATES:
        for candidate in essential:
            if candidate == state:
                return candidate
        raise AssertionError(
            f"state {state} not found among visited states (duplicates mode)"
        )
    for candidate in essential:
        if contains(state, candidate):
            return candidate
    raise AssertionError(
        f"successor {state} of an essential state is contained in no "
        "essential state; the pruning invariant is broken"
    )
