"""Compiled essential-state generation (Figure 3 on interned ids).

A step-for-step mirror of :func:`repro.core.essential.explore` that
works on interned state ids instead of :class:`CompositeState` values:
successor generation, violation checking and containment all become
table/memo lookups on the :class:`~repro.kernel.compile.CompiledProtocol`.
Verdicts, violation kinds, witness shapes, essential sets, visit counts
and the partial semantics are identical by construction -- the worklist
control flow below is a transliteration, not a redesign.  It has no
trace log and never stops at the first error: those are debugging aids
of the interpreter (``repro verify --trace``).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from ..core.composite import CompositeState
from ..core.errors import Witness
from ..core.protocol import ProtocolSpec
from ..core.result import (
    ExpansionResult,
    ExpansionStats,
    PruningMode,
    SymbolicTransition,
    initial_state,
)
from ..ir.model import IRError
from ..obs.collector import active as _active_collector
from ..obs import clock
from .compile import CompiledProtocol, compile_protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.guard import Exhaustion, Guard

__all__ = ["essential_home_id", "explore"]


def explore(
    spec: ProtocolSpec,
    *,
    augmented: bool = True,
    pruning: PruningMode = PruningMode.CONTAINMENT,
    guard: "Guard | None" = None,
    compiled: CompiledProtocol | None = None,
) -> ExpansionResult:
    """Run Figure 3 on the compiled kernel; same contract as the
    interpreter's :func:`~repro.core.essential.explore`: ``guard`` owns
    every budget and an exhausted one yields a PARTIAL, and without a
    guard the run goes to its fixpoint.

    ``compiled`` short-circuits compilation when the caller already
    holds the :class:`CompiledProtocol` (the differential gate and the
    benchmarks do, to control memo warmth).  Otherwise the spec is
    lowered under ``guard``; a guard that trips there yields a PARTIAL
    whose only frontier state is the initial one.
    """
    try:
        cp = compiled if compiled is not None else compile_protocol(spec, guard)
    except IRError:
        if guard is None or guard.exhausted is None:
            raise
        initial = initial_state(spec, augmented)
        return ExpansionResult(
            spec=spec, augmented=augmented, pruning=pruning, initial=initial,
            essential=(), transitions=(), stats=ExpansionStats(),
            violations=(), witnesses=(), partial=True,
            exhausted=guard.exhausted, frontier=(initial,),
        )
    stats = ExpansionStats()
    started = clock.monotonic()

    coll = _active_collector()
    if coll is not None:
        intern_h0, intern_m0 = cp.intern_hits, cp.intern_misses
        cont_h0, cont_m0 = cp.containment_hits, cp.containment_misses
        root_span = coll.span(
            "kernel.expand",
            protocol=spec.name,
            pruning=pruning.value,
            augmented=augmented,
        )
        root_span.__enter__()

    contains_ids = cp.contains_ids
    labels = cp.label_masks
    required = cp.required_masks
    decoded = cp.decoded

    init_id = cp.initial_id(augmented)
    working: list[int] = [init_id]
    visited: list[int] = []
    discovery: dict[int, tuple[int, str] | None] = {init_id: None}
    violations: list = []
    witnesses: list[Witness] = []
    reported: set[int] = set()

    def record_error(state_id: int) -> bool:
        if state_id in reported:
            return False
        found = cp.violations_of(state_id)
        if found:
            reported.add(state_id)
            violations.extend(found)
            steps: list[tuple[CompositeState, str]] = []
            cursor = state_id
            while True:
                entry = discovery[cursor]
                if entry is None:
                    break
                pred, label = entry
                steps.append((decoded(pred), label))
                cursor = pred
            steps.reverse()
            witnesses.append(Witness(tuple(steps), decoded(state_id), found))
            return True
        return False

    record_error(init_id)

    exhausted: "Exhaustion | None" = None
    containment = pruning is PruningMode.CONTAINMENT
    try:
        while working and exhausted is None:
            if len(working) > stats.max_worklist:
                stats.max_worklist = len(working)
            current = working.pop(0)
            stats.expanded += 1
            discard_current = False
            if coll is not None:
                coll.observe("expand.worklist.depth", len(working) + 1)

            entries, scenarios = cp.successors(current)
            stats.scenarios += scenarios
            for opid, init_sid, target in entries:
                stats.visits += 1
                if guard is not None:
                    exhausted = guard.check(
                        visits=stats.visits,
                        states=len(working) + len(visited) + 1,
                    )
                    if exhausted is not None:
                        break
                if target not in discovery:
                    discovery[target] = (current, cp.label_str(opid, init_sid))

                record_error(target)

                if containment:
                    # Signature prefilter (see compile._signature): the
                    # pair (a, b) reaches the memo only if a's labels
                    # lie within b's and include b's required labels.
                    t_lab = labels[target]
                    t_out = ~t_lab
                    t_req = required[target]
                    if any(
                        contains_ids(target, p)
                        for p in chain((current,), working, visited)
                        if labels[p] & t_lab == t_lab
                        and not required[p] & t_out
                    ):
                        stats.discarded_contained += 1
                    else:
                        before = len(working) + len(visited)
                        working = [
                            p
                            for p in working
                            if labels[p] & t_out
                            or labels[p] & t_req != t_req
                            or not contains_ids(p, target)
                        ]
                        visited = [
                            q
                            for q in visited
                            if labels[q] & t_out
                            or labels[q] & t_req != t_req
                            or not contains_ids(q, target)
                        ]
                        removed = before - len(working) - len(visited)
                        stats.removed_superseded += removed
                        working.append(target)
                        if (
                            not labels[current] & t_out
                            and labels[current] & t_req == t_req
                            and contains_ids(current, target)
                        ):
                            # Figure 3: discard the current state and
                            # restart the outer loop.
                            discard_current = True
                else:  # PruningMode.DUPLICATES
                    if target == current or target in working or target in visited:
                        stats.duplicates += 1
                    else:
                        working.append(target)
                if discard_current:
                    break

            if not discard_current and exhausted is None:
                visited.append(current)
            elif exhausted is not None:
                working.insert(0, current)

        essential_ids = tuple(visited)

        # Edges of the global diagram between essential states; skipped
        # on partial runs (the pruning invariant only holds at fixpoint).
        # The successor memo makes this pass pure lookups.
        edges: dict[tuple[int, str, int], SymbolicTransition] = {}
        if exhausted is None:
            for source in essential_ids:
                source_entries, _ = cp.successors(source)
                for opid, init_sid, target in source_entries:
                    home = essential_home_id(
                        cp, target, essential_ids, pruning
                    )
                    key = (source, cp.label_str(opid, init_sid), home)
                    if key not in edges:
                        edges[key] = SymbolicTransition(
                            decoded(source),
                            cp.transition_label(opid, init_sid),
                            decoded(home),
                        )
    finally:
        if coll is not None:
            root_span.__exit__(None, None, None)

    stats.elapsed = clock.monotonic() - started
    if coll is not None:
        coll.count("expand.visits", stats.visits)
        coll.count("expand.expanded", stats.expanded)
        coll.count("expand.pruned.contained", stats.discarded_contained)
        coll.count("expand.pruned.superseded", stats.removed_superseded)
        coll.count("expand.pruned.duplicate", stats.duplicates)
        coll.count("expand.scenarios", stats.scenarios)
        coll.count("kernel.intern.hits", cp.intern_hits - intern_h0)
        coll.count("kernel.intern.misses", cp.intern_misses - intern_m0)
        coll.count("kernel.containment.hits", cp.containment_hits - cont_h0)
        coll.count(
            "kernel.containment.misses", cp.containment_misses - cont_m0
        )
        coll.gauge("expand.worklist.peak", stats.max_worklist)
        root_span.set(
            essential=len(essential_ids),
            visits=stats.visits,
            partial=exhausted is not None,
        )
    return ExpansionResult(
        spec=spec,
        augmented=augmented,
        pruning=pruning,
        initial=decoded(init_id),
        essential=tuple(decoded(i) for i in essential_ids),
        transitions=tuple(edges.values()),
        stats=stats,
        violations=tuple(violations),
        witnesses=tuple(witnesses),
        partial=exhausted is not None,
        exhausted=exhausted,
        frontier=(
            tuple(decoded(i) for i in working)
            if exhausted is not None
            else ()
        ),
    )


def essential_home_id(
    cp: CompiledProtocol,
    state_id: int,
    essential_ids: tuple[int, ...],
    pruning: PruningMode,
) -> int:
    """The essential id containing *state_id* (itself if listed): the
    id form of :func:`repro.core.essential.essential_home`, which the
    final edge pass and the liveness product both close over.

    Interned ids make value equality id equality, so the duplicates
    branch is a membership test.
    """
    if pruning is PruningMode.DUPLICATES:
        if state_id in essential_ids:
            return state_id
        raise AssertionError(
            f"state {cp.decoded(state_id)} not found among visited states "
            "(duplicates mode)"
        )
    labels = cp.label_masks
    required = cp.required_masks
    s_lab = labels[state_id]
    s_out = ~s_lab
    for candidate in essential_ids:
        if (
            labels[candidate] & s_lab == s_lab
            and not required[candidate] & s_out
            and cp.contains_ids(state_id, candidate)
        ):
            return candidate
    raise AssertionError(
        f"successor {cp.decoded(state_id)} of an essential state is "
        "contained in no essential state; the pruning invariant is broken"
    )
