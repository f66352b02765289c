"""Local (per-cache) FSM analysis — paper Definition 1.

Definition 1 requires the per-cache finite state machine to be
*strongly connected*: "starting from any given state there exists at
least one path leading to all other states".  This module derives the
local FSM from a protocol specification — an edge ``q -> q'`` exists if
some operation in some context moves the initiator from ``q`` to
``q'``, or some bus transaction makes an observer in ``q`` react into
``q'`` — and checks the requirement with Tarjan's strongly connected
components (:mod:`repro.core.digraph`).

It also reports *dead states* (declared but unreachable from the
invalid state) which usually indicate a transcription error in a
specification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.digraph import (
    descendants,
    is_strongly_connected,
    strongly_connected_components,
)
from ..core.protocol import ProtocolSpec
from ..core.reactions import observation_contexts

__all__ = ["LocalFsm", "local_fsm", "check_definition_1"]


@dataclass
class LocalFsm:
    """The derived per-cache FSM of one protocol.

    ``graph`` is an adjacency dict: state -> successor state -> the
    reasons (operation labels) that realize the edge.
    """

    spec: ProtocolSpec
    graph: dict[str, dict[str, set[str]]]

    @property
    def strongly_connected(self) -> bool:
        """Definition 1's requirement on the cache FSM."""
        return is_strongly_connected(self.graph)

    def dead_states(self) -> frozenset[str]:
        """Declared states unreachable from the invalid state."""
        reachable = descendants(self.graph, self.spec.invalid) | {self.spec.invalid}
        return frozenset(set(self.spec.states) - reachable)

    def edge_reasons(self, source: str, target: str) -> tuple[str, ...]:
        """Why the edge exists (operation labels that realize it)."""
        return tuple(sorted(self.graph.get(source, {}).get(target, ())))


def local_fsm(spec: ProtocolSpec) -> LocalFsm:
    """Derive the per-cache FSM graph of *spec*.

    Every present-set is probed; a probe that raises adds no edge (the
    flow analysis treats a ``raises`` entry the same way).  Initiator
    edges are labelled ``<op>``; observer (coincident) edges are
    labelled ``snoop:<op>_<initiator-state>``.
    """
    graph: dict[str, dict[str, set[str]]] = {state: {} for state in spec.states}

    def add_edge(source: str, target: str, reason: str) -> None:
        graph.setdefault(source, {}).setdefault(target, set()).add(reason)
        graph.setdefault(target, {})

    contexts = observation_contexts(spec.valid_states())
    for state, op in itertools.product(spec.states, spec.operations):
        if not spec.applicable(state, op):
            continue
        for ctx in contexts:
            try:
                outcome = spec.react(state, op, ctx)
            except Exception:  # noqa: BLE001 - a raising probe adds no edge
                continue
            if outcome.stalled:
                continue
            add_edge(state, outcome.next_state, op.value)
            for observer, reaction in outcome.observers.items():
                if ctx.has(observer):
                    add_edge(
                        observer,
                        reaction.next_state,
                        f"snoop:{op.value}_{state.lower()}",
                    )
    return LocalFsm(spec=spec, graph=graph)


def check_definition_1(spec: ProtocolSpec) -> list[str]:
    """All Definition 1 problems of *spec* (empty = compliant).

    Returns human-readable findings: missing strong connectivity (with
    the offending component) and dead states.
    """
    fsm = local_fsm(spec)
    problems: list[str] = []
    dead = fsm.dead_states()
    if dead:
        problems.append(
            f"states unreachable from {spec.invalid}: {', '.join(sorted(dead))}"
        )
    if not fsm.strongly_connected:
        components = [sorted(c) for c in strongly_connected_components(fsm.graph)]
        if len(components) > 1:
            problems.append(
                "cache FSM is not strongly connected; components: "
                + "; ".join("{" + ", ".join(c) + "}" for c in components)
            )
    return problems
