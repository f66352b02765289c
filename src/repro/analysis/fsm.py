"""Local (per-cache) FSM analysis — paper Definition 1.

Definition 1 requires the per-cache finite state machine to be
*strongly connected*: "starting from any given state there exists at
least one path leading to all other states".  This module derives the
local FSM from a protocol's guarded-action IR (:mod:`repro.ir`) -- an
edge ``q -> q'`` exists if some operation in some context moves the
initiator from ``q`` to ``q'``, or some bus transaction makes an
observer in ``q`` react into ``q'`` -- and checks the requirement with
Tarjan's strongly connected components (:mod:`repro.core.digraph`).
The lowered IR is the protocol's full behaviour table (a cache sees
the rest of the system only through the present-set), so this is the
one FSM derivation: lint's PL001 reads the same graph.

It also reports *dead states* (declared but unreachable from the
invalid state) which usually indicate a transcription error in a
specification.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.digraph import (
    descendants,
    is_strongly_connected,
    strongly_connected_components,
)
from ..core.protocol import ProtocolSpec

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
    """Derive the per-cache FSM graph of *spec* from its IR.

    The IR is the kernel's cached lowering of *spec*
    (:func:`repro.kernel.compile_protocol`), the one lint and
    verification read too.  Every cell of
    :meth:`~repro.ir.ProtocolIR.behaviour` is read; a stall, a
    ``raises`` entry or an uncovered context adds no edge.  Initiator
    edges are labelled ``<op>``; observer (coincident) edges, present
    only when the observer is in the context, are labelled
    ``snoop:<op>_<initiator-state>``.
    """
    from ..kernel import compile_protocol  # local: the kernel sits above

    ir = compile_protocol(spec).ir
    states = ir.states
    graph: dict[str, dict[str, set[str]]] = {state: {} for state in states}
    for state, op, ctx, t in ir.behaviour():
        if t is None or t.action.raises is not None or t.action.stalled:
            continue
        source = states[state]
        graph[source].setdefault(states[t.action.next_state], set()).add(ir.ops[op])
        for observer, nxt, _updated in t.action.observers:
            if ctx.has(states[observer]):
                graph[states[observer]].setdefault(states[nxt], set()).add(
                    f"snoop:{ir.ops[op]}_{source.lower()}"
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
