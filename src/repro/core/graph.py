"""Global transition diagrams (paper Figure 4).

Builds the protocol's global FSM over the essential composite states as
plain data (:class:`GlobalGraph`), renders it as DOT (for graphviz) and
as a deterministic ASCII adjacency listing for terminals and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .essential import ExpansionResult

__all__ = ["GlobalGraph", "build_graph", "to_dot", "ascii_diagram"]


@dataclass(frozen=True)
class GlobalGraph:
    """The global transition diagram of one protocol.

    ``nodes`` maps each essential state's pretty rendering to its
    attributes (the :class:`~repro.core.composite.CompositeState` as
    ``state``, plus ``structure``, ``sharing``, ``mdata`` and
    ``initial``).  ``edges`` lists every transition as ``(source,
    target, attributes)`` with ``label``, ``op`` and ``initiator``;
    parallel edges between one pair of states are kept.
    """

    protocol: str
    augmented: bool
    initial: str
    nodes: dict[str, dict[str, Any]]
    edges: list[tuple[str, str, dict[str, Any]]]


def build_graph(result: ExpansionResult) -> GlobalGraph:
    """The global transition diagram of *result* as a :class:`GlobalGraph`."""
    nodes = {
        state.pretty(): {
            "state": state,
            "structure": state.pretty(annotations=False),
            "sharing": state.sharing.value if state.sharing is not None else None,
            "mdata": state.mdata.value if state.mdata is not None else None,
            "initial": state == result.initial,
        }
        for state in result.essential
    }
    edges = [
        (
            transition.source.pretty(),
            transition.target.pretty(),
            {
                "label": str(transition.label),
                "op": transition.label.op.value,
                "initiator": transition.label.initiator,
            },
        )
        for transition in result.transitions
    ]
    return GlobalGraph(
        protocol=result.spec.name,
        augmented=result.augmented,
        initial=result.initial.pretty(),
        nodes=nodes,
        edges=edges,
    )


def to_dot(result: ExpansionResult) -> str:
    """Graphviz DOT rendering of the global transition diagram.

    Self-contained (no pydot dependency); edge labels match the paper's
    Figure 4 notation.
    """
    lines = [
        f'digraph "{result.spec.name}" {{',
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    index = {state: f"s{i}" for i, state in enumerate(result.essential)}
    for state, node_id in index.items():
        shape = "doubleoctagon" if state == result.initial else "box"
        label = state.pretty().replace('"', r"\"")
        lines.append(f'  {node_id} [label="{label}", shape={shape}];')
    # Merge parallel edges between the same pair into one label.
    merged: dict[tuple[str, str], list[str]] = {}
    for t in result.transitions:
        key = (index[t.source], index[t.target])
        merged.setdefault(key, []).append(str(t.label))
    for (src, dst), labels in sorted(merged.items()):
        text = ", ".join(sorted(set(labels)))
        lines.append(f'  {src} -> {dst} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)


def ascii_diagram(result: ExpansionResult) -> str:
    """Deterministic adjacency listing of the global diagram."""
    order = {state: i for i, state in enumerate(result.essential)}
    lines = [f"Global transition diagram: {result.spec.full_name or result.spec.name}"]
    for state in result.essential:
        prefix = "->" if state == result.initial else "  "
        lines.append(f"{prefix} s{order[state]}: {state.pretty()}")
        outgoing = sorted(
            (t for t in result.transitions if t.source == state),
            key=lambda t: (str(t.label), order[t.target]),
        )
        for t in outgoing:
            lines.append(f"       --{t.label}--> s{order[t.target]}")
    return "\n".join(lines)
