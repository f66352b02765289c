"""Comparing protocols through their global transition diagrams.

The paper's Section 5 notes that the global state graph "demonstrates
the similarities and disparities among protocols".  This module makes
that comparison concrete:

* per-protocol *shape* statistics (essential states, edges, operation
  mix);
* unlabeled-graph isomorphism between two diagrams;
* an edge-signature diff that lists which global behaviours one
  protocol has and the other lacks, abstracted away from the
  protocol-specific state names.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.digraph import adjacency, is_isomorphic
from ..core.result import ExpansionResult
from ..core.graph import build_graph

__all__ = ["DiagramShape", "ComparisonReport", "diagram_shape", "compare_protocols"]


@dataclass(frozen=True)
class DiagramShape:
    """Shape statistics of one global transition diagram."""

    protocol: str
    n_states: int
    n_edges: int
    n_self_loops: int
    ops_histogram: tuple[tuple[str, int], ...]
    degree_sequence: tuple[tuple[int, int], ...]

    def render(self) -> str:
        """Multi-line human-readable rendering."""
        ops = ", ".join(f"{op}:{count}" for op, count in self.ops_histogram)
        return (
            f"{self.protocol}: {self.n_states} states, {self.n_edges} edges "
            f"({self.n_self_loops} self-loops), ops {{{ops}}}"
        )


def diagram_shape(result: ExpansionResult) -> DiagramShape:
    """Compute the shape statistics of a protocol's global diagram."""
    graph = build_graph(result)
    ops = Counter(data["op"] for _, _, data in graph.edges)
    self_loops = sum(1 for u, v, _ in graph.edges if u == v)
    out_degree = Counter(u for u, _, _ in graph.edges)
    in_degree = Counter(v for _, v, _ in graph.edges)
    degrees = sorted((out_degree[node], in_degree[node]) for node in graph.nodes)
    return DiagramShape(
        protocol=result.spec.name,
        n_states=len(graph.nodes),
        n_edges=len(graph.edges),
        n_self_loops=self_loops,
        ops_histogram=tuple(sorted(ops.items())),
        degree_sequence=tuple(degrees),
    )


def _edge_signatures(result: ExpansionResult) -> Counter[tuple[str, bool, bool]]:
    """Abstract multiset of global behaviours: (op, from-initial, self-loop).

    State names are protocol-specific, so edges are abstracted to the
    operation, whether they leave the initial (all-invalid) state, and
    whether they are self-loops -- enough to see e.g. that write-update
    protocols keep sharers alive where write-invalidate ones do not.
    """
    sigs: Counter[tuple[str, bool, bool]] = Counter()
    for t in result.transitions:
        sigs[
            (
                t.label.op.value,
                t.source == result.initial,
                t.source == t.target,
            )
        ] += 1
    return sigs


@dataclass
class ComparisonReport:
    """Outcome of comparing two protocols' global diagrams."""

    a: DiagramShape
    b: DiagramShape
    isomorphic: bool
    only_in_a: Counter
    only_in_b: Counter

    def render(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [
            self.a.render(),
            self.b.render(),
            f"unlabeled diagrams isomorphic: {self.isomorphic}",
        ]
        if self.only_in_a:
            lines.append(f"behaviours only in {self.a.protocol}:")
            for (op, from_init, loop), count in sorted(self.only_in_a.items()):
                where = "initial" if from_init else ("self-loop" if loop else "inner")
                lines.append(f"  {op} ({where}) x{count}")
        if self.only_in_b:
            lines.append(f"behaviours only in {self.b.protocol}:")
            for (op, from_init, loop), count in sorted(self.only_in_b.items()):
                where = "initial" if from_init else ("self-loop" if loop else "inner")
                lines.append(f"  {op} ({where}) x{count}")
        return "\n".join(lines)


def compare_protocols(
    result_a: ExpansionResult, result_b: ExpansionResult
) -> ComparisonReport:
    """Compare the global transition diagrams of two protocols."""
    graph_a = build_graph(result_a)
    graph_b = build_graph(result_b)
    iso = is_isomorphic(
        adjacency(graph_a.nodes, graph_a.edges),
        adjacency(graph_b.nodes, graph_b.edges),
    )
    sig_a = _edge_signatures(result_a)
    sig_b = _edge_signatures(result_b)
    return ComparisonReport(
        a=diagram_shape(result_a),
        b=diagram_shape(result_b),
        isomorphic=iso,
        only_in_a=sig_a - sig_b,
        only_in_b=sig_b - sig_a,
    )
