"""Small directed-graph algorithms over adjacency dicts.

The graphs this package analyses have at most a few dozen nodes: a
protocol's per-cache FSM (paper Definition 1) and its global transition
diagram over the essential states (Figure 4).  Both are held as an
*adjacency dict*: every node maps to the collection of its successors
(a dict or set; edge data, if any, is ignored here).  Iteration follows
insertion order, so results such as the order of strongly connected
components are deterministic.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Mapping

__all__ = [
    "Adjacency",
    "adjacency",
    "descendants",
    "strongly_connected_components",
    "is_strongly_connected",
    "is_isomorphic",
]

#: Node -> successors.  Every endpoint must itself be a key.
Adjacency = Mapping[Hashable, Collection[Hashable]]


def adjacency(
    nodes: Iterable[Hashable], edges: Iterable[tuple]
) -> dict[Hashable, dict[Hashable, None]]:
    """Collapse ``(source, target, ...)`` edges into an adjacency dict.

    Parallel edges become one; endpoints missing from *nodes* are added
    after them, in first-seen order.
    """
    adj: dict[Hashable, dict[Hashable, None]] = {node: {} for node in nodes}
    for source, target, *_ in edges:
        adj.setdefault(source, {})[target] = None
        adj.setdefault(target, {})
    return adj


def descendants(adj: Adjacency, source: Hashable) -> set[Hashable]:
    """Nodes reachable from *source* by a non-empty path, *source* excluded."""
    seen = {source}
    stack = [source]
    while stack:
        for successor in adj[stack.pop()]:
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen - {source}


def strongly_connected_components(adj: Adjacency) -> list[set[Hashable]]:
    """Tarjan's algorithm: components in the order their roots finish.

    Nodes and successors are visited in insertion order.  Recursive, so
    meant for small graphs.
    """
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    on_stack: set[Hashable] = set()
    components: list[set[Hashable]] = []

    def visit(node: Hashable) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for successor in adj[node]:
            if successor not in index:
                visit(successor)
                low[node] = min(low[node], low[successor])
            elif successor in on_stack:
                low[node] = min(low[node], index[successor])
        if low[node] == index[node]:
            component = set()
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.add(member)
                if member == node:
                    break
            components.append(component)

    for node in adj:
        if node not in index:
            visit(node)
    return components


def is_strongly_connected(adj: Adjacency) -> bool:
    """True when every node reaches every other (and the graph is non-empty)."""
    return len(strongly_connected_components(adj)) == 1


def is_isomorphic(a: Adjacency, b: Adjacency) -> bool:
    """Unlabeled digraph isomorphism by degree-pruned backtracking.

    A bijection of nodes must map edges onto edges both ways; a
    self-loop is an edge like any other.  An adjacency dict holds each
    edge once, and any edge data it carries plays no part.
    """
    if len(a) != len(b):
        return False
    sig_a, sig_b = _signatures(a), _signatures(b)
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return False
    # Most constrained nodes first: high degree prunes early.
    order = sorted(a, key=lambda node: -(sig_a[node][0] + sig_a[node][1]))
    mapping: dict[Hashable, Hashable] = {}
    used: set[Hashable] = set()

    def extend(depth: int) -> bool:
        if depth == len(order):
            return True
        node = order[depth]
        for image in b:
            if image in used or sig_b[image] != sig_a[node]:
                continue
            if all(
                (other in a[node]) == (mapping[other] in b[image])
                and (node in a[other]) == (image in b[mapping[other]])
                for other in mapping
            ):
                mapping[node] = image
                used.add(image)
                if extend(depth + 1):
                    return True
                del mapping[node]
                used.discard(image)
        return False

    return extend(0)


def _signatures(adj: Adjacency) -> dict[Hashable, tuple[int, int, bool]]:
    """Per node: (out-degree, in-degree, has a self-loop)."""
    in_degree = dict.fromkeys(adj, 0)
    for successors in adj.values():
        for successor in successors:
            in_degree[successor] += 1
    return {
        node: (len(successors), in_degree[node], node in successors)
        for node, successors in adj.items()
    }
