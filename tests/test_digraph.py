"""Tests for the adjacency-dict graph helpers in repro.core.digraph.

Random digraphs of at most six nodes (self-loops allowed) are checked
against brute-force oracles: the reachability closure for descendants
and strongly connected components, and every node permutation for
isomorphism.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import (
    adjacency,
    descendants,
    is_isomorphic,
    is_strongly_connected,
    strongly_connected_components,
)


@st.composite
def digraphs(draw, max_nodes: int = 6) -> dict[int, dict[int, None]]:
    """An adjacency dict over nodes ``0..n-1`` in a drawn insertion order."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = draw(st.permutations(range(n)))
    pairs = list(itertools.product(range(n), repeat=2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return adjacency(nodes, edges)


def relabel(adj, mapping) -> dict:
    return {mapping[u]: {mapping[v]: None for v in adj[u]} for u in adj}


def closure(adj) -> dict:
    """Node -> nodes reachable by a non-empty path (fixpoint iteration)."""
    reach = {u: set(adj[u]) for u in adj}
    changed = True
    while changed:
        changed = False
        for u in adj:
            extra = set().union(*(reach[v] for v in reach[u])) - reach[u]
            if extra:
                reach[u] |= extra
                changed = True
    return reach


def edge_set(adj) -> set:
    return {(u, v) for u in adj for v in adj[u]}


def brute_force_isomorphic(a, b) -> bool:
    if len(a) != len(b):
        return False
    nodes_a, nodes_b, edges_b = list(a), list(b), edge_set(b)
    return any(
        {(m[u], m[v]) for u, v in edge_set(a)} == edges_b
        for m in (dict(zip(nodes_a, p)) for p in itertools.permutations(nodes_b))
    )


class TestAgainstOracles:
    @settings(max_examples=200)
    @given(digraphs())
    def test_descendants_match_reachability_closure(self, adj):
        reach = closure(adj)
        for node in adj:
            assert descendants(adj, node) == reach[node] - {node}

    @settings(max_examples=200)
    @given(digraphs())
    def test_components_are_mutual_reachability_classes(self, adj):
        reach = closure(adj)
        components = strongly_connected_components(adj)
        assert sorted(node for c in components for node in c) == sorted(adj)
        for component in components:
            for u, v in itertools.product(component, repeat=2):
                assert u == v or (v in reach[u] and u in reach[v])
        for c1, c2 in itertools.combinations(components, 2):
            u, v = next(iter(c1)), next(iter(c2))
            assert not (v in reach[u] and u in reach[v])
        assert is_strongly_connected(adj) == (len(components) == 1)

    @settings(max_examples=200)
    @given(digraphs())
    def test_components_come_in_reverse_topological_order(self, adj):
        # Tarjan emits a component only after every component it reaches.
        position = {}
        for i, component in enumerate(strongly_connected_components(adj)):
            position.update(dict.fromkeys(component, i))
        for u, v in edge_set(adj):
            assert position[v] <= position[u]

    @settings(max_examples=200)
    @given(digraphs(), digraphs())
    def test_isomorphism_matches_all_permutations(self, a, b):
        assert is_isomorphic(a, b) == brute_force_isomorphic(a, b)

    @settings(max_examples=200)
    @given(st.data())
    def test_relabelled_graph_is_isomorphic(self, data):
        adj = data.draw(digraphs())
        labels = data.draw(st.permutations([f"n{i}" for i in range(len(adj))]))
        assert is_isomorphic(adj, relabel(adj, dict(zip(adj, labels))))


class TestExamples:
    def test_adjacency_collapses_parallel_edges(self):
        adj = adjacency(["a"], [("a", "b", {"label": "x"}), ("a", "b", {})])
        assert adj == {"a": {"b": None}, "b": {}}

    def test_self_loop_counts_for_isomorphism(self):
        cycle = {0: {1: None}, 1: {0: None}}
        looped = {0: {1: None, 0: None}, 1: {0: None}}
        assert not is_isomorphic(cycle, looped)
        assert is_isomorphic(looped, {"x": {"y": None}, "y": {"x": None, "y": None}})

    def test_same_degrees_different_shape(self):
        # Two 2-cycles vs one 4-cycle: every node has in = out = 1.
        two_cycles = {0: {1: None}, 1: {0: None}, 2: {3: None}, 3: {2: None}}
        four_cycle = {0: {1: None}, 1: {2: None}, 2: {3: None}, 3: {0: None}}
        assert not is_isomorphic(two_cycles, four_cycle)

    def test_component_order_follows_insertion_order(self):
        adj = {"I": {"E": None}, "E": {"I": None}, "S": {"I": None}, "O": {}}
        assert strongly_connected_components(adj) == [{"I", "E"}, {"S"}, {"O"}]

    def test_empty_graph_is_not_strongly_connected(self):
        assert not is_strongly_connected({})
        assert is_strongly_connected({"only": {}})
