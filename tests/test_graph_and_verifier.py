"""Tests for diagram construction, DOT export and the verify() facade."""

from __future__ import annotations

import pytest

from repro.core.digraph import adjacency, is_strongly_connected
from repro.core.essential import PruningMode
from repro.core.graph import ascii_diagram, build_graph, to_dot
from repro.core.options import RunOptions
from repro.core.verifier import verify
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import get_mutant


class TestBuildGraph:
    def test_nodes_are_essential_states(self, illinois_result):
        graph = build_graph(illinois_result)
        assert len(graph.nodes) == len(illinois_result.essential)
        assert len(graph.edges) == len(illinois_result.transitions)

    def test_edges_carry_labels(self, illinois_result):
        graph = build_graph(illinois_result)
        labels = {d["label"] for _, _, d in graph.edges}
        assert "W_invalid" in labels
        assert "Z_dirty" in labels

    def test_initial_marked(self, illinois_result):
        graph = build_graph(illinois_result)
        initial = [n for n, d in graph.nodes.items() if d["initial"]]
        assert initial == [illinois_result.initial.pretty()] == [graph.initial]
        assert graph.protocol == "illinois"

    def test_graph_is_strongly_connected(self, illinois_result):
        graph = build_graph(illinois_result)
        assert is_strongly_connected(adjacency(graph.nodes, graph.edges))

    def test_node_attributes(self, illinois_result):
        graph = build_graph(illinois_result)
        for data in graph.nodes.values():
            assert "sharing" in data
            assert "mdata" in data
            assert data["state"] in illinois_result.essential


class TestDot:
    def test_dot_is_well_formed(self, illinois_result):
        dot = to_dot(illinois_result)
        assert dot.startswith('digraph "illinois"')
        assert dot.rstrip().endswith("}")
        assert dot.count("->") >= 5

    def test_dot_merges_parallel_edges(self, illinois_result):
        dot = to_dot(illinois_result)
        # W_v-ex and W_invalid share the s1->s2 arc; labels are merged.
        assert any("," in line for line in dot.splitlines() if "->" in line)


class TestAsciiDiagram:
    def test_lists_every_state_and_edge(self, illinois_result):
        text = ascii_diagram(illinois_result)
        for i in range(len(illinois_result.essential)):
            assert f"s{i}:" in text
        assert text.count("-->") == len(illinois_result.transitions)

    def test_initial_marked_with_arrow(self, illinois_result):
        text = ascii_diagram(illinois_result)
        assert "-> s0:" in text


class TestVerifyFacade:
    def test_by_name(self):
        report = verify("illinois")
        assert report.ok
        assert report.spec.name == "illinois"

    def test_by_instance(self):
        report = verify(IllinoisProtocol())
        assert report.ok

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            verify("tokencoherence")

    def test_render_verified(self):
        text = verify("illinois").render()
        assert "VERIFIED" in text
        assert "Essential states: 5" in text
        assert "Global transition diagram" in text

    def test_render_failed_includes_counterexample(self):
        mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
        report = verify(mutant)
        text = report.render()
        assert "FAILED" in text
        assert "Counterexample" in text
        assert "ERRONEOUS" in text

    def test_pruning_mode_forwarded(self):
        report = verify("msi", options=RunOptions(pruning=PruningMode.DUPLICATES))
        assert report.result.pruning is PruningMode.DUPLICATES

    def test_structural_mode(self):
        report = verify("illinois", options=RunOptions(augmented=False))
        assert report.ok
        assert not report.result.augmented

    def test_str_is_summary(self):
        assert "VERIFIED" in str(verify("illinois"))
