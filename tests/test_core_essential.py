"""Unit tests for the Figure 3 essential-state worklist algorithm."""

from __future__ import annotations

from repro.core.covering import contains
from repro.core.essential import Disposition, PruningMode, explore
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import get_mutant
from repro.protocols.msi import MsiProtocol


class TestFixpoint:
    def test_illinois_has_five_essential_states(self, illinois_result):
        assert len(illinois_result.essential) == 5

    def test_initial_state_is_essential(self, illinois_result):
        assert illinois_result.initial in illinois_result.essential

    def test_essential_states_are_mutually_incomparable(self, illinois_result):
        ess = illinois_result.essential
        for a in ess:
            for b in ess:
                if a != b:
                    assert not contains(a, b), f"{a} ⊆ {b}"

    def test_result_is_ok_for_correct_protocol(self, illinois_result):
        assert illinois_result.ok
        assert illinois_result.violations == ()
        assert illinois_result.witnesses == ()

    def test_deterministic(self):
        a = explore(IllinoisProtocol())
        b = explore(IllinoisProtocol())
        assert a.essential == b.essential
        assert a.stats.visits == b.stats.visits


class TestTransitions:
    def test_transitions_connect_essential_states(self, illinois_result):
        ess = set(illinois_result.essential)
        for t in illinois_result.transitions:
            assert t.source in ess
            assert t.target in ess

    def test_every_essential_state_is_reachable_in_graph(self, illinois_result):
        """The global FSM is strongly connected from the initial state
        (Definition 1 requires strong connectivity of the cache FSM; the
        global diagram is at least reachable)."""
        reached = {illinois_result.initial}
        frontier = [illinois_result.initial]
        while frontier:
            current = frontier.pop()
            for t in illinois_result.transitions:
                if t.source == current and t.target not in reached:
                    reached.add(t.target)
                    frontier.append(t.target)
        assert reached == set(illinois_result.essential)

    def test_strongly_connected(self, illinois_result):
        """Every essential state can get back to the initial state."""
        # Reverse reachability from the initial state.
        reached = {illinois_result.initial}
        changed = True
        while changed:
            changed = False
            for t in illinois_result.transitions:
                if t.target in reached and t.source not in reached:
                    reached.add(t.source)
                    changed = True
        assert reached == set(illinois_result.essential)


class TestStats:
    def test_visits_counted(self, illinois_result):
        assert illinois_result.stats.visits >= len(illinois_result.essential)

    def test_illinois_visit_count_close_to_paper(self, illinois_result):
        """The paper reports 22 state visits; our rule granularity
        differs slightly (single steps + scenario splits), so we accept
        a small band around the paper's number."""
        assert 20 <= illinois_result.stats.visits <= 30

    def test_elapsed_positive(self, illinois_result):
        assert illinois_result.stats.elapsed > 0

    def test_scenarios_counted(self, illinois_result):
        assert illinois_result.stats.scenarios >= illinois_result.stats.visits


class TestPruningModes:
    def test_duplicates_mode_visits_more_states(self):
        pruned = explore(MsiProtocol(), pruning=PruningMode.CONTAINMENT)
        unpruned = explore(MsiProtocol(), pruning=PruningMode.DUPLICATES)
        assert unpruned.stats.visits >= pruned.stats.visits
        assert len(unpruned.essential) >= len(pruned.essential)

    def test_duplicates_mode_same_verdict(self):
        assert explore(MsiProtocol(), pruning=PruningMode.DUPLICATES).ok
        mutant = get_mutant(MsiProtocol(), "drop-invalidation")
        assert not explore(mutant, pruning=PruningMode.DUPLICATES).ok

    def test_containment_states_cover_duplicate_states(self):
        pruned = explore(MsiProtocol(), pruning=PruningMode.CONTAINMENT)
        unpruned = explore(MsiProtocol(), pruning=PruningMode.DUPLICATES)
        for state in unpruned.essential:
            assert any(contains(state, e) for e in pruned.essential)


class TestTrace:
    def test_trace_recorded_on_request(self):
        result = explore(IllinoisProtocol(), keep_trace=True)
        assert len(result.trace) == result.stats.visits
        assert any(e.disposition is Disposition.NEW for e in result.trace)
        assert any(
            e.disposition in (Disposition.CONTAINED, Disposition.DUPLICATE)
            for e in result.trace
        )

    def test_trace_renders(self):
        result = explore(IllinoisProtocol(), keep_trace=True)
        text = result.trace[0].render()
        assert "-->" in text

    def test_trace_off_by_default(self, illinois_result):
        assert illinois_result.trace == ()

    def test_trace_lists_retained_states(self):
        result = explore(IllinoisProtocol(), keep_trace=True)
        retained = [
            e.target
            for e in result.trace
            if e.disposition in (Disposition.NEW, Disposition.SUPERSEDES)
        ]
        assert len(retained) >= 4  # everything except the initial state
        assert set(result.essential) <= {result.initial, *retained}


class TestErrorHandling:
    def test_stop_on_error_halts_early(self):
        mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
        eager = explore(mutant, stop_on_error=True)
        full = explore(mutant, stop_on_error=False)
        assert not eager.ok and not full.ok
        assert eager.stats.visits <= full.stats.visits

    def test_witness_path_starts_at_initial(self):
        mutant = get_mutant(IllinoisProtocol(), "skip-replacement-writeback")
        result = explore(mutant)
        assert result.witnesses
        witness = result.witnesses[0]
        assert witness.steps[0][0] == result.initial
        assert witness.violations

    def test_witness_path_follows_real_transitions(self):
        """Each step of a witness is a genuine symbolic transition."""
        from repro.core.expansion import SymbolicExpander

        mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
        result = explore(mutant)
        expander = SymbolicExpander(mutant, augmented=True)
        witness = result.witnesses[0]
        chain = list(witness.steps) + [(witness.final, None)]
        for (state, label), (next_state, _) in zip(chain, chain[1:]):
            succs = {
                (str(t.label), t.target) for t in expander.successors(state)
            }
            assert (label, next_state) in succs


class TestSummary:
    def test_summary_text(self, illinois_result):
        text = illinois_result.summary()
        assert "VERIFIED" in text
        assert "5 essential states" in text

    def test_failed_summary(self):
        mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
        assert "FAILED" in explore(mutant).summary()
