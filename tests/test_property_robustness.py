"""Robustness properties: parser fuzzing, witness minimality, parallel
sweep determinism."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.essential import explore
from repro.protocols.dsl import DslError, parse_protocol
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import mutants_for
from repro.protocols.registry import get_protocol


class TestParserRobustness:
    """The DSL parser must fail *gracefully* on any input: either a
    valid protocol object or a :class:`DslError` with a message -- never
    an unrelated exception."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.text(max_size=400))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_protocol(text)
        except DslError:
            pass

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "protocol p",
                    "states A B",
                    "states A",
                    "invalid A",
                    "invalid Z",
                    "sharing-detection on",
                    "sharing-detection maybe",
                    "owners B",
                    "forbid multiple B",
                    "forbid together A B",
                    "operations R W Z",
                    "operations Q",
                    "restrict Z not-from B",
                    "on A R -> B load memory",
                    "on B R -> B",
                    "on A W -> B load memory ; all => A",
                    "on B W -> B writethrough",
                    "on B Z -> A",
                    "on B Z -> stall",
                    "on C R -> B",
                    "garbage line",
                    "",
                    "# comment",
                ]
            ),
            max_size=14,
        )
    )
    def test_shuffled_directives_never_crash(self, lines):
        try:
            spec = parse_protocol("\n".join(lines))
        except DslError:
            return
        # If it parsed, validation may still reject it -- also gracefully.
        from repro.core.protocol import ProtocolDefinitionError

        try:
            spec.validate()
        except (ProtocolDefinitionError, DslError):
            pass


class TestWitnessMinimality:
    """The worklist explores breadth-first, so the recorded witness is a
    shortest symbolic path to the erroneous state."""

    @pytest.mark.parametrize(
        "mutant",
        mutants_for(IllinoisProtocol()),
        ids=lambda m: m.mutation.key,
    )
    def test_witness_is_shortest_path(self, mutant):
        from repro.core.expansion import SymbolicExpander

        result = explore(mutant)
        assert not result.ok
        witness = result.witnesses[0]

        # BFS over the raw symbolic transition system up to the witness
        # depth: no strictly shorter path may reach the erroneous state.
        expander = SymbolicExpander(mutant, augmented=True)
        frontier = {result.initial}
        seen = {result.initial}
        depth = 0
        while depth < len(witness.steps):
            if witness.final in frontier:
                pytest.fail(
                    f"witness of length {len(witness.steps)} but the state "
                    f"is reachable in {depth} steps"
                )
            next_frontier = set()
            for state in frontier:
                for t in expander.successors(state):
                    if t.target not in seen:
                        seen.add(t.target)
                        next_frontier.add(t.target)
            frontier = next_frontier
            depth += 1
        assert witness.final in frontier or witness.final in seen


class TestParallelSweep:
    def test_parallel_equals_serial(self):
        from repro.analysis.sweeps import traffic_sweep

        specs = [get_protocol("msi"), get_protocol("illinois")]
        serial = traffic_sweep(specs, ["hot-block"], [2, 4], length=1200)
        parallel = traffic_sweep(
            specs, ["hot-block"], [2, 4], length=1200, workers=2
        )
        assert serial == parallel
