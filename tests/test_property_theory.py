"""Property tests of the paper's theory results.

* **Abstraction soundness** (the engine of Theorem 1): every concrete
  transition is simulated by a symbolic transition -- if concrete state
  ``c`` is an instance of composite state ``S`` and ``c -> c'``, then
  some symbolic successor of ``S`` admits ``c'``.
* **Monotonicity** (Lemmas 1-2, Corollaries 1-2): if ``S1 ⊆_F S2`` then
  every symbolic successor of ``S1`` is contained in a successor of
  ``S2`` -- the property that justifies discarding contained states.
Both are checked across the whole protocol zoo, over all states the
expansion actually reaches (plus systematic weakenings), not just the
Illinois example.
"""

from __future__ import annotations

import pytest

from repro.core.composite import CompositeState, make_state
from repro.core.covering import contains
from repro.core.essential import Disposition, explore
from repro.core.expansion import SymbolicExpander
from repro.core.operators import Rep
from repro.enumeration.crossval import is_instance
from repro.enumeration.exhaustive import Equivalence, enumerate_space
from repro.enumeration.product import concrete_successors
from repro.protocols.registry import protocol_names


def reachable_composites(spec, augmented=True) -> list[CompositeState]:
    """All composite states retained at some point during expansion."""
    result = explore(spec, augmented=augmented, keep_trace=True)
    return [result.initial] + [
        entry.target
        for entry in result.trace
        if entry.disposition in (Disposition.NEW, Disposition.SUPERSEDES)
    ]


def weakenings(state: CompositeState, invalid: str) -> list[CompositeState]:
    """States strictly containing *state*, by weakening one operator."""
    weaker = {Rep.ONE: Rep.PLUS, Rep.PLUS: Rep.STAR}
    out = []
    for idx, (label, rep) in enumerate(state.classes):
        if rep not in weaker:
            continue
        pieces = list(state.classes)
        pieces[idx] = (label, weaker[rep])
        candidate = make_state(pieces, sharing=state.sharing, mdata=state.mdata)
        try:
            candidate.check_consistent(invalid)
        except ValueError:
            continue
        out.append(candidate)
    return out


@pytest.mark.parametrize("name", protocol_names())
class TestAbstractionSoundness:
    def test_concrete_steps_simulated_by_symbolic_steps(self, name):
        from repro.protocols.registry import get_protocol

        spec = get_protocol(name)
        expander = SymbolicExpander(spec, augmented=True)
        composites = reachable_composites(spec)
        succ_cache = {
            s: [t.target for t in expander.successors(s)] for s in composites
        }
        enumeration = enumerate_space(spec, 3, equivalence=Equivalence.COUNTING)
        checked = 0
        for concrete in enumeration.states:
            homes = [s for s in composites if is_instance(concrete, s, spec)]
            assert homes, f"{name}: {concrete} not covered by any composite"
            for transition in concrete_successors(spec, concrete):
                target = transition.target
                for home in homes:
                    assert any(
                        is_instance(target, t, spec) for t in succ_cache[home]
                    ), (
                        f"{name}: concrete step {transition} not simulated "
                        f"from {home.pretty()}"
                    )
                    checked += 1
        assert checked > 0


@pytest.mark.parametrize("name", protocol_names())
class TestMonotonicity:
    def test_lemma2_successors_of_contained_states_are_contained(self, name):
        from repro.protocols.registry import get_protocol

        spec = get_protocol(name)
        expander = SymbolicExpander(spec, augmented=True)
        checked = 0
        for small in reachable_composites(spec):
            for big in weakenings(small, spec.invalid):
                assert contains(small, big)
                big_successors = [t.target for t in expander.successors(big)]
                for t in expander.successors(small):
                    assert any(
                        contains(t.target, candidate)
                        for candidate in big_successors
                    ), (
                        f"{name}: successor {t.target.pretty()} of "
                        f"{small.pretty()} not covered from {big.pretty()}"
                    )
                    checked += 1
        assert checked > 0

    def test_containment_pairs_among_reachable_states(self, name):
        """Monotonicity over naturally-arising containment pairs (not
        just systematic weakenings)."""
        from repro.protocols.registry import get_protocol

        spec = get_protocol(name)
        expander = SymbolicExpander(spec, augmented=True)
        composites = reachable_composites(spec)
        pairs = [
            (a, b)
            for a in composites
            for b in composites
            if a != b and contains(a, b)
        ]
        for small, big in pairs:
            big_successors = [t.target for t in expander.successors(big)]
            for t in expander.successors(small):
                assert any(
                    contains(t.target, candidate) for candidate in big_successors
                )
