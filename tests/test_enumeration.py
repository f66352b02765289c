"""Tests for the explicit product machine and the Figure 2 baselines."""

from __future__ import annotations

import pytest

from repro.core.symbols import DataValue, Op, SharingLevel
from repro.enumeration.exhaustive import (
    Equivalence,
    enumerate_space,
)
from repro.enumeration.product import (
    ConcreteState,
    concrete_successors,
    initial_concrete,
)
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import get_mutant
from repro.protocols.msi import MsiProtocol

F = DataValue.FRESH
O = DataValue.OBSOLETE
N = DataValue.NODATA


class TestConcreteState:
    def test_initial(self):
        state = initial_concrete(IllinoisProtocol(), 3)
        assert state.states == ("Invalid",) * 3
        assert state.cdata == (N,) * 3
        assert state.mdata is F

    def test_initial_rejects_zero_caches(self):
        with pytest.raises(ValueError):
            initial_concrete(IllinoisProtocol(), 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConcreteState(("Invalid",), (N, N), F)

    def test_counts_and_copies(self):
        state = ConcreteState(("Dirty", "Invalid", "Invalid"), (F, N, N), O)
        assert state.counts() == {"Dirty": 1, "Invalid": 2}
        assert state.copies("Invalid") == 1
        assert state.sharing_level("Invalid") is SharingLevel.ONE

    def test_canonical_is_permutation_invariant(self):
        a = ConcreteState(("Dirty", "Invalid"), (F, N), O)
        b = ConcreteState(("Invalid", "Dirty"), (N, F), O)
        assert a.canonical() == b.canonical()
        assert a != b


class TestConcreteSuccessors:
    def test_read_miss_from_empty(self):
        spec = IllinoisProtocol()
        init = initial_concrete(spec, 2)
        targets = {
            t.target
            for t in concrete_successors(spec, init)
            if t.op is Op.READ and t.actor == 0
        }
        assert targets == {
            ConcreteState(("V-Ex", "Invalid"), (F, N), F),
        }

    def test_write_invalidates_other_copy(self):
        spec = IllinoisProtocol()
        shared = ConcreteState(("Shared", "Shared"), (F, F), F)
        targets = {
            t.target
            for t in concrete_successors(spec, shared)
            if t.op is Op.WRITE and t.actor == 0
        }
        assert targets == {
            ConcreteState(("Dirty", "Invalid"), (F, N), O),
        }

    def test_dirty_supplier_flushes_on_read_miss(self):
        spec = IllinoisProtocol()
        state = ConcreteState(("Dirty", "Invalid"), (F, N), O)
        targets = {
            t.target
            for t in concrete_successors(spec, state)
            if t.op is Op.READ and t.actor == 1
        }
        assert targets == {
            ConcreteState(("Shared", "Shared"), (F, F), F),
        }

    def test_replacement_not_offered_for_invalid(self):
        spec = IllinoisProtocol()
        init = initial_concrete(spec, 2)
        assert not any(
            t.op is Op.REPLACE for t in concrete_successors(spec, init)
        )


class TestEnumerateSpace:
    def test_strict_reaches_known_count_n2(self):
        result = enumerate_space(IllinoisProtocol(), 2)
        # Hand-countable: {II, V I, I V, D I, I D, SS} plus the
        # asymmetric shared-with-invalid pairs are not distinct at n=2.
        assert result.stats.unique_states == 8
        assert result.ok

    def test_counting_collapses_permutations(self):
        strict = enumerate_space(IllinoisProtocol(), 3)
        counting = enumerate_space(
            IllinoisProtocol(), 3, equivalence=Equivalence.COUNTING
        )
        assert counting.stats.unique_states < strict.stats.unique_states
        assert counting.ok

    def test_growth_with_n(self):
        counts = [
            enumerate_space(IllinoisProtocol(), n).stats.unique_states
            for n in (1, 2, 3, 4)
        ]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_visits_exceed_unique_states(self):
        result = enumerate_space(IllinoisProtocol(), 3)
        assert result.stats.visits > result.stats.unique_states

    def test_mutant_errors_found_concretely(self):
        mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
        result = enumerate_space(mutant, 2)
        assert not result.ok
        assert result.erroneous

    def test_correct_protocols_clean_for_small_n(self, every_protocol):
        for spec in every_protocol:
            for n in (1, 2, 3):
                assert enumerate_space(spec, n).ok, (spec.name, n)

    def test_msi_state_space_is_tiny(self):
        result = enumerate_space(MsiProtocol(), 2)
        # II, SI, IS, MI, IM, SS -- exactly six reachable states.
        assert result.stats.unique_states == 6
