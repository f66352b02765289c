"""Tests for the bug-injection framework and verifier bug detection."""

from __future__ import annotations

import pytest

from repro.core.errors import ErrorKind
from repro.core.essential import explore
from repro.core.reactions import Ctx
from repro.core.symbols import CountCase, Op
from repro.protocols.mutations import (
    MUTATIONS,
    MutatedProtocol,
    get_mutant,
    mutants_for,
)
from repro.protocols.registry import all_protocols


class TestCatalog:
    def test_catalog_keys_match_mutations(self):
        for key, mutation in MUTATIONS.items():
            assert mutation.key == key

    def test_every_protocol_has_mutants(self, every_protocol):
        for spec in every_protocol:
            assert len(mutants_for(spec)) >= 3, spec.name

    def test_get_mutant_rejects_inapplicable(self):
        from repro.protocols.synapse import SynapseProtocol

        with pytest.raises(ValueError):
            get_mutant(SynapseProtocol(), "ignore-sharing-line")

    def test_mutant_metadata(self, illinois):
        mutant = get_mutant(illinois, "drop-invalidation")
        assert mutant.name == "illinois+drop-invalidation"
        assert "bug" in mutant.full_name
        assert mutant.states == illinois.states
        assert mutant.invalid == illinois.invalid


class TestMutationTransforms:
    def test_drop_invalidation_keeps_other_reactions(self, illinois):
        mutant = get_mutant(illinois, "drop-invalidation")
        base = illinois.react(
            "Shared", Op.WRITE, Ctx(frozenset({"Shared"}), CountCase.MANY)
        )
        mutated = mutant.react(
            "Shared", Op.WRITE, Ctx(frozenset({"Shared"}), CountCase.MANY)
        )
        assert base.observers["Shared"].next_state == "Invalid"
        assert "Shared" not in mutated.observers
        assert mutated.next_state == base.next_state

    def test_skip_replacement_writeback(self, illinois):
        mutant = get_mutant(illinois, "skip-replacement-writeback")
        mutated = mutant.react("Dirty", Op.REPLACE, Ctx())
        assert mutated.writeback_from is None
        assert mutated.next_state == "Invalid"

    def test_ignore_sharing_line(self, illinois):
        mutant = get_mutant(illinois, "ignore-sharing-line")
        mutated = mutant.react(
            "Invalid", Op.READ, Ctx(frozenset({"Shared"}), CountCase.MANY)
        )
        assert mutated.next_state == "V-Ex"

    def test_non_targeted_operations_unchanged(self, illinois):
        mutant = get_mutant(illinois, "drop-invalidation")
        for state in illinois.states:
            base = illinois.react(state, Op.READ, Ctx())
            mutated = mutant.react(state, Op.READ, Ctx())
            assert base == mutated

    def test_drop_update_broadcast(self):
        from repro.protocols.firefly import FireflyProtocol

        mutant = get_mutant(FireflyProtocol(), "drop-update-broadcast")
        mutated = mutant.react(
            "Shared", Op.WRITE, Ctx(frozenset({"Shared"}), CountCase.MANY)
        )
        assert not mutated.observers["Shared"].updated
        # The state machine is untouched; only the data update is lost.
        assert mutated.observers["Shared"].next_state == "Shared"


class TestVerifierKillsAllMutants:
    @pytest.mark.parametrize(
        "protocol_name,mutation_key",
        [
            (spec.name, mutant.mutation.key)
            for spec in all_protocols()
            for mutant in mutants_for(spec)
        ],
    )
    def test_mutant_is_killed_with_witness(self, protocol_name, mutation_key):
        from repro.protocols.registry import get_protocol

        mutant = get_mutant(get_protocol(protocol_name), mutation_key)
        result = explore(mutant)
        assert not result.ok, f"{mutant.name} escaped the verifier"
        assert result.witnesses
        # The witness ends in a state exhibiting the reported violation.
        witness = result.witnesses[0]
        assert witness.violations
        assert witness.final is not None


class TestExpectedErrorKinds:
    def test_drop_invalidation_yields_stale_read(self, illinois):
        result = explore(get_mutant(illinois, "drop-invalidation"))
        kinds = {v.kind for v in result.violations}
        assert ErrorKind.READABLE_OBSOLETE in kinds

    def test_skip_writeback_loses_the_value(self, illinois):
        result = explore(get_mutant(illinois, "skip-replacement-writeback"))
        kinds = {v.kind for v in result.violations}
        assert ErrorKind.VALUE_LOST in kinds

    def test_ignore_sharing_line_breaks_state_compatibility(self, illinois):
        result = explore(get_mutant(illinois, "ignore-sharing-line"))
        kinds = {v.kind for v in result.violations}
        assert ErrorKind.INCOMPATIBLE_STATES in kinds

    def test_structural_check_alone_misses_data_bugs(self, illinois):
        """skip-memory-update-on-supply never produces an incompatible
        state combination -- only the augmented (Definition 4) expansion
        catches it.  This motivates the paper's context variables."""
        mutant = get_mutant(illinois, "skip-memory-update-on-supply")
        structural = explore(mutant, augmented=False)
        augmented = explore(mutant, augmented=True)
        assert structural.ok  # the pure FSM looks fine...
        assert not augmented.ok  # ...but data consistency is broken


class TestMutatedProtocolBehaviour:
    def test_mutant_is_a_protocol_spec(self, illinois):
        mutant = get_mutant(illinois, "drop-invalidation")
        assert isinstance(mutant, MutatedProtocol)
        assert mutant.applicable("Dirty", Op.REPLACE)
        assert not mutant.applicable("Invalid", Op.REPLACE)
