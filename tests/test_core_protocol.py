"""Unit tests for the ProtocolSpec base class and its validation."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import protocol
from repro.core.protocol import ProtocolDefinitionError, ProtocolSpec, reaction_table
from repro.core.reactions import Ctx, MEMORY, ObserverReaction, Outcome, from_cache
from repro.core.symbols import Op


class MiniProtocol(ProtocolSpec):
    """A tiny valid two-state protocol used as a validation baseline."""

    name = "mini"
    full_name = "Minimal valid/invalid protocol"
    states = ("Invalid", "Valid")
    invalid = "Invalid"

    def react(self, state: str, op: Op, ctx: Ctx) -> Outcome:
        if op is Op.REPLACE:
            return Outcome("Invalid")
        if state == "Invalid":
            return Outcome(
                "Valid",
                load_from=MEMORY,
                observers=(
                    {"Valid": ObserverReaction("Invalid")} if op is Op.WRITE else {}
                ),
                write_through=(op is Op.WRITE),
            )
        if op is Op.WRITE:
            return Outcome(
                "Valid",
                observers={"Valid": ObserverReaction("Invalid")},
                write_through=True,
            )
        return Outcome("Valid")


class TestValidProtocol:
    def test_validates(self):
        MiniProtocol().validate()

    def test_valid_states(self):
        assert MiniProtocol().valid_states() == ("Valid",)

    def test_applicable_defaults(self):
        spec = MiniProtocol()
        assert spec.applicable("Valid", Op.REPLACE)
        assert not spec.applicable("Invalid", Op.REPLACE)
        assert spec.applicable("Invalid", Op.READ)

    def test_describe_mentions_characteristic_function(self):
        text = MiniProtocol().describe()
        assert "null" in text
        assert "Invalid" in text


def _broken(**overrides):
    """Build a MiniProtocol subclass instance with attribute overrides."""
    cls = type("Broken", (MiniProtocol,), overrides)
    return cls()


class TestValidationCatchesErrors:
    def test_missing_name(self):
        with pytest.raises(ProtocolDefinitionError, match="no name"):
            _broken(name="").validate()

    def test_invalid_not_in_states(self):
        with pytest.raises(ProtocolDefinitionError, match="not in states"):
            _broken(invalid="Gone").validate()

    def test_duplicate_states(self):
        with pytest.raises(ProtocolDefinitionError, match="duplicate"):
            _broken(states=("Invalid", "Valid", "Valid")).validate()

    def test_unknown_next_state(self):
        def react(self, state, op, ctx):
            return Outcome("Mystery")

        with pytest.raises(ProtocolDefinitionError, match="unknown next state"):
            _broken(react=react).validate()

    def test_replacement_must_invalidate(self):
        def react(self, state, op, ctx):
            if op is Op.REPLACE:
                return Outcome("Valid")
            return MiniProtocol.react(self, state, op, ctx)

        with pytest.raises(ProtocolDefinitionError, match="replacement"):
            _broken(react=react).validate()

    def test_observer_keyed_by_invalid_state(self):
        def react(self, state, op, ctx):
            if op is Op.READ and state == "Invalid":
                return Outcome(
                    "Valid",
                    load_from=MEMORY,
                    observers={"Invalid": ObserverReaction("Invalid")},
                )
            return MiniProtocol.react(self, state, op, ctx)

        with pytest.raises(ProtocolDefinitionError, match="non-valid state"):
            _broken(react=react).validate()

    def test_load_source_must_be_present(self):
        def react(self, state, op, ctx):
            if op is Op.READ and state == "Invalid":
                # Loads cache-to-cache even when no cache has a copy.
                return Outcome("Valid", load_from=from_cache("Valid"))
            return MiniProtocol.react(self, state, op, ctx)

        with pytest.raises(ProtocolDefinitionError, match="context has none"):
            _broken(react=react).validate()

    def test_fill_without_source(self):
        def react(self, state, op, ctx):
            if op is Op.READ and state == "Invalid":
                return Outcome("Valid")  # becomes valid with no data source
            return MiniProtocol.react(self, state, op, ctx)

        with pytest.raises(ProtocolDefinitionError, match="without a data source"):
            _broken(react=react).validate()

    def test_raising_react_is_wrapped(self):
        def react(self, state, op, ctx):
            raise RuntimeError("boom")

        with pytest.raises(ProtocolDefinitionError, match="boom"):
            _broken(react=react).validate()


class TestShippedProtocolsValidate:
    def test_all_shipped_protocols_validate(self, every_protocol):
        for spec in every_protocol:
            spec.validate()

    def test_shipped_protocols_have_docs_and_patterns(self, every_protocol):
        for spec in every_protocol:
            assert spec.full_name
            assert spec.error_patterns, f"{spec.name} has no error patterns"
            assert spec.owner_states or spec.name in ("firefly",), spec.name


class TestReactionTable:
    def test_one_probe_per_cell_and_context_then_cached(self):
        calls = []

        def react(self, state, op, ctx):
            calls.append((state, op, ctx.present))
            return MiniProtocol.react(self, state, op, ctx)

        spec = _broken(react=react)
        table = reaction_table(spec)
        # Five applicable cells (no replacing from Invalid) x two
        # present-sets, each probed once; the Z-from-Invalid row is None.
        assert len(calls) == len(set(calls)) == 10
        assert [cell is None for _, _, cell in table].count(True) == 1
        spec.validate()
        assert reaction_table(spec) is table and len(calls) == 10

    def test_a_raise_is_data_and_does_not_pin_the_spec(self):
        def react(self, state, op, ctx):
            raise RuntimeError("boom")

        spec = _broken(react=react)
        (_, _, cell), *_ = reaction_table(spec)
        _, raised = cell[0]
        assert isinstance(raised, RuntimeError) and raised.__traceback__ is None
        dead = weakref.ref(spec)
        del spec, cell
        gc.collect()
        assert dead() is None

    def test_a_tripped_guard_caches_nothing(self):
        class Tripped:
            def check(self):
                return "exhausted"

        spec = MiniProtocol()
        assert reaction_table(spec, Tripped()) is None
        assert reaction_table(spec) is not None

    def test_only_the_newest_tables_are_kept(self):
        specs = [MiniProtocol() for _ in range(3 * protocol._TABLES_LIMIT)]
        for spec in specs:
            reaction_table(spec)
        assert len(protocol._TABLES) <= protocol._TABLES_LIMIT
        assert specs[-1] in protocol._TABLES and specs[0] not in protocol._TABLES
