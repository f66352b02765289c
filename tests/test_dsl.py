"""Tests for the protocol specification language."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.essential import explore
from repro.core.protocol import ProtocolDefinitionError
from repro.core.reactions import Ctx, INITIATOR
from repro.core.symbols import CountCase, Op
from repro.enumeration.crossval import OracleBudget, run_oracle
from repro.protocols.dsl import (
    DslError,
    builtin_spec_names,
    load_builtin,
    load_protocol,
    parse_protocol,
)
from repro.protocols.registry import get_protocol
from repro.simulator import System, make_workload

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"

MINI = """
protocol mini
title A minimal DSL protocol
states Invalid Valid
invalid Invalid
sharing-detection off
on Invalid R -> Valid load memory
on Valid R -> Valid
on Invalid W -> Valid load memory writethrough ; all => Invalid
on Valid W -> Valid writethrough ; all => Invalid
on Valid Z -> Invalid
"""


class TestParsing:
    def test_mini_protocol_parses_and_validates(self):
        spec = parse_protocol(MINI)
        spec.validate()
        assert spec.name == "mini"
        assert spec.full_name == "A minimal DSL protocol"
        assert spec.states == ("Invalid", "Valid")
        assert not spec.uses_sharing_detection

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_protocol("# leading comment\n\n" + MINI + "\n# trailing\n")
        spec.validate()

    def test_guard_ordering_first_match_wins(self):
        spec = parse_protocol(MINI)
        rules = spec.rules_for("Invalid", Op.READ)
        assert len(rules) == 1

    def test_forbid_directives(self):
        text = MINI + "\nforbid multiple Valid\nforbid together Valid Invalid\n"
        spec = parse_protocol(text)
        assert len(spec.error_patterns) == 2

    def test_source_retained(self):
        spec = parse_protocol(MINI)
        assert "protocol mini" in spec.source


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("states A B\ninvalid A\n", "no transition rules"),
            ("invalid A\non A R -> A\n", "no states"),
            ("states A B\ninvalid C\non A R -> A\n", "not among states"),
            (MINI + "\nbogus directive\n", "unknown directive"),
            (MINI + "\non Valid R -> Nowhere\n", "unknown next state"),
            (MINI + "\non Ghost R -> Valid\n", "unknown state"),
            (MINI + "\non Valid Q -> Valid\n", "unknown operation"),
            (MINI + "\non Valid R Valid\n", "missing '->'"),
            (MINI + "\non Valid R if sideways -> Valid\n", "guard atom"),
            (MINI + "\non Invalid R -> Valid load bus\n", "bad load source"),
            (MINI + "\non Valid R -> Valid writeback Ghost\n", "bad writeback"),
            (MINI + "\non Valid R -> Valid ; Valid -> Valid\n", "observer clause"),
            (MINI + "\nforbid sometimes Valid\n", "forbid directive"),
        ],
    )
    def test_bad_specs_rejected(self, text, match):
        with pytest.raises(DslError, match=match):
            parse_protocol(text)

    def test_error_carries_line_number(self):
        bad = MINI + "\non Valid Q -> Valid\n"
        with pytest.raises(DslError, match=r"line \d+"):
            parse_protocol(bad)

    def test_missing_rule_fails_validation(self):
        # Drop the replacement rule: validate() must notice.
        text = MINI.replace("on Valid Z -> Invalid", "")
        spec = parse_protocol(text)
        with pytest.raises(ProtocolDefinitionError, match="no rule matches"):
            spec.validate()


class TestCompiledSemantics:
    def test_guards_route_to_different_outcomes(self):
        spec = load_builtin("illinois")
        miss_empty = spec.react("Invalid", Op.READ, Ctx())
        miss_shared = spec.react(
            "Invalid", Op.READ, Ctx(frozenset({"Shared"}), CountCase.MANY)
        )
        assert miss_empty.next_state == "V-Ex"
        assert miss_shared.next_state == "Shared"

    def test_load_fallback_chain(self):
        spec = load_builtin("illinois")
        outcome = spec.react(
            "Invalid", Op.READ, Ctx(frozenset({"V-Ex"}), CountCase.ONE)
        )
        assert outcome.load_from is not None
        assert outcome.load_from.symbol == "V-Ex"

    def test_writeback_self(self):
        spec = load_builtin("illinois")
        outcome = spec.react("Dirty", Op.REPLACE, Ctx())
        assert outcome.writeback_from == INITIATOR

    def test_all_expands_to_valid_states(self):
        spec = load_builtin("illinois")
        outcome = spec.react(
            "Shared", Op.WRITE, Ctx(frozenset({"Shared"}), CountCase.MANY)
        )
        assert set(outcome.observers) == {"V-Ex", "Shared", "Dirty"}

    def test_updated_flag(self):
        spec = load_protocol(SPEC_DIR / "firefly_like.proto")
        outcome = spec.react(
            "Shared", Op.WRITE, Ctx(frozenset({"Shared"}), CountCase.MANY)
        )
        assert outcome.observers["Shared"].updated
        assert outcome.write_through


class TestDslEquivalence:
    def test_builtin_spec_names(self):
        assert set(builtin_spec_names()) >= {"illinois", "msi"}

    def test_unknown_builtin(self):
        with pytest.raises(KeyError, match="unknown builtin spec"):
            load_builtin("tokencoherence")

    def test_dsl_illinois_matches_python_illinois(self):
        dsl_result = explore(load_builtin("illinois"))
        py_result = explore(get_protocol("illinois"))
        assert {s.pretty() for s in dsl_result.essential} == {
            s.pretty() for s in py_result.essential
        }
        assert dsl_result.stats.visits == py_result.stats.visits

    def test_dsl_msi_matches_python_msi(self):
        dsl_result = explore(load_builtin("msi"))
        py_result = explore(get_protocol("msi"))
        assert {s.pretty() for s in dsl_result.essential} == {
            s.pretty() for s in py_result.essential
        }

    def test_dsl_protocol_cross_validates(self):
        report = run_oracle(load_builtin("illinois"), budget=OracleBudget(ns=(1, 2, 3)))
        assert report.agreed and report.vacuous == [], report.describe()

    def test_dsl_protocol_simulates(self):
        spec = load_builtin("illinois")
        system = System(spec, 3)
        report = system.run(make_workload("hot-block", 3, 2000, seed=5))
        assert report.ok


class TestExampleSpecs:
    def test_firefly_like_verifies(self):
        result = explore(load_protocol(SPEC_DIR / "firefly_like.proto"))
        assert result.ok
        assert len(result.essential) == 5

    def test_broken_mesi_rejected_with_witness(self):
        spec = load_protocol(SPEC_DIR / "broken_mesi.proto")
        result = explore(spec)
        assert not result.ok
        assert result.witnesses
        # The forgotten invalidation shows up as a stale readable copy.
        from repro.core.errors import ErrorKind

        kinds = {v.kind for v in result.violations}
        assert ErrorKind.READABLE_OBSOLETE in kinds


class TestLockingExtensions:
    LOCKING = """
protocol tiny-lock
states Invalid Held
invalid Invalid
operations R W Z L U
restrict Z not-from Held
restrict L not-from Held
restrict U only-from Held
on Invalid R if has(Held) -> stall
on Invalid R -> Invalid
on Held R -> Held
on Invalid W if has(Held) -> stall
on Invalid W -> Invalid
on Held W -> Held
on Invalid L if has(Held) -> stall
on Invalid L -> Held load memory ; all => Invalid
on Held U -> Invalid writeback self
"""

    def test_operations_directive(self):
        spec = parse_protocol(self.LOCKING)
        assert Op.LOCK in spec.operations
        assert Op.UNLOCK in spec.operations

    def test_restrictions(self):
        spec = parse_protocol(self.LOCKING)
        assert not spec.applicable("Held", Op.REPLACE)
        assert not spec.applicable("Held", Op.LOCK)
        assert spec.applicable("Held", Op.UNLOCK)
        assert not spec.applicable("Invalid", Op.UNLOCK)

    def test_stall_rule_compiles(self):
        spec = parse_protocol(self.LOCKING)
        outcome = spec.react(
            "Invalid", Op.READ, Ctx(frozenset({"Held"}), CountCase.ONE)
        )
        assert outcome.stalled
        assert outcome.next_state == "Invalid"

    def test_stall_rejects_clauses(self):
        bad = self.LOCKING.replace(
            "on Invalid R if has(Held) -> stall",
            "on Invalid R if has(Held) -> stall load memory",
        )
        with pytest.raises(DslError, match="stall"):
            parse_protocol(bad)

    def test_bad_restrict_rejected(self):
        bad = self.LOCKING.replace(
            "restrict Z not-from Held", "restrict Z sideways Held"
        )
        with pytest.raises(DslError, match="restrict"):
            parse_protocol(bad)

    def test_unknown_operation_rejected(self):
        bad = self.LOCKING.replace("operations R W Z L U", "operations R W Q")
        with pytest.raises(DslError, match="unknown operation"):
            parse_protocol(bad)

    def test_restrict_unknown_state_rejected(self):
        bad = self.LOCKING.replace(
            "restrict Z not-from Held", "restrict Z not-from Ghost"
        )
        with pytest.raises(DslError, match="unknown state"):
            parse_protocol(bad)

    def test_lock_msi_twin_simulates(self):
        from repro.simulator import System, locking as locking_workload

        spec = load_builtin("lock_msi")
        system = System(spec, 4, num_sets=4)
        report = system.run(locking_workload(4, 3000, seed=11))
        assert report.ok


class TestCliSpecFile:
    def test_verify_spec_file(self, capsys):
        from repro.cli import main

        path = str(SPEC_DIR / "firefly_like.proto")
        assert main(["verify", "--spec-file", path, "--quiet"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_broken_spec_file(self, capsys):
        from repro.cli import main

        path = str(SPEC_DIR / "broken_mesi.proto")
        assert main(["verify", "--spec-file", path, "--quiet"]) == 1
