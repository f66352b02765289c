"""Tests for the Section 5 extension protocols: lock-msi and MESIF."""

from __future__ import annotations

import pytest

from repro.core.covering import contains
from repro.core.essential import explore
from repro.core.expansion import SymbolicExpander
from repro.core.reactions import Ctx, Outcome, stall
from repro.core.symbols import CountCase, Op
from repro.enumeration.crossval import OracleBudget, run_oracle
from repro.enumeration.exhaustive import enumerate_space
from repro.protocols.lock_msi import LockMsiProtocol
from repro.protocols.mesif import MesifProtocol
from repro.simulator import System, locking


def ctx(*symbols: str, copies: CountCase | None = None) -> Ctx:
    if copies is None:
        copies = CountCase.ZERO if not symbols else CountCase.ONE
    return Ctx(frozenset(symbols), copies)


class TestStalledOutcome:
    def test_stall_helper(self):
        outcome = stall("Invalid")
        assert outcome.stalled
        assert outcome.next_state == "Invalid"

    def test_stalled_outcome_must_be_pure(self):
        from repro.core.reactions import MEMORY

        with pytest.raises(ValueError):
            Outcome("Invalid", load_from=MEMORY, stalled=True)

    def test_symbolic_stall_is_identity(self):
        spec = LockMsiProtocol()
        expander = SymbolicExpander(spec, augmented=True)
        # Build the reachable state with a Locked copy.
        locked_states = [
            s
            for s in explore(spec).essential
            if any(lbl.symbol == "Locked" for lbl, _ in s.classes)
        ]
        assert locked_states
        for state in locked_states:
            # A read attempt from Invalid stalls: self-loop transition.
            loops = [
                t
                for t in expander.successors(state)
                if t.label.op is Op.READ
                and t.label.initiator == "Invalid"
                and t.target == state
            ]
            assert loops, state.pretty()


class TestLockMsiReactions:
    spec = LockMsiProtocol()

    def test_operation_alphabet_extended(self):
        assert Op.LOCK in self.spec.operations
        assert Op.UNLOCK in self.spec.operations

    def test_validates(self):
        self.spec.validate()

    def test_lock_acquisition_invalidates_sharers(self):
        outcome = self.spec.react("Invalid", Op.LOCK, ctx("Shared"))
        assert outcome.next_state == "Locked"
        assert outcome.observers["Shared"].next_state == "Invalid"

    def test_lock_contention_stalls(self):
        for state in ("Invalid", "Shared", "Modified"):
            outcome = self.spec.react(state, Op.LOCK, ctx("Locked"))
            assert outcome.stalled

    def test_reads_and_writes_stall_on_locked_block(self):
        assert self.spec.react("Invalid", Op.READ, ctx("Locked")).stalled
        assert self.spec.react("Invalid", Op.WRITE, ctx("Locked")).stalled

    def test_unlock_releases_to_modified(self):
        outcome = self.spec.react("Locked", Op.UNLOCK, ctx())
        assert outcome.next_state == "Modified"
        assert not outcome.stalled

    def test_locked_lines_pin_their_set(self):
        assert not self.spec.applicable("Locked", Op.REPLACE)
        assert self.spec.applicable("Modified", Op.REPLACE)

    def test_unlock_only_from_locked(self):
        assert self.spec.applicable("Locked", Op.UNLOCK)
        assert not self.spec.applicable("Shared", Op.UNLOCK)
        assert not self.spec.applicable("Invalid", Op.UNLOCK)


class TestLockMsiVerification:
    def test_verifies(self):
        result = explore(LockMsiProtocol())
        assert result.ok

    def test_exactly_one_lock_holder_in_every_state(self):
        result = explore(LockMsiProtocol())
        for state in result.essential:
            lo, hi = state.symbol_interval("Locked")
            assert hi is None or hi <= 1

    def test_theorem1_with_extended_alphabet(self):
        report = run_oracle(LockMsiProtocol(), budget=OracleBudget(ns=(1, 2, 3)))
        assert report.agreed and report.vacuous == [], report.describe()

    def test_concrete_enumeration_with_locks(self):
        result = enumerate_space(LockMsiProtocol(), 3)
        assert result.ok
        locked = [s for s in result.states if "Locked" in s.states]
        assert locked  # lock states are genuinely reachable
        assert all(s.states.count("Locked") <= 1 for s in result.states)


class TestLockMsiSimulation:
    def test_locking_workload_runs_clean(self):
        system = System(LockMsiProtocol(), 4, num_sets=4)
        report = system.run(locking(4, 5000, seed=7))
        assert report.ok
        assert report.bus.stalls > 0  # contention actually happened

    def test_mutual_exclusion_concretely(self):
        system = System(LockMsiProtocol(), 2)
        assert system.lock(0, 0)
        assert not system.lock(1, 0)  # holder blocks the contender
        assert system.read(1, 0) is None  # reads stall too
        system.write(0, 0)
        system.unlock(0, 0)
        assert system.lock(1, 0)  # released: acquisition succeeds
        assert system.caches[1].state_of(0) == "Locked"

    def test_stalled_write_does_not_advance_golden_value(self):
        system = System(LockMsiProtocol(), 2)
        assert system.lock(0, 0)
        v = system.write(0, 0)
        assert system.write(1, 0) is None  # stalled store never happened
        system.unlock(0, 0)
        assert system.read(1, 0) == v

    def test_lock_on_plain_protocol_rejected(self):
        from repro.protocols.msi import MsiProtocol

        system = System(MsiProtocol(), 2)
        with pytest.raises(ValueError):
            system.lock(0, 0)


class TestMesifReactions:
    spec = MesifProtocol()

    def test_requester_becomes_forwarder(self):
        for supplier in ("Forward", "Exclusive", "Modified"):
            outcome = self.spec.react("Invalid", Op.READ, ctx(supplier))
            assert outcome.next_state == "Forward"

    def test_old_forwarder_demotes_to_shared(self):
        outcome = self.spec.react("Invalid", Op.READ, ctx("Forward"))
        assert outcome.observers["Forward"].next_state == "Shared"

    def test_sharers_without_forwarder_fall_back_to_memory(self):
        outcome = self.spec.react("Invalid", Op.READ, ctx("Shared"))
        assert outcome.load_from is not None
        assert outcome.load_from.kind == "memory"
        assert outcome.next_state == "Forward"

    def test_lonely_miss_is_exclusive(self):
        outcome = self.spec.react("Invalid", Op.READ, ctx())
        assert outcome.next_state == "Exclusive"


class TestMesifVerification:
    def test_verifies_with_seven_essential_states(self):
        result = explore(MesifProtocol())
        assert result.ok
        assert len(result.essential) == 7

    def test_at_most_one_forwarder_everywhere(self):
        result = explore(MesifProtocol())
        for state in result.essential:
            _, hi = state.symbol_interval("Forward")
            assert hi is None or hi <= 1

    def test_forwarderless_sharers_state_is_reachable(self):
        """The corner MESIF adds: sharers whose forwarder was evicted."""
        result = explore(MesifProtocol())
        structures = {s.pretty(annotations=False) for s in result.essential}
        assert "(Invalid:nodata+, Shared:fresh+)" in structures

    def test_theorem1(self):
        report = run_oracle(MesifProtocol(), budget=OracleBudget(ns=(1, 2, 3, 4)))
        assert report.agreed and report.vacuous == [], report.describe()

    def test_monotonicity_violating_weakening_never_generated(self):
        """Essential states never claim two possible forwarders."""
        result = explore(MesifProtocol())
        for a in result.essential:
            for b in result.essential:
                if a != b:
                    assert not contains(a, b)
