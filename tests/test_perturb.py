"""Tests for the systematic perturbation / criticality machinery."""

from __future__ import annotations

import pytest

from repro.core.essential import explore
from repro.core.reactions import Ctx
from repro.core.symbols import CountCase, Op
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.msi import MsiProtocol
from repro.protocols.perturb import (
    PERTURBATION_KINDS,
    CriticalityReport,
    Perturbation,
    PerturbedProtocol,
    all_perturbations,
    criticality_profile,
)


def sharing_ctx(*symbols):
    return Ctx(frozenset(symbols), CountCase.ONE if symbols else CountCase.ZERO)


class TestPerturbedProtocol:
    def test_fires_only_at_trigger(self):
        base = MsiProtocol()
        p = Perturbation("drop-observers", "Shared", Op.WRITE, True)
        mutant = PerturbedProtocol(base, p)
        hit = mutant.react("Shared", Op.WRITE, sharing_ctx("Shared"))
        assert not hit.observers  # edited
        untouched = mutant.react("Shared", Op.WRITE, sharing_ctx())
        assert untouched == base.react("Shared", Op.WRITE, sharing_ctx())

    def test_reroute_initiator(self):
        base = MsiProtocol()
        p = Perturbation("reroute-initiator", "Shared", Op.WRITE, True, pick=1)
        mutant = PerturbedProtocol(base, p)
        outcome = mutant.react("Shared", Op.WRITE, sharing_ctx("Shared"))
        assert outcome.next_state == base.states[1]

    def test_toggle_write_through(self):
        from repro.protocols.write_once import WriteOnceProtocol

        base = WriteOnceProtocol()
        p = Perturbation("toggle-write-through", "Valid", Op.WRITE, True)
        mutant = PerturbedProtocol(base, p)
        outcome = mutant.react("Valid", Op.WRITE, sharing_ctx("Valid"))
        assert not outcome.write_through  # the write-once rule is gone

    def test_unknown_kind_raises(self):
        base = MsiProtocol()
        p = Perturbation("teleport", "Shared", Op.WRITE, True)
        mutant = PerturbedProtocol(base, p)
        with pytest.raises(ValueError, match="teleport"):
            mutant.react("Shared", Op.WRITE, sharing_ctx("Shared"))

    def test_describe(self):
        p = Perturbation("drop-writeback", "Dirty", Op.REPLACE, False, 2)
        text = p.describe()
        assert "drop-writeback" in text and "Dirty" in text


class TestAllPerturbations:
    def test_count_is_systematic(self):
        spec = MsiProtocol()
        perturbations = all_perturbations(spec, picks=2)
        assert len(perturbations) == len(PERTURBATION_KINDS) * len(
            spec.states
        ) * len(spec.operations) * 2 * 2

    def test_deterministic_order(self):
        spec = MsiProtocol()
        assert all_perturbations(spec) == all_perturbations(spec)


class TestCriticalityProfile:
    @pytest.fixture(scope="class")
    def msi_report(self) -> CriticalityReport:
        return criticality_profile(MsiProtocol(), picks=2)

    def test_accounting_adds_up(self, msi_report):
        assert (
            msi_report.ill_formed + msi_report.survived + msi_report.broken
            == msi_report.attempted
        )

    def test_some_edits_break_and_some_survive(self, msi_report):
        assert msi_report.broken > 0
        assert msi_report.survived > 0
        assert 0.0 < msi_report.fragility < 1.0

    def test_known_fragile_sites(self, msi_report):
        """Miss handling and the write-to-shared invalidation point must
        show up as fragile; clean-read hits must not."""
        assert msi_report.by_site[("Invalid", "W")][0] > 0
        assert msi_report.by_site[("Shared", "W")][0] > 0
        assert msi_report.by_site[("Shared", "R")][0] == 0

    def test_violation_kinds_recorded(self, msi_report):
        assert "readable-obsolete" in msi_report.by_kind

    def test_site_rows_render(self, msi_report):
        rows = msi_report.site_rows()
        assert len(rows) == len(msi_report.by_site)

    def test_every_broken_perturbation_is_concretely_broken(self):
        """Spot-check: a broken verdict from the sweep is reproducible
        as a full exploration with witnesses."""
        from repro.core.protocol import ProtocolDefinitionError

        spec = IllinoisProtocol()
        found = 0
        for perturbation in all_perturbations(spec, picks=1):
            candidate = PerturbedProtocol(spec, perturbation)
            try:
                candidate.validate()
            except ProtocolDefinitionError:
                continue
            result = explore(candidate)
            if not result.ok:
                assert result.witnesses
                found += 1
                if found >= 3:
                    break
        assert found >= 3
