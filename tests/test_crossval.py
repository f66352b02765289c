"""Tests for the Theorem 1 check: coverage, completeness, soundness
and non-vacuity in one guarded :func:`run_oracle`."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from tests.helpers import build_state
from repro.core.serialize import result_to_json
from repro.core.symbols import DataValue, SharingLevel
from repro.enumeration.crossval import OracleBudget, is_instance, run_oracle
from repro.enumeration.product import ConcreteState
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import get_mutant
from repro.protocols.registry import protocol_names

F = DataValue.FRESH
O = DataValue.OBSOLETE
N = DataValue.NODATA


class TestIsInstance:
    spec = IllinoisProtocol()

    def test_positive_instance(self):
        composite = build_state(
            "Dirty", "Invalid*",
            data={"Dirty": F, "Invalid": N},
            sharing=SharingLevel.ONE, mdata=O,
        )
        concrete = ConcreteState(("Dirty", "Invalid", "Invalid"), (F, N, N), O)
        assert is_instance(concrete, composite, self.spec)

    def test_count_out_of_interval(self):
        composite = build_state(
            "Dirty", "Invalid*",
            data={"Dirty": F, "Invalid": N},
            sharing=SharingLevel.ONE, mdata=O,
        )
        two_dirty = ConcreteState(("Dirty", "Dirty"), (F, F), O)
        assert not is_instance(two_dirty, composite, self.spec)

    def test_star_admits_zero(self):
        composite = build_state(
            "Dirty", "Invalid*",
            data={"Dirty": F, "Invalid": N},
            sharing=SharingLevel.ONE, mdata=O,
        )
        lone = ConcreteState(("Dirty",), (F,), O)
        assert is_instance(lone, composite, self.spec)

    def test_sharing_level_must_match(self):
        s3 = build_state(
            "Shared+", "Invalid*",
            data={"Shared": F, "Invalid": N},
            sharing=SharingLevel.MANY, mdata=F,
        )
        one_shared = ConcreteState(("Shared", "Invalid"), (F, N), F)
        two_shared = ConcreteState(("Shared", "Shared"), (F, F), F)
        assert not is_instance(one_shared, s3, self.spec)
        assert is_instance(two_shared, s3, self.spec)

    def test_mdata_must_match(self):
        composite = build_state(
            "Dirty", "Invalid*",
            data={"Dirty": F, "Invalid": N},
            sharing=SharingLevel.ONE, mdata=O,
        )
        wrong = ConcreteState(("Dirty", "Invalid"), (F, N), F)
        assert not is_instance(wrong, composite, self.spec)

    def test_structural_mode_ignores_data(self):
        composite = build_state("Dirty", "Invalid*", sharing=SharingLevel.ONE)
        concrete = ConcreteState(("Dirty", "Invalid"), (F, N), O)
        assert is_instance(concrete, composite, self.spec, augmented=False)


class TestCrossValidation:
    @pytest.mark.parametrize("name", protocol_names())
    def test_theorem1_holds_for_every_protocol(self, name, explored_augmented):
        from repro.protocols.registry import get_protocol

        report = run_oracle(
            get_protocol(name),
            budget=OracleBudget(ns=(1, 2, 3, 4)),
            symbolic=explored_augmented[name],
        )
        assert report.agreed, report.describe()
        assert report.checked_ns == (1, 2, 3, 4)
        assert report.vacuous == [], report.describe()

    def test_structural_mode(self, explored_structural):
        from repro.protocols.registry import get_protocol

        report = run_oracle(
            get_protocol("illinois"),
            budget=OracleBudget(ns=(1, 2, 3)),
            augmented=False,
            symbolic=explored_structural["illinois"],
        )
        assert report.agreed and report.vacuous == []

    def test_mutant_concrete_space_still_covered(self):
        """Theorem 1 is about reachability, not correctness: even a
        buggy protocol's concrete states are covered by its (erroneous)
        essential states."""
        mutant = get_mutant(IllinoisProtocol(), "forget-supplier-demotion")
        report = run_oracle(mutant, budget=OracleBudget(ns=(1, 2, 3)))
        assert report.symbolic_verified is False
        assert report.agreed, report.describe()
        assert report.uncovered == []

    def test_summary_text(self, explored_augmented):
        report = run_oracle(
            IllinoisProtocol(),
            budget=OracleBudget(ns=(1, 2)),
            symbolic=explored_augmented["illinois"],
        )
        assert report.describe() == (
            "illinois: cross-validation OK -- 8 concrete states over n=[1, 2] "
            "vs 5 essential states (0 uncovered, 0 vacuous)"
        )

    def test_single_cache_system_covered(self, explored_augmented):
        """n=1 exercises the degenerate corner of the star operators."""
        report = run_oracle(
            IllinoisProtocol(),
            budget=OracleBudget(ns=(1,)),
            symbolic=explored_augmented["illinois"],
        )
        assert report.agreed and report.uncovered == []


class TestNonVacuity:
    """The other leg of Theorem 1: every essential composite state must
    be witnessed by a reachable concrete instance in the tested range,
    and an unwitnessed (vacuous) state must be named."""

    @pytest.mark.parametrize("name", ["illinois", "msi", "firefly"])
    def test_zoo_protocols_are_tight(self, name, explored_augmented, every_protocol):
        spec = next(s for s in every_protocol if s.name == name)
        report = run_oracle(
            spec, budget=OracleBudget(ns=(1, 2, 3)), symbolic=explored_augmented[name]
        )
        assert report.vacuous == [], [str(s) for s in report.vacuous]
        assert report.agreed

    def test_every_essential_state_is_witnessed(self, illinois, explored_augmented):
        symbolic = explored_augmented["illinois"]
        report = run_oracle(
            illinois, budget=OracleBudget(ns=(1, 2, 3)), symbolic=symbolic
        )
        assert report.vacuous == []
        assert report.essential == len(symbolic.essential)
        assert sum(report.covered.values()) >= len(symbolic.essential)

    def test_fabricated_unreachable_state_is_flagged_vacuous(
        self, illinois, explored_structural
    ):
        # Illinois never holds a Dirty copy alongside Shared copies; an
        # essential set padded with that state is no longer tight, and
        # the check must name exactly the fabricated state.
        symbolic = explored_structural["illinois"]
        fake = build_state("Dirty", "Shared+")
        padded = replace(symbolic, essential=symbolic.essential + (fake,))
        report = run_oracle(
            illinois,
            budget=OracleBudget(ns=(1, 2, 3)),
            augmented=False,
            symbolic=padded,
        )
        assert report.vacuous == [fake]
        # Vacuity is one-sided and recorded, never a disagreement.
        assert report.uncovered == []
        assert report.agreed
        assert "MISMATCH" in report.describe()

    def test_vacuity_below_some_n_is_inconclusive(self, explored_augmented):
        from repro.protocols.registry import get_protocol

        mesif = get_protocol("mesif")
        symbolic = explored_augmented["mesif"]
        low = run_oracle(mesif, budget=OracleBudget(ns=(1, 2)), symbolic=symbolic)
        high = run_oracle(mesif, budget=OracleBudget(ns=(1, 2, 3)), symbolic=symbolic)
        assert (len(low.vacuous), low.essential) == (1, 7)
        assert high.vacuous == []

    def test_serialized_view_reports_the_same_vacuous(self, explored_augmented):
        # Campaigns compare against a batch job's serialized payload.
        from repro.protocols.registry import get_protocol

        mesif = get_protocol("mesif")
        symbolic = explored_augmented["mesif"]
        budget = OracleBudget(ns=(1, 2))
        live = run_oracle(mesif, budget=budget, symbolic=symbolic)
        served = run_oracle(
            mesif, budget=budget, symbolic=json.loads(result_to_json(symbolic))
        )
        assert live.vacuous
        assert served.vacuous == live.vacuous
        assert served.describe() == live.describe()


class TestOracleBudget:
    @pytest.mark.parametrize(
        "fields",
        [
            {"ns": ()},
            {"soundness_ns": ()},
            {"ns": (0, 1)},
            {"ns": (-3,)},
            {"soundness_ns": (1, 0)},
        ],
    )
    def test_rejects_empty_or_non_positive_cache_counts(self, fields):
        with pytest.raises(ValueError, match="cache counts"):
            OracleBudget(**fields)

    def test_corpus_metadata_is_checked(self):
        payload = OracleBudget().to_dict()
        assert OracleBudget.from_dict(payload) == OracleBudget()
        with pytest.raises(ValueError, match="soundness_ns"):
            OracleBudget.from_dict({**payload, "soundness_ns": []})
