"""Unit tests for composite states and their canonical construction."""

from __future__ import annotations

import pytest

from tests.helpers import build_state
from repro.core.composite import Label, make_state, parse_class_spec
from repro.core.operators import Rep
from repro.core.symbols import DataValue, SharingLevel


class TestLabel:
    def test_structural_label_renders_symbol(self):
        assert str(Label("Dirty")) == "Dirty"

    def test_augmented_label_renders_data(self):
        assert str(Label("Dirty", DataValue.FRESH)) == "Dirty:fresh"

    def test_with_symbol_and_data(self):
        label = Label("Dirty", DataValue.FRESH)
        assert label.with_symbol("Shared") == Label("Shared", DataValue.FRESH)
        assert label.with_data(None) == Label("Dirty")

    def test_ordering_is_total(self):
        labels = [Label("B"), Label("A"), Label("A", DataValue.FRESH)]
        assert sorted(labels)[0] == Label("A")


class TestMakeState:
    def test_zero_classes_dropped(self):
        state = make_state([(Label("Dirty"), Rep.ZERO), (Label("Inv"), Rep.PLUS)])
        assert state.labels() == (Label("Inv"),)

    def test_duplicate_labels_aggregate(self):
        # (q, q) ≡ q+ -- the paper's aggregation rule.
        state = make_state([(Label("Shared"), Rep.ONE), (Label("Shared"), Rep.ONE)])
        assert state.rep_of(Label("Shared")) is Rep.PLUS

    def test_canonical_ordering(self):
        a = make_state([(Label("B"), Rep.ONE), (Label("A"), Rep.STAR)])
        b = make_state([(Label("A"), Rep.STAR), (Label("B"), Rep.ONE)])
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_non_rep(self):
        with pytest.raises(TypeError):
            make_state([(Label("X"), "+")])  # type: ignore[list-item]

    def test_mapping_input(self):
        state = make_state({Label("A"): Rep.PLUS})
        assert state.rep_of(Label("A")) is Rep.PLUS


class TestQueries:
    def test_rep_of_absent_is_zero(self):
        state = build_state("Dirty", "Invalid*")
        assert state.rep_of(Label("Shared")) is Rep.ZERO

    def test_symbols(self):
        state = build_state("Dirty", "Invalid*")
        assert state.symbols() == {"Dirty", "Invalid"}

    def test_symbol_interval_single_class(self):
        state = build_state("Shared+", "Invalid*")
        assert state.symbol_interval("Shared") == (1, None)
        assert state.symbol_interval("Invalid") == (0, None)
        assert state.symbol_interval("Dirty") == (0, 0)

    def test_symbol_interval_merges_augmented_classes(self):
        state = make_state(
            [
                (Label("Shared", DataValue.FRESH), Rep.ONE),
                (Label("Shared", DataValue.OBSOLETE), Rep.ONE),
            ]
        )
        assert state.symbol_interval("Shared") == (2, 2)
        assert state.symbol_rep("Shared") is Rep.PLUS

    def test_copies_interval_excludes_invalid(self):
        state = build_state("Dirty", "Invalid*")
        assert state.copies_interval("Invalid") == (1, 1)

    def test_is_augmented(self):
        assert not build_state("Dirty").is_augmented
        assert make_state([(Label("D", DataValue.FRESH), Rep.ONE)]).is_augmented


class TestConsistency:
    def test_consistent_sharing_passes(self):
        state = build_state("Dirty", "Invalid*", sharing=SharingLevel.ONE)
        state.check_consistent("Invalid")

    def test_sharing_contradiction_rejected(self):
        state = build_state("Dirty", "Invalid*", sharing=SharingLevel.NONE)
        with pytest.raises(ValueError):
            state.check_consistent("Invalid")

    def test_many_requires_two_possible(self):
        state = build_state("Dirty", "Invalid*", sharing=SharingLevel.MANY)
        with pytest.raises(ValueError):
            state.check_consistent("Invalid")

    def test_plus_supports_many(self):
        state = build_state("Shared+", "Invalid*", sharing=SharingLevel.MANY)
        state.check_consistent("Invalid")

    def test_invalid_label_must_be_nodata(self):
        state = make_state([(Label("Invalid", DataValue.FRESH), Rep.PLUS)])
        with pytest.raises(ValueError):
            state.check_consistent("Invalid")

    def test_valid_label_must_not_be_nodata(self):
        state = make_state([(Label("Dirty", DataValue.NODATA), Rep.ONE)])
        with pytest.raises(ValueError):
            state.check_consistent("Invalid")


class TestRendering:
    def test_paper_style(self):
        state = build_state("Shared+", "Invalid*")
        assert state.pretty(annotations=False) == "(Invalid*, Shared+)"

    def test_singleton_suffix_omitted(self):
        state = build_state("Dirty", "Invalid*")
        assert "Dirty," in state.pretty(annotations=False)
        assert "Dirty1" not in state.pretty(annotations=False)

    def test_annotations_rendered(self):
        state = build_state(
            "Shared+", "Invalid*", sharing=SharingLevel.MANY, mdata=DataValue.FRESH
        )
        text = state.pretty()
        assert "sharing=many" in text
        assert "mdata=fresh" in text

    def test_empty_state(self):
        assert make_state([]).pretty() == "(empty)"

    def test_annotated_rendering_is_memoized_without_changing_it(self):
        def fresh():
            return build_state(
                "Shared+", "Invalid*", sharing=SharingLevel.MANY, mdata=DataValue.FRESH
            )

        state, twin = fresh(), fresh()
        bare = state.pretty(annotations=False)
        first = state.pretty()
        assert first == "(Invalid*, Shared+) [sharing=many, mdata=fresh]"
        assert state.pretty() is first  # served from the memo
        assert state.pretty() == twin.pretty() == str(state)
        assert state.pretty(annotations=False) == bare == "(Invalid*, Shared+)"
        # The memo is not a field: equality, hashing and repr ignore it.
        assert state == twin and hash(state) == hash(twin)
        assert repr(state) == repr(fresh())


class TestParseClassSpec:
    def test_plain(self):
        assert parse_class_spec("Dirty") == ("Dirty", Rep.ONE)

    def test_plus(self):
        assert parse_class_spec("Shared+") == ("Shared", Rep.PLUS)

    def test_star(self):
        assert parse_class_spec("Inv*") == ("Inv", Rep.STAR)

    def test_strips_whitespace(self):
        assert parse_class_spec("  Dirty ") == ("Dirty", Rep.ONE)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_class_spec("  ")


class TestValueSemantics:
    def test_states_are_hashable_values(self):
        a = build_state("Dirty", "Invalid*", sharing=SharingLevel.ONE)
        b = build_state("Dirty", "Invalid*", sharing=SharingLevel.ONE)
        assert a == b and len({a, b}) == 1

    def test_annotations_distinguish_states(self):
        # The paper's s3 / s4 distinction: same idea, different sharing.
        a = build_state("Shared+", "Invalid*", sharing=SharingLevel.MANY)
        b = build_state("Shared+", "Invalid*", sharing=SharingLevel.ONE)
        assert a != b

    def test_frozen(self):
        state = build_state("Dirty")
        with pytest.raises(AttributeError):
            state.sharing = SharingLevel.ONE  # type: ignore[misc]
