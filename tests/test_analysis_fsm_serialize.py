"""Tests for the Definition 1 FSM checks and JSON serialization."""

from __future__ import annotations

import json


from repro.analysis.fsm import check_definition_1, local_fsm
from repro.core.essential import explore
from repro.core.protocol import ProtocolSpec
from repro.core.reactions import Ctx, MEMORY, Outcome
from repro.core.serialize import (
    result_to_dict,
    result_to_json,
    state_from_dict,
    state_to_dict,
)
from repro.core.symbols import DataValue, Op, SharingLevel
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import get_mutant, mutants_for
from repro.protocols.registry import all_protocols
from tests.helpers import ProbeShyIllinois, build_state

_SPLIT = "cache FSM is not strongly connected; components: "

#: Every zoo protocol or mutant that Definition 1 rejects, with its
#: findings byte for byte (component order included).  The other 45 of
#: the 51 specs are compliant.
DEFINITION_1_FINDINGS = {
    "berkeley+forget-supplier-demotion": [
        "states unreachable from Invalid: Shared-Dirty",
        _SPLIT + "{Dirty, Invalid, Valid}; {Shared-Dirty}",
    ],
    "illinois+ignore-sharing-line": [
        "states unreachable from Invalid: Shared",
        _SPLIT + "{Dirty, Invalid, V-Ex}; {Shared}",
    ],
    "mesif+forget-supplier-demotion": [
        "states unreachable from Invalid: Shared",
        _SPLIT + "{Exclusive, Forward, Invalid, Modified}; {Shared}",
    ],
    "mesif+ignore-sharing-line": [
        "states unreachable from Invalid: Forward, Shared",
        _SPLIT + "{Exclusive, Invalid, Modified}; {Shared}; {Forward}",
    ],
    "moesi+forget-supplier-demotion": [
        "states unreachable from Invalid: Owned",
        _SPLIT + "{Exclusive, Invalid, Modified, Shared}; {Owned}",
    ],
    "moesi+ignore-sharing-line": [
        "states unreachable from Invalid: Owned, Shared",
        _SPLIT + "{Exclusive, Invalid, Modified}; {Shared}; {Owned}",
    ],
}


class TestLocalFsm:
    def test_illinois_fsm_edges(self):
        fsm = local_fsm(IllinoisProtocol())
        # Initiator edges of Figure 1.
        assert "V-Ex" in fsm.graph["Invalid"]
        assert "Shared" in fsm.graph["Invalid"]
        assert "Dirty" in fsm.graph["Invalid"]
        assert "Dirty" in fsm.graph["V-Ex"]
        assert "Dirty" in fsm.graph["Shared"]
        assert "Invalid" in fsm.graph["Dirty"]
        # Coincident (snooped) edge: a dirty supplier demotes to Shared.
        assert "Shared" in fsm.graph["Dirty"]

    def test_edge_reasons(self):
        fsm = local_fsm(IllinoisProtocol())
        assert "W" in fsm.edge_reasons("V-Ex", "Dirty")
        assert any(
            r.startswith("snoop:R") for r in fsm.edge_reasons("Dirty", "Shared")
        )
        assert fsm.edge_reasons("Dirty", "V-Ex") == ()

    def test_a_raising_probe_adds_no_edge(self):
        # Every present-set is probed, the all-present one raises.
        assert check_definition_1(ProbeShyIllinois()) == []
        assert local_fsm(ProbeShyIllinois()).graph == local_fsm(
            IllinoisProtocol()
        ).graph

    def test_all_protocols_satisfy_definition_1(self, every_protocol):
        for spec in every_protocol:
            problems = check_definition_1(spec)
            assert not problems, (spec.name, problems)

    def test_dead_state_detected(self):
        class WithDeadState(IllinoisProtocol):
            name = "illinois-dead"
            states = IllinoisProtocol.states + ("Limbo",)

        problems = check_definition_1(WithDeadState())
        assert any("Limbo" in p for p in problems)
        assert any("unreachable" in p for p in problems)

    def test_sink_state_breaks_strong_connectivity(self):
        class Trapdoor(ProtocolSpec):
            name = "trapdoor"
            states = ("Invalid", "Valid", "Stuck")
            invalid = "Invalid"

            def react(self, state: str, op: Op, ctx: Ctx) -> Outcome:
                if op is Op.REPLACE:
                    # BUG: replacement of Stuck is "applicable" per the
                    # default, but Stuck never leaves... make replacement
                    # inapplicable instead to model a sink.
                    return Outcome("Invalid")
                if state == "Invalid":
                    return Outcome("Valid", load_from=MEMORY)
                return Outcome("Stuck")

            def applicable(self, state: str, op: Op) -> bool:
                if state == "Stuck":
                    return False  # nothing ever leaves Stuck
                return super().applicable(state, op)

        problems = check_definition_1(Trapdoor())
        assert any("not strongly connected" in p for p in problems)

    def test_definition_1_findings_over_zoo_and_mutants(self):
        specs = [
            spec
            for protocol in all_protocols()
            for spec in (protocol, *mutants_for(protocol))
        ]
        assert len(specs) == 51
        findings = {}
        for spec in specs:
            problems = check_definition_1(spec)
            if problems:
                findings[spec.name] = problems
        assert findings == DEFINITION_1_FINDINGS


class TestStateSerialization:
    def test_roundtrip_structural(self):
        state = build_state("Shared+", "Invalid*", sharing=SharingLevel.MANY)
        assert state_from_dict(state_to_dict(state)) == state

    def test_roundtrip_augmented(self):
        state = build_state(
            "Dirty",
            "Invalid*",
            data={"Dirty": DataValue.FRESH, "Invalid": DataValue.NODATA},
            sharing=SharingLevel.ONE,
            mdata=DataValue.OBSOLETE,
        )
        assert state_from_dict(state_to_dict(state)) == state

    def test_dict_contains_pretty(self):
        state = build_state("Dirty", "Invalid*")
        assert state_to_dict(state)["pretty"] == state.pretty()

    def test_roundtrip_every_essential_state(self, explored_augmented):
        for result in explored_augmented.values():
            for state in result.essential:
                assert state_from_dict(state_to_dict(state)) == state


class TestResultSerialization:
    def test_verified_result(self, illinois_result):
        payload = result_to_dict(illinois_result)
        assert payload["protocol"] == "illinois"
        assert payload["verified"] is True
        assert len(payload["essential_states"]) == 5
        assert len(payload["transitions"]) == 23
        assert payload["initial"] is not None
        assert payload["stats"]["visits"] == 23
        # Transition indices are in range.
        for t in payload["transitions"]:
            assert 0 <= t["source"] < 5
            assert 0 <= t["target"] < 5

    def test_failed_result_carries_witnesses(self):
        mutant = get_mutant(IllinoisProtocol(), "drop-invalidation")
        payload = result_to_dict(explore(mutant))
        assert payload["verified"] is False
        assert payload["violations"]
        assert payload["witnesses"]
        witness = payload["witnesses"][0]
        assert witness["steps"]
        assert witness["violations"]

    def test_json_is_valid(self, illinois_result):
        parsed = json.loads(result_to_json(illinois_result))
        assert parsed["protocol"] == "illinois"

    def test_json_for_whole_zoo(self, explored_augmented):
        for result in explored_augmented.values():
            json.loads(result_to_json(result))


class TestDeterministicSerialization:
    """The payload is a stable canonical form (engine fingerprints rely
    on it): independent explorations serialize byte-identically apart
    from wall-clock stats, and every list has a documented sort order.
    """

    @staticmethod
    def _strip_elapsed(payload: dict) -> dict:
        payload = dict(payload)
        payload["stats"] = {
            k: v
            for k, v in payload["stats"].items()
            if k != "elapsed_seconds"
        }
        return payload

    def test_two_explorations_serialize_identically(self):
        a = result_to_dict(explore(IllinoisProtocol()))
        b = result_to_dict(explore(IllinoisProtocol()))
        assert json.dumps(
            self._strip_elapsed(a), sort_keys=True
        ) == json.dumps(self._strip_elapsed(b), sort_keys=True)

    def test_transitions_are_sorted(self, illinois_result):
        transitions = result_to_dict(illinois_result)["transitions"]
        keys = [(t["source"], t["label"], t["target"]) for t in transitions]
        assert keys == sorted(keys)

    def test_state_classes_are_sorted(self, explored_augmented):
        for result in explored_augmented.values():
            for state in result.essential:
                classes = state_to_dict(state)["classes"]
                keys = [(c["symbol"], c["data"] or "") for c in classes]
                assert keys == sorted(keys)

    def test_roundtrip_preserves_canonical_form(self, illinois_result):
        for state in illinois_result.essential:
            payload = state_to_dict(state)
            again = state_to_dict(state_from_dict(payload))
            assert payload == again

    def test_json_key_order_is_stable(self, illinois_result):
        text = result_to_json(illinois_result)
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)


class TestCliAdditions:
    def test_fsm_command(self, capsys):
        from repro.cli import main

        assert main(["fsm", "illinois"]) == 0
        assert "strongly connected" in capsys.readouterr().out

    def test_fsm_all(self, capsys):
        from repro.cli import main

        assert main(["fsm", "all"]) == 0

    def test_json_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "result.json"
        assert main(["verify", "msi", "--quiet", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["protocol"] == "msi"
