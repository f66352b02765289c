"""Tests for the guarded-action IR (``repro.ir``).

The load-bearing property is exactness: the IR of any shipped
specification (registry object or DSL source) is the specification
cell by cell -- same header, same applicability, and in every
applicable cell and present-set, reachable or not, the outcome (or
raise) ``react()`` gives.  Around that: deterministic serialization
and fingerprinting, restriction synthesis, error handling, and the
``repro ir dump`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.protocol import ProtocolDefinitionError
from repro.core.reactions import Ctx
from repro.core.symbols import CountCase, Op
from repro.ir import (
    IRAction,
    IRError,
    IRGuard,
    IRTransition,
    ProtocolIR,
    canonical_json,
    lower,
    lower_dsl,
    lower_spec,
)
from repro.kernel import compile_protocol
from repro.kernel import explore as kernel_explore
from repro.protocols.dsl import builtin_spec_names, load_builtin, load_protocol
from repro.protocols.registry import get_protocol, protocol_names
from repro.testkit import diff
from repro.testkit.diff import Case, Context, run_check
from tests.helpers import ProbeShyIllinois

CORPUS = sorted(Path("tests/corpus").glob("*.proto"))


# ----------------------------------------------------------------------
# Exactness (the acceptance criterion): the differential gate's ``ir``
# check -- behaviour table, serialization, flow.
# ----------------------------------------------------------------------
def _ir_check(source, spec):
    found, skipped = run_check("ir", Context(Case(source, spec)))
    assert not found and skipped is None, (found, skipped)


@pytest.mark.parametrize("name", protocol_names())
def test_registry_protocol_roundtrips(name):
    _ir_check("zoo", get_protocol(name))


@pytest.mark.parametrize("name", builtin_spec_names())
def test_builtin_dsl_spec_roundtrips(name):
    _ir_check("builtin", load_builtin(name))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_entry_roundtrips(path):
    _ir_check("corpus", load_protocol(path))


def test_ir_check_compares_unreachable_present_sets(monkeypatch):
    """An IR that differs from ``react()`` only where no reachable state
    looks -- Illinois with one action changed at {Dirty, Shared, V-Ex}
    -- explores identically, yet is not the spec: the ``ir`` check
    compares every cell under every present-set."""
    spec = get_protocol("illinois")
    ir = lower_spec(spec)
    sid, oid = ir.state_id("Invalid"), ir.op_id(Op.READ)
    full = IRGuard(tuple(("has", v) for v in ir.valid_ids()))
    first = ir.transitions.index(ir.transitions_for(sid, oid)[0])
    changed = IRTransition(
        sid, oid, full, IRAction(ir.state_id("Shared"), load=("memory", ()))
    )
    edited = replace(
        ir,
        transitions=(*ir.transitions[:first], changed, *ir.transitions[first:]),
    )
    monkeypatch.setattr(diff, "lower", lambda _: edited)
    found, skipped = run_check("ir", Context(Case("zoo", spec)))
    assert skipped is None
    (finding,) = found
    assert finding.kind == "behaviour"
    assert finding.detail.startswith(
        "(Invalid, R) at present-set ['Dirty', 'Shared', 'V-Ex']: "
    )
    # No reachable state observes that present-set: the kernel explores
    # the edited IR exactly as it explores the spec.
    ours = kernel_explore(spec)
    theirs = kernel_explore(spec, compiled=compile_protocol(edited))
    assert theirs.essential == ours.essential
    assert theirs.stats.visits == ours.stats.visits


# ----------------------------------------------------------------------
# Lowering specifics
# ----------------------------------------------------------------------
def test_dsl_lowering_preserves_rule_origins():
    dsl = load_builtin("msi")
    ir = lower_dsl(dsl)
    assert [t.origin for t in ir.transitions] == list(
        range(len(dsl._rules))
    )


def test_registry_lowering_has_no_origins():
    ir = lower_spec(get_protocol("msi"))
    assert all(t.origin is None for t in ir.transitions)


def test_lower_dispatches_on_spec_kind():
    assert [t.origin for t in lower(load_builtin("msi")).transitions] != [
        None
    ] * len(lower(load_builtin("msi")).transitions)
    assert lower(get_protocol("msi")).name == "msi"


def test_dsl_to_ir_convenience():
    ir = load_builtin("illinois").to_ir()
    assert isinstance(ir, ProtocolIR)
    assert ir.fingerprint() == lower_dsl(load_builtin("illinois")).fingerprint()


def test_lock_msi_restriction_is_synthesized():
    """The registry lock-msi limits which states may issue Lock/Unlock;
    the prober must rediscover that as an IR restriction so the IR's
    ``applicable`` matches the spec's exactly."""
    spec = get_protocol("lock-msi")
    ir = lower_spec(spec)
    assert ir.restrictions, "expected synthesized applicability limits"
    for state in spec.states:
        for op in spec.operations:
            assert ir.applicable(ir.state_id(state), ir.op_id(op)) == (
                spec.applicable(state, op)
            )


# ----------------------------------------------------------------------
# Serialization and fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_deterministic():
    assert (
        lower(get_protocol("moesi")).fingerprint()
        == lower(get_protocol("moesi")).fingerprint()
    )


def test_fingerprint_distinguishes_protocols():
    prints = {lower(get_protocol(n)).fingerprint() for n in protocol_names()}
    assert len(prints) == len(protocol_names())


def test_to_dict_from_dict_roundtrip():
    ir = lower(get_protocol("dragon"))
    replica = ProtocolIR.from_dict(ir.to_dict())
    assert replica.to_dict() == ir.to_dict()
    assert replica.fingerprint() == ir.fingerprint()


def test_raises_entry_round_trips_and_raises_when_reached():
    ir = lower(ProbeShyIllinois())
    raising = [t for t in ir.transitions if t.action.raises is not None]
    assert raising and all(
        t.action.raises == "RuntimeError: unreachable observation"
        for t in raising
    )
    payload = json.loads(json.dumps(ir.to_dict()))
    replica = ProtocolIR.from_dict(payload)
    assert replica == ir
    assert replica.to_dict() == ir.to_dict()
    assert replica.fingerprint() == ir.fingerprint()
    # Only raise entries carry the key: other dumps are unchanged.
    actions = [t["action"] for t in payload["transitions"]]
    assert sum("raises" in a for a in actions) == len(raising)
    assert not any(
        "raises" in t["action"]
        for t in lower(get_protocol("illinois")).to_dict()["transitions"]
    )
    # Materialized, the entry is a definition error where it is selected.
    t = raising[0]
    valid = frozenset(ir.states[i] for i in ir.valid_ids())
    ctx = Ctx(present=valid, copies=CountCase.MANY)
    assert ir.select(t.state, t.op, frozenset(ir.valid_ids())) == t
    with pytest.raises(
        ProtocolDefinitionError, match="raised RuntimeError: unreachable"
    ):
        ir.outcome(t, ctx)


def test_to_dict_survives_json():
    ir = lower(load_builtin("firefly"))
    replica = ProtocolIR.from_dict(json.loads(json.dumps(ir.to_dict())))
    assert replica.fingerprint() == ir.fingerprint()


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
        {"a": [2, 3], "b": 1}
    )


def test_from_dict_rejects_wrong_schema():
    payload = lower(get_protocol("msi")).to_dict()
    payload["schema"] = "repro-ir/999"
    with pytest.raises(IRError):
        ProtocolIR.from_dict(payload)


def test_from_dict_rejects_malformed_document():
    with pytest.raises(IRError):
        ProtocolIR.from_dict({"schema": "repro-ir/1"})


def test_unknown_symbols_raise():
    ir = lower(get_protocol("msi"))
    with pytest.raises(IRError):
        ir.state_id("NoSuchState")
    with pytest.raises(IRError):
        ir.op_id("Q")


def test_guard_render_is_stable():
    ir = lower(load_builtin("illinois"))
    guarded = [t for t in ir.transitions if not t.guard.always]
    assert guarded, "illinois has guarded rules"
    for t in guarded:
        assert t.guard.render(ir.states)  # non-empty, no crash


# ----------------------------------------------------------------------
# CLI: repro ir dump
# ----------------------------------------------------------------------
def test_cli_ir_dump_registry_name(capsys):
    assert main(["ir", "dump", "msi"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-ir/1"
    assert payload["name"] == "msi"


def test_cli_ir_dump_compact_matches_fingerprint_input(capsys):
    assert main(["ir", "dump", "msi", "--compact"]) == 0
    compact = capsys.readouterr().out.strip()
    assert compact == canonical_json(lower(get_protocol("msi")).to_dict())


def test_cli_ir_dump_fingerprint(capsys):
    assert main(["ir", "dump", "illinois", "--fingerprint"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == lower(get_protocol("illinois")).fingerprint()


def test_cli_ir_dump_spec_file(tmp_path, capsys):
    src = Path("src/repro/protocols/specs/msi.proto").read_text(
        encoding="utf-8"
    )
    path = tmp_path / "mine.proto"
    path.write_text(src, encoding="utf-8")
    assert main(["ir", "dump", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "msi-dsl"


def test_cli_ir_dump_unknown_spec(capsys):
    assert main(["ir", "dump", "no-such-spec"]) == 2
    assert "unknown spec" in capsys.readouterr().err
