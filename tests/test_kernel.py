"""Tests for the compiled expansion kernel (``repro.kernel``).

Covers the compilation layer (encoding sanity, hash-consing through
the intern table, the memoized containment lattice, the per-fingerprint
compile cache), exact parity with the interpreter (the zoo through the
differential gate's ``kernel`` check, Illinois enumeration order),
budget-guard PARTIAL semantics, and the one engine end to end:
``verify()`` runs the kernel on every spec -- one whose ``react``
raises on some present-set included -- a guard stops lowering with a
PARTIAL, both engines render the same cache payload, and the
serve-layer ``CampaignRequest`` carries no engine.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.essential import explore
from repro.core.options import RunOptions
from repro.core.protocol import ProtocolDefinitionError
from repro.core.serialize import result_to_dict
from repro.core.symbols import DataValue, Op
from repro.core.verifier import verify
from repro.engine.guard import Budget, Guard
from repro.enumeration.exhaustive import Equivalence, enumerate_space
from repro.enumeration.product import (
    ConcreteState,
    _apply,
    _ctx_for,
    initial_concrete,
)
from repro.ir import lower
from repro.kernel import CompiledProtocol, compile_protocol
from repro.kernel import enumerate_space as kernel_enumerate
from repro.kernel import explore as kernel_explore
from repro.obs import Collector, use_collector
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import mutants_for
from repro.protocols.registry import all_protocols, get_protocol
from repro.testkit.diff import Case, Context, run_check
from tests.helpers import ProbeShyIllinois


# ---------------------------------------------------------------------------
# compilation: encoding, intern table, containment memo, compile cache
# ---------------------------------------------------------------------------


def test_compile_protocol_caches_per_spec_instance():
    spec = IllinoisProtocol()
    assert compile_protocol(spec) is compile_protocol(spec)


def test_compile_protocol_caches_per_fingerprint():
    # Two distinct instances of the same protocol share one compile.
    assert compile_protocol(IllinoisProtocol()) is compile_protocol(
        IllinoisProtocol()
    )


def test_compile_cache_distinguishes_behaviour():
    spec = get_protocol("illinois")
    mutant = mutants_for(spec)[0]
    assert compile_protocol(spec) is not compile_protocol(mutant)


def test_from_ir_and_from_spec_agree():
    spec = IllinoisProtocol()
    ir = lower(spec)
    a = CompiledProtocol.from_ir(ir)
    b = CompiledProtocol.from_spec(IllinoisProtocol())
    assert a.ir.fingerprint() == b.ir.fingerprint()


def test_intern_hash_consing_returns_identity_equal_states():
    cp = CompiledProtocol.from_spec(IllinoisProtocol())
    result = kernel_explore(IllinoisProtocol())
    # Re-encoding any essential state must intern to the same id and
    # decode to the very same object (decoded at most once per state).
    for state in result.essential:
        sid = cp.intern(cp.encode(state))
        assert cp.intern(cp.encode(state)) == sid
        assert cp.decoded(sid) is cp.decoded(sid)
        assert cp.decoded(sid).pretty() == state.pretty()


def test_intern_counters_move():
    cp = CompiledProtocol.from_spec(IllinoisProtocol())
    h0, m0 = cp.intern_hits, cp.intern_misses
    root = cp.initial_id(True)
    assert cp.intern_misses >= m0
    key = cp.encode(cp.decoded(root))
    assert cp.intern(key) == root
    assert cp.intern_hits > h0


def test_containment_memo_agrees_with_covering():
    from repro.core.covering import contains

    cp = CompiledProtocol.from_spec(IllinoisProtocol())
    result = kernel_explore(IllinoisProtocol())
    ids = [cp.intern(cp.encode(s)) for s in result.essential]
    for a in ids:
        for b in ids:
            expected = contains(cp.decoded(b), cp.decoded(a))
            # Twice: the second call must hit the memo, same answer.
            assert cp.contains_ids(a, b) == expected
            assert cp.contains_ids(a, b) == expected


def test_containment_memo_is_per_protocol():
    # The memo lives on the compiled protocol, which is keyed by IR
    # fingerprint: a behavioural edit gets a fresh table.
    spec = get_protocol("illinois")
    mutant = mutants_for(spec)[0]
    a, b = compile_protocol(spec), compile_protocol(mutant)
    assert a is not b
    assert a._contains is not b._contains


def test_initial_cells_requires_a_cache():
    cp = CompiledProtocol.from_spec(IllinoisProtocol())
    with pytest.raises(ValueError):
        cp.initial_cells(0)


# ---------------------------------------------------------------------------
# parity with the interpreter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", all_protocols(), ids=lambda s: s.name)
def test_explore_parity_zoo(spec):
    # Verdicts, violation witnesses, essential sets, visit and expansion
    # counts, liveness documents and small-n state spaces: the
    # differential gate's ``kernel`` check compares them all.
    assert run_check("kernel", Context(Case("zoo", spec))) == ([], None)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("equivalence", list(Equivalence))
def test_enumerate_parity_illinois(n, equivalence):
    spec = IllinoisProtocol()
    base = enumerate_space(spec, n, equivalence=equivalence)
    kern = kernel_enumerate(spec, n, equivalence=equivalence)
    assert base.stats.visits == kern.stats.visits
    assert base.stats.unique_states == kern.stats.unique_states
    assert [s.pretty() for s in base.states] == [s.pretty() for s in kern.states]


def test_data_errors_raise_in_the_interpreters_order():
    # An Illinois read miss beside two Dirty copies, one fresh and one
    # holding nodata (a hand-built, unreachable state).  The first data
    # variant (write-back and load of the fresh copy) is clean, so the
    # interpreter next meets the nodata observer copy -- before the
    # later variants' write-back and initiator errors.
    spec = IllinoisProtocol()
    state = ConcreteState(
        ("Invalid", "Dirty", "Dirty"),
        (DataValue.NODATA, DataValue.FRESH, DataValue.NODATA),
        DataValue.OBSOLETE,
    )
    outcome = spec.react("Invalid", Op.READ, _ctx_for(spec, state, 0))
    with pytest.raises(ValueError) as interp:
        _apply(spec, state, 0, Op.READ, outcome)

    cp = compile_protocol(spec)
    ir = cp.ir
    dcode = {None: 0, DataValue.FRESH: 1, DataValue.NODATA: 2, DataValue.OBSOLETE: 3}
    packed = tuple(
        ir.state_id(s) * 4 + dcode[d] for s, d in zip(state.states, state.cdata)
    ) + (dcode[state.mdata],)
    mask = 1 << ir.state_id("Dirty")
    entry = cp.delta(packed[0], ir.op_id(Op.READ), mask, packed[-1])
    assert entry[0] == 4  # the general path, with data choices
    with pytest.raises(ValueError) as kern:
        cp.apply_general(packed, 0, entry)
    assert str(kern.value) == str(interp.value)
    assert "observer copy" in str(interp.value)


def test_guard_partial_semantics_explore():
    spec = IllinoisProtocol()
    result = kernel_explore(spec, guard=Guard(Budget(max_visits=5)))
    assert result.partial
    assert result.exhausted is not None
    base = explore(spec, guard=Guard(Budget(max_visits=5)))
    assert base.partial
    assert base.stats.visits == result.stats.visits
    assert len(base.frontier) == len(result.frontier)


def test_guard_partial_semantics_enumerate():
    spec = IllinoisProtocol()
    result = kernel_enumerate(spec, 3, guard=Guard(Budget(max_visits=7)))
    assert result.partial
    base = enumerate_space(spec, 3, guard=Guard(Budget(max_visits=7)))
    assert base.stats.visits == result.stats.visits
    assert len(base.frontier) == len(result.frontier)


# ---------------------------------------------------------------------------
# one engine: verify() runs the kernel
# ---------------------------------------------------------------------------


def _root_spans(spec) -> list[str]:
    collector = Collector("engine")
    with use_collector(collector):
        verify(spec)
    return [s.name for s in collector.spans if s.name in ("expand", "kernel.expand")]


def test_default_backend_is_the_kernel():
    # Every spec runs on the kernel -- one whose react() raises on an
    # unreachable present-set too -- with no option involved.
    assert _root_spans(IllinoisProtocol()) == ["kernel.expand"]
    assert _root_spans(ProbeShyIllinois()) == ["kernel.expand"]


def test_verify_backend_kernel_matches_interp():
    spec = IllinoisProtocol()
    interp = explore(spec)
    kern = verify(spec).result
    assert interp.ok and kern.ok
    assert {s.pretty() for s in interp.essential} == {
        s.pretty() for s in kern.essential
    }


def _without_elapsed(payload):
    stats = {k: v for k, v in payload["stats"].items() if k != "elapsed_seconds"}
    return {**payload, "stats": stats}


@pytest.mark.parametrize("name", ["illinois", "moesi"])
def test_warm_kernel_reports_the_interpreters_scenarios(name):
    # The successor memo stores each state's scenario count with its
    # entries, so a second run in one process (warm compile cache)
    # reports what a cold run -- and the interpreter -- does.
    expected = explore(get_protocol(name))
    for _ in range(2):
        kern = verify(name).result
        assert kern.stats.scenarios == expected.stats.scenarios > 0
        assert kern.stats.visits == expected.stats.visits


def test_cache_entry_is_shared_across_backends():
    # The cache key leaves the engine out because both engines render
    # the same payload: the zoo plus one violating mutant (witnesses).
    mutant = mutants_for(get_protocol("msi"))[0]
    for spec in [*all_protocols(), mutant]:
        kern = result_to_dict(verify(spec).result)
        interp = result_to_dict(explore(spec))
        assert _without_elapsed(kern) == _without_elapsed(interp), spec.name


def test_verify_runs_a_probe_shy_spec_on_the_kernel():
    # The unreachable observation lowers to raise entries, never
    # reached: the kernel reports exactly what the interpreter does
    # (Figure 4's 23 visits), and enumerates the same spaces.
    spec = ProbeShyIllinois()
    raising = [t for t in compile_protocol(spec).ir.transitions if t.action.raises]
    assert len(raising) == 11
    report = verify(spec)
    reference = explore(spec)
    assert report.ok and report.result.stats.visits == 23
    assert _without_elapsed(result_to_dict(report.result)) == _without_elapsed(
        result_to_dict(reference)
    )
    for n in (1, 2, 3):
        kern, base = kernel_enumerate(spec, n), enumerate_space(spec, n)
        assert [s.pretty() for s in kern.states] == [s.pretty() for s in base.states]
        assert kern.stats.visits == base.stats.visits


class RaisesOnReachableRead(IllinoisProtocol):
    """Illinois whose ``react`` raises on a read miss beside a Dirty
    copy -- a context expansion reaches."""

    name = "illinois-raises-on-dirty-read"

    def react(self, state, op, ctx):
        if op is Op.READ and state == "Invalid" and ctx.has("Dirty"):
            raise RuntimeError("boom")
        return super().react(state, op, ctx)


def test_a_reachable_raise_raises_on_both_engines():
    spec = RaisesOnReachableRead()
    with pytest.raises(RuntimeError, match="boom"):
        explore(spec)
    with pytest.raises(RuntimeError, match="boom"):
        enumerate_space(spec, 2)
    # The kernel raises when expansion reaches the raise entry.
    message = r"react\(Invalid, R, present=\['Dirty'\]\) raised RuntimeError: boom"
    with pytest.raises(ProtocolDefinitionError, match=message):
        kernel_explore(spec)
    with pytest.raises(ProtocolDefinitionError, match=message):
        kernel_enumerate(spec, 2)
    # verify() rejects the spec before expanding: validation reads the
    # raise from the behaviour table.
    with pytest.raises(ProtocolDefinitionError, match=r"raised RuntimeError\('boom'\)"):
        verify(spec)


class CancelledWhileLowering(IllinoisProtocol):
    """Illinois that raises a cancel flag from inside its fifth ``react``
    call -- while IR lowering is still probing present-sets."""

    name = "illinois-cancelled-while-lowering"

    def __init__(self, flag: threading.Event) -> None:
        super().__init__()
        self.flag = flag
        self.calls = 0

    def react(self, state, op, ctx):
        self.calls += 1
        if self.calls == 5:
            self.flag.set()
        return super().react(state, op, ctx)


def test_guard_stops_lowering_with_a_partial_result():
    full = CancelledWhileLowering(threading.Event())
    lower(full)  # how many react() calls one whole lowering makes
    flag = threading.Event()
    spec = CancelledWhileLowering(flag)
    report = verify(spec, guard=Guard(cancel=flag))
    # verify() builds the behaviour table under the guard, so the trip
    # skips validation: no react() call runs unguarded.  The result is a
    # structured PARTIAL from the kernel -- not an error, and not a
    # finished lowering: the initial state is the whole frontier.
    assert spec.calls == 5
    assert report.partial and not report.result.violations
    assert report.result.exhausted.reason == "cancelled"
    assert not report.result.essential
    assert report.result.frontier == (report.result.initial,)
    assert spec.calls < full.calls / 4
    # Nothing of the cut-short lowering was cached: unguarded, the same
    # object lowers in full and verifies on the kernel.
    flag.clear()
    assert _root_spans(spec) == ["kernel.expand"]
    assert verify(spec).result.stats.visits == explore(IllinoisProtocol()).stats.visits


def test_guard_stops_lowering_before_enumeration():
    flag = threading.Event()
    spec = CancelledWhileLowering(flag)
    result = kernel_enumerate(spec, 3, guard=Guard(cancel=flag))
    assert result.partial and result.exhausted.reason == "cancelled"
    assert not result.violations
    assert result.frontier == (initial_concrete(spec, 3),)


def test_campaign_request_backend_round_trip(tmp_path):
    from repro.serve.model import CampaignRequest

    request = CampaignRequest(protocols=("illinois",))
    assert "backend" not in request.to_dict()
    replica = CampaignRequest.from_dict(request.to_dict())
    assert replica.options == RunOptions()
    assert replica.jobs(tmp_path)
    with pytest.raises(ValueError, match="backend"):
        CampaignRequest.from_dict({"protocols": ["illinois"], "backend": "interp"})
