"""Tests for the compiled expansion kernel (``repro.kernel``).

Covers the compilation layer (encoding sanity, hash-consing through
the intern table, the memoized containment lattice, the per-fingerprint
compile cache), exact parity with the interpreter over the protocol zoo
(verdicts, violation kinds, essential sets, visit counts, concrete
state spaces), budget-guard PARTIAL semantics, and the ``backend``
run option end to end: the kernel default, ``verify()`` and its
fallback to the interpreter, ``VerificationJob`` metadata, the
backend-blind cache key and the serve-layer ``CampaignRequest``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.essential import explore
from repro.core.options import RunOptions
from repro.core.verifier import verify
from repro.engine import (
    ResultCache,
    VerificationJob,
    job_key,
    run_batch,
    spec_fingerprint,
)
from repro.engine.guard import Budget, Guard
from repro.enumeration.exhaustive import Equivalence, enumerate_space
from repro.ir import lower
from repro.kernel import (
    BACKENDS,
    CompiledProtocol,
    KernelUnsupportedError,
    compile_protocol,
)
from repro.kernel import enumerate_space as kernel_enumerate
from repro.kernel import explore as kernel_explore
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.mutations import mutants_for
from repro.protocols.registry import all_protocols, get_protocol


# ---------------------------------------------------------------------------
# compilation: encoding, intern table, containment memo, compile cache
# ---------------------------------------------------------------------------


def test_backends_constant():
    assert BACKENDS == ("interp", "kernel")


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
    base = explore(spec)
    kern = kernel_explore(spec)
    assert {s.pretty() for s in base.essential} == {
        s.pretty() for s in kern.essential
    }
    assert sorted(v.kind for v in base.violations) == sorted(
        v.kind for v in kern.violations
    )
    assert base.stats.visits == kern.stats.visits
    assert base.stats.expanded == kern.stats.expanded
    assert base.ok == kern.ok


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("equivalence", list(Equivalence))
def test_enumerate_parity_illinois(n, equivalence):
    spec = IllinoisProtocol()
    base = enumerate_space(spec, n, equivalence=equivalence)
    kern = kernel_enumerate(spec, n, equivalence=equivalence)
    assert base.stats.visits == kern.stats.visits
    assert base.stats.unique_states == kern.stats.unique_states
    assert [s.pretty() for s in base.states] == [s.pretty() for s in kern.states]


def test_violation_parity_on_a_mutant():
    spec = get_protocol("illinois")
    broken = next(m for m in mutants_for(spec) if not explore(m).ok)
    base = explore(broken)
    kern = kernel_explore(broken)
    assert not kern.ok
    assert sorted(v.kind for v in base.violations) == sorted(
        v.kind for v in kern.violations
    )
    # Witness shape: same violating states, same kinds, same messages.
    base_w = sorted((v.kind.value, v.state.pretty()) for v in base.violations)
    kern_w = sorted((v.kind.value, v.state.pretty()) for v in kern.violations)
    assert base_w == kern_w


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
# the backend knob
# ---------------------------------------------------------------------------


def test_default_backend_is_the_kernel():
    assert RunOptions().backend == "kernel"


def test_verify_backend_kernel_matches_interp():
    spec = IllinoisProtocol()
    interp = verify(spec, options=RunOptions(backend="interp")).result
    kern = verify(spec, options=RunOptions(backend="kernel")).result
    assert interp.ok and kern.ok
    assert {s.pretty() for s in interp.essential} == {
        s.pretty() for s in kern.essential
    }


def test_verify_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        verify(IllinoisProtocol(), options=RunOptions(backend="jit"))


def test_job_validates_backend():
    with pytest.raises(ValueError, match="backend"):
        VerificationJob(protocol="illinois", options=RunOptions(backend="jit"))
    job = VerificationJob(protocol="illinois", options=RunOptions(backend="kernel"))
    assert job.to_meta()["backend"] == "kernel"


def test_job_key_ignores_backend():
    # Both backends produce the same payload, so one verdict is cached
    # once, whichever backend produced it.
    fp = spec_fingerprint(IllinoisProtocol())
    interp_job = VerificationJob(
        protocol="illinois", options=RunOptions(backend="interp")
    )
    kernel_job = VerificationJob(protocol="illinois")
    assert job_key(fp, interp_job) == job_key(fp, kernel_job)


def _without_elapsed(payload):
    stats = {k: v for k, v in payload["stats"].items() if k != "elapsed_seconds"}
    return {**payload, "stats": stats}


@pytest.mark.parametrize("name", ["illinois", "moesi"])
def test_warm_kernel_reports_the_interpreters_scenarios(name):
    # The successor memo stores each state's scenario count with its
    # entries, so a second run in one process (warm compile cache)
    # reports what a cold run -- and the interpreter -- does.
    expected = verify(name, options=RunOptions(backend="interp")).result
    for _ in range(2):
        kern = verify(name).result
        assert kern.stats.scenarios == expected.stats.scenarios > 0
        assert kern.stats.visits == expected.stats.visits


def test_cache_entry_is_shared_across_backends(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    # One verified protocol and one violating mutant.
    mutant = mutants_for(get_protocol("msi"))[0].mutation.key
    jobs = [
        VerificationJob(protocol="illinois"),
        VerificationJob(protocol="msi", mutant=mutant),
    ]
    filled = run_batch(jobs, cache=cache)
    assert not any(r.cached for r in filled.results)
    interp_jobs = [
        replace(job, options=replace(job.options, backend="interp")) for job in jobs
    ]
    replayed = run_batch(interp_jobs, cache=cache)
    assert all(r.cached for r in replayed.results)
    assert cache.hits == len(jobs)
    fresh = run_batch(interp_jobs, cache=None)
    for kern, hit, interp in zip(filled.results, replayed.results, fresh.results):
        assert hit.payload == kern.payload
        assert _without_elapsed(hit.payload) == _without_elapsed(interp.payload)


class _ProbeShyIllinois(IllinoisProtocol):
    """Illinois whose ``react`` rejects an observation no reachable
    state produces: all three valid states held by other caches at once.
    Only IR lowering probes every present-set, so only lowering fails."""

    name = "illinois-probe-shy"

    def react(self, state, op, ctx):
        if len(ctx.present) == len(self.valid_states()):
            raise RuntimeError("unreachable observation")
        return super().react(state, op, ctx)


def test_verify_falls_back_to_the_interpreter_when_lowering_fails():
    spec = _ProbeShyIllinois()
    with pytest.raises(KernelUnsupportedError, match="lowering"):
        compile_protocol(spec)
    report = verify(spec)  # default options: the kernel backend
    reference = verify(IllinoisProtocol(), options=RunOptions(backend="interp"))
    assert report.ok and reference.ok
    assert report.result.stats.visits == reference.result.stats.visits
    assert {s.pretty() for s in report.result.essential} == {
        s.pretty() for s in reference.result.essential
    }


def test_campaign_request_backend_round_trip(tmp_path):
    from repro.serve.model import CampaignRequest

    request = CampaignRequest(
        protocols=("illinois",), options=RunOptions(backend="kernel")
    )
    assert request.to_dict()["backend"] == "kernel"
    replica = CampaignRequest.from_dict(request.to_dict())
    assert replica.options.backend == "kernel"
    jobs = replica.jobs(tmp_path)
    assert jobs and all(job.options.backend == "kernel" for job in jobs)
    with pytest.raises(ValueError, match="backend"):
        CampaignRequest.from_dict({"protocols": ["illinois"], "backend": 7})
