"""The differential gate (`repro.testkit.diff`).

Every check over the cheap spec sources, the gate's own contract (one
interpreter expansion per spec, one skip rule, empty sources are
findings, rendering) and the heavy generated stalling draws.  The
remaining sources (safety mutants, generated specs) run in `repro
diff`, the CI ``differential`` job.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.options import RunOptions
from repro.enumeration.crossval import run_oracle
from repro.obs import Collector, use_collector
from repro.protocols.mutations import liveness_mutants_for
from repro.protocols.registry import get_protocol
from repro.testkit import (
    CampaignConfig,
    GeneratorConfig,
    OracleBudget,
    SpecGenerator,
    diff,
    run_campaign,
)
from repro.testkit.diff import (
    CHECKS,
    SOURCES,
    Case,
    Context,
    DiffReport,
    Finding,
    diff_spec,
    run_check,
    run_diff,
)
from tests.helpers import ProbeShyIllinois

CHEAP_SOURCES = ("zoo", "builtin", "liveness-mutant", "corpus")


@functools.cache
def _contexts(source):
    """One context per case, shared by the source's check tests as
    :func:`diff_spec` shares it between the checks."""
    return [Context(case) for case in SOURCES[source]()]


# ----------------------------------------------------------------------
# Source x check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("check", list(CHECKS))
@pytest.mark.parametrize("source", CHEAP_SOURCES)
def test_every_check_holds_on_every_cheap_source(source, check):
    contexts = _contexts(source)
    assert contexts, f"source {source} yielded no specs"
    for ctx in contexts:
        found, skipped = run_check(check, ctx)
        assert not found, "\n".join(map(str, found))
        assert skipped is None, f"{ctx.name}: {skipped}"


@pytest.mark.parametrize("source", CHEAP_SOURCES)
def test_verified_cheap_specs_are_tight(source):
    # Non-vacuity is recorded, never a ``theorem1`` finding; on the
    # cheap sources every spec the expansion verifies is tight anyway.
    verified = 0
    for ctx in _contexts(source):
        report = run_oracle(ctx.spec, symbolic=ctx.kernel, augmented=diff.AUGMENTED)
        if report.symbolic_verified:
            verified += 1
            vacuous = [s.pretty() for s in report.vacuous]
            assert vacuous == [], ctx.name
    assert verified


def test_sources_carry_their_expectations():
    assert all(c.expect_not_live for c in SOURCES["liveness-mutant"]())
    # Only the pinned liveness-* corpus entries are expected not live.
    corpus = SOURCES["corpus"]()
    assert 0 < sum(c.expect_not_live for c in corpus) < len(corpus)
    assert not any(c.expect_not_live for c in SOURCES["zoo"]())


def test_generated_stalling_specs_keep_every_invariant():
    generator = SpecGenerator(seed=4, config=GeneratorConfig(p_stall=0.5))
    for _ in range(8):
        _, spec = generator.draw_checked()
        found, skipped = run_check("liveness", Context(Case("test", spec)))
        assert not found, "\n".join(map(str, found))
        assert skipped is None, f"{spec.name}: {skipped}"


# ----------------------------------------------------------------------
# The gate's own contract
# ----------------------------------------------------------------------
def test_a_spec_is_expanded_by_the_interpreter_once():
    with use_collector(Collector("diff")) as collector:
        report = diff_spec(Case("zoo", get_protocol("illinois")))
    assert report.ok and not report.skipped
    names = [span.name for span in collector.spans]
    # One interpreter expansion of the spec (the ``ir`` check compares
    # behaviour tables, it expands nothing); one kernel expansion.
    assert names.count("expand") == 1
    assert names.count("kernel.expand") == 1


def test_budget_exhaustion_skips_every_check(monkeypatch):
    monkeypatch.setattr(diff, "MAX_VISITS", 3)
    report = diff_spec(Case("zoo", get_protocol("illinois")))
    assert report.ok
    assert report.skipped == tuple((check, "budget exhausted") for check in CHECKS)


def test_probe_shy_spec_runs_every_check():
    # Its react() raises on an unreachable present-set: lowering records
    # raise entries, so nothing is skipped and every check holds.
    report = diff_spec(Case("test", ProbeShyIllinois()))
    assert report.ok and not report.skipped, report.describe()
    ctx = Context(Case("test", ProbeShyIllinois()))
    assert run_check("liveness", ctx) == ([], None)
    assert ctx.liveness.live


def test_static_half_of_liveness_needs_the_ir():
    # The static half reads the IR's flow, raise entries included: on
    # the probe-shy spec's starvers it neither skips nor misfires (a
    # cell whose rules only stall or raise never completes), and the
    # dynamic half still catches each starver.
    for starver in liveness_mutants_for(ProbeShyIllinois()):
        report = diff_spec(Case("test", starver, expect_not_live=True))
        assert report.ok and not report.skipped, report.describe()
        ctx = Context(Case("test", starver, expect_not_live=True))
        assert run_check("liveness", ctx) == ([], None)
        assert ctx.liveness.live is False and ctx.flow.stalls


def test_expect_not_live_flags_a_live_spec():
    case = Case("test", get_protocol("msi"), expect_not_live=True)
    found, skipped = run_check("liveness", Context(case))
    assert skipped is None
    assert [f.kind for f in found] == ["mutant-live"]


def test_an_empty_source_is_a_finding(monkeypatch):
    monkeypatch.setattr(diff, "SOURCES", {"nothing": lambda: []})
    (report,) = run_diff()
    assert not report.ok
    assert [f.kind for f in report.findings] == ["empty-source"]
    assert report.findings[0].spec == "nothing"


def test_describe_renders_verdict_and_findings():
    ok = diff_spec(Case("zoo", get_protocol("msi")))
    assert ok.describe() == "zoo/msi: ok"
    report = DiffReport(
        "corpus",
        "x",
        (Finding("coverage", "x", "boom", n=2),),
        skipped=(("kernel", "budget exhausted"),),
    )
    text = report.describe()
    assert text.splitlines() == [
        "corpus/x: 1 findings",
        "  kernel skipped (budget exhausted)",
        "  [coverage] x (n=2): boom",
    ]


def test_fuzz_liveness_mode_reports_the_gates_findings(monkeypatch):
    # The fuzzer runs the gate's liveness check; a broken invariant is a
    # campaign finding under a ``liveness-`` kind.
    monkeypatch.setattr(diff, "replay_lasso", lambda result, lasso: (False, "no"))
    report = run_campaign(
        CampaignConfig(
            seed=4,
            count=1,
            budget=OracleBudget(ns=(1, 2), soundness_ns=(1, 2, 3)),
            generator=GeneratorConfig(p_stall=0.5),
            options=RunOptions(mode="liveness"),
        )
    )
    assert report.starved == 1
    assert [f["kind"] for f in report.findings] == ["liveness-lasso-replay"]
    assert report.findings[0]["detail"].endswith(": no")
