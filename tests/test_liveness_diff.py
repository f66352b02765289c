"""The liveness differential gate (`repro.testkit.livediff`).

Two halves:

* the harness itself -- the zoo, the starvation mutants, the pinned
  corpus and generated stalling specifications all keep every
  invariant (lassos replay, no static contradiction, witnesses pair
  up, analysis deterministic, seeded starvers caught);
* property tests -- hypothesis drives the generator across seeds and
  stall densities, re-executing every lasso through the reaction
  semantics, so the invariants hold on protocols nobody wrote.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.essential import explore
from repro.core.options import RunOptions
from repro.core.verifier import verify
from repro.liveness import analyze_liveness, replay_lasso
from repro.protocols.registry import get_protocol
from repro.testkit import (
    GeneratorConfig,
    SpecGenerator,
    live_diff_all,
    live_diff_corpus,
    live_diff_generated,
    live_diff_spec,
)
from repro.testkit.livediff import LiveDiffFinding, LiveDiffReport


# ----------------------------------------------------------------------
# The harness over the shipped surface
# ----------------------------------------------------------------------
def test_zoo_and_starvation_mutants_keep_every_invariant():
    reports = live_diff_all(mutants=True)
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(r.describe() for r in bad)
    # The mutant half must actually have exercised NOT-LIVE verdicts.
    assert sum(1 for r in reports if r.live is False) >= 10


def test_corpus_keeps_every_invariant():
    reports = live_diff_corpus()
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(r.describe() for r in bad)
    # The three pinned liveness entries are checked as expect_not_live.
    assert sum(1 for r in reports if r.live is False) >= 3


def test_generated_stalling_specs_keep_every_invariant():
    reports = live_diff_generated(count=8, seed=4)
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(r.describe() for r in bad)


def test_expect_not_live_flags_a_live_spec():
    report = live_diff_spec(get_protocol("msi"), expect_not_live=True)
    assert not report.ok
    assert [f.kind for f in report.findings] == ["mutant-live"]


def test_skipped_comparisons_are_ok():
    from repro.engine.guard import Budget, Guard

    # A partial expansion cannot be analyzed: the product graph is only
    # closed over the complete essential set.
    spec = get_protocol("illinois")
    result = explore(spec, guard=Guard(Budget(max_visits=3)))
    assert result.partial
    assert not analyze_liveness(result).checked
    # A blown visit budget degrades to skipped, never to findings.
    report = live_diff_spec(spec, max_visits=3)
    assert report.ok and report.skipped is not None


def test_describe_renders_verdict_and_findings():
    ok = live_diff_spec(get_protocol("msi"))
    assert "live" in ok.describe()
    report = LiveDiffReport(
        spec="x",
        findings=(LiveDiffFinding("lasso-replay", "x", "boom"),),
        live=False,
        static_can_stall=True,
    )
    text = report.describe()
    assert "NOT LIVE" in text and "[lasso-replay] x: boom" in text
    skipped = LiveDiffReport(spec="x", findings=(), skipped="unchecked")
    assert "skipped" in skipped.describe()


# ----------------------------------------------------------------------
# Property tests: hypothesis drives the generator
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10)
def test_property_stall_free_draws_are_live(seed):
    # The default generator never draws a stall, so the static
    # approximation is exact: every draw must be dynamically live.
    generator = SpecGenerator(seed=seed)
    _, spec = generator.draw_checked()
    report = verify(spec, options=RunOptions(mode="liveness"), validate_spec=False)
    assert report.liveness is not None
    if report.liveness.checked:
        assert report.liveness.live, report.liveness.summary()


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p_stall=st.floats(min_value=0.2, max_value=0.9),
)
@settings(max_examples=10)
def test_property_lassos_always_reexecute(seed, p_stall):
    generator = SpecGenerator(
        seed=seed, config=GeneratorConfig(p_stall=p_stall)
    )
    _, spec = generator.draw_checked()
    result = explore(spec, augmented=True, max_visits=60_000)
    liveness = analyze_liveness(result)
    if not liveness.checked:
        return
    # Witnessed verdicts: one lasso per violation, every lasso runs.
    assert len(liveness.lassos) == len(liveness.violations)
    for lasso in liveness.lassos:
        ok, reason = replay_lasso(result, lasso)
        assert ok, f"{spec.name}: {lasso.signature}: {reason}"


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p_stall=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=10)
def test_property_analysis_is_a_pure_function(seed, p_stall):
    import json

    generator = SpecGenerator(
        seed=seed, config=GeneratorConfig(p_stall=p_stall)
    )
    _, spec = generator.draw_checked()
    result = explore(spec, augmented=True, max_visits=60_000)
    first = json.dumps(analyze_liveness(result).to_dict(), sort_keys=True)
    second = json.dumps(analyze_liveness(result).to_dict(), sort_keys=True)
    assert first == second


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=5)
def test_property_generated_specs_pass_the_full_gate(seed):
    reports = live_diff_generated(count=2, seed=seed, p_stall=0.5)
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(r.describe() for r in bad)
