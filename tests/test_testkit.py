"""Unit tests for repro.testkit: generator, oracle, shrinker, corpus."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import lint_spec
from repro.obs import Collector, use_collector
from repro.protocols.registry import get_protocol
from repro.testkit import (
    CampaignConfig,
    Corpus,
    OracleBudget,
    SpecGenerator,
    SymbolicView,
    run_campaign,
    run_oracle,
    shrink,
)
from repro.testkit.generate import RuleModel, SpecModel, source_digest

#: Small, fast oracle budget shared by the tests below.
SMALL = OracleBudget(ns=(1, 2), soundness_ns=(1, 2, 3))


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def test_generator_is_deterministic():
    a = SpecGenerator(seed=11)
    b = SpecGenerator(seed=11)
    for _ in range(5):
        assert a.draw().render() == b.draw().render()


def test_different_seeds_differ():
    renders = {SpecGenerator(seed=s).draw().render() for s in range(6)}
    assert len(renders) > 1


def test_checked_draws_pass_validation_and_lint():
    generator = SpecGenerator(seed=3)
    for _ in range(5):
        model, spec = generator.draw_checked()
        spec.validate()  # must not raise
        assert lint_spec(spec).ok
        assert model.digest() == source_digest(model.render())


def test_generator_counts_draws():
    generator = SpecGenerator(seed=5)
    collector = Collector("gen")
    with use_collector(collector):
        generator.draw_checked()
    metrics = collector.metrics_snapshot()
    assert metrics["testkit.specs.generated"] == generator.generated
    assert generator.generated >= 1


def test_spec_model_edits():
    model = SpecGenerator(seed=1).draw()
    fewer = model.without_rule(0)
    assert len(fewer.rules) == len(model.rules) - 1
    symbol = model.states[-1]
    stripped = model.without_state(symbol)
    assert symbol not in stripped.states
    assert all(not rule.mentions(symbol) for rule in stripped.rules)
    with pytest.raises(ValueError):
        model.without_state(model.invalid)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def test_oracle_agrees_on_verified_protocol():
    report = run_oracle(get_protocol("illinois"), budget=SMALL)
    assert report.outcome == "agree"
    assert report.symbolic_verified is True
    assert report.checked_ns == (1, 2)
    assert all(covered > 0 for covered in report.covered.values())


def test_oracle_agrees_on_generated_rejections():
    # Most generated protocols are incoherent; the engines must agree
    # on that too (rejection witnessed concretely at small n).
    model, spec = SpecGenerator(seed=42).draw_checked()
    report = run_oracle(spec, budget=SMALL)
    assert report.outcome == "agree"


def test_oracle_flags_completeness_disagreement():
    # A lying symbolic view: claims a concretely-broken protocol
    # verified (keeping its real essential states for coverage).
    model, spec = SpecGenerator(seed=42).draw_checked()
    from repro.core.essential import explore

    real = explore(spec)
    assert real.violations, "seed 42's first draw should be incoherent"
    view = SymbolicView(
        complete=True, violating=False, essential=real.essential
    )
    report = run_oracle(spec, budget=SMALL, symbolic=view)
    assert report.outcome == "disagree"
    assert report.disagreement.kind == "completeness"


def test_oracle_flags_coverage_disagreement():
    # A verified verdict with an empty essential set: every reachable
    # concrete state is uncovered.
    spec = get_protocol("msi")
    view = SymbolicView(complete=True, violating=False, essential=())
    report = run_oracle(spec, budget=SMALL, symbolic=view)
    assert report.outcome == "disagree"
    assert report.disagreement.kind == "coverage"
    assert report.disagreement.n == 1


def test_oracle_flags_soundness_disagreement():
    # A lying rejection of a correct protocol (real essential states,
    # so coverage holds): no concrete witness exists at any n, so the
    # rejection is unsound.
    from repro.core.essential import explore

    spec = get_protocol("msi")
    real = explore(spec)
    assert not real.violations
    view = SymbolicView(
        complete=True, violating=True, essential=real.essential
    )
    report = run_oracle(spec, budget=SMALL, symbolic=view)
    assert report.outcome == "disagree"
    assert report.disagreement.kind == "soundness"


def test_oracle_skips_on_exhausted_symbolic_budget():
    spec = get_protocol("illinois")
    budget = OracleBudget(ns=(1, 2), soundness_ns=(1, 2), symbolic_visits=2)
    report = run_oracle(spec, budget=budget)
    assert report.outcome == "skipped"
    assert "symbolic" in report.skipped


def test_oracle_counts_disagreements():
    spec = get_protocol("msi")
    view = SymbolicView(complete=True, violating=False, essential=())
    collector = Collector("oracle")
    with use_collector(collector):
        run_oracle(spec, budget=SMALL, symbolic=view)
    assert collector.metrics_snapshot()["testkit.disagreements"] == 1


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------
def test_shrink_minimizes_against_structural_predicate():
    model = SpecGenerator(seed=9).draw()

    def wants_unguarded_write(candidate: SpecModel) -> bool:
        return any(
            rule.op == "W" and rule.guard is None and not rule.stalled
            for rule in candidate.rules
        )

    assert wants_unguarded_write(model)
    result = shrink(model, "completeness", is_interesting=wants_unguarded_write)
    assert wants_unguarded_write(result.model)
    # 1-minimal: the predicate needs exactly one bare rule, nothing else.
    assert len(result.model.rules) == 1
    assert result.model.forbids == ()
    rule = result.model.rules[0]
    assert rule.observers == () and rule.writeback is None
    assert not rule.writethrough
    assert result.steps > 0 and result.attempts >= result.steps


def test_shrink_records_histograms():
    model = SpecModel(
        name="tiny",
        states=("I", "A"),
        invalid="I",
        sharing=False,
        rules=(
            RuleModel(state="I", op="R", guard=None, next="A", load="memory"),
            RuleModel(state="A", op="R", guard=None, next="A"),
        ),
    )
    collector = Collector("shrink")
    with use_collector(collector):
        result = shrink(model, "coverage", is_interesting=lambda m: True)
    metrics = collector.metrics_snapshot()
    steps = metrics["testkit.shrink.steps"]
    assert steps["count"] == 1 and steps["max"] == float(result.steps)
    attempts = metrics["testkit.shrink.attempts"]
    assert attempts["max"] == float(result.attempts)


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
_REPO = Path(__file__).resolve().parents[1]


def _msi_source() -> str:
    return (_REPO / "src/repro/protocols/specs/msi.proto").read_text(
        encoding="utf-8"
    )


def test_corpus_add_is_idempotent(tmp_path):
    corpus = Corpus(tmp_path)
    first = corpus.add(_msi_source(), kind="none", budget=SMALL)
    second = corpus.add(_msi_source(), kind="none", budget=SMALL)
    assert first.key == second.key
    assert len(corpus.entries()) == 1


def test_corpus_round_trips_metadata(tmp_path):
    corpus = Corpus(tmp_path)
    corpus.add(
        _msi_source(), kind="none", detail="pinned", seed=7, budget=SMALL
    )
    [entry] = corpus.entries()
    assert entry.kind == "none" and entry.detail == "pinned"
    assert entry.seed == 7
    assert entry.budget == SMALL
    entry.compile().validate()


def test_corpus_detects_tampered_sources(tmp_path):
    corpus = Corpus(tmp_path)
    entry = corpus.add(_msi_source(), kind="none", budget=SMALL)
    proto = tmp_path / f"{entry.key}.proto"
    proto.write_text(proto.read_text() + "\n# tampered\n")
    with pytest.raises(ValueError, match="digest"):
        corpus.entries()


def test_corpus_replay_matches_pinned_agreement(tmp_path):
    corpus = Corpus(tmp_path)
    corpus.add(_msi_source(), kind="none", budget=SMALL)
    report = corpus.replay()
    assert report.ok and report.checked == 1


def test_corpus_replay_flags_drift(tmp_path):
    corpus = Corpus(tmp_path)
    # Recorded as a completeness finding, but the engines agree: drift.
    corpus.add(_msi_source(), kind="completeness", budget=SMALL)
    report = corpus.replay()
    assert not report.ok
    [(entry, observed)] = report.mismatches
    assert entry.kind == "completeness" and observed == "none"


def test_shipped_corpus_replays_clean():
    report = Corpus(_REPO / "tests/corpus").replay()
    assert report.checked >= 4
    assert report.ok, report.describe()


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def test_campaign_is_deterministic(tmp_path):
    config = dict(seed=42, count=3, budget=SMALL, corpus_dir=None)
    first = run_campaign(CampaignConfig(**config)).to_dict()
    second = run_campaign(CampaignConfig(**config)).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    assert first["count"] == 3 and not first["findings"]


def test_campaign_persists_shrunk_findings(tmp_path, monkeypatch):
    # Force a disagreement on every comparison: the campaign must
    # shrink it and persist the minimized spec to the corpus.
    from repro.testkit import campaign as campaign_mod
    from repro.testkit import Finding, OracleReport

    def lying_oracle(spec, *, budget=None, symbolic=None, augmented=True):
        return OracleReport(
            spec_name=spec.name,
            outcome="disagree",
            disagreement=Finding(
                kind="coverage", spec=spec.name, detail="forced by test", n=2
            ),
            symbolic_verified=True,
        )

    monkeypatch.setattr(campaign_mod, "run_oracle", lying_oracle)
    report = run_campaign(
        CampaignConfig(
            seed=1, count=1, budget=SMALL, corpus_dir=tmp_path / "corpus"
        )
    )
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding["kind"] == "coverage"
    entries = Corpus(tmp_path / "corpus").entries()
    assert len(entries) == 1
    assert entries[0].kind == "coverage"
    assert entries[0].digest == finding["minimized_digest"]
