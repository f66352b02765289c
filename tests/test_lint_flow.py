"""Tests for the flow-sensitive analysis layer of the linter.

Covers the abstract-reachability fixpoint engine
(:mod:`repro.lint.flow`): termination and lattice invariants over the
shipped zoo, the regression corpus and hypothesis-generated
specifications; deep guards and stalls that only a three-state
context resolves (PL002, PL008); the silent degradation path and a
spec whose ``react`` always raises; the zoo/corpus strict-clean
regression; and the ``repro lint --explain`` CLI.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.options import RunOptions
from repro.core.verifier import verify
from repro.ir import lower
from repro.lint import RULES, Severity, lint_path, lint_source, lint_spec
from repro.lint.context import LintContext
from repro.lint.flow import FlowAnalysis, _merge
from repro.protocols.dsl import builtin_spec_names, load_builtin, parse_protocol
from repro.protocols.registry import all_protocols, get_protocol
from tests.helpers import ProbeShyIllinois, generated_specs

CORPUS = sorted(Path("tests/corpus").glob("*.proto"))

# A spec whose second (I, R) rule is selected only when all three valid
# states are populated -- a context the flow fixpoint reaches
# (empty -> {A} -> {A,B} -> {A,B,X}).
DEEP = """\
protocol deep
states I A B X
invalid I
on I R if has(A) & has(B) & !has(X) -> A load cache:A
on I R if has(A) & has(B) -> A load cache:A
on I R -> A load memory
on I W if has(A) & has(B) -> X load memory
on I W if has(A) -> B load memory
on I W -> A load memory
"""

# (I, L) stalls in every context but {A, B, X}, which the flow fixpoint
# reaches: L completes there, so the stall is no deadlock.
STALL_FP = """\
protocol stall-fp
operations R W Z L
states I A B X
invalid I
on I L if has(A) & !has(X) -> stall
on I L if has(A) & has(B) -> A load memory
on I L -> stall
on I R -> A load memory
on I W if has(A) & has(B) -> X load memory
on I W if has(A) -> B load memory
on I W -> A load memory
on A Z -> I
on B Z -> I
on X Z -> I
"""


def _flow_of(spec) -> FlowAnalysis:
    return FlowAnalysis(lower(spec))


def _check_invariants(flow: FlowAnalysis) -> None:
    """Lattice/bookkeeping invariants every fixpoint run must satisfy."""
    ir = flow.ir
    bound = 3 ** len(ir.valid_ids())
    assert len(flow.configs) <= bound
    assert () in flow.configs  # the all-invalid initial configuration
    for config in flow.configs:
        states = [s for s, _many in config]
        assert states == sorted(states)  # canonical form
        assert len(states) == len(set(states))
        assert ir.invalid not in states
    assert ir.invalid in flow.reachable_states
    assert flow.reachable_states <= set(range(len(ir.states)))
    assert flow.selected <= set(range(len(ir.transitions)))
    for cell, picks in flow.selections.items():
        assert cell in flow.cell_contexts
        for present, index in picks:
            assert present in flow.cell_contexts[cell]
            assert ir.transitions[index].guard.holds(present)
    assert flow.completes | flow.stalls <= set(flow.selections)
    # reachable_from is a monotone closure over the edge relation.
    for source, targets in flow.edges.items():
        closure = flow.reachable_from(source)
        for target in targets:
            assert flow.reachable_from(target) <= closure


# ----------------------------------------------------------------------
# Fixpoint termination and invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [*all_protocols(), *(load_builtin(n) for n in builtin_spec_names())],
    ids=lambda s: s.name,
)
def test_zoo_fixpoint_terminates_with_invariants(spec):
    _check_invariants(_flow_of(spec))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_fixpoint_terminates_with_invariants(path):
    from repro.protocols.dsl import load_protocol

    _check_invariants(_flow_of(load_protocol(path)))


@given(generated_specs())
def test_generated_specs_fixpoint_invariants(drawn):
    _model, spec = drawn
    _check_invariants(_flow_of(spec))


@given(generated_specs())
@settings(max_examples=10)
def test_generated_specs_flow_never_contradicts_verifier(drawn):
    from unittest import mock

    from repro.testkit import diff

    _model, spec = drawn
    # Too large to expand within the test budget: skipped, draw another.
    with mock.patch.object(diff, "MAX_VISITS", 40_000):
        found, skipped = diff.run_check("ir", diff.Context(diff.Case("gen", spec)))
    assume(skipped is None)
    assert not found, "\n".join(map(str, found))


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
        max_size=12,
    )
)
def test_merge_is_saturating_and_order_independent(items):
    """The abstract count join: adding copies never loses population,
    and the result is independent of merge order (a proper lattice
    join on the 0/1/many chain)."""
    forward: dict[int, bool] = {}
    backward: dict[int, bool] = {}
    for state, many in items:
        _merge(forward, state, many)
    for state, many in reversed(items):
        _merge(backward, state, many)
    assert forward == backward
    for state, many in items:
        assert state in forward
        # Once MANY, always MANY; a repeated state saturates to MANY.
        if many or sum(1 for s, _m in items if s == state) > 1:
            assert forward[state]


# ----------------------------------------------------------------------
# Flow-powered rule behaviour
# ----------------------------------------------------------------------
def test_pl002_silent_on_a_deep_rule():
    """The deep rule is selected only in the three-state context: the
    probe table covers every present-set, so it sees the rule too."""
    context = LintContext(parse_protocol(DEEP, default_name="deep"))
    probe_selected = {
        e.rule_index for e in context.probes if e.rule_index is not None
    }
    assert 1 in probe_selected
    report = lint_source(DEEP, name="deep", select=["PL002"])
    assert not report.diagnostics


def test_pl008_silent_when_a_reachable_context_completes_the_stall():
    report = lint_source(STALL_FP, name="stall-fp", select=["PL008"])
    assert not report.diagnostics


def test_pl008_still_fires_on_real_deadlock():
    report = lint_source(RULES["PL008"].example, name="deadlock")
    assert any(d.rule == "PL008" for d in report.diagnostics)


def test_flow_rules_are_silent_when_flow_degrades():
    context = LintContext(
        parse_protocol(RULES["PL008"].example, default_name="deadlock")
    )
    context.flow = None  # simulate a failed lowering
    for rule_id in ("PL008", "PL012", "PL013", "PL014", "PL015"):
        assert list(RULES[rule_id].check(context)) == [], rule_id


def test_flow_analysis_of_a_spec_whose_react_always_raises():
    """A registry spec whose react() always raises lowers to raise
    entries only; the flow selects them but never leaves the all-invalid
    configuration, and the rule set runs without crashing."""
    from repro.core.protocol import ProtocolSpec

    class Exploding(ProtocolSpec):
        name = "exploding"
        full_name = "always raises"
        states = ("Inv", "V")
        invalid = "Inv"
        uses_sharing_detection = False
        owner_states = ()
        error_patterns = ()

        def react(self, state, op, ctx):
            raise RuntimeError("boom")

    context = LintContext(Exploding())
    ir = context.ir
    assert ir.transitions and all(
        t.action.raises == "RuntimeError: boom" for t in ir.transitions
    )
    flow = context.flow
    assert flow.reachable_states == {ir.invalid}
    assert flow.configs == {()}
    assert flow.selected and not flow.completes and not flow.stalls
    # The full rule set still runs; the raising react is a PL003 error.
    assert "PL003" in {d.rule for d in lint_spec(Exploding()).diagnostics}


def test_unreachable_raise_is_not_a_pl003_error():
    """ProbeShyIllinois raises only when all three valid states are
    held elsewhere at once, a context no reachable configuration
    produces: no PL003, and the reject preflight lets it verify."""
    assert lint_spec(ProbeShyIllinois()).clean
    assert verify(ProbeShyIllinois(), options=RunOptions(preflight="reject")).ok


# ----------------------------------------------------------------------
# Strict-clean regression: the shipped zoo and the corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [*all_protocols(), *(load_builtin(n) for n in builtin_spec_names())],
    ids=lambda s: s.name,
)
def test_zoo_is_strict_clean(spec):
    report = lint_spec(spec)
    noisy = [
        d
        for d in report.diagnostics
        if d.severity in (Severity.ERROR, Severity.WARNING)
    ]
    assert not noisy, [str(d.message) for d in noisy]


# The corpus deliberately stores coherence-violating specifications
# ("symbolic rejected, concrete witness found" regression anchors), so
# two entries carry true-positive permission-race warnings: their write
# hits really do leave live copies stale, which is why the verifier
# rejects them.  Pin the exact findings -- errors are never acceptable,
# and any *new* finding is a rule regression.
CORPUS_EXPECTED = {
    "0d19db50cfd83df5": [],
    # Liveness pins (corpus-live-trap / corpus-live-msi): their stalls
    # are statically unresolvable, which is exactly what PL008 warns
    # about; corpus-live-lock's guarded stalls sit behind has(Locked)
    # and fall outside the static approximation -- the dynamic analysis
    # (repro.liveness) still catches them, see docs/LIVENESS.md.
    "206768b9fde05e72": [("PL008", 16), ("PL008", 21), ("PL008", 24)],
    "cf1440b1d8aaac27": [("PL014", 11), ("PL014", 14), ("PL014", 14)],
    "d82ef4c969cba6b1": [],
    "d88d40fb06f12c7c": [("PL008", 21), ("PL008", 24), ("PL008", 25)],
    "e617089145352e99": [],
    "f03fcb7a32988a77": [
        ("PL014", 14),
        ("PL014", 14),
        ("PL014", 14),
        ("PL014", 17),
        ("PL014", 17),
        ("PL014", 17),
    ],
    "f34bb7f1b09d3e8b": [("PL009", 9)],
}


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_lint_findings_are_pinned(path):
    report = lint_path(path)
    assert report.errors == 0, [str(d.message) for d in report.diagnostics]
    found = sorted(
        (d.rule, d.location.line) for d in report.diagnostics
    )
    assert found == sorted(CORPUS_EXPECTED[path.stem])


def test_corpus_expectations_cover_every_entry():
    assert sorted(CORPUS_EXPECTED) == [p.stem for p in CORPUS]


def test_cli_lint_all_strict_is_clean():
    assert main(["lint", "--all", "--strict"]) == 0


# ----------------------------------------------------------------------
# CLI: repro lint --explain
# ----------------------------------------------------------------------
def test_cli_explain_flow_rule(capsys):
    assert main(["lint", "--explain", "PL012"]) == 0
    out = capsys.readouterr().out
    assert "PL012 unreachable-transition (warning)" in out
    assert "Minimal triggering specification:" in out
    assert "protocol" in out  # the example spec is printed


def test_cli_explain_accepts_rule_names(capsys):
    assert main(["lint", "--explain", "stall-cycle"]) == 0
    assert "PL008" in capsys.readouterr().out


def test_cli_explain_syntax_pseudo_rule(capsys):
    assert main(["lint", "--explain", "PL000"]) == 0
    assert "parse failures" in capsys.readouterr().out


def test_cli_explain_unknown_rule(capsys):
    assert main(["lint", "--explain", "PL999"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_explain_examples_trigger_their_own_rule():
    """Every registered example must actually trigger its rule, so the
    --explain output never documents a stale reproducer."""
    for rule_id, registered in RULES.items():
        if not registered.example:
            continue
        report = lint_source(
            registered.example, name=registered.name, select=[rule_id]
        )
        assert any(
            d.rule == rule_id for d in report.diagnostics
        ), f"{rule_id} example no longer triggers it"
