"""Tests for the static protocol analyzer (``repro.lint``).

Covers the diagnostics model, the rule registry (selection by code and
name), a table-driven positive + negative case per rule, suppression
markers, the three renderers (text / JSON / SARIF 2.1.0 structure),
source-position threading through the DSL, the ``verify()`` preflight,
the batch-engine preflight (rejected jobs never reach a runner, the
journal records the ``lint`` event) and the ``repro lint`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.errors import ForbidMultiple
from repro.core.protocol import ProtocolSpec
from repro.core.reactions import MEMORY, ObserverReaction, Outcome
from repro.core.symbols import Op
from repro.core.options import RunOptions
from repro.core.verifier import verify
from repro.engine import JobStatus, RunJournal, VerificationJob, run_batch
from repro.engine.job import execute_job
from repro.lint import (
    RULES,
    SYNTAX_RULE,
    LintError,
    Severity,
    lint_all,
    lint_path,
    lint_protocol,
    lint_source,
    lint_spec,
    render_json,
    render_sarif,
    render_text,
    selected_rules,
)
from repro.lint.registry import resolve_codes
from repro.protocols.dsl import Origin, parse_protocol
from repro.protocols.moesi import MoesiProtocol
from repro.protocols.registry import get_protocol

REJECT = RunOptions(preflight="reject")
ANNOTATE = RunOptions(preflight="annotate")

# ----------------------------------------------------------------------
# Specification sources used by the rule table
# ----------------------------------------------------------------------

CLEAN = """\
protocol clean
states I S
invalid I
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

BROKEN_SUPPLIER = """\
protocol broken-supplier
states I S D
invalid I
on I R -> S load cache:D
on I W -> D load memory ; all => I
on S R -> S
on S W -> D ; all => I
on S Z -> I
on D R -> D
on D W -> D
on D Z -> I writeback self
"""


class _RegistrySpecBase(ProtocolSpec):
    """Minimal hand-written write-through spec for registry-rule tests."""

    name = "mini"
    states = ("I", "S")
    invalid = "I"

    def react(self, state, op, ctx):
        if op is Op.REPLACE:
            return Outcome("I")
        if state == "I":
            return Outcome("S", load_from=MEMORY)
        return Outcome(
            "S",
            write_through=op is Op.WRITE,
            observers=(
                {"S": ObserverReaction("I")} if op is Op.WRITE else {}
            ),
        )


class _BadMetadataSpec(_RegistrySpecBase):
    name = "bad-metadata"
    error_patterns = (ForbidMultiple("Dirty"),)
    owner_states = ("Owned",)


class _BadObserverSpec(_RegistrySpecBase):
    name = "bad-observer"

    def react(self, state, op, ctx):
        outcome = super().react(state, op, ctx)
        if state == "I" and op is Op.READ:
            return Outcome(
                "S",
                load_from=MEMORY,
                observers={"I": ObserverReaction("S")},
            )
        return outcome


#: rule id -> (positive source, negative source).  Sources are DSL text
#: or zero-argument spec factories; the positive must fire the rule,
#: the negative must not.
RULE_CASES = {
    "PL000": (
        "protocol x\nstates A B\ninvalid A\nbogus directive\n",
        CLEAN,
    ),
    "PL001": (
        # E has no entering transition or observer reaction.
        """\
protocol unreachable
states I S E
invalid I
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
        CLEAN,
    ),
    "PL002": (
        # 'if any' claims every context 'if has(S)' could match.
        """\
protocol shadowed
states I S
invalid I
sharing-detection on
on I R if any -> S load memory
on I R if has(S) -> S load cache:S ; S => S
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
        # Specific guard before the general one: both selectable.
        """\
protocol ordered
states I S
invalid I
sharing-detection on
on I R if has(S) -> S load cache:S ; S => S
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
    ),
    "PL003": (
        # S W only covered when another copy exists.
        """\
protocol hole
states I S
invalid I
sharing-detection on
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W if any -> S writethrough ; all => I
on S Z -> I
""",
        CLEAN,
    ),
    "PL004": (_BadMetadataSpec, lambda: get_protocol("msi")),
    "PL005": (
        # any-guard with the sharing line declared absent.
        """\
protocol nowire
states I S
invalid I
sharing-detection off
on I R if any -> S load memory
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
        # has() guards observe the bus and need no sharing wire.
        """\
protocol snooped
states I S D
invalid I
sharing-detection off
on I R if has(D) -> S load cache:D writeback D ; D => S
on I R -> S load memory
on I W if has(D) -> D load cache:D writeback D ; all => I
on I W -> D load memory ; all => I
on S R -> S
on S W -> D ; all => I
on S Z -> I
on D R -> D
on D W -> D
on D Z -> I writeback self
""",
    ),
    "PL006": (
        BROKEN_SUPPLIER,
        # Same protocol with the load guarded: PL006 clean.
        """\
protocol guarded-supplier
states I S D
invalid I
on I R if has(D) -> S load cache:D writeback D ; D => S
on I R -> S load memory
on I W -> D load memory ; all => I
on S R -> S
on S W -> D ; all => I
on S Z -> I
on D R -> D
on D W -> D
on D Z -> I writeback self
""",
    ),
    "PL007": (_BadObserverSpec, lambda: get_protocol("msi")),
    "PL008": (
        # L stalls everywhere it is defined and never completes.
        """\
protocol deadlock
operations R W Z L
states I S
invalid I
on I R -> S load memory
on I W -> S load memory
on I L -> stall
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
on S L -> stall
""",
        # L stalls in S but completes from I, which S reaches via Z.
        """\
protocol escapes
operations R W Z L
states I S
invalid I
on I R -> S load memory
on I W -> S load memory
on I L -> I
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
on S L -> stall
""",
    ),
    "PL009": (
        # Guarded self-loop with no effects.
        """\
protocol pointless-guard
states I S
invalid I
sharing-detection on
on I R -> S load memory
on I W -> S load memory
on S R if any -> S
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
        # Unguarded read-hit self-loops are ordinary and must not fire.
        CLEAN,
    ),
    "PL010": (
        # W restricted to S, yet a rule for I W exists.
        """\
protocol deadrule
states I S
invalid I
restrict W only-from S
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
        """\
protocol livenrestrict
states I S
invalid I
restrict W only-from S
on I R -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
    ),
    "PL011": (
        # sharing-detection on, but no guard ever reads the line.
        """\
protocol wire-unused
states I S
invalid I
sharing-detection on
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
        # A single any-guard consumes the declaration.
        """\
protocol wire-used
states I S
invalid I
sharing-detection on
on I R if any -> S load memory ; S => S
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
    ),
    # The flow-sensitive rules (PL012-PL015) use their registered
    # --explain examples as positives, so the examples stay honest.
    "PL012": (RULES["PL012"].example, CLEAN),
    "PL013": (
        RULES["PL013"].example,
        # Specific guard before the general one: nothing subsumed.
        """\
protocol ordered
states I S
invalid I
sharing-detection on
on I R if has(S) -> S load cache:S ; S => S
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
""",
    ),
    "PL014": (RULES["PL014"].example, CLEAN),
    "PL015": (RULES["PL015"].example, CLEAN),
}


def _report(source):
    """Lint a DSL text or a spec factory."""
    if isinstance(source, str):
        return lint_source(source, name="case")
    return lint_spec(source())


def _fired(source):
    report = _report(source)
    return {d.rule for d in report.diagnostics}


# ----------------------------------------------------------------------
# Rule table
# ----------------------------------------------------------------------
class TestRuleTable:
    def test_at_least_ten_registered_rules(self):
        assert len(selected_rules()) >= 10
        assert len(RULE_CASES) >= 10

    @pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
    def test_positive_case_fires(self, rule_id):
        positive, _ = RULE_CASES[rule_id]
        assert rule_id in _fired(positive)

    @pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
    def test_negative_case_is_silent(self, rule_id):
        _, negative = RULE_CASES[rule_id]
        assert rule_id not in _fired(negative)

    def test_every_registered_rule_has_a_table_case(self):
        assert set(RULE_CASES) == set(RULES) | {SYNTAX_RULE}

    def test_clean_spec_is_fully_clean(self):
        report = lint_source(CLEAN, name="clean")
        assert report.clean and report.ok

    def test_severities_match_registry(self):
        assert RULES["PL001"].severity is Severity.ERROR
        assert RULES["PL002"].severity is Severity.WARNING
        assert RULES["PL009"].severity is Severity.INFO

    def test_pl006_also_catches_unguarded_writeback(self):
        text = """\
protocol wb
states I S D
invalid I
on I R -> S load memory writeback D
on I W -> D load memory ; all => I
on S R -> S
on S W -> D ; all => I
on S Z -> I
on D R -> D
on D W -> D
on D Z -> I writeback self
"""
        report = lint_source(text, name="wb")
        messages = [d.message for d in report.diagnostics if d.rule == "PL006"]
        assert any("writes back from D" in m for m in messages)


# ----------------------------------------------------------------------
# Locations and DSL source positions
# ----------------------------------------------------------------------
class TestLocations:
    def test_dsl_findings_carry_line_and_column(self):
        report = lint_source(BROKEN_SUPPLIER, name="b", path="b.proto")
        [diag] = [d for d in report.diagnostics if d.rule == "PL006"]
        assert diag.location.file == "b.proto"
        assert diag.location.line == 4  # the offending 'on I R' rule
        assert diag.location.col == 1
        assert "b.proto:4:1" in diag.render()

    def test_registry_findings_are_symbolic(self):
        report = lint_spec(_BadMetadataSpec())
        assert report.diagnostics
        for diag in report.diagnostics:
            assert diag.location.file is None
            assert diag.location.symbol

    def test_compiled_rules_expose_origins(self):
        spec = parse_protocol(CLEAN)
        assert spec.origins["states"] == Origin(2, 1)
        assert [r.line_no for r in spec._rules] == [4, 5, 6, 7, 8]
        assert all(r.origin == Origin(r.line_no, 1) for r in spec._rules)

    def test_indented_rules_report_their_column(self):
        text = CLEAN.replace("on S Z -> I", "   on S Z -> I")
        spec = parse_protocol(text)
        [rule] = [r for r in spec._rules if r.op is Op.REPLACE]
        assert rule.col == 4

    def test_react_error_points_at_dsl_lines(self):
        spec = parse_protocol(RULE_CASES["PL003"][0])
        from repro.core.protocol import ProtocolDefinitionError
        from repro.core.reactions import Ctx
        from repro.core.symbols import CountCase

        with pytest.raises(ProtocolDefinitionError, match=r"line 8"):
            spec.react("S", Op.WRITE, Ctx(frozenset(), CountCase.ZERO))

    def test_syntax_error_has_line(self):
        report = lint_source("protocol x\nstates A B\ninvalid A\nbogus q\n")
        [diag] = report.diagnostics
        assert diag.rule == SYNTAX_RULE
        assert diag.location.line == 4


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
class TestSuppression:
    SUPPRESSED = """\
protocol supp
states I S
invalid I
sharing-detection off
on I R if any -> S load memory  # lint: ignore[PL005]
on I R -> S load memory
on I W -> S load memory
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

    def test_targeted_marker_silences_one_rule(self):
        report = lint_source(self.SUPPRESSED, name="supp")
        assert report.clean
        assert [d.rule for d in report.suppressed] == ["PL005"]
        assert "suppressed" in report.summary() or report.clean

    def test_marker_for_other_rule_does_not_silence(self):
        text = self.SUPPRESSED.replace("ignore[PL005]", "ignore[PL001]")
        report = lint_source(text, name="supp")
        assert [d.rule for d in report.diagnostics] == ["PL005"]

    def test_bare_marker_silences_everything_on_the_line(self):
        text = self.SUPPRESSED.replace("ignore[PL005]", "ignore")
        report = lint_source(text, name="supp")
        assert report.clean and report.suppressed


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_select_by_code_and_name(self):
        assert resolve_codes(["PL005"]) == frozenset({"PL005"})
        assert resolve_codes(["sharing-mismatch"]) == frozenset({"PL005"})
        assert resolve_codes(["PL001,PL002 PL003"]) == frozenset(
            {"PL001", "PL002", "PL003"}
        )

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            resolve_codes(["PL999"])

    def test_select_limits_findings(self):
        positive, _ = RULE_CASES["PL005"]
        report = lint_source(positive, name="x", select=["PL001"])
        assert report.clean

    def test_ignore_drops_findings(self):
        positive, _ = RULE_CASES["PL005"]
        report = lint_source(positive, name="x", ignore=["sharing-mismatch"])
        assert report.clean

    def test_duplicate_rule_id_rejected(self):
        from repro.lint.registry import rule as register

        with pytest.raises(ValueError, match="duplicate"):
            register("PL001", Severity.ERROR, "again", "dup")(lambda ctx: iter(()))
        with pytest.raises(ValueError, match="PLxxx"):
            register("X1", Severity.ERROR, "bad", "bad")(lambda ctx: iter(()))


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
class TestRenderers:
    def _reports(self):
        # Scoped to PL006: the renderer tests pin the exact output
        # shape for a single-finding report (PL014 also fires on the
        # broken-supplier spec's silent write hit).
        return [
            lint_source(
                BROKEN_SUPPLIER,
                name="broken",
                path="broken.proto",
                select=["PL006"],
            ),
            lint_source(CLEAN, name="clean"),
        ]

    def test_text_renderer(self):
        out = render_text(self._reports())
        assert "broken.proto:4:1: PL006 error:" in out
        assert "2 specs checked: 1 error" in out

    def test_json_renderer_round_trips(self):
        payload = json.loads(render_json(self._reports()))
        assert payload["tool"] == "repro-lint"
        assert payload["summary"]["errors"] == 1
        [finding] = payload["reports"][0]["diagnostics"]
        assert finding["rule"] == "PL006"
        assert finding["location"]["line"] == 4

    def test_sarif_structure(self):
        log = json.loads(render_sarif(self._reports()))
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        [run] = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [entry["id"] for entry in driver["rules"]]
        assert SYNTAX_RULE in ids and "PL006" in ids
        assert all("shortDescription" in entry for entry in driver["rules"])
        [result] = run["results"]
        assert result["ruleId"] == "PL006"
        assert result["level"] == "error"
        assert result["message"]["text"]
        assert driver["rules"][result["ruleIndex"]]["id"] == "PL006"
        [location] = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "broken.proto"
        assert physical["region"]["startLine"] == 4
        assert physical["region"]["startColumn"] == 1

    def test_sarif_levels_map_severities(self):
        from repro.lint.render import _SARIF_LEVELS

        assert _SARIF_LEVELS[Severity.INFO] == "note"


# ----------------------------------------------------------------------
# Shipped zoo is clean (satellite acceptance)
# ----------------------------------------------------------------------
class TestZooClean:
    def test_lint_all_is_clean(self):
        reports = lint_all()
        dirty = [r.summary() for r in reports if not r.clean]
        assert not dirty, dirty
        # registry zoo + builtin DSL specs
        assert len(reports) == 20

    def test_example_specs_have_no_errors(self, tmp_path):
        import os

        examples = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples",
            "specs",
        )
        for name in sorted(os.listdir(examples)):
            if name.endswith(".proto"):
                report = lint_path(os.path.join(examples, name))
                assert report.ok, report.summary()


# ----------------------------------------------------------------------
# verify() preflight
# ----------------------------------------------------------------------
class TestVerifyPreflight:
    def test_reject_raises_lint_error(self):
        spec = parse_protocol(BROKEN_SUPPLIER)
        with pytest.raises(LintError, match="PL006"):
            verify(spec, options=REJECT)

    def test_lint_error_is_a_definition_error(self):
        from repro.core.protocol import ProtocolDefinitionError

        assert issubclass(LintError, ProtocolDefinitionError)

    # Behaviorally coherent, but declares a sharing wire it never reads
    # -> lints with exactly one warning (PL011) and still verifies.
    WARN_ONLY = """\
protocol wt-warn
states I S
invalid I
sharing-detection on
on I R -> S load memory
on I W -> S load memory writethrough ; all => I
on S R -> S
on S W -> S writethrough ; all => I
on S Z -> I
"""

    def test_annotate_attaches_report_and_verifies(self):
        spec = parse_protocol(self.WARN_ONLY)
        report = verify(spec, options=ANNOTATE)
        assert report.ok
        assert report.lint is not None
        assert [d.rule for d in report.lint.diagnostics] == ["PL011"]

    def test_clean_protocol_passes_reject(self):
        report = verify(get_protocol("illinois"), options=REJECT)
        assert report.ok and report.lint is not None and report.lint.clean

    def test_off_by_default(self):
        assert verify(get_protocol("msi")).lint is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="preflight"):
            verify(get_protocol("msi"), options=RunOptions(preflight="maybe"))


# ----------------------------------------------------------------------
# Batch-engine preflight
# ----------------------------------------------------------------------
class _SpyRunner:
    """Serial runner that records which jobs were dispatched to it."""

    def __init__(self):
        self.dispatched = []

    def run(self, jobs, on_event=None, on_result=None, *, cancel=None):
        results = []
        for index, (_, job) in enumerate(jobs):
            self.dispatched.append(job)
            results.append(execute_job(job))
            if on_result is not None:
                on_result(index, results[-1])
        return results


class TestBatchPreflight:
    def _broken_file(self, tmp_path):
        path = tmp_path / "broken.proto"
        path.write_text(BROKEN_SUPPLIER, encoding="utf-8")
        return str(path)

    def test_reject_skips_broken_spec_without_dispatch(self, tmp_path):
        spy = _SpyRunner()
        journal = RunJournal(tmp_path / "run.jsonl")
        jobs = [
            VerificationJob(protocol="msi", options=REJECT),
            VerificationJob(spec_file=self._broken_file(tmp_path), options=REJECT),
        ]
        report = run_batch(jobs, runner=spy, journal=journal)
        # The broken spec never reached the runner.
        assert [j.label for j in spy.dispatched] == ["msi"]
        good, bad = report.results
        assert good.status == JobStatus.VERIFIED
        assert bad.status == JobStatus.REJECTED
        assert bad.lint and bad.lint[0]["rule"] == "PL006"
        assert report.rejected == 1 and report.exit_code == 2
        assert "REJECTED" in report.summary_table()
        assert "PL006" in report.lint_table()
        # The journal records one lint event per preflighted job.
        lint_events = journal.of("lint")
        assert [e["job"] for e in lint_events] == ["msi", "broken"]
        assert lint_events[1]["errors"] == 1
        assert lint_events[1]["findings"][0]["rule"] == "PL006"
        assert journal.of("run_end")[0]["rejected"] == 1
        # The rejected job also appears in the JSONL file.
        lines = [
            json.loads(line)
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        assert any(e["event"] == "lint" for e in lines)

    def test_runner_receives_only_resolved_jobs(self, tmp_path):
        warn = tmp_path / "warn.proto"
        warn.write_text(TestVerifyPreflight.WARN_ONLY, encoding="utf-8")
        spy = _SpyRunner()
        jobs = [
            VerificationJob(protocol="msi", mutant="drop-invalidation"),
            VerificationJob(spec_file=self._broken_file(tmp_path), options=REJECT),
            VerificationJob(spec_file=str(warn)),
        ]
        report = run_batch(jobs, runner=spy)
        assert [j.label for j in spy.dispatched] == ["msi+drop-invalidation", "warn"]
        # Admission resolved each spec; the runner verifies it as it is.
        for job in spy.dispatched:
            assert job.spec is not None
            assert job.protocol is None and job.spec_file is None
        assert [r.status for r in report.results] == [
            JobStatus.VIOLATION,
            JobStatus.REJECTED,
            JobStatus.VERIFIED,
        ]
        # Results carry the job as submitted, not the resolved one.
        assert [r.job for r in report.results] == jobs

    def test_annotate_dispatches_and_attaches_findings(self, tmp_path):
        path = tmp_path / "warn.proto"
        path.write_text(TestVerifyPreflight.WARN_ONLY, encoding="utf-8")
        spy = _SpyRunner()
        jobs = [VerificationJob(spec_file=str(path), options=ANNOTATE)]
        report = run_batch(jobs, runner=spy)
        assert len(spy.dispatched) == 1  # annotate does not reject
        [result] = report.results
        assert result.status == JobStatus.VERIFIED
        assert result.lint and result.lint[0]["rule"] == "PL011"

    def test_annotate_attaches_findings_to_errored_job(self, tmp_path):
        # A structurally broken spec still errors at fingerprint time in
        # annotate mode, but the result carries the lint findings.
        report = run_batch(
            [VerificationJob(spec_file=self._broken_file(tmp_path), options=ANNOTATE)],
            runner=_SpyRunner(),
        )
        [result] = report.results
        assert result.status == JobStatus.ERROR
        assert result.lint and result.lint[0]["rule"] == "PL006"

    @pytest.mark.parametrize(
        "preflight,status,rules",
        [
            ("reject", JobStatus.REJECTED, ["PL000"]),
            ("annotate", JobStatus.ERROR, ["PL000"]),
            ("off", JobStatus.ERROR, None),
        ],
    )
    def test_unparsable_spec_file(self, tmp_path, preflight, status, rules):
        # A file that does not parse resolves to no spec; the preflight
        # still reports it, as lint_source's PL000 finding.
        path = tmp_path / "garbled.proto"
        path.write_text("protocol ???\n", encoding="utf-8")
        job = VerificationJob(
            spec_file=str(path), options=RunOptions(preflight=preflight)
        )
        [result] = run_batch([job]).results
        assert result.status == status
        assert rules == (
            None if result.lint is None else [d["rule"] for d in result.lint]
        )

    def test_per_job_preflight_mode(self, tmp_path):
        spy = _SpyRunner()
        jobs = [
            VerificationJob(spec_file=self._broken_file(tmp_path), options=REJECT),
            VerificationJob(protocol="msi"),
        ]
        report = run_batch(jobs, runner=spy)
        assert report.results[0].status == JobStatus.REJECTED
        assert [j.label for j in spy.dispatched] == ["msi"]

    def test_preflight_not_in_cache_key(self):
        from repro.engine import job_key, spec_fingerprint

        fp = spec_fingerprint(get_protocol("msi"))
        plain = VerificationJob(protocol="msi")
        flighted = VerificationJob(protocol="msi", options=REJECT)
        assert job_key(fp, plain) == job_key(fp, flighted)

    def test_bad_preflight_values_rejected(self):
        with pytest.raises(ValueError, match="preflight"):
            RunOptions(preflight="maybe")
        with pytest.raises(ValueError, match="preflight"):
            RunOptions.from_dict({"preflight": None})

    def test_clean_zoo_unaffected_by_reject(self):
        jobs = [
            VerificationJob(protocol=n, options=REJECT) for n in ("msi", "illinois")
        ]
        report = run_batch(jobs)
        assert report.ok and report.rejected == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestLintCli:
    def test_all_is_clean_and_exits_zero(self, capsys):
        assert main(["lint", "--all"]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_broken_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.proto"
        path.write_text(BROKEN_SUPPLIER, encoding="utf-8")
        assert main(["lint", str(path)]) == 1
        assert "PL006" in capsys.readouterr().out

    def test_ignore_silences_the_error(self, tmp_path):
        path = tmp_path / "broken.proto"
        path.write_text(BROKEN_SUPPLIER, encoding="utf-8")
        assert main(["lint", str(path), "--ignore", "PL006"]) == 0

    def test_strict_promotes_warnings(self, tmp_path):
        path = tmp_path / "warn.proto"
        path.write_text(RULE_CASES["PL011"][0], encoding="utf-8")
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--strict"]) == 1

    def test_protocol_by_name(self, capsys):
        assert main(["lint", "--protocol", "illinois"]) == 0
        assert "clean" not in capsys.readouterr().err

    def test_usage_errors_exit_two(self, capsys, tmp_path):
        assert main(["lint"]) == 2
        assert main(["lint", "--protocol", "nope"]) == 2
        assert main(["lint", str(tmp_path / "missing.proto")]) == 2
        assert main(["lint", "--all", "--select", "PL999"]) == 2

    def test_sarif_output_to_file(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        assert main(["lint", "--all", "--format", "sarif", "-o", str(out)]) == 0
        log = json.loads(out.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["rules"]

    def test_json_format(self, capsys):
        assert main(["lint", "--protocol", "msi", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["specs"] == 1

    def test_verify_preflight_rejects_broken_spec(self, tmp_path, capsys):
        path = tmp_path / "broken.proto"
        path.write_text(BROKEN_SUPPLIER, encoding="utf-8")
        assert main(
            ["verify", "--spec-file", str(path), "--preflight", "--quiet"]
        ) == 2
        assert "PL006" in capsys.readouterr().err

    def test_batch_preflight_flag(self, tmp_path, capsys):
        path = tmp_path / "broken.proto"
        path.write_text(BROKEN_SUPPLIER, encoding="utf-8")
        journal = tmp_path / "run.jsonl"
        code = main(
            [
                "batch",
                "--protocols",
                "msi",
                "--spec-file",
                str(path),
                "--no-cache",
                "--preflight",
                "--journal",
                str(journal),
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "REJECTED" in out and "PL006" in out
        events = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        assert sum(1 for e in events if e["event"] == "lint") == 2


# ----------------------------------------------------------------------
# Probing never runs an expansion
# ----------------------------------------------------------------------
class TestStaticness:
    def test_lint_does_not_materialize_dsl_outcomes(self):
        # BROKEN_SUPPLIER's load clause raises DslError when its outcome
        # is materialized; linting must survive it (that is the point).
        report = lint_source(BROKEN_SUPPLIER, name="b")
        assert report.errors >= 1

    def test_lint_spec_counts_no_expansion_visits(self):
        spec = get_protocol("illinois")
        report = lint_spec(spec)
        assert report.clean
        # A lint run keeps no ExpansionResult anywhere in its report.
        assert not hasattr(report, "result")


class _CountingMoesi(MoesiProtocol):
    """MOESI counting its ``react`` calls (14 applicable cells, 16
    present-sets: one lowering probes 224 times)."""

    calls = 0

    def react(self, state, op, ctx):
        type(self).calls += 1
        return super().react(state, op, ctx)


class TestOneLowering:
    def test_lint_probes_react_once_per_cell_and_context(self):
        _CountingMoesi.calls = 0
        lint_spec(_CountingMoesi())
        assert _CountingMoesi.calls == 224

    def test_verify_preflight_shares_the_kernel_lowering(self):
        # One behaviour table: lint's lowering, validate() and the
        # kernel's compile all read it.
        _CountingMoesi.calls = 0
        verify(_CountingMoesi(), options=ANNOTATE)
        assert _CountingMoesi.calls == 224

    def test_batch_preflight_and_fingerprint_share_one_spec(self, monkeypatch):
        # Admission resolves moesi once: its lint probes 224 times, and
        # its fingerprint, the serial runner's validate() and the kernel
        # read that table (the job verifies with preflight off: admission
        # already linted it).
        import repro.lint

        calls = {"react": 0, "lint": 0}
        react, lint = MoesiProtocol.react, repro.lint.lint_spec

        def counting_react(self, state, op, ctx):
            calls["react"] += 1
            return react(self, state, op, ctx)

        def counting_lint(*args, **kwargs):
            calls["lint"] += 1
            return lint(*args, **kwargs)

        monkeypatch.setattr(MoesiProtocol, "react", counting_react)
        monkeypatch.setattr(repro.lint, "lint_spec", counting_lint)
        job = VerificationJob(protocol="moesi", options=ANNOTATE)
        assert run_batch([job], workers=1).results[0].ok
        assert calls == {"react": 224, "lint": 1}

    def test_a_serial_batch_builds_one_table_per_job(self, monkeypatch):
        # Each job is admitted just before it runs, so no job's table is
        # evicted between its fingerprint and its verification, however
        # many jobs the batch holds.
        import repro.core.protocol as protocol
        from repro.engine import registry_jobs

        builds = []
        contexts = protocol.observation_contexts

        def counting_contexts(valid):
            builds.append(valid)
            return contexts(valid)

        monkeypatch.setattr(protocol, "observation_contexts", counting_contexts)
        jobs = registry_jobs(["all"], RunOptions())
        assert len(jobs) > protocol._TABLES_LIMIT
        assert run_batch(jobs, workers=1).verified == len(jobs)
        assert len(builds) == len(jobs)


class _UndeclaredNextSpec(_RegistrySpecBase):
    name = "undeclared-next"

    def react(self, state, op, ctx):
        if state == "S" and op is Op.READ and ctx.has("S"):
            return Outcome("Nowhere")
        return super().react(state, op, ctx)


class TestUndeclaredOutcomeState:
    MESSAGE = (
        "undeclared-next: react(S, R, present=['S']) names undeclared "
        "state 'Nowhere'"
    )

    def test_lowering_names_the_cell_and_the_state(self):
        from repro.ir import IRError, lower

        with pytest.raises(IRError) as excinfo:
            lower(_UndeclaredNextSpec())
        assert str(excinfo.value) == self.MESSAGE

    def test_pl004_reports_it_and_ir_rules_stay_silent(self):
        report = lint_spec(_UndeclaredNextSpec())
        assert [(d.rule, d.message) for d in report.diagnostics] == [
            ("PL004", self.MESSAGE)
        ]
