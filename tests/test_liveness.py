"""Liveness verification: starvation analysis, lassos, engine wiring.

Layered the same way the subsystem is:

* the analysis itself (``repro.liveness``) over the shipped zoo (all
  live), the seeded starvation mutants (all caught, all lassos
  replayable) and the pinned corpus flavours (stall-cycle vs deadlock);
* mode plumbing: the ``mode="liveness"`` run option through
  ``verify()``, verification jobs, batches, the cache and the
  ``LIVENESS_VIOLATION``/``NOT-LIVE`` status surface;
* serialization: the ``liveness`` payload section, golden documents
  under ``tests/goldens/liveness/`` (regenerate intentionally with
  ``python -m tests.test_liveness``), and byte-identical journal / SSE
  round-trips of lasso documents.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.errors import ErrorKind
from repro.core.essential import explore
from repro.core.options import RunOptions
from repro.core.serialize import result_to_dict
from repro.core.verifier import verify
from repro.engine.batch import run_batch
from repro.engine.cache import ResultCache
from repro.engine.fingerprint import job_key, spec_fingerprint
from repro.engine.job import JobStatus, VerificationJob, execute_job
from repro.engine.journal import RunJournal
from repro.liveness import analyze_liveness, replay_lasso
from repro.liveness.model import retry_label
from repro.protocols.dsl import builtin_spec_names, load_builtin, load_protocol
from repro.protocols.mutations import (
    LIVENESS_MUTATIONS,
    get_mutant,
    liveness_mutants_for,
)
from repro.protocols.registry import all_protocols, get_protocol, protocol_names
from repro.serve.http import sse_event

LIVENESS = RunOptions(mode="liveness")
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "liveness"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

#: (golden stem, result factory) -- the pinned liveness documents.
GOLDEN_CASES = {
    "msi-stall-forever": lambda: explore(
        get_mutant(get_protocol("msi"), "stall-forever")
    ),
    "lock-msi-drop-release": lambda: explore(
        get_mutant(get_protocol("lock-msi"), "drop-release")
    ),
    "corpus-live-trap": lambda: explore(
        load_protocol(CORPUS_DIR / "206768b9fde05e72.proto")
    ),
}


# ----------------------------------------------------------------------
# The analysis: zoo is live, seeded starvers are caught
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", protocol_names())
def test_every_registry_protocol_is_live(name):
    report = verify(get_protocol(name), options=LIVENESS)
    assert report.liveness is not None and report.liveness.checked
    assert report.liveness.live, report.liveness.summary()
    assert report.ok


@pytest.mark.parametrize("name", builtin_spec_names())
def test_every_builtin_dsl_spec_is_live(name):
    report = verify(load_builtin(name), options=LIVENESS)
    assert report.liveness is not None and report.liveness.live


def _all_liveness_mutants():
    return [
        (mutant.name, mutant)
        for spec in all_protocols()
        for mutant in liveness_mutants_for(spec)
    ]


@pytest.mark.parametrize(
    "name,mutant",
    _all_liveness_mutants(),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_liveness_mutants_are_safety_clean_but_not_live(name, mutant):
    report = verify(mutant, options=LIVENESS, validate_spec=False)
    # Safety-clean: the starvation catalog must not smuggle in
    # coherence bugs, or it would be caught for the wrong reason.
    assert not report.result.violations, name
    liveness = report.liveness
    assert liveness is not None and liveness.checked
    assert not liveness.live, f"{name}: starvation mutant analyzed as live"
    assert not report.ok
    # Every verdict is witnessed, and every witness re-executes.
    assert len(liveness.lassos) == len(liveness.violations)
    for lasso in liveness.lassos:
        ok, reason = replay_lasso(report.result, lasso)
        assert ok, f"{name}: {lasso.signature}: {reason}"


def test_liveness_violation_kinds_are_starvation_kinds():
    for _, mutant in _all_liveness_mutants():
        liveness = verify(mutant, options=LIVENESS, validate_spec=False).liveness
        for violation in liveness.violations:
            assert violation.kind in (ErrorKind.STALL_CYCLE, ErrorKind.DEADLOCK)


def test_corpus_pins_both_flavours():
    trap = verify(
        load_protocol(CORPUS_DIR / "206768b9fde05e72.proto"), options=LIVENESS
    ).liveness
    assert {lasso.kind for lasso in trap.lassos} == {ErrorKind.DEADLOCK}
    # A deadlock loop degenerates to the retry self-edge.
    assert trap.lassos[0].loop[-1].label.startswith("retry[")
    lock = verify(
        load_protocol(CORPUS_DIR / "e617089145352e99.proto"), options=LIVENESS
    ).liveness
    assert {lasso.kind for lasso in lock.lassos} == {ErrorKind.STALL_CYCLE}


def test_lasso_signature_and_retry_label_shape():
    from repro.core.symbols import Op

    assert retry_label(Op.READ, "Invalid") == "retry[R_invalid]"
    liveness = verify(
        get_mutant(get_protocol("msi"), "stall-forever"),
        options=LIVENESS,
        validate_spec=False,
    ).liveness
    lasso = liveness.lassos[0]
    prefix = f"{lasso.pending} {lasso.kind.value} stem="
    assert lasso.signature.startswith(prefix)
    assert "loop=[" in lasso.signature


def test_render_includes_the_lasso():
    report = verify(
        get_mutant(get_protocol("msi"), "stall-forever"),
        options=LIVENESS,
        validate_spec=False,
    )
    text = report.render()
    assert "NOT LIVE" in text
    assert "LOOP:" in text
    assert "back to the loop head" in text


# ----------------------------------------------------------------------
# Mode plumbing
# ----------------------------------------------------------------------
def test_safety_mode_attaches_no_liveness():
    report = verify(get_protocol("msi"))
    assert report.liveness is None
    assert "liveness" not in result_to_dict(report.result)


def test_liveness_modes_attach_a_report():
    report = verify(get_protocol("msi"), options=LIVENESS)
    assert report.liveness is not None
    assert result_to_dict(report.result)["liveness"]["live"] is True


def test_invalid_mode_rejected_everywhere(capsys):
    # "both" was "liveness" under another name; it is gone everywhere.
    from repro.cli import main
    from repro.serve.model import CampaignRequest

    for mode in ("lively", "both"):
        with pytest.raises(ValueError, match="mode"):
            RunOptions(mode=mode)
        with pytest.raises(ValueError, match="mode"):
            CampaignRequest.from_dict({"protocols": ["msi"], "mode": mode})
        for argv in (["verify", "msi"], ["batch", "--no-cache"], ["fuzz"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--mode", mode])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


def test_partial_expansion_is_unchecked_not_a_verdict():
    from repro.engine.guard import Budget, Guard

    result = explore(
        get_protocol("illinois"), guard=Guard(Budget(max_visits=3))
    )
    assert result.partial
    liveness = analyze_liveness(result)
    assert not liveness.checked and liveness.reason
    assert not liveness.live
    assert not liveness.violations


def test_execute_job_reports_liveness_violation():
    job = VerificationJob(
        protocol="lock-msi", mutant="drop-release", options=LIVENESS
    )
    result = execute_job(job)
    assert result.status is JobStatus.LIVENESS_VIOLATION
    assert result.status in JobStatus.COMPLETED
    assert result.status in JobStatus.WITH_PAYLOAD
    assert result.payload["liveness"]["live"] is False


def test_safety_violation_outranks_liveness():
    # A mutant that is safety-broken stays VIOLATION in liveness mode.
    job = VerificationJob(
        protocol="msi", mutant="drop-invalidation", options=LIVENESS
    )
    assert execute_job(job).status is JobStatus.VIOLATION


def test_job_key_separates_modes():
    fp = spec_fingerprint(get_protocol("msi"))
    safety = VerificationJob(protocol="msi")
    liveness = VerificationJob(protocol="msi", options=LIVENESS)
    assert job_key(fp, safety) != job_key(fp, liveness)


def test_batch_liveness_zoo_is_live_and_cacheable(tmp_path):
    jobs = [
        VerificationJob(protocol=name, options=LIVENESS)
        for name in protocol_names()
    ]
    cache = ResultCache(tmp_path / "cache")
    report = run_batch(jobs, cache=cache)
    assert all(r.status is JobStatus.VERIFIED for r in report.results)
    assert report.not_live == 0
    assert report.exit_code == 0
    # Warm replay: liveness-mode results round-trip through the cache.
    warm = run_batch(jobs, cache=cache)
    assert all(r.cached for r in warm.results)
    payload = warm.results[0].payload
    assert payload["liveness"]["live"] is True


def test_batch_not_live_counts_and_exit_code():
    jobs = [
        VerificationJob(protocol="lock-msi", options=LIVENESS),
        VerificationJob(protocol="lock-msi", mutant="drop-release", options=LIVENESS),
    ]
    journal = RunJournal()
    report = run_batch(jobs, journal=journal)
    assert report.not_live == 1
    assert report.exit_code == 1
    assert "1 not live" in report.counts_line()
    assert journal.of("run_end")[0]["not_live"] == 1
    statuses = [r.status for r in report.results]
    assert statuses == [JobStatus.VERIFIED, JobStatus.LIVENESS_VIOLATION]


def test_verdict_word_for_liveness_violation():
    job = VerificationJob(
        protocol="lock-msi", mutant="drop-release", options=LIVENESS
    )
    result = execute_job(job)
    assert result.verdict == "NOT-LIVE"


# ----------------------------------------------------------------------
# Determinism, parity and serialization
# ----------------------------------------------------------------------
def test_analysis_is_deterministic_and_backend_independent():
    from repro.kernel import explore as kernel_explore

    spec = get_mutant(get_protocol("lock-msi"), "drop-release")
    interp = explore(spec)
    doc = json.dumps(analyze_liveness(interp).to_dict(), sort_keys=True)
    again = json.dumps(analyze_liveness(interp).to_dict(), sort_keys=True)
    kernel = json.dumps(
        analyze_liveness(kernel_explore(spec)).to_dict(), sort_keys=True
    )
    assert doc == again == kernel


@pytest.mark.parametrize("stem", sorted(GOLDEN_CASES))
def test_liveness_document_matches_golden(stem):
    golden = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    current = analyze_liveness(GOLDEN_CASES[stem]()).to_dict()
    assert current == golden, (
        f"{stem}: liveness document drifted from the golden; if the "
        "change is intentional, regenerate with `python -m tests.test_liveness`"
    )


def test_lasso_survives_journal_round_trip(tmp_path):
    liveness = analyze_liveness(GOLDEN_CASES["msi-stall-forever"]())
    doc = liveness.to_dict()
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        journal.emit("liveness", spec="msi+stall-forever", liveness=doc)
    line = [
        raw
        for raw in path.read_text().splitlines()
        if json.loads(raw)["event"] == "liveness"
    ][0]
    decoded = json.loads(line)
    assert decoded["liveness"] == doc
    # Byte-identical re-serialization: the journal's canonical form
    # (sorted keys) is a fixpoint, so stored lassos never churn.
    assert json.dumps(decoded, sort_keys=True) == line


def test_lasso_survives_sse_framing():
    liveness = analyze_liveness(GOLDEN_CASES["corpus-live-trap"]())
    line = json.dumps(
        {"event": "liveness", "liveness": liveness.to_dict()}, sort_keys=True
    ).encode("utf-8")
    frame = sse_event(line, id=7, event="journal")
    assert frame.endswith(b"\n\n")
    fields = dict(
        raw.split(b": ", 1) for raw in frame.strip().split(b"\n")
    )
    assert fields[b"event"] == b"journal"
    assert fields[b"id"] == b"7"
    assert fields[b"data"] == line  # byte-identical round trip


# ----------------------------------------------------------------------
# CLI and serve surfaces
# ----------------------------------------------------------------------
def test_cli_verify_liveness_mutant(capsys):
    from repro.cli import main

    code = main(
        ["verify", "lock-msi", "--mutant", "drop-release", "--mode", "liveness"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT LIVE" in out


def test_cli_batch_mode_liveness_zoo_is_live(capsys):
    from repro.cli import main

    assert main(["batch", "--no-cache", "--mode", "liveness"]) == 0
    out = capsys.readouterr().out
    assert "NOT-LIVE" not in out


def test_cli_fuzz_mode_liveness_finds_a_starver(capsys):
    from repro.cli import main

    code = main(
        [
            "fuzz",
            "--seed",
            "4",
            "--count",
            "10",
            "--mode",
            "liveness",
            "--p-stall",
            "0.6",
            "--no-persist",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0  # a genuinely not-live draw is not a finding
    assert "1 not live" in out


def test_cli_list_shows_liveness_mutations(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in LIVENESS_MUTATIONS:
        assert key in out


def test_serve_campaign_request_round_trips_mode(tmp_path):
    from repro.serve.model import CampaignRequest

    request = CampaignRequest(protocols=("msi",), options=LIVENESS)
    assert CampaignRequest.from_dict(request.to_dict()) == request
    jobs = request.jobs(tmp_path)
    assert jobs and all(job.options.mode == "liveness" for job in jobs)


def test_mutation_catalogs_do_not_overlap():
    from repro.protocols.mutations import MUTATIONS

    assert not set(MUTATIONS) & set(LIVENESS_MUTATIONS)
    # Both catalogs resolve through get_mutant; unknown keys are KeyError.
    with pytest.raises(KeyError):
        get_mutant(get_protocol("msi"), "no-such-mutation")


def _regenerate() -> None:  # pragma: no cover - maintenance entry point
    for stem, factory in GOLDEN_CASES.items():
        path = GOLDEN_DIR / f"{stem}.json"
        path.write_text(
            json.dumps(
                analyze_liveness(factory()).to_dict(), indent=1, sort_keys=True
            )
            + "\n"
        )
        print("wrote", path)


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
