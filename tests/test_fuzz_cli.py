"""Exit-code and determinism contract of the ``repro fuzz`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.engine import RunJournal
from repro.testkit import Corpus, OracleBudget

#: Small budgets so each campaign stays in the low seconds.
_FAST = [
    "--count",
    "2",
    "--max-n",
    "2",
    "--soundness-max-n",
    "3",
]


#: Journal keys carrying wall-clock or path facts (everything else --
#: the event sequence itself -- must be identical across same-seed runs).
_ENV_KEYS = {"t", "journal", "elapsed", "wall"}


def _strip_times(events):
    return [
        {k: v for k, v in e.items() if k not in _ENV_KEYS} for e in events
    ]


def test_fuzz_exits_zero_without_findings(tmp_path, capsys):
    status = main(
        ["fuzz", "--seed", "42", *_FAST, "--corpus", str(tmp_path / "c")]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "0 disagree" in out
    # No findings -> nothing persisted.
    assert not (tmp_path / "c").exists()


def test_fuzz_is_bit_deterministic(tmp_path, capsys):
    findings = []
    journals = []
    for run in ("a", "b"):
        f = tmp_path / f"findings-{run}.json"
        j = tmp_path / f"journal-{run}.jsonl"
        status = main(
            [
                "fuzz",
                "--seed",
                "42",
                *_FAST,
                "--no-persist",
                "--findings",
                str(f),
                "--journal",
                str(j),
            ]
        )
        assert status == 0
        findings.append(f.read_bytes())
        journals.append(_strip_times(RunJournal.read(j)))
    assert findings[0] == findings[1]
    # The journal's event sequence is deterministic too; only the
    # wall-clock stamps may differ.
    assert journals[0] == journals[1]
    payload = json.loads(findings[0])
    assert payload["schema"] == "repro-fuzz/1"
    assert payload["seed"] == 42 and payload["count"] == 2


def test_fuzz_exits_one_on_findings(tmp_path, capsys, monkeypatch):
    # Force the oracle to disagree so the campaign produces a finding.
    from repro.testkit import campaign as campaign_mod
    from repro.testkit import Finding, OracleReport

    def lying_oracle(spec, *, budget=None, symbolic=None, augmented=True):
        return OracleReport(
            spec_name=spec.name,
            outcome="disagree",
            disagreement=Finding(
                kind="coverage", spec=spec.name, detail="forced", n=2
            ),
            symbolic_verified=True,
        )

    monkeypatch.setattr(campaign_mod, "run_oracle", lying_oracle)
    corpus_dir = tmp_path / "corpus"
    status = main(
        [
            "fuzz",
            "--seed",
            "1",
            "--count",
            "1",
            "--max-n",
            "2",
            "--corpus",
            str(corpus_dir),
        ]
    )
    assert status == 1
    assert "FINDING" in capsys.readouterr().out
    assert len(Corpus(corpus_dir).entries()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--count", "0"],
        ["fuzz", "--max-n", "9"],
        ["fuzz", "--soundness-max-n", "1", "--max-n", "3"],
    ],
)
def test_fuzz_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_replay_exit_codes(tmp_path, capsys):
    # Empty corpus is a usage error.
    assert main(["fuzz", "--replay", "--corpus", str(tmp_path / "x")]) == 2
    capsys.readouterr()

    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    msi = (repo / "src/repro/protocols/specs/msi.proto").read_text(
        encoding="utf-8"
    )
    budget = OracleBudget(ns=(1, 2), soundness_ns=(1, 2, 3))
    good = tmp_path / "good"
    Corpus(good).add(msi, kind="none", budget=budget)
    assert main(["fuzz", "--replay", "--corpus", str(good)]) == 0
    assert "0 drifted" in capsys.readouterr().out

    drifted = tmp_path / "drifted"
    Corpus(drifted).add(msi, kind="soundness", budget=budget)
    assert main(["fuzz", "--replay", "--corpus", str(drifted)]) == 1
    assert "DRIFT" in capsys.readouterr().out
