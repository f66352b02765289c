"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import (
    _EXPORT_CHOICES,
    _HANDLERS,
    _MUTANT_CHOICES,
    _WORKLOAD_CHOICES,
    CROSSVAL_MAX_N,
    build_parser,
    main,
)
from repro.core.options import RunOptions

SRC = Path(__file__).resolve().parent.parent / "src"
#: ``repro [CMD] --help`` output at 80 columns, keyed by ``CMD``.
HELP_GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli" / "help.json"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify", "illinois"])
        assert args.protocol == "illinois"
        assert RunOptions.from_args(args) == RunOptions()

    def test_workload_choices_match_the_simulator(self):
        from repro.simulator.workloads import WORKLOADS

        assert _WORKLOAD_CHOICES == tuple(sorted(WORKLOADS))

    def test_export_choices_match_the_exporters(self):
        from repro.obs import EXPORTERS

        assert _EXPORT_CHOICES == tuple(sorted(EXPORTERS))

    @pytest.mark.parametrize(
        "command", sorted(json.loads(HELP_GOLDEN.read_text()))
    )
    def test_help_is_pinned(self, command, monkeypatch, capsys):
        # main() adds arguments only to the subcommand it runs; every
        # help page must read as when it built them all.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), "--help"])
        assert exit_info.value.code == 0
        expected = json.loads(HELP_GOLDEN.read_text())[command]
        assert capsys.readouterr().out == expected

    def test_help_golden_covers_every_subcommand(self):
        pinned = set(json.loads(HELP_GOLDEN.read_text()))
        assert pinned == {"", "ir dump", *_HANDLERS}

    def test_only_the_named_subcommand_gets_arguments(self):
        argv = ["batch", "--protocols", "msi"]
        assert build_parser().parse_args(argv).protocols == ["msi"]
        assert build_parser("batch").parse_args(argv).protocols == ["msi"]
        with pytest.raises(SystemExit):
            build_parser("verify").parse_args(argv)

    def test_mutant_choices_match_both_catalogs(self):
        from repro.protocols.mutations import LIVENESS_MUTATIONS, MUTATIONS

        assert _MUTANT_CHOICES == tuple(sorted({**MUTATIONS, **LIVENESS_MUTATIONS}))


def _run_probe(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )


class TestColdImport:
    """``import repro.cli`` loads only what ``repro batch`` needs, and a
    spec-file batch loads only the modules it runs."""

    #: Modules a spec-file batch never runs: other subcommands', the
    #: zoo and its catalogs, the explicit-state baselines, the
    #: interpreter (the kernel expands and feeds liveness), the other
    #: analyses and exporters, and the worker pool's multiprocessing.
    DEFERRED = (
        "repro.simulator",
        "repro.analysis.sweeps",
        "repro.serve",
        "repro.testkit",
        "repro.protocols.berkeley",
        "repro.protocols.dragon",
        "repro.protocols.firefly",
        "repro.protocols.illinois",
        "repro.protocols.lock_msi",
        "repro.protocols.mesif",
        "repro.protocols.moesi",
        "repro.protocols.msi",
        "repro.protocols.synapse",
        "repro.protocols.write_once",
        "repro.protocols.registry",
        "repro.protocols.mutations",
        "repro.protocols.perturb",
        "repro.enumeration",
        "repro.enumeration.crossval",
        "repro.enumeration.exhaustive",
        "repro.enumeration.product",
        "repro.kernel.exhaustive",
        "repro.core.expansion",
        "repro.core.essential",
        "repro.core.covering",
        "repro.core.semantics",
        "repro.analysis.compare",
        "repro.analysis.complexity",
        "repro.obs.export",
        "repro.obs.profile",
        "repro.core.graph",
        "repro.liveness.replay",
        "repro.lint.render",
        "multiprocessing",
    )

    def test_import_loads_only_stdlib_and_batch_modules(self):
        probe = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        loaded = json.loads(_run_probe(probe).stdout)
        assert "repro.cli" in loaded
        third_party = {
            name.partition(".")[0]
            for name in loaded
            if name.partition(".")[0] not in sys.stdlib_module_names
        }
        # multiprocessing aliases the main module as ``__mp_main__``.
        assert third_party - {"repro", "__mp_main__"} == set()
        assert [m for m in self.DEFERRED if m in loaded] == []

    def test_spec_file_batch_loads_only_what_it_runs(self):
        spec = SRC.parent / "examples" / "specs" / "firefly_like.proto"
        argv = [
            "batch", "--protocols", "none", "--spec-file", str(spec),
            "--no-cache", "--preflight", "annotate", "--mode", "liveness",
        ]
        probe = (
            "import contextlib, io, json, sys\n"
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = repro.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        code, loaded = json.loads(_run_probe(probe).stdout)
        assert code == 0
        # The batch really ran the kernel, lint and liveness.
        for module in (
            "repro.kernel.essential",
            "repro.lint.rules",
            "repro.liveness.analyze",
        ):
            assert module in loaded
        assert [m for m in self.DEFERRED if m in loaded] == []

    def test_trace_targets_resolve_after_import(self):
        # The end-to-end benchmark's traced child imports ``repro.cli``,
        # then wraps every ``LAYERS`` target of ``trace.py`` where its
        # callers look it up; a target that is gone fails that child.
        trace = SRC.parent / "benchmarks" / "e2e" / "trace.py"
        probe = (
            "import importlib.util, json, sys\n"
            "import repro.cli\n"
            f"spec = importlib.util.spec_from_file_location('e2e_trace', {str(trace)!r})\n"
            "trace = sys.modules['e2e_trace'] = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(trace)\n"
            "targets = [t for ts in trace.LAYERS.values() for t in ts]\n"
            "for target in targets:\n"
            "    trace.resolve(target)\n"
            "print(json.dumps(targets))\n"
        )
        targets = json.loads(_run_probe(probe).stdout)
        for target in (
            "repro.core.verifier:explore",
            "repro.engine.job:result_to_dict",
            "repro.engine.batch:spec_fingerprint",
        ):
            assert target in targets


class TestListCommand:
    def test_lists_zoo(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("illinois", "dragon", "write-once"):
            assert name in out
        assert "drop-invalidation" in out


class TestVerifyCommand:
    def test_verified_protocol_exits_zero(self, capsys):
        assert main(["verify", "illinois", "--quiet"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_full_report_includes_figure4_table(self, capsys):
        assert main(["verify", "illinois"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4 table" in out
        assert "Global transition diagram" in out

    def test_mutant_exits_nonzero(self, capsys):
        assert main(["verify", "illinois", "--mutant", "drop-invalidation", "--quiet"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_trace_flag(self, capsys):
        assert main(["verify", "msi", "--quiet", "--trace"]) == 0
        assert "Expansion steps" in capsys.readouterr().out

    def test_structural_flag(self, capsys):
        assert main(["verify", "illinois", "--structural", "--quiet"]) == 0

    def test_dot_output(self, tmp_path, capsys):
        dot_file = tmp_path / "illinois.dot"
        assert main(["verify", "illinois", "--quiet", "--dot", str(dot_file)]) == 0
        assert dot_file.read_text().startswith("digraph")

    def test_verify_all(self, capsys):
        from repro.protocols.registry import protocol_names

        assert main(["verify", "all", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out.count("VERIFIED") == len(protocol_names())


class TestMutantsCommand:
    def test_all_killed(self, capsys):
        assert main(["mutants", "msi"]) == 0
        out = capsys.readouterr().out
        assert "KILLED" in out
        assert "SURVIVED" not in out

    def test_parallel_matches_serial(self, capsys):
        assert main(["mutants", "msi"]) == 0
        serial = capsys.readouterr().out
        assert main(["mutants", "msi", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestBatchCommand:
    def test_smoke(self, capsys):
        assert main(["batch", "--protocols", "msi", "illinois", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "msi" in out and "illinois" in out
        assert out.count("VERIFIED") >= 2
        assert "2 jobs: 2 verified" in out

    def test_mutants_flag_exits_one(self, capsys):
        code = main(["batch", "--protocols", "msi", "--mutants", "--no-cache"])
        assert code == 1
        out = capsys.readouterr().out
        assert "msi+drop-invalidation" in out
        assert "FAILED" in out

    def test_warm_cache_and_journal(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        journal = tmp_path / "run.jsonl"
        assert main(["batch", "--protocols", "msi", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits" in cold
        code = main(
            [
                "batch",
                "--protocols",
                "msi",
                "--cache-dir",
                cache_dir,
                "--journal",
                str(journal),
            ]
        )
        assert code == 0
        warm = capsys.readouterr().out
        assert "1 cache hits" in warm
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds.count("cache_hit") == 1
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"

    def test_spec_file(self, capsys):
        assert (
            main(
                [
                    "batch",
                    "--protocols",
                    "none",
                    "--spec-file",
                    "examples/specs/firefly_like.proto",
                    "--no-cache",
                ]
            )
            == 0
        )
        assert "firefly_like" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "illinois.trace.json"
        code = main(
            ["profile", "illinois", "--format", "chrome-trace", "-o", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        for needle in (
            "expand",
            "witness.check",
            "prune.containment",
            "expand.visits",
            "engine.cache.misses",
        ):
            assert needle in text
        data = json.loads(out.read_text(encoding="utf-8"))
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert {"profile", "expand", "engine.job"} <= names

    def test_profile_json_format_and_report_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "msi.profile.json"
        report = tmp_path / "report.txt"
        code = main(
            [
                "profile",
                "msi",
                "--format",
                "json",
                "-o",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        capsys.readouterr()
        snapshot = json.loads(out.read_text(encoding="utf-8"))
        assert snapshot["counters"]["expand.visits"] > 0
        assert any(s["name"] == "expand" for s in snapshot["spans"])
        assert "expand" in report.read_text(encoding="utf-8")

    def test_plain_profile_traces_both_engines(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["profile", "illinois"]) == 0
        text = capsys.readouterr().out
        data = json.loads((tmp_path / "profile-illinois.trace.json").read_text())
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert {"kernel.expand", "expand.step"} <= names
        table = text[text.index("interpreter vs kernel") :].splitlines()
        [row] = [line for line in table if line.startswith("illinois ")]
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[4] == cells[5] == "23"  # interp visits == kernel visits

    def test_profile_without_targets_is_usage_error(self, capsys):
        assert main(["profile"]) == 2
        assert "nothing to profile" in capsys.readouterr().err


class TestExitCodes:
    def test_help_documents_exit_status(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit status" in out.lower()
        for marker in ("0 ", "1 ", "2 "):
            assert marker in out

    def test_unknown_protocol_is_usage_error(self, capsys):
        assert main(["verify", "nonexistent"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_mutant_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "msi", "--mutant", "nope", "--quiet"])
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_inapplicable_mutant_is_usage_error(self, capsys):
        code = main(
            ["verify", "msi", "--mutant", "drop-update-broadcast", "--quiet"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_spec_file_is_spec_error(self, capsys):
        code = main(
            ["batch", "--protocols", "none", "--spec-file", "no/such.proto"]
        )
        assert code == 2
        assert "ERROR" in capsys.readouterr().out

    def test_batch_unknown_protocol_is_usage_error(self, capsys):
        assert main(["batch", "--protocols", "nonexistent", "--no-cache"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--timeout", "-1"],
            ["--timeout", "0"],
            ["--timeout", "nan"],
            ["--grace", "nan"],
            ["--grace", "-1"],
            ["-j", "0"],
            ["-j", "-3"],
            ["-j", "0", "--timeout", "5"],
            ["--retries", "-1"],
        ],
    )
    def test_out_of_range_runner_setting_is_usage_error(self, flags, capsys):
        assert main(["batch", "--protocols", "msi", "--no-cache", *flags]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and not captured.out

    @pytest.mark.parametrize(
        "extra", [[], ["--deadline", "100"]], ids=["visits", "with-deadline"]
    )
    def test_exhausted_visit_budget_is_partial(self, extra, capsys):
        # The same guard bounds the run whether or not another budget
        # is set, and a partial verify exits 2 as a partial batch does.
        code = main(["verify", "illinois", "--max-visits", "10", "--quiet", *extra])
        out = capsys.readouterr().out
        assert code == 2
        assert "PARTIAL (visits; 2 frontier states unexplored)" in out

    def test_violations_before_exhaustion_exit_one(self, capsys):
        # As in a batch: violations a partial run found are definitive.
        from repro.kernel import explore
        from repro.protocols.mutations import get_mutant
        from repro.protocols.registry import get_protocol

        mutant = get_mutant(get_protocol("illinois"), "drop-invalidation")
        budget = str(explore(mutant).stats.visits - 1)
        argv = ["verify", "illinois", "--mutant", "drop-invalidation"]
        assert main([*argv, "--max-visits", budget, "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert f"{budget} state visits, 0 global transitions" in out  # partial


class TestEnumerateCommand:
    def test_enumerate(self, capsys):
        assert main(["enumerate", "illinois", "-n", "2"]) == 0
        assert "8 states" in capsys.readouterr().out

    def test_counting_flag(self, capsys):
        assert main(["enumerate", "illinois", "-n", "3", "--counting"]) == 0
        assert "counting" in capsys.readouterr().out

    def test_show_states(self, capsys):
        assert main(["enumerate", "msi", "-n", "1", "--show-states"]) == 0
        assert "Invalid" in capsys.readouterr().out


class TestCrossvalCommand:
    def test_crossval(self, capsys):
        assert main(["crossval", "msi", "--max-n", "3"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_max_n_below_one_is_a_usage_error(self, max_n, capsys):
        assert main(["crossval", "illinois", "--max-n", max_n]) == 2
        assert "cache counts" in capsys.readouterr().err

    def test_max_n_up_to_the_cap_runs(self, capsys):
        assert main(["crossval", "msi", "--max-n", str(CROSSVAL_MAX_N)]) == 0
        assert f"n={list(range(1, CROSSVAL_MAX_N + 1))}" in capsys.readouterr().out

    @pytest.mark.parametrize("past", [1, 32])
    def test_max_n_past_the_cap_is_a_usage_error(self, past, capsys):
        max_n = str(CROSSVAL_MAX_N + past)
        assert main(["crossval", "dragon", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--max-n must be at most {CROSSVAL_MAX_N}" in captured.err

    def test_vacuous_state_is_a_mismatch(self, capsys):
        assert main(["crossval", "mesif", "--max-n", "2"]) == 1
        assert capsys.readouterr().out.endswith("(0 uncovered, 1 vacuous)\n")

    def test_disagreement_is_a_mismatch(self, monkeypatch, capsys):
        from repro.enumeration import crossval

        empty = crossval.SymbolicView(complete=True, violating=False, essential=())
        monkeypatch.setattr(crossval, "symbolic_view", lambda symbolic: empty)
        assert main(["crossval", "msi", "--max-n", "2"]) == 1
        assert "[coverage] msi (n=1)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "limits, expected",
        [
            ({"symbolic_visits": 2}, "skipped (symbolic budget exhausted)"),
            ({"concrete_visits": 10}, "concrete budget exhausted at n=[2, 3]"),
        ],
    )
    def test_budget_trip_exits_2(self, monkeypatch, capsys, limits, expected):
        import functools

        from repro.enumeration import crossval

        budget = functools.partial(crossval.OracleBudget, **limits)
        monkeypatch.setattr(crossval, "OracleBudget", budget)
        assert main(["crossval", "msi", "--max-n", "3"]) == 2
        assert expected in capsys.readouterr().out

    def test_loads_no_testkit_module(self):
        probe = (
            "import contextlib, io, json, sys\n"
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = repro.cli.main(['crossval', 'msi', '--max-n', '1'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        code, loaded = json.loads(_run_probe(probe).stdout)
        assert code == 0
        assert "repro.enumeration.crossval" in loaded
        assert [m for m in loaded if m.startswith("repro.testkit")] == []


class TestSimulateCommand:
    def test_clean_simulation(self, capsys):
        assert main(["simulate", "illinois", "-l", "500"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_buggy_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "illinois",
                "-l",
                "5000",
                "--mutant",
                "drop-invalidation",
                "--seed",
                "3",
            ]
        )
        assert code == 1
        assert "violations" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare(self, capsys):
        assert main(["compare", "illinois", "firefly"]) == 0
        out = capsys.readouterr().out
        assert "isomorphic" in out


class TestFragilityCommand:
    def test_fragility_map(self, capsys):
        assert main(["fragility", "msi", "--picks", "1"]) == 0
        out = capsys.readouterr().out
        assert "fragility map" in out
        assert "broke coherence" in out
