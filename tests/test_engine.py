"""Tests for the batch-verification engine (``repro.engine``).

Covers the fingerprint/cache layer (hit/miss, stability, corruption),
the run journal, the serial and parallel runners (including the
timeout -> retry -> failure and crash-isolation paths) and the batch
orchestrator's acceptance properties: parallel and serial execution
produce identical payloads for the whole protocol zoo, and a warm
cache replays every job without re-verifying anything.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.core.options import RunOptions
from repro.core.serialize import result_to_dict, spec_to_dict
from repro.core.verifier import verify
from repro.engine import (
    ENGINE_VERSION,
    JobStatus,
    ParallelRunner,
    ResultCache,
    RunJournal,
    SerialRunner,
    VerificationJob,
    execute_job,
    job_key,
    run_batch,
    spec_fingerprint,
)
from repro.protocols.dsl import builtin_spec_names, load_builtin
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.msi import MsiProtocol
from repro.protocols.mutations import get_mutant, mutants_for
from repro.protocols.registry import all_protocols, get_protocol, protocol_names
from tests.helpers import shy_when_full

EXAMPLES_SPECS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "specs",
)


def _in_worker() -> bool:
    """True when running inside a pool worker process."""
    return multiprocessing.current_process().name != "MainProcess"


class HangingProtocol(MsiProtocol):
    """Reacts normally in the parent, hangs inside pool workers."""

    name = "msi-hang"

    def react(self, state, op, ctx):
        if _in_worker():
            time.sleep(60.0)
        return super().react(state, op, ctx)


class CrashingProtocol(MsiProtocol):
    """Reacts normally in the parent, kills the pool worker outright."""

    name = "msi-crash"

    def react(self, state, op, ctx):
        if _in_worker():
            os._exit(13)
        return super().react(state, op, ctx)


def _strip_elapsed(payload: dict) -> dict:
    clean = dict(payload)
    clean["stats"] = {
        k: v for k, v in payload["stats"].items() if k != "elapsed_seconds"
    }
    return clean


# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_instances(self):
        assert spec_fingerprint(get_protocol("illinois")) == spec_fingerprint(
            get_protocol("illinois")
        )

    def test_distinct_across_protocols(self):
        prints = {spec_fingerprint(spec) for spec in all_protocols()}
        assert len(prints) == len(protocol_names())

    def test_mutation_changes_fingerprint(self):
        base = get_protocol("illinois")
        for mutant in mutants_for(base):
            assert spec_fingerprint(mutant) != spec_fingerprint(base)

    def test_dsl_spec_fingerprints_deterministically(self):
        assert spec_fingerprint(load_builtin("illinois")) == spec_fingerprint(
            load_builtin("illinois")
        )

    def test_spec_dict_is_json_and_ordered(self):
        payload = spec_to_dict(get_protocol("moesi"))
        assert json.loads(json.dumps(payload)) == payload
        a = json.dumps(spec_to_dict(get_protocol("moesi")), sort_keys=True)
        b = json.dumps(spec_to_dict(get_protocol("moesi")), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("name", ["dragon", "moesi", "mesif"])
    def test_every_present_set_is_fingerprinted(self, name):
        # Four valid states: the wrapper differs only in the one context
        # where all four are present.
        spec = get_protocol(name)
        assert len(spec.valid_states()) == 4
        assert spec_fingerprint(shy_when_full(spec)) != spec_fingerprint(spec)

    @pytest.mark.parametrize(
        "spec",
        [*all_protocols(), *(load_builtin(n) for n in builtin_spec_names())],
        ids=lambda s: s.name,
    )
    def test_spec_dict_tabulates_each_cell_over_every_present_set(self, spec):
        cells: dict[tuple[str, str], list[frozenset[str]]] = {}
        for entry in spec_to_dict(spec)["reactions"]:
            if "ctx" in entry:
                present = frozenset(entry["ctx"]["present"])
                cells.setdefault((entry["state"], entry["op"]), []).append(present)
        assert cells
        for presents in cells.values():
            assert len(presents) == len(set(presents))
            assert len(presents) == 2 ** len(spec.valid_states())

    def test_job_key_depends_on_options(self):
        fp = spec_fingerprint(get_protocol("msi"))
        base = VerificationJob(protocol="msi")
        structural = VerificationJob(
            protocol="msi", options=RunOptions(augmented=False)
        )
        assert job_key(fp, base) != job_key(fp, structural)
        assert job_key(fp, base) == job_key(fp, VerificationJob(protocol="msi"))


# ----------------------------------------------------------------------
class TestJobModel:
    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError):
            VerificationJob()
        with pytest.raises(ValueError):
            VerificationJob(protocol="msi", spec=MsiProtocol())

    def test_default_labels(self):
        assert VerificationJob(protocol="msi").label == "msi"
        assert (
            VerificationJob(protocol="msi", mutant="drop-invalidation").label
            == "msi+drop-invalidation"
        )
        assert VerificationJob(spec=MsiProtocol()).label == "msi"

    def test_execute_matches_direct_verify(self):
        result = execute_job(VerificationJob(protocol="illinois"))
        assert result.status == JobStatus.VERIFIED
        direct = result_to_dict(verify("illinois").result)
        assert _strip_elapsed(result.payload) == _strip_elapsed(direct)

    def test_execute_folds_spec_errors(self):
        result = execute_job(VerificationJob(protocol="nonexistent"))
        assert result.status == JobStatus.ERROR
        assert "nonexistent" in result.error

    def test_spec_file_job(self):
        path = os.path.join(EXAMPLES_SPECS, "firefly_like.proto")
        result = execute_job(VerificationJob(spec_file=path))
        assert result.completed


# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(protocol="msi")
        fp = spec_fingerprint(get_protocol("msi"))
        assert cache.get(fp, job) is None
        cache.put(fp, job, execute_job(job))
        hit = cache.get(fp, job)
        assert hit is not None and hit.cached
        assert hit.status == JobStatus.VERIFIED
        assert hit.payload["protocol"] == "msi"

    def test_layout_is_versioned_and_sharded(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(protocol="msi")
        fp = spec_fingerprint(get_protocol("msi"))
        cache.put(fp, job, execute_job(job))
        key = cache.key_for(fp, job)
        expected = tmp_path / f"v{ENGINE_VERSION}" / key[:2] / f"{key}.json"
        assert expected.is_file()

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(protocol="msi")
        fp = spec_fingerprint(get_protocol("msi"))
        cache.put(fp, job, execute_job(job))
        key = cache.key_for(fp, job)
        path = tmp_path / f"v{ENGINE_VERSION}" / key[:2] / f"{key}.json"
        path.write_text("{ not json")
        assert cache.get(fp, job) is None

    def test_incomplete_results_are_not_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(protocol="nonexistent")
        cache.put("deadbeef", job, execute_job(job))
        assert cache.get("deadbeef", job) is None

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert ResultCache().root == tmp_path / "custom"


# ----------------------------------------------------------------------
class TestJournal:
    def test_events_and_counts(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.emit("run_start", jobs=2)
            journal.emit("job_finish", job="msi", ok=True)
            journal.emit("job_finish", job="illinois", ok=True)
        assert journal.count("job_finish") == 2
        assert journal.of("run_start")[0]["jobs"] == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["event"] for line in lines] == [
            "run_start",
            "job_finish",
            "job_finish",
        ]


class RaisesBesideDirtyAndShared(IllinoisProtocol):
    """Illinois whose ``react`` raises only beside Dirty and Shared copies
    at once: a present-set no reachable state has, so expansion never
    meets it, but a row with two present states, which validation reads."""

    name = "illinois-raises-beside-dirty-and-shared"

    def react(self, state, op, ctx):
        if ctx.present == {"Dirty", "Shared"}:
            raise RuntimeError("Dirty beside Shared")
        return super().react(state, op, ctx)


class SlowRaisesBesideDirtyAndShared(RaisesBesideDirtyAndShared):
    """The same, with every ``react`` call taking a millisecond."""

    def react(self, state, op, ctx):
        time.sleep(0.001)
        return super().react(state, op, ctx)


# ----------------------------------------------------------------------
class TestRunners:
    def test_parallel_matches_serial_for_the_zoo(self):
        jobs = [
            VerificationJob(protocol=name)
            for name in protocol_names()
        ]
        serial = SerialRunner().run(jobs)
        parallel = ParallelRunner(workers=2).run(jobs)
        assert len(serial) == len(parallel) == len(jobs)
        for s, p in zip(serial, parallel):
            assert s.status == p.status == JobStatus.VERIFIED
            assert _strip_elapsed(s.payload) == _strip_elapsed(p.payload)

    def test_timeout_retry_then_failure(self):
        events = []
        runner = ParallelRunner(workers=1, timeout=0.3, retries=1)
        [result] = runner.run(
            [VerificationJob(spec=HangingProtocol(), label="hang")],
            on_event=lambda event, fields: events.append((event, fields)),
        )
        assert result.status == JobStatus.TIMEOUT
        assert result.attempts == 2
        assert "wall-clock" in result.error
        kinds = [event for event, _ in events]
        assert kinds.count("job_timeout") == 2
        assert kinds.count("job_retry") == 1

    def test_crash_isolation(self):
        events = []
        runner = ParallelRunner(workers=2, retries=1)
        jobs = [
            VerificationJob(protocol="msi", label="good-1"),
            VerificationJob(spec=CrashingProtocol(), label="bad"),
            VerificationJob(protocol="illinois", label="good-2"),
        ]
        results = runner.run(
            jobs, on_event=lambda event, fields: events.append(event)
        )
        assert results[0].status == JobStatus.VERIFIED
        assert results[1].status == JobStatus.CRASH
        assert results[1].attempts == 2
        assert results[2].status == JobStatus.VERIFIED
        assert events.count("job_crash") == 2

    def test_deterministic_errors_are_not_retried(self):
        events = []
        runner = ParallelRunner(workers=1, retries=3)
        [result] = runner.run(
            [VerificationJob(protocol="nonexistent")],
            on_event=lambda event, fields: events.append(event),
        )
        assert result.status == JobStatus.ERROR
        assert result.attempts == 1
        assert not events


# ----------------------------------------------------------------------
class TestRunBatch:
    def test_cold_run_then_warm_cache(self, tmp_path):
        jobs = [
            VerificationJob(protocol="msi"),
            VerificationJob(protocol="msi", mutant="drop-invalidation"),
            VerificationJob(protocol="synapse"),
        ]
        cache = ResultCache(tmp_path)
        cold = run_batch(jobs, cache=cache)
        assert cold.cache_hits == 0
        assert cold.journal.count("job_finish") == 3

        warm = run_batch(jobs, cache=cache)
        assert warm.cache_hits == 3
        assert warm.journal.count("cache_hit") == 3
        assert all(r.cached for r in warm.results)
        # Zero re-verifications: every finish record is a cache replay.
        assert all(
            record["cached"] for record in warm.journal.of("job_finish")
        )
        # Verdicts replay byte-identically (cached payloads included).
        for a, b in zip(cold.results, warm.results):
            assert a.status == b.status
            assert a.payload == b.payload

    def test_a_spec_differing_in_one_present_set_is_not_a_cache_hit(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        original = run_batch(
            [VerificationJob(protocol="moesi", mutant="drop-invalidation")],
            cache=cache,
        )
        assert original.results[0].status == JobStatus.VIOLATION
        shy = shy_when_full(get_mutant(get_protocol("moesi"), "drop-invalidation"))
        assert shy.name == "moesi+drop-invalidation"
        report = run_batch([VerificationJob(spec=shy)], cache=cache)
        (result,) = report.results
        assert not result.cached and report.cache_hits == 0
        assert result.status == JobStatus.ERROR

    @pytest.mark.parametrize("order", [("off", "annotate"), ("annotate", "off")])
    def test_an_ill_formed_spec_errors_whichever_job_runs_first(
        self, tmp_path, order
    ):
        # Validation is not a per-job choice: over one cache, both jobs
        # of either order reject the spec, and neither result is cached.
        cache = ResultCache(tmp_path)
        spec = RaisesBesideDirtyAndShared()
        for preflight in order:
            job = VerificationJob(spec=spec, options=RunOptions(preflight=preflight))
            [result] = run_batch([job], cache=cache).results
            assert result.status == JobStatus.ERROR and not result.cached
            assert "ProtocolDefinitionError" in result.error

    def test_a_partial_from_before_validation_is_not_cached(self, tmp_path):
        # A worker probes its own copy of the spec, and a 10 ms deadline
        # trips before the table is whole, so validation never ran: that
        # partial visited nothing and is not cached.  A serial run, whose
        # admission built the table with no guard, still rejects it.
        cache = ResultCache(tmp_path)
        job = VerificationJob(
            spec=SlowRaisesBesideDirtyAndShared(), options=RunOptions(deadline=0.01)
        )
        [partial] = run_batch([job], cache=cache, workers=2).results
        assert partial.exhausted_reason == "deadline"
        assert partial.payload["stats"]["visits"] == 0
        [result] = run_batch([job], cache=cache).results
        assert result.status == JobStatus.ERROR and not result.cached

    def test_results_keep_input_order(self):
        jobs = [
            VerificationJob(protocol=name)
            for name in protocol_names()
        ]
        report = run_batch(jobs, workers=3)
        assert [r.job.label for r in report.results] == list(protocol_names())

    def test_spec_error_exit_code(self):
        report = run_batch([VerificationJob(protocol="nonexistent")])
        assert report.errors == 1
        assert report.exit_code == 2
        assert report.results[0].status == JobStatus.ERROR

    def test_violation_exit_code(self):
        report = run_batch(
            [VerificationJob(protocol="msi", mutant="drop-invalidation")]
        )
        assert report.exit_code == 1
        assert report.results[0].status == JobStatus.VIOLATION

    def test_batch_agrees_with_sequential_verify(self):
        """`repro batch` verdicts == sequential verify/mutants verdicts."""
        base = get_protocol("illinois")
        jobs = [VerificationJob(protocol="illinois")] + [
            VerificationJob(protocol="illinois", mutant=m.mutation.key)
            for m in mutants_for(base)
        ]
        report = run_batch(jobs, workers=2)
        sequential = [verify(base).result] + [
            verify(get_mutant(base, m.mutation.key)).result
            for m in mutants_for(base)
        ]
        for result, expected in zip(report.results, sequential):
            assert _strip_elapsed(result.payload) == _strip_elapsed(
                result_to_dict(expected)
            )

    def test_timeout_journaled_through_batch(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        report = run_batch(
            [VerificationJob(spec=HangingProtocol(), label="hang")],
            workers=1,
            timeout=0.3,
            retries=1,
            journal=journal,
        )
        assert report.exit_code == 2
        assert report.results[0].status == JobStatus.TIMEOUT
        assert journal.count("job_timeout") == 2
        assert journal.count("job_retry") == 1
        finish = journal.of("job_finish")[0]
        assert finish["status"] == "timeout" and finish["attempts"] == 2

    def test_summary_table_renders(self):
        report = run_batch([VerificationJob(protocol="msi")])
        table = report.summary_table()
        assert "msi" in table and "VERIFIED" in table
        assert "1 jobs: 1 verified" in report.counts_line()


# ----------------------------------------------------------------------
class TestFragilityOnEngine:
    def test_parallel_profile_matches_serial(self):
        from repro.protocols.perturb import criticality_profile

        spec = get_protocol("msi")
        serial = criticality_profile(spec, picks=1)
        parallel = criticality_profile(spec, picks=1, jobs=2)
        assert serial.attempted == parallel.attempted
        assert serial.ill_formed == parallel.ill_formed
        assert serial.survived == parallel.survived
        assert serial.broken == parallel.broken
        assert serial.by_site == parallel.by_site
        assert serial.by_kind == parallel.by_kind
