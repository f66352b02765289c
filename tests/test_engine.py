"""Tests for the batch-verification engine (``repro.engine``).

Covers the fingerprint/cache layer (hit/miss, stability, corruption),
the run journal, the serial and parallel runners (including the
timeout -> retry -> failure and crash-isolation paths) and the batch
orchestrator's acceptance properties: parallel and serial execution
produce identical payloads for the whole protocol zoo, and a warm
cache replays every job without re-verifying anything.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import threading
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
    make_runner,
    registry_jobs,
    run_batch,
    spec_fingerprint,
)
from repro.engine import batch as batch_module
from repro.engine import job as job_module
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
def _matrix_jobs() -> list[VerificationJob]:
    """The 51 registry jobs: the zoo and every safety mutant."""
    return registry_jobs(["all"], RunOptions(), mutants=True)


class TestCacheIntegrity:
    def _entry(self, tmp_path, protocol="illinois"):
        cache = ResultCache(tmp_path)
        job = VerificationJob(protocol=protocol)
        fp = spec_fingerprint(get_protocol(protocol))
        cache.put(fp, job, execute_job(job))
        return cache, job, fp, cache._path(cache.key_for(fp, job))

    def _assert_quarantined(self, cache, job, fp, path):
        assert cache.get(fp, job) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()

    def test_a_flipped_digit_in_the_payload_is_quarantined_and_reverified(
        self, tmp_path
    ):
        cache, job, fp, path = self._entry(tmp_path)
        raw = path.read_bytes()
        # The payload follows the header, so the last occurrence is in it;
        # the result is still valid JSON of the right shape.
        head, _, tail = raw.rpartition(b'"visits": 23')
        path.write_bytes(head + b'"visits": 28' + tail)
        self._assert_quarantined(cache, job, fp, path)
        [result] = run_batch([job], cache=cache).results
        assert not result.cached
        assert result.summary["visits"] == result.payload["stats"]["visits"] == 23

    def test_a_torn_payload_under_an_intact_header_is_quarantined(self, tmp_path):
        cache, job, fp, path = self._entry(tmp_path)
        path.write_bytes(path.read_bytes()[:-7])
        self._assert_quarantined(cache, job, fp, path)

    def test_a_wrong_shape_payload_is_quarantined_even_with_its_digest(
        self, tmp_path
    ):
        cache, job, fp, path = self._entry(tmp_path)
        head = json.loads(path.read_bytes().partition(b"\n")[0])
        body = b"[1, 2, 3]"
        head["sha256"] = hashlib.sha256(body).hexdigest()
        path.write_bytes(json.dumps(head).encode() + b"\n" + body)
        self._assert_quarantined(cache, job, fp, path)

    @pytest.mark.parametrize(
        "edit", [{"summary": None}, {"elapsed": "soon"}], ids=["summary", "elapsed"]
    )
    def test_a_malformed_header_field_is_quarantined(self, tmp_path, edit):
        # The digest covers the payload only: header fields are checked.
        cache, job, fp, path = self._entry(tmp_path)
        head, _, body = path.read_bytes().partition(b"\n")
        header = {**json.loads(head), **edit}
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        self._assert_quarantined(cache, job, fp, path)

    def test_hits_decode_the_stored_payload_over_the_matrix(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = _matrix_jobs()
        assert len(jobs) == 51
        cold = run_batch(jobs, cache=cache)
        warm = run_batch(jobs, cache=cache)
        assert warm.cache_hits == len(jobs)
        for stored, hit in zip(cold.results, warm.results):
            assert hit.summary == stored.summary
            # A hit pickles with its undecoded bytes and decodes on first read.
            shipped = pickle.loads(pickle.dumps(hit))
            assert json.dumps(hit.payload, sort_keys=True) == json.dumps(
                stored.payload, sort_keys=True
            )
            assert shipped.payload == stored.payload
            assert b"".join(job_module._json_chunks(stored.payload)) == (
                json.dumps(stored.payload, sort_keys=True).encode("utf-8")
            )

    def test_parallel_and_serial_batches_write_the_same_entries(self, tmp_path):
        # A worker ships its payload's bytes and `put` writes them as
        # they are; the serial path encodes its dict once.  Both must
        # land the same entries.
        jobs = _matrix_jobs()
        trees = {}
        for workers in (2, 1):
            root = tmp_path / f"j{workers}"
            run_batch(jobs, cache=ResultCache(root), workers=workers)
            entries = {}
            for path in sorted(root.glob("v*/*/*.json")):
                head, _, body = path.read_bytes().partition(b"\n")
                header = json.loads(head)
                # The digest covers stats.elapsed_seconds, so it is
                # checked against its bytes, not across the two trees.
                assert header.pop("sha256") == hashlib.sha256(body).hexdigest()
                del header["elapsed"]
                entries[path.name] = (header, _strip_elapsed(json.loads(body)))
            trees[workers] = entries
        assert len(trees[2]) == len(jobs)
        assert trees[2] == trees[1]

    @pytest.mark.parametrize(
        "payload",
        [{}, {"a": []}, {"b": {"y": [1], "x": 2}, "a": list(range(200))}],
    )
    def test_payloads_are_written_as_dumps_writes_them(self, payload):
        assert b"".join(job_module._json_chunks(payload)) == json.dumps(
            payload, sort_keys=True
        ).encode("utf-8")

    def test_entries_serve_whole_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(protocol="msi")
        fp = spec_fingerprint(get_protocol("msi"))
        result = execute_job(job)
        cache.put(fp, job, result)
        [record] = cache.entries(fp[:12])
        assert record == {
            "key": cache.key_for(fp, job),
            "engine": ENGINE_VERSION,
            "fingerprint": fp,
            "job": job.to_meta(),
            "status": "verified",
            "elapsed": result.elapsed,
            "payload": result.payload,
        }
        assert cache.entries("0" * 64) == []


class TestFingerprintMemo:
    def test_memo_matches_spec_fingerprint_over_the_matrix(self, monkeypatch):
        hashed = []

        def counting(spec):
            hashed.append(spec.name)
            return spec_fingerprint(spec)

        monkeypatch.setattr(batch_module, "spec_fingerprint", counting)
        jobs = _matrix_jobs()
        for _ in range(2):
            for job in jobs:
                spec = job.resolve_spec()
                assert batch_module._fingerprint(job, spec) == spec_fingerprint(spec)
        assert len(hashed) == len(jobs) == 51

    def test_inline_specs_always_hash(self, monkeypatch):
        hashed = []

        def counting(spec):
            hashed.append(spec.name)
            return spec_fingerprint(spec)

        monkeypatch.setattr(batch_module, "spec_fingerprint", counting)
        job = VerificationJob(spec=get_protocol("msi"))
        for _ in range(2):
            batch_module._fingerprint(job, job.resolve_spec())
        assert hashed == ["msi", "msi"]

    def test_an_edited_spec_file_misses_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "edited.proto"
        job = VerificationJob(spec_file=str(path))
        fingerprints = []
        for source in ("firefly_like.proto", "broken_mesi.proto"):
            shutil.copy(os.path.join(EXAMPLES_SPECS, source), path)
            report = run_batch([job], cache=cache)
            assert report.cache_hits == 0 and report.cache_lookup_misses == 1
            [start] = report.journal.of("job_start")
            fingerprints.append(start["fingerprint"])
        assert fingerprints[0] != fingerprints[1]
        assert run_batch([job], cache=cache).cache_hits == 1


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
        pairs = [(job.label, job) for job in jobs]
        serial = SerialRunner().run(pairs)
        parallel = ParallelRunner(workers=2).run(pairs)
        assert len(serial) == len(parallel) == len(jobs)
        for s, p in zip(serial, parallel):
            assert s.status == p.status == JobStatus.VERIFIED
            assert _strip_elapsed(s.payload) == _strip_elapsed(p.payload)

    def test_workers_deliver_the_payload_as_its_canonical_bytes(self):
        job = VerificationJob(protocol="illinois", mutant="drop-invalidation")
        [result] = ParallelRunner(workers=1).run([(job.label, job)])
        raw = result.__dict__["_payload"]
        assert isinstance(raw, bytes)
        assert result.payload_chunks() == [raw]  # held bytes: no re-encoding
        assert job_module.payload_summary(json.loads(raw)) == result.summary
        assert result.status == JobStatus.VIOLATION
        assert _strip_elapsed(result.payload) == _strip_elapsed(
            execute_job(job).payload
        )

    def test_timeout_retry_then_failure(self):
        events = []
        runner = ParallelRunner(workers=1, timeout=0.3, retries=1)
        [result] = runner.run(
            [("hang", VerificationJob(spec=HangingProtocol(), label="hang"))],
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
            [(job.label, job) for job in jobs],
            on_event=lambda event, fields: events.append(event),
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
            [("nonexistent", VerificationJob(protocol="nonexistent"))],
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

    def test_concurrent_batches_count_only_their_own_lookups(self, tmp_path):
        # One cache serves two batches at once, as in the service: the
        # moesi batch's first lookup waits until the illinois batch is
        # done, so shared counters would hand it illinois's hits too.
        cache = ResultCache(tmp_path)
        jobs = {
            name: registry_jobs([name], RunOptions(), mutants=True)
            for name in ("moesi", "illinois")
        }
        run_batch(jobs["moesi"] + jobs["illinois"], cache=cache)
        illinois_done = threading.Event()
        get = cache.get

        def waiting_get(fingerprint, job, key=None):
            if job.protocol == "moesi":
                assert illinois_done.wait(timeout=60)
            return get(fingerprint, job, key)

        cache.get = waiting_get
        reports = {}

        def run(name):
            reports[name] = run_batch(jobs[name], cache=cache)
            if name == "illinois":
                illinois_done.set()

        threads = [threading.Thread(target=run, args=(name,)) for name in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert sorted(reports) == sorted(jobs)
        for name, report in reports.items():
            n = len(jobs[name])
            assert (report.cache_lookup_hits, report.cache_lookup_misses) == (n, 0)
            [end] = report.journal.of("run_end")
            assert end["cache_lookups"] == {"hits": n, "misses": 0}

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
class TestAdmission:
    """Both runners draw admitted jobs from one lazy stream."""

    def test_parallel_runner_admits_a_job_when_a_worker_is_free(self):
        jobs = [
            VerificationJob(protocol=name) for name in ("msi", "illinois", "moesi")
        ]
        report = run_batch(jobs, runner=ParallelRunner(workers=1))
        assert report.verified == 3
        order = [
            (e["event"], e["job"])
            for e in report.journal.events
            if e["event"] in ("job_start", "job_finish")
        ]
        assert order.index(("job_start", "moesi")) > order.index(
            ("job_finish", "msi")
        )

    def test_an_all_cache_hit_batch_spawns_no_worker(self, tmp_path, monkeypatch):
        jobs = [VerificationJob(protocol=name) for name in ("msi", "illinois")]
        cache = ResultCache(tmp_path)
        run_batch(jobs, cache=cache)
        spawned = []
        spawn = ParallelRunner._spawn

        def counting_spawn(self):
            spawned.append(self)
            return spawn(self)

        monkeypatch.setattr(ParallelRunner, "_spawn", counting_spawn)
        report = run_batch(jobs, cache=cache, workers=2)
        assert report.cache_hits == 2
        assert spawned == []

    def test_a_retry_runs_before_the_next_draw(self):
        jobs = [
            VerificationJob(spec=CrashingProtocol(), label="bad"),
            VerificationJob(protocol="msi", label="good"),
        ]
        report = run_batch(jobs, runner=ParallelRunner(workers=1, retries=1))
        assert [r.status for r in report.results] == [
            JobStatus.CRASH,
            JobStatus.VERIFIED,
        ]
        kinds = [
            (e["event"], e.get("job"))
            for e in report.journal.events
            if e["event"] in ("job_start", "job_crash", "job_finish")
        ]
        assert kinds == [
            ("job_start", "bad"),
            ("job_crash", "bad"),
            ("job_crash", "bad"),
            ("job_finish", "bad"),
            ("job_start", "good"),
            ("job_finish", "good"),
        ]

    @pytest.mark.parametrize(
        "settings",
        [
            {"workers": 0},
            {"workers": -3},
            {"workers": 0, "timeout": 5.0},
            {"timeout": -1.0},
            {"timeout": 0.0},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
            {"grace": -0.5},
            {"grace": float("nan")},
            {"grace": float("inf")},
            {"retries": -1},
        ],
        ids=lambda settings: ",".join(f"{k}={v}" for k, v in settings.items()),
    )
    def test_out_of_range_runner_settings_are_refused(self, settings, tmp_path):
        with pytest.raises(ValueError):
            make_runner(**settings)
        with pytest.raises(ValueError):
            ParallelRunner(**{"workers": 1, **settings})
        journal = RunJournal(tmp_path / "run.jsonl")
        with pytest.raises(ValueError):
            run_batch([VerificationJob(protocol="msi")], journal=journal, **settings)
        assert journal.events == []  # refused before anything is journaled

    def test_in_range_runner_settings_are_kept(self):
        runner = make_runner(workers=2, timeout=1.5, retries=0, grace=0.0)
        assert runner.workers == 2 and runner.timeout == 1.5
        assert runner.retries == 0 and runner.grace == 0.0
        assert isinstance(make_runner(retries=0, grace=2.0), SerialRunner)

    @pytest.mark.parametrize(
        "runner, workers",
        [(SerialRunner(), 1), (ParallelRunner(workers=2), 2)],
        ids=["serial", "parallel-2"],
    )
    def test_run_start_journals_the_runners_pool_size(self, runner, workers):
        # An explicit runner overrides ``workers=``; the journal must
        # record the pool the batch actually ran on.
        report = run_batch([VerificationJob(protocol="msi")], runner=runner)
        [start] = [e for e in report.journal.events if e["event"] == "run_start"]
        assert start["workers"] == workers


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
