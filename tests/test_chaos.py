"""Chaos tests: the engine's robustness claims under injected faults.

Every disaster here is deterministic (see :mod:`repro.engine.faults`):
worker crashes, hangs, soft-cancelled slow jobs, corrupt cache
entries, torn journals and a mid-run SIGINT, each followed by an
assertion that the engine isolated, retried, quarantined or resumed
exactly as documented in docs/ROBUSTNESS.md.  The headline acceptance
check is the kill-and-resume round trip: a batch interrupted after
``k`` jobs, resumed from its journal, re-verifies only the unfinished
jobs and ends with the same counts as an uninterrupted run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.core.options import RunOptions
from repro.engine import (
    BackoffPolicy,
    BatchCancelled,
    BreakerState,
    CircuitBreaker,
    JobStatus,
    ParallelRunner,
    ResultCache,
    RunJournal,
    VerificationJob,
    run_batch,
    spec_fingerprint,
)
from repro.engine.faults import (
    Fault,
    FaultPlan,
    FaultedSpec,
    KillSwitchJournal,
    choke_journal,
    corrupt_cache_entry,
    inject,
    tear_journal,
)
from repro.protocols.registry import get_protocol

PROTOCOLS = ("msi", "illinois", "berkeley", "synapse", "moesi")


def _jobs(*names: str, **options) -> list[VerificationJob]:
    return [VerificationJob(protocol=name, **options) for name in names]


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random(50, seed=7)
        b = FaultPlan.random(50, seed=7)
        assert a.faults == b.faults
        assert a.faults  # a 25% rate over 50 jobs plans *something*

    def test_explicit_plan(self):
        plan = FaultPlan({2: Fault("hang")})
        assert plan.fault_for(2).kind == "hang"
        assert plan.fault_for(0) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("meteor")

    def test_faulted_spec_is_sound_in_parent(self):
        # The parent fingerprints the faulted spec -- spec_to_dict
        # exercises every reaction -- without detonating anything.
        from repro.core.reactions import Ctx
        from repro.core.symbols import CountCase

        inner = get_protocol("msi")
        faulted = FaultedSpec(inner, Fault("crash"))
        assert spec_fingerprint(faulted) != spec_fingerprint(inner)
        ctx = Ctx(frozenset(), CountCase.ZERO)
        op = faulted.operations[0]
        state = faulted.states[1]
        assert faulted.react(state, op, ctx) == inner.react(state, op, ctx)

    def test_inject_preserves_labels_and_soundness(self):
        jobs = _jobs(*PROTOCOLS)
        faulted = inject(jobs, FaultPlan({1: Fault("crash")}))
        assert [j.label for j in faulted] == [j.label for j in jobs]
        assert faulted[0] is jobs[0]
        assert isinstance(faulted[1].spec, FaultedSpec)


# ----------------------------------------------------------------------
class TestWorkerFaults:
    def test_crash_is_isolated_and_reported(self):
        jobs = inject(_jobs("msi", "illinois", "moesi"), FaultPlan({1: Fault("crash")}))
        journal = RunJournal()
        report = run_batch(
            jobs,
            journal=journal,
            runner=ParallelRunner(workers=2, retries=0),
        )
        statuses = [r.status for r in report.results]
        assert statuses == [
            JobStatus.VERIFIED,
            JobStatus.CRASH,
            JobStatus.VERIFIED,
        ]
        assert journal.count("job_crash") == 1
        assert report.exit_code == 2

    def test_crash_is_retried(self):
        jobs = inject(_jobs("msi"), FaultPlan({0: Fault("crash")}))
        journal = RunJournal()
        report = run_batch(
            jobs,
            journal=journal,
            runner=ParallelRunner(workers=1, retries=1),
        )
        assert report.results[0].status == JobStatus.CRASH
        assert report.results[0].attempts == 2
        assert journal.count("job_retry") == 1

    def test_hung_worker_sigkilled_after_grace(self):
        # The soft-cancel satellite: a job that ignores cancellation
        # (hangs in react, never polls the guard) is SIGKILLed at
        # deadline + grace and reported as a timeout.
        jobs = inject(_jobs("illinois"), FaultPlan({0: Fault("hang")}))
        journal = RunJournal()
        report = run_batch(
            jobs,
            journal=journal,
            runner=ParallelRunner(workers=1, timeout=0.3, grace=0.3, retries=0),
        )
        result = report.results[0]
        assert result.status == JobStatus.TIMEOUT
        assert "wall-clock" in result.error
        cancels = journal.of("job_cancel")
        timeouts = journal.of("job_timeout")
        assert len(cancels) == 1 and len(timeouts) == 1
        assert cancels[0]["grace"] == 0.3
        # Soft-cancel strictly precedes the kill.
        events = [e["event"] for e in journal.events]
        assert events.index("job_cancel") < events.index("job_timeout")

    def test_slow_job_soft_cancels_into_partial(self, tmp_path):
        # A slow-but-cooperative job notices the cancel flag through
        # its guard and hands back a partial result inside the grace
        # window instead of being SIGKILLed.
        jobs = inject(
            _jobs("illinois"), FaultPlan({0: Fault("slow", delay=0.2)})
        )
        cache = ResultCache(tmp_path / "cache")
        journal = RunJournal()
        report = run_batch(
            jobs,
            cache=cache,
            journal=journal,
            runner=ParallelRunner(workers=1, timeout=0.4, grace=10.0, retries=0),
        )
        result = report.results[0]
        assert result.status == JobStatus.PARTIAL
        assert result.exhausted_reason == "cancelled"
        assert result.attempts == 1  # terminal: no retry against the clock
        assert journal.count("job_cancel") == 1
        assert journal.count("job_partial") == 1
        assert journal.count("job_timeout") == 0
        # Cancelled partials are never cached: the runner timeout is
        # not part of the job key.
        assert cache.get(spec_fingerprint(jobs[0].spec), jobs[0]) is None

    def test_interrupted_parallel_run_leaves_no_workers(self, tmp_path):
        journal = KillSwitchJournal(tmp_path / "run.jsonl", after=1)
        with pytest.raises(KeyboardInterrupt):
            run_batch(
                _jobs(*PROTOCOLS),
                journal=journal,
                runner=ParallelRunner(workers=2, retries=0),
            )
        for proc in multiprocessing.active_children():
            proc.join(2.0)
        assert not multiprocessing.active_children()


# ----------------------------------------------------------------------
class TestKillAndResume:
    def test_round_trip_matches_uninterrupted_run(self, tmp_path):
        jobs = _jobs(*PROTOCOLS)
        baseline = run_batch(jobs, cache=ResultCache(tmp_path / "ref"))

        # Interrupt after two finished jobs.
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "run.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_batch(jobs, cache=cache, journal=KillSwitchJournal(path, after=2))

        events = RunJournal.read(path)
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "run_aborted"
        assert events[-1]["finished"] == 2
        assert kinds.count("job_finish") == 2
        assert "run_end" not in kinds

        # Resume: finished jobs replay from the cache, only the
        # remainder is verified again.
        with RunJournal(path, mode="append") as journal:
            report = run_batch(
                jobs, cache=cache, journal=journal, resume=RunJournal.read(path)
            )
        assert journal.count("run_resume") == 1
        assert journal.of("run_resume")[0]["completed"] == 2
        assert report.verified == baseline.verified == len(jobs)
        assert report.exit_code == baseline.exit_code == 0
        assert report.cache_hits >= 2  # the interrupted prefix replayed
        fresh = [r for r in report.results if not r.cached]
        assert len(fresh) == len(jobs) - report.cache_hits
        # The combined journal now tells the whole story.
        combined = RunJournal.read(path)
        combined_kinds = [e["event"] for e in combined]
        assert combined_kinds.count("run_start") == 2
        assert combined_kinds.count("run_aborted") == 1
        assert combined_kinds.count("run_end") == 1

    def test_resume_replays_terminal_errors_without_redispatch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        # A deterministic admission error: the mutation key is unknown,
        # so the spec cannot even be resolved for fingerprinting.
        jobs = [
            VerificationJob(protocol="msi"),
            VerificationJob(protocol="msi", mutant="no-such-mutation"),
        ]
        with RunJournal(path) as journal:
            first = run_batch(jobs, journal=journal)
        assert first.errors == 1
        with RunJournal(path, mode="append") as journal:
            report = run_batch(
                jobs, journal=journal, resume=RunJournal.read(path)
            )
        assert journal.count("job_replayed") == 1
        replayed = journal.of("job_replayed")[0]
        assert replayed["status"] == JobStatus.ERROR
        assert report.errors == first.errors == 1
        # The error was adopted from the journal, not re-resolved.
        error = next(r for r in report.results if r.status == JobStatus.ERROR)
        assert "no-such-mutation" in error.error

    def test_cli_exits_130_on_interrupt(self, monkeypatch, capsys):
        import repro.engine

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.engine, "run_batch", boom)
        status = main(["batch", "--protocols", "msi", "--no-cache"])
        assert status == EXIT_INTERRUPTED == 130
        assert "--resume" in capsys.readouterr().err

    def test_cli_exits_143_on_sigterm(self, monkeypatch, capsys):
        # An orchestrator's SIGTERM takes the same journaled-abort path
        # as Ctrl-C but reports 128 + 15.  The CLI installs the
        # trampoline before run_batch, so delivering the signal from
        # inside it is exactly the mid-batch kill.
        import repro.engine

        def killed(*args, **kwargs):
            os.kill(os.getpid(), signal.SIGTERM)
            raise AssertionError("SIGTERM was not delivered synchronously")

        monkeypatch.setattr(repro.engine, "run_batch", killed)
        status = main(["batch", "--protocols", "msi", "--no-cache"])
        assert status == 143
        err = capsys.readouterr().err
        assert "SIGTERM" in err and "--resume" in err
        # The trampoline must not leak past the subcommand.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


# ----------------------------------------------------------------------
class TestBackoff:
    def test_delays_are_deterministic_and_jittered(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=1.0, seed=42)
        delays = [policy.delay("key", n) for n in range(2, 12)]
        assert delays == [policy.delay("key", n) for n in range(2, 12)]
        assert all(0 < d <= 1.5 for d in delays)  # max_delay * (1+jitter)
        # Distinct keys desynchronize; distinct seeds reshuffle.
        assert policy.delay("other", 2) != policy.delay("key", 2)
        reseeded = BackoffPolicy(base=0.1, factor=2.0, max_delay=1.0, seed=7)
        assert reseeded.delay("key", 2) != policy.delay("key", 2)

    def test_growth_is_exponential_without_jitter(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, jitter=0.0)
        assert policy.delay("k", 2) == pytest.approx(0.1)
        assert policy.delay("k", 3) == pytest.approx(0.2)
        assert policy.delay("k", 4) == pytest.approx(0.4)
        assert policy.delay("k", 60) == pytest.approx(30.0)  # capped

    def test_zero_base_means_immediate_retries(self):
        assert BackoffPolicy(base=0.0).delay("k", 5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-0.1)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=2.0)

    def test_transient_crash_is_absorbed_with_backoff(self, tmp_path):
        # A once-only crash (transient infrastructure failure): the
        # supervised retry waits out the backoff delay, the journal
        # records it, and the verdict is unchanged.
        jobs = inject(
            _jobs("msi"),
            FaultPlan({0: Fault("crash", once=True)}),
            marker_dir=tmp_path / "markers",
        )
        journal = RunJournal()
        report = run_batch(
            jobs,
            journal=journal,
            workers=1,
            timeout=30.0,
            retries=1,
            backoff=BackoffPolicy(base=0.05, jitter=0.0),
        )
        result = report.results[0]
        assert result.status == JobStatus.VERIFIED
        assert result.attempts == 2
        [retry] = journal.of("job_retry")
        assert retry["delay"] == pytest.approx(0.05)


# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_state_machine_with_injected_clock(self):
        t = [0.0]
        breaker = CircuitBreaker(threshold=2, cooldown=10.0, now=lambda: t[0])
        assert breaker.allow("fp")
        assert breaker.record_failure("fp") is None
        assert breaker.record_failure("fp") == "opened"
        assert breaker.state("fp") == BreakerState.OPEN
        assert not breaker.allow("fp")
        assert breaker.retry_after("fp") == pytest.approx(10.0)
        # Cooldown expiry half-opens: exactly one probe is admitted.
        t[0] = 10.5
        assert breaker.state("fp") == BreakerState.HALF_OPEN
        assert breaker.allow("fp")
        assert not breaker.allow("fp")  # the probe slot is taken
        assert breaker.record_failure("fp") == "reopened"
        assert breaker.state("fp") == BreakerState.OPEN
        # A successful probe closes and forgets the key.
        t[0] = 21.0
        assert breaker.allow("fp")
        breaker.record_success("fp")
        assert breaker.state("fp") == BreakerState.CLOSED
        assert breaker.snapshot() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)

    def test_repeated_crashes_trip_the_breaker(self):
        # threshold=2 with a retry budget of 5: the third attempt is
        # never dispatched -- the breaker quarantines the job instead
        # of burning three more worker respawns.
        jobs = inject(_jobs("msi", "illinois"), FaultPlan({0: Fault("crash")}))
        journal = RunJournal()
        breaker = CircuitBreaker(threshold=2, cooldown=60.0)
        report = run_batch(
            jobs,
            journal=journal,
            workers=1,
            timeout=30.0,
            retries=5,
            breaker=breaker,
            backoff=BackoffPolicy(base=0.0),
        )
        quarantined, sound = report.results
        assert quarantined.status == JobStatus.QUARANTINED
        assert quarantined.attempts == 2
        assert "circuit breaker" in quarantined.error
        assert sound.status == JobStatus.VERIFIED  # isolation holds
        [opened] = journal.of("breaker_open")
        assert opened["transition"] == "opened"
        assert report.quarantined == 1
        assert report.exit_code == 2
        assert "1 quarantined by breaker" in report.counts_line()
        key = opened["key"]
        assert breaker.state(key) == BreakerState.OPEN

    def test_open_breaker_quarantines_at_admission(self, tmp_path):
        # A second run sharing the breaker never dispatches the
        # quarantined fingerprint -- and never caches the quarantine.
        t = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=30.0, now=lambda: t[0])
        jobs = inject(
            _jobs("msi"),
            FaultPlan({0: Fault("crash", once=True)}),
            marker_dir=tmp_path / "markers",
        )
        cache = ResultCache(tmp_path / "cache")
        first = run_batch(
            jobs, cache=cache, workers=1, timeout=30.0, retries=0,
            breaker=breaker,
        )
        assert first.results[0].status == JobStatus.QUARANTINED
        journal = RunJournal()
        again = run_batch(jobs, cache=cache, journal=journal, breaker=breaker)
        result = again.results[0]
        assert result.status == JobStatus.QUARANTINED
        assert result.attempts == 0  # refused before dispatch
        [opened] = journal.of("breaker_open")
        assert opened["transition"] == "open"
        assert opened["retry_after"] == pytest.approx(30.0)
        # After the cooldown the half-open probe runs the job for real:
        # the once-fault already detonated, so the probe succeeds and
        # the breaker closes.
        t[0] = 31.0
        probe = run_batch(
            jobs, cache=cache, workers=1, timeout=30.0, retries=0,
            breaker=breaker,
        )
        assert probe.results[0].status == JobStatus.VERIFIED
        assert breaker.state(opened["key"]) == BreakerState.CLOSED

    def test_breaker_transitions_are_metered(self):
        from repro.obs import Collector, to_prometheus, use_collector

        t = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, now=lambda: t[0])
        with use_collector(Collector("chaos")) as collector:
            breaker.record_failure("fp")      # opened
            t[0] = 5.5
            breaker.state("fp")               # half-open
            breaker.allow("fp")
            breaker.record_failure("fp")      # reopened
        assert collector.counters["engine.breaker.open"].value == 1
        assert collector.counters["engine.breaker.half_open"].value == 1
        assert collector.counters["engine.breaker.reopen"].value == 1
        text = to_prometheus(collector)
        assert "repro_engine_breaker_open_total 1" in text
        assert "repro_engine_breaker_half_open_total 1" in text
        assert "repro_engine_breaker_reopen_total 1" in text

    def test_backoff_delays_are_metered(self, tmp_path):
        from repro.obs import Collector, use_collector

        jobs = inject(
            _jobs("msi"),
            FaultPlan({0: Fault("crash", once=True)}),
            marker_dir=tmp_path / "markers",
        )
        with use_collector(Collector("chaos")) as collector:
            run_batch(
                jobs,
                workers=1,
                timeout=30.0,
                retries=1,
                backoff=BackoffPolicy(base=0.01, jitter=0.0),
            )
        histogram = collector.histograms["engine.retry.backoff"]
        assert histogram.count == 1
        assert histogram.total == pytest.approx(0.01)


# ----------------------------------------------------------------------
class _DrainSwitch(RunJournal):
    """Sets a cancel flag after *after* ``job_finish`` events."""

    def __init__(self, cancel: threading.Event, after: int) -> None:
        super().__init__()
        self.cancel = cancel
        self.after = after

    def emit(self, event, **fields):
        record = super().emit(event, **fields)
        if event == "job_finish" and self.count("job_finish") >= self.after:
            self.cancel.set()
        return record


class TestGracefulDrain:
    def test_serial_drain_keeps_finished_results(self):
        cancel = threading.Event()
        journal = _DrainSwitch(cancel, after=2)
        with pytest.raises(BatchCancelled) as excinfo:
            run_batch(_jobs(*PROTOCOLS), journal=journal, cancel=cancel)
        assert excinfo.value.finished == 2
        kinds = [e["event"] for e in journal.events]
        assert kinds.count("job_finish") == 2
        assert kinds[-1] == "run_aborted"
        assert "run_end" not in kinds

    def test_parallel_drain_soft_cancels_and_resumes(self, tmp_path):
        # The service-shutdown round trip at engine level: drain after
        # one finished job, then resume the journal to the same counts
        # as an undisturbed run.
        jobs = _jobs(*PROTOCOLS)
        baseline = run_batch(jobs, cache=ResultCache(tmp_path / "ref"))
        cancel = threading.Event()
        path = tmp_path / "run.jsonl"
        cache = ResultCache(tmp_path / "cache")

        class FileDrainSwitch(_DrainSwitch):
            def __init__(self) -> None:
                RunJournal.__init__(self, path)
                self.cancel = cancel
                self.after = 1

        with pytest.raises(BatchCancelled):
            run_batch(
                jobs,
                cache=cache,
                journal=FileDrainSwitch(),
                runner=ParallelRunner(workers=2, retries=0),
                cancel=cancel,
            )
        events = RunJournal.read(path)
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "run_aborted"
        finishes = [e for e in events if e["event"] == "job_finish"]
        # A job in flight when the drain lands is soft-cancelled: it is
        # journaled as a partial but, by design, never cached (the
        # cancellation is not part of the cache key).  Only the
        # cacheable finishes must come back as cache hits.
        cached = [e for e in finishes if e["status"] in JobStatus.COMPLETED]
        assert len(cached) >= 1
        assert all(
            e["status"] == JobStatus.PARTIAL and "cancelled" in e["error"]
            for e in finishes
            if e not in cached
        )
        assert not multiprocessing.active_children()
        # Resume completes the batch with baseline verdicts.
        with RunJournal(path, mode="append") as journal:
            report = run_batch(
                jobs, cache=cache, journal=journal, resume=events
            )
        assert report.verified == baseline.verified == len(jobs)
        assert report.exit_code == baseline.exit_code == 0
        assert report.cache_hits >= len(cached)


# ----------------------------------------------------------------------
class TestJournalDiskFull:
    def test_enospc_drops_file_backing_but_keeps_the_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        choke_journal(journal, after=3)
        with pytest.warns(RuntimeWarning, match="file backing"):
            report = run_batch(_jobs("msi", "illinois"), journal=journal)
        # The run finished on the in-memory stream: full event record,
        # correct verdicts, truncated file.
        assert report.exit_code == 0
        assert journal.count("run_end") == 1
        assert journal.count("job_finish") == 2
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        journal.close()


# ----------------------------------------------------------------------
class TestTornJournal:
    def test_read_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            for i in range(5):
                journal.emit("job_finish", job=f"j{i}", status="verified")
        tear_journal(path, drop_bytes=9)
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            events = RunJournal.read(path)
        assert [e["job"] for e in events] == ["j0", "j1", "j2", "j3"]

    def test_read_skips_corrupt_middle_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        good = json.dumps({"event": "run_start", "t": 0})
        path.write_text(f"{good}\nnot json at all\n{good}\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt line 2"):
            events = RunJournal.read(path)
        assert len(events) == 2

    def test_journal_refuses_to_clobber(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.emit("run_start", jobs=1)
        with pytest.raises(FileExistsError, match="--resume"):
            RunJournal(path)
        # Explicit modes still work.
        with RunJournal(path, mode="append") as journal:
            journal.emit("run_end", jobs=1)
        assert len(RunJournal.read(path)) == 2
        with RunJournal(path, mode="overwrite") as journal:
            journal.emit("run_start", jobs=2)
        assert len(RunJournal.read(path)) == 1

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunJournal(tmp_path / "x.jsonl", mode="sideways")


# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def _verified_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = VerificationJob(protocol="msi")
        fingerprint = spec_fingerprint(job.resolve_spec())
        result = run_batch([job], cache=cache).results[0]
        assert result.status == JobStatus.VERIFIED
        return cache, job, fingerprint

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = VerificationJob(protocol="msi")
        fingerprint = spec_fingerprint(job.resolve_spec())
        assert cache.get(fingerprint, job) is None
        assert cache.quarantined == 0

    @pytest.mark.parametrize(
        "payload",
        [
            '{"status": "verified", "payload": [1,',  # torn JSON
            '{"status": "verified", "payload": 3}',  # valid JSON, wrong shape
            '{"status": "sideways", "payload": {}}',  # unknown status
            '{"payload": {}}',  # missing status
        ],
    )
    def test_corrupt_entry_is_quarantined(self, tmp_path, payload):
        cache, job, fingerprint = self._verified_entry(tmp_path)
        path = corrupt_cache_entry(cache, fingerprint, job, payload=payload)
        assert cache.get(fingerprint, job) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()

    def test_sweep_recovers_after_quarantine(self, tmp_path):
        cache, job, fingerprint = self._verified_entry(tmp_path)
        corrupt_cache_entry(cache, fingerprint, job)
        report = run_batch([job], cache=cache)
        assert report.results[0].status == JobStatus.VERIFIED
        assert not report.results[0].cached  # re-verified, not replayed
        hit = cache.get(fingerprint, job)
        assert hit is not None and hit.status == JobStatus.VERIFIED


# ----------------------------------------------------------------------
class TestPartialCaching:
    def test_partial_results_replay_as_partial(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = VerificationJob(protocol="illinois", options=RunOptions(max_visits=5))
        first = run_batch([job], cache=cache).results[0]
        assert first.status == JobStatus.PARTIAL
        again = run_batch([job], cache=cache).results[0]
        assert again.cached
        assert again.status == JobStatus.PARTIAL
        assert again.exhausted_reason == "visits"

    def test_partial_entry_never_poisons_other_budgets(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        small = VerificationJob(protocol="illinois", options=RunOptions(max_visits=5))
        assert run_batch([small], cache=cache).results[0].partial
        full = VerificationJob(protocol="illinois")
        result = run_batch([full], cache=cache).results[0]
        assert result.status == JobStatus.VERIFIED
        assert not result.cached

    def test_batch_report_counts_partials(self, tmp_path):
        report = run_batch(
            [
                VerificationJob(protocol="msi"),
                VerificationJob(protocol="illinois", options=RunOptions(max_visits=5)),
            ]
        )
        assert report.verified == 1
        assert report.partials == 1
        assert report.errors == 0
        assert report.exit_code == 2
        assert "1 partial" in report.counts_line()
        assert report.journal.of("run_end")[0]["partials"] == 1
