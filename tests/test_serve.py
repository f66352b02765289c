"""Tests for the campaign service (``repro.serve``).

Covers the journal tail-follower the SSE streamer is built on, the
priority-lane scheduler (lanes drain in order, tenant budgets degrade
to PARTIAL instead of starving), the HTTP API end to end over a real
socket (submit -> SSE stream -> structured report, warm-cache
resubmission, restart recovery from the journal), byte-deterministic
SSE replay from an offset, event-driven stream wake-ups (no poll
timer on the path to ``end``), and the ``repro serve/submit/watch``
CLI exit-code contract.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.core.options import RunOptions
from repro.engine import ResultCache, RunJournal, run_batch
from repro.serve import (
    Campaign,
    CampaignRequest,
    CampaignState,
    CampaignStore,
    Scheduler,
    ServeApp,
    ServerThread,
    TenantBudgets,
    campaign_id,
    client,
)
from repro.serve import app as serve_app
from repro.serve.scheduler import MIN_DEADLINE

GOOD_SPEC = """
protocol tiny-dsl
title A minimal write-through protocol
states Invalid Valid
invalid Invalid
sharing-detection off
on Invalid R -> Valid load memory
on Valid R -> Valid
on Invalid W -> Valid load memory writethrough ; all => Invalid
on Valid W -> Valid writethrough ; all => Invalid
on Valid Z -> Invalid
"""


# ----------------------------------------------------------------------
class TestJournalFollower:
    def test_incremental_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("run_start", jobs=2)
        follower = RunJournal.follow(path)
        assert [e["event"] for e in follower.poll()] == ["run_start"]
        assert follower.poll() == []  # nothing new
        journal.emit("job_finish", job="msi", ok=True)
        journal.emit("run_end", jobs=2)
        assert [e["event"] for e in follower.poll()] == [
            "job_finish",
            "run_end",
        ]
        journal.close()

    def test_torn_line_is_held_until_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"event": "run_start"}\n{"event": "job_fin')
        follower = RunJournal.follow(path)
        assert [e["event"] for e in follower.poll()] == ["run_start"]
        assert follower.pending  # the torn tail is unconsumed, not lost
        with path.open("ab") as fh:
            fh.write(b'ish"}\n')
        assert [e["event"] for e in follower.poll()] == ["job_finish"]
        assert not follower.pending

    def test_corrupt_complete_line_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"event": "run_start"}\nnot json at all\n{"event": "run_end"}\n'
        )
        follower = RunJournal.follow(path)
        with pytest.warns(RuntimeWarning, match="corrupt line 2"):
            events = follower.poll()
        assert [e["event"] for e in events] == ["run_start", "run_end"]
        assert not follower.pending  # the corrupt bytes were consumed

    def test_offset_is_a_stable_resume_token(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            for i in range(5):
                journal.emit("job_finish", job=f"j{i}")
        full = RunJournal.follow(path).poll_lines()
        again = RunJournal.follow(path).poll_lines()
        assert full == again and len(full) == 5  # byte-deterministic
        # Resuming from any line's offset token replays the exact suffix.
        for k, (_, offset) in enumerate(full):
            suffix = RunJournal.follow(path, offset=offset).poll_lines()
            assert suffix == full[k + 1 :]

    def test_negative_offset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="offset"):
            RunJournal.follow(tmp_path / "run.jsonl", offset=-1)

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            RunJournal.read(tmp_path / "nope.jsonl")

    def test_read_warns_on_torn_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"event": "run_start"}\n{"event": "torn')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            events = RunJournal.read(path)
        assert [e["event"] for e in events] == ["run_start"]


# ----------------------------------------------------------------------
def _campaign(cid: str, priority: str = "normal", tenant: str = "default"):
    return Campaign(
        id=cid,
        request=CampaignRequest(protocols=("msi",), priority=priority, tenant=tenant),
    )


class TestScheduler:
    def test_priority_lanes_drain_in_order(self):
        """With one worker, queued lanes drain high -> normal -> low."""
        started, release = threading.Event(), threading.Event()
        order: list[str] = []

        def execute(campaign, cap):
            if campaign.id == "gate":
                started.set()
                assert release.wait(timeout=30)
            order.append(campaign.id)

        async def scenario():
            scheduler = Scheduler(execute, workers=1)
            await scheduler.start()
            await scheduler.submit(_campaign("gate"))
            await asyncio.to_thread(started.wait, 30)
            # Queued while the single worker is busy: arrival order is
            # low, normal, high -- completion order must be by lane.
            await scheduler.submit(_campaign("low-1", "low"))
            await scheduler.submit(_campaign("norm-1", "normal"))
            await scheduler.submit(_campaign("high-1", "high"))
            await scheduler.submit(_campaign("high-2", "high"))
            await scheduler.submit(_campaign("norm-2", "normal"))
            assert scheduler.queue_depth() == 5
            release.set()
            while len(scheduler.executed) < 6:
                await asyncio.sleep(0.01)
            await scheduler.stop()
            return scheduler

        scheduler = asyncio.run(scenario())
        assert order == ["gate", "high-1", "high-2", "norm-1", "norm-2", "low-1"]
        assert scheduler.queue_depth() == 0

    def test_failure_is_isolated_to_the_campaign(self):
        def execute(campaign, cap):
            if campaign.id == "boom":
                raise RuntimeError("kaput")

        async def scenario():
            scheduler = Scheduler(execute, workers=1)
            await scheduler.start()
            boom, ok = _campaign("boom"), _campaign("ok")
            await scheduler.submit(boom)
            await scheduler.submit(ok)
            while len(scheduler.executed) < 2:
                await asyncio.sleep(0.01)
            await scheduler.stop()
            return boom, ok

        boom, ok = asyncio.run(scenario())
        assert boom.state == CampaignState.FAILED
        assert boom.exit_code == 2
        assert "RuntimeError: kaput" in boom.error
        assert ok.state == CampaignState.DONE  # the worker survived

    def test_execution_time_is_charged_to_the_tenant(self):
        def execute(campaign, cap):
            pass

        async def scenario():
            scheduler = Scheduler(
                execute, workers=1, budgets=TenantBudgets({"acme": 5.0})
            )
            await scheduler.start()
            await scheduler.submit(_campaign("c1", tenant="acme"))
            while len(scheduler.executed) < 1:
                await asyncio.sleep(0.01)
            await scheduler.stop()
            return scheduler

        scheduler = asyncio.run(scenario())
        assert scheduler.budgets.spent["acme"] >= 0.0
        assert scheduler.budgets.remaining("acme") < 5.0


class TestTenantBudgets:
    def test_unknown_tenant_is_unlimited(self):
        budgets = TenantBudgets({"acme": 2.0})
        assert budgets.remaining("other") is None
        assert budgets.cap("other") is None

    def test_remaining_allotment_caps_the_deadline(self):
        budgets = TenantBudgets({"acme": 2.0})
        budgets.charge("acme", 0.5)
        cap = budgets.cap("acme")
        assert cap.deadline == pytest.approx(1.5)
        assert cap.max_visits is None

    def test_exhausted_tenant_gets_token_budget_not_refusal(self):
        budgets = TenantBudgets({"acme": 1.0})
        budgets.charge("acme", 3.0)
        assert budgets.remaining("acme") == 0.0
        cap = budgets.cap("acme")
        assert cap is not None  # still dispatched
        assert cap.deadline == MIN_DEADLINE
        assert cap.max_visits == 1

    def test_rejects_nonpositive_allotments(self):
        with pytest.raises(ValueError, match="positive"):
            TenantBudgets({"acme": 0.0})


# ----------------------------------------------------------------------
class TestCampaignModel:
    def test_from_dict_round_trip(self):
        payload = {
            "protocols": ["msi"],
            "mutants": True,
            "priority": "high",
            "deadline": 5.0,
        }
        request = CampaignRequest.from_dict(payload)
        assert request.protocols == ("msi",)
        assert request.mutants and request.priority == "high"
        assert CampaignRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "at least one protocol"),
            ({"protocols": "msi"}, "list of names"),
            ({"protocols": ["msi"], "priority": "urgent"}, "priority"),
            ({"protocols": ["msi"], "bogus": 1}, "unknown campaign fields"),
            ({"protocols": ["msi"], "deadline": -1}, "deadline"),
            ({"protocols": ["msi"], "max_visits": 0}, "max_visits"),
            ({"specs": {"x": 3}}, "specs"),
            ([], "JSON object"),
        ],
    )
    def test_from_dict_rejects_bad_bodies(self, payload, match):
        with pytest.raises(ValueError, match=match):
            CampaignRequest.from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_visits", True),
            ("deadline", True),
            ("deadline", float("nan")),
            ("deadline", float("inf")),
        ],
        ids=["max_visits-true", "deadline-true", "deadline-nan", "deadline-inf"],
    )
    def test_from_dict_rejects_bool_and_nonfinite_budgets(self, field, value):
        with pytest.raises(ValueError, match=field):
            CampaignRequest.from_dict({"protocols": ["msi"], field: value})

    def test_structural_key_is_now_augmented(self):
        with pytest.raises(ValueError, match="unknown campaign fields"):
            CampaignRequest.from_dict({"protocols": ["msi"], "structural": True})
        request = CampaignRequest.from_dict({"protocols": ["msi"], "augmented": False})
        assert request.options.augmented is False

    def test_validate_resolves_names_and_specs(self):
        CampaignRequest(protocols=("msi", "all")).validate()
        with pytest.raises(ValueError, match="nonesuch"):
            CampaignRequest(protocols=("nonesuch",)).validate()
        with pytest.raises(ValueError, match="inline spec 'bad'"):
            CampaignRequest(specs=(("bad", "protocol ???"),)).validate()

    def test_jobs_clamp_budgets_to_tenant_cap(self, tmp_path):
        request = CampaignRequest(
            protocols=("msi",), options=RunOptions(deadline=10.0)
        )
        [job] = request.jobs(tmp_path, deadline_cap=2.0, max_visits_cap=7)
        assert job.options.deadline == 2.0 and job.options.max_visits == 7
        [job] = request.jobs(tmp_path)  # uncapped: the request's own ask
        assert job.options.deadline == 10.0

    def test_inline_specs_materialize_once(self, tmp_path):
        request = CampaignRequest(specs=(("tiny", GOOD_SPEC),))
        [job] = request.jobs(tmp_path)
        path = tmp_path / "tiny.proto"
        assert job.spec_file == str(path) and path.exists()
        path.write_text("sentinel")  # a resumed campaign must not clobber
        request.jobs(tmp_path)
        assert path.read_text() == "sentinel"

    def test_campaign_id_is_sequenced_and_content_addressed(self):
        request = CampaignRequest(protocols=("msi",))
        assert campaign_id(3, request).startswith("c0003-")
        # Identical submissions share the digest but not the sequence.
        assert campaign_id(1, request)[5:] == campaign_id(2, request)[5:]
        other = CampaignRequest(protocols=("illinois",))
        assert campaign_id(1, request) != campaign_id(1, other)


# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def test_submit_stream_report_and_warm_cache(self, tmp_path):
        app = ServeApp(tmp_path / "state", cache=ResultCache(tmp_path / "cache"))
        with ServerThread(app) as server:
            accepted = client.submit(
                server.base_url, {"protocols": ["msi", "illinois"]}
            )
            assert accepted["id"].startswith("c0001-")
            assert accepted["location"] == f"/campaigns/{accepted['id']}"

            events: list[client.SseEvent] = []
            final = client.watch(
                server.base_url, accepted["id"], on_event=events.append
            )
            assert final["state"] == "done" and final["exit_code"] == 0
            counts = final["report"]["counts"]
            assert counts["jobs"] == 2 and counts["verified"] == 2
            assert counts["cache_hits"] == 0
            kinds = [event.json()["event"] for event in events]
            assert kinds[0] == "run_start" and kinds[-1] == "run_end"
            assert kinds.count("job_finish") == 2

            # An identical resubmission is answered entirely from cache.
            again = client.submit(
                server.base_url, {"protocols": ["msi", "illinois"]}
            )
            assert again["id"] != accepted["id"]
            warm = client.watch(server.base_url, again["id"])
            assert warm["exit_code"] == 0
            assert warm["report"]["counts"]["cache_hits"] == 2
            assert all(r["cached"] for r in warm["report"]["results"])

            # The result cache doubles as a shared artifact store.
            fingerprint = final["report"]["results"][0]["fingerprint"]
            doc = client.get_json(server.base_url, f"/cache/{fingerprint[:16]}")
            assert [e["fingerprint"] for e in doc["entries"]] == [fingerprint]

            # The campaign list and health probe see both campaigns.
            listing = client.get_json(server.base_url, "/campaigns")
            assert [c["id"] for c in listing["campaigns"]] == sorted(
                [accepted["id"], again["id"]]
            )
            health = client.get_json(server.base_url, "/healthz")
            assert health["ok"] and health["campaigns"] == 2
            assert health["state"] == "ready"

            # All serve.* instruments are exposed on /metrics.
            text = _get_text(server.base_url, "/metrics")
            for name in (
                "repro_serve_requests_total",
                "repro_serve_campaigns_total",
                "repro_serve_cache_served_total",
                "repro_serve_admission_rejected_total",
                "repro_serve_queue_depth",
                "repro_serve_sse_clients",
                "repro_serve_request_latency_bucket",
                "repro_serve_request_latency_count",
            ):
                assert name in text, name

    def test_client_errors_are_400s_and_never_persist(self, tmp_path):
        app = ServeApp(tmp_path / "state")
        with ServerThread(app) as server:
            with pytest.raises(client.ServiceError) as excinfo:
                client.submit(server.base_url, {"protocols": ["nonesuch"]})
            assert excinfo.value.status == 400
            with pytest.raises(client.ServiceError) as excinfo:
                client.submit(server.base_url, {"protocols": ["msi"], "x": 1})
            assert excinfo.value.status == 400
            for bad in (float("nan"), True):
                with pytest.raises(client.ServiceError) as excinfo:
                    client.submit(
                        server.base_url, {"protocols": ["msi"], "deadline": bad}
                    )
                assert excinfo.value.status == 400
            with pytest.raises(client.ServiceError) as excinfo:
                client.get_json(server.base_url, "/campaigns/c9999-deadbeef")
            assert excinfo.value.status == 404
            with pytest.raises(client.ServiceError) as excinfo:
                client.get_json(server.base_url, "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(client.ServiceError) as excinfo:
                client._request(server.base_url, "POST", "/metrics", {})
            assert excinfo.value.status == 405
            # A server without a cache 404s the artifact store.
            with pytest.raises(client.ServiceError) as excinfo:
                client.get_json(server.base_url, "/cache/" + "ab" * 8)
            assert excinfo.value.status == 404
        # Rejected submissions must never be persisted (or they would
        # be requeued -- and re-broken -- on every restart).
        assert list((tmp_path / "state" / "campaigns").iterdir()) == []

    def test_inline_spec_campaign(self, tmp_path):
        app = ServeApp(tmp_path / "state")
        with ServerThread(app) as server:
            accepted = client.submit(server.base_url, {"specs": {"tiny": GOOD_SPEC}})
            final = client.watch(server.base_url, accepted["id"])
        assert final["exit_code"] == 0
        [result] = final["report"]["results"]
        assert result["status"] == "verified"
        assert result["job"]["spec_file"].endswith("tiny.proto")

    def test_exhausted_tenant_degrades_to_partial_not_starvation(self, tmp_path):
        app = ServeApp(tmp_path / "state", tenants={"acme": 5.0})
        app.scheduler.budgets.charge("acme", 10.0)  # allotment all gone
        with ServerThread(app) as server:
            accepted = client.submit(
                server.base_url,
                {"protocols": ["msi", "illinois"], "tenant": "acme"},
            )
            final = client.watch(server.base_url, accepted["id"])
            health = client.get_json(server.base_url, "/healthz")
        # The campaign ran to completion -- structured partials, not a
        # refusal and not an eternity in the queue.
        assert final["state"] == "done"
        counts = final["report"]["counts"]
        assert counts["partials"] == 2 and final["exit_code"] == 2
        for result in final["report"]["results"]:
            assert result["status"] == "partial"
            assert result["job"]["max_visits"] == 1  # the token budget
            assert result["job"]["deadline"] == MIN_DEADLINE
        assert health["tenants"]["acme"]["remaining"] == 0.0


def _get_text(base_url: str, path: str) -> str:
    import http.client
    from urllib.parse import urlsplit

    url = urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        return response.read().decode("utf-8")
    finally:
        conn.close()


# ----------------------------------------------------------------------
class TestSseReplay:
    def test_replay_is_byte_deterministic(self, tmp_path):
        app = ServeApp(tmp_path / "state")
        with ServerThread(app) as server:
            accepted = client.submit(server.base_url, {"protocols": ["msi"]})
            client.watch(server.base_url, accepted["id"])  # run to done

            def stream(offset: int) -> list[tuple[int, str]]:
                frames: list[tuple[int, str]] = []
                client.watch(
                    server.base_url,
                    accepted["id"],
                    offset=offset,
                    on_event=lambda e: frames.append((e.id, e.data)),
                )
                return frames

            full = stream(0)
            assert full and full == stream(0)  # identical byte-for-byte
            # Reconnecting from any frame's id replays the exact suffix.
            mid = len(full) // 2
            assert stream(full[mid][0]) == full[mid + 1 :]
            # Every frame is a journal line: valid JSON with an event.
            assert all("event" in json.loads(data) for _, data in full)

    def test_negative_offset_is_a_400(self, tmp_path):
        app = ServeApp(tmp_path / "state")
        with ServerThread(app) as server:
            accepted = client.submit(server.base_url, {"protocols": ["msi"]})
            client.watch(server.base_url, accepted["id"])
            with pytest.raises(client.ServiceError) as excinfo:
                client.watch(server.base_url, accepted["id"], offset=-5)
            assert excinfo.value.status == 400


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _hold_until_streamed(monkeypatch, app: ServeApp, then=None) -> None:
    """Start each campaign's batch only once an SSE stream is open.

    The stream is then live for every journal line and for the
    terminal state, so it ends on wake-ups, not on a poll.  ``then``
    replaces job resolution (default: the real one).
    """
    resolve = then or CampaignRequest.jobs

    def jobs(request, *args, **kwargs):
        _wait_until(lambda: app._wakes)
        return resolve(request, *args, **kwargs)

    monkeypatch.setattr(CampaignRequest, "jobs", jobs)


class TestEventDrivenStream:
    """The SSE stream wakes on journal lines and terminal states.

    Each test sets the safety-net poll to 30 s, so a stream that still
    needed a poll to reach ``end`` would take that long.
    """

    @pytest.fixture(autouse=True)
    def _slow_safety_net(self, monkeypatch):
        monkeypatch.setattr(serve_app, "_SAFETY", 30.0)

    def test_warm_stream_ends_promptly_and_replays_identically(
        self, tmp_path, monkeypatch
    ):
        app = ServeApp(tmp_path / "state", cache=ResultCache(tmp_path / "cache"))
        with ServerThread(app) as server:
            cold = client.submit(server.base_url, {"protocols": ["msi"]})
            client.watch(server.base_url, cold["id"])
            _hold_until_streamed(monkeypatch, app)
            warm = client.submit(server.base_url, {"protocols": ["msi"]})
            live: list[tuple[int, str]] = []
            began = time.monotonic()
            final = client.watch(
                server.base_url,
                warm["id"],
                on_event=lambda e: live.append((e.id, e.data)),
            )
            elapsed = time.monotonic() - began
            replay: list[tuple[int, str]] = []
            client.watch(
                server.base_url,
                warm["id"],
                on_event=lambda e: replay.append((e.id, e.data)),
            )
        assert elapsed < 5.0
        assert final["report"]["counts"]["cache_hits"] == 1
        assert live and live == replay

    def test_failed_campaign_wakes_its_stream(self, tmp_path, monkeypatch):
        def broken(request, *args, **kwargs):
            raise RuntimeError("spec store vanished")

        app = ServeApp(tmp_path / "state")
        _hold_until_streamed(monkeypatch, app, then=broken)
        with ServerThread(app) as server:
            accepted = client.submit(server.base_url, {"protocols": ["msi"]})
            began = time.monotonic()
            body = _get_text(
                server.base_url, f"/campaigns/{accepted['id']}/events"
            )
            elapsed = time.monotonic() - began
        assert elapsed < 5.0
        # No journal was written: the stream is just the end frame.
        [frame] = body.strip().split("\n\n")
        head, data = frame.split("\n")
        assert head == "event: end"
        assert json.loads(data.removeprefix("data: ")) == {
            "state": "failed",
            "exit_code": 2,
        }

    def test_wake_after_the_loop_closed_is_dropped(self, tmp_path):
        app = ServeApp(tmp_path / "state")
        with ServerThread(app):
            pass
        app._wake("c0001-deadbeef")  # a batch still journaling: no raise

    def test_closed_streams_leave_no_wake_state(self, tmp_path):
        app = ServeApp(tmp_path / "state", cache=ResultCache(tmp_path / "cache"))
        with ServerThread(app) as server:
            for _ in range(5):
                accepted = client.submit(server.base_url, {"protocols": ["msi"]})
                client.watch(server.base_url, accepted["id"])
            _wait_until(lambda: app._sse_clients == 0)
            assert app._wakes == {}


# ----------------------------------------------------------------------
class TestRestartRecovery:
    def test_interrupted_campaign_resumes_from_journal(self, tmp_path):
        """Kill-and-restart: the journal replays finished jobs."""
        state, cache_dir = tmp_path / "state", tmp_path / "cache"
        store = CampaignStore(state)
        request = CampaignRequest.from_dict({"protocols": ["msi", "illinois"]})
        campaign = store.create(request)
        jobs = request.jobs(store.spec_dir(campaign))
        # Simulate a server killed mid-campaign: one of two jobs
        # finished (journaled + cached), no report.json yet.
        with RunJournal(store.journal_path(campaign)) as journal:
            run_batch(jobs[:1], cache=ResultCache(cache_dir), journal=journal)

        app = ServeApp(state, cache=ResultCache(cache_dir))
        with ServerThread(app) as server:
            final = client.watch(server.base_url, campaign.id)
        assert final["resumed"] is True
        assert final["state"] == "done" and final["exit_code"] == 0
        assert final["report"]["counts"]["jobs"] == 2
        # The finished job was replayed from the cache, not re-verified.
        by_label = {r["label"]: r for r in final["report"]["results"]}
        assert by_label[jobs[0].label]["cached"] is True
        events = RunJournal.read(store.journal_path(campaign))
        [resumed] = [e for e in events if e["event"] == "run_resume"]
        assert resumed["completed"] == 1 and resumed["remaining"] == 1

    def test_finished_campaigns_recover_without_requeue(self, tmp_path):
        state = tmp_path / "state"
        app = ServeApp(state)
        with ServerThread(app) as server:
            accepted = client.submit(server.base_url, {"protocols": ["msi"]})
            final = client.watch(server.base_url, accepted["id"])
        # A fresh server over the same state dir serves the old report
        # without re-running anything.
        reborn = ServeApp(state)
        with ServerThread(reborn) as server:
            doc = client.get_json(server.base_url, f"/campaigns/{accepted['id']}")
            health = client.get_json(server.base_url, "/healthz")
        assert doc["state"] == "done"
        assert doc["report"] == final["report"]
        assert health["queue_depth"] == 0
        assert reborn.scheduler.executed == []  # nothing was requeued


# ----------------------------------------------------------------------
class TestServeCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642 and args.workers == 2
        args = build_parser().parse_args(["submit", "http://x:1"])
        assert args.protocols == ["all"] and not args.watch
        args = build_parser().parse_args(["watch", "http://x:1", "c1-ab"])
        assert args.offset == 0

    def test_submit_watch_exit_codes(self, tmp_path, capsys):
        app = ServeApp(tmp_path / "state", cache=ResultCache(tmp_path / "cache"))
        with ServerThread(app) as server:
            url = server.base_url
            # Verified campaign -> 0, with the event stream rendered.
            assert main(["submit", url, "--protocols", "msi", "--watch"]) == 0
            out = capsys.readouterr().out
            assert "accepted" in out and "run_end" in out
            assert "1 verified" in out
            # A violation (mutant matrix) -> 1.
            code = main(
                [
                    "submit",
                    url,
                    "--protocols",
                    "illinois",
                    "--mutants",
                    "--watch",
                    "--quiet",
                ]
            )
            assert code == 1
            assert "violations" in capsys.readouterr().out
            # Submitting without --watch just prints the campaign id;
            # `repro watch` picks it up and exits with its status.
            assert main(["submit", url, "--protocols", "msi"]) == 0
            cid = capsys.readouterr().out.split()[1]
            assert main(["watch", url, cid, "--quiet"]) == 0
            # Client errors map onto the uniform error exit code.
            assert main(["submit", url, "--protocols", "nonesuch"]) == 2
            assert "400" in capsys.readouterr().err
            assert main(["watch", url, "c9999-deadbeef"]) == 2
            assert "404" in capsys.readouterr().err

    def test_unreachable_server_exits_2(self, capsys):
        assert main(["submit", "http://127.0.0.1:9", "--protocols", "msi"]) == 2
        assert capsys.readouterr().err  # the failure was reported


# ----------------------------------------------------------------------
class TestServeZooExample:
    def test_example_runs_reduced(self, monkeypatch, capsys):
        from tests.test_examples import load_example

        monkeypatch.setenv("REPRO_SERVE_PROTOCOLS", "msi,synapse")
        load_example("serve_zoo.py").main()
        out = capsys.readouterr().out
        assert "verified" in out
        assert "cache" in out
