"""Service-level chaos: the campaign service under injected disasters.

The engine-level chaos suite (tests/test_chaos.py) proves the batch
engine isolates, retries and resumes; this suite points the same
deterministic fault plans at the *service*: a worker killed
mid-campaign, an SSE connection torn mid-stream, overload at the
admission gate, a slowloris client, a damaged state directory, and the
headline drill -- graceful drain on shutdown, checkpointing in-flight
campaigns so a restarted server finishes them with the same verdicts.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.engine import BackoffPolicy, CircuitBreaker, ResultCache, RunJournal
from repro.engine.faults import Fault, FaultPlan, corrupt_store_file, inject
from repro.serve import AdmissionPolicy, ServeApp, ServerThread, client
from repro.serve.model import CampaignRequest

#: A fault plan is applied to every campaign's jobs while this is True.
_CHAOS = {"plan": None, "marker_dir": None}

_REAL_JOBS = CampaignRequest.jobs


def _chaotic_jobs(self, spec_dir, **caps):
    jobs = _REAL_JOBS(self, spec_dir, **caps)
    if _CHAOS["plan"] is None:
        return jobs
    return inject(jobs, _CHAOS["plan"], marker_dir=_CHAOS["marker_dir"])


@pytest.fixture
def chaos(monkeypatch):
    """Injects a FaultPlan into every campaign's job list."""
    monkeypatch.setattr(CampaignRequest, "jobs", _chaotic_jobs)

    def arm(plan, marker_dir=None):
        _CHAOS["plan"] = plan
        _CHAOS["marker_dir"] = marker_dir

    yield arm
    _CHAOS["plan"] = None
    _CHAOS["marker_dir"] = None


def _statuses(final: dict) -> dict[str, str]:
    return {r["label"]: r["status"] for r in final["report"]["results"]}


def _raw_get(base_url: str, path: str):
    """(status, headers, body) without raising on non-2xx."""
    url = urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


def _wait_for(predicate, *, timeout: float = 30.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within the timeout")


# ----------------------------------------------------------------------
class TestServiceChaosRoundTrip:
    def test_killed_worker_and_torn_stream_change_nothing(self, tmp_path, chaos):
        """The acceptance drill: one worker killed mid-campaign plus one
        torn SSE client, identical verdicts to the fault-free run."""
        protocols = ["msi", "illinois", "moesi"]

        # Fault-free reference run.
        baseline_app = ServeApp(tmp_path / "ref-state", job_workers=2)
        with ServerThread(baseline_app) as server:
            accepted = client.submit(server.base_url, {"protocols": protocols})
            baseline = client.watch(server.base_url, accepted["id"])
        assert baseline["exit_code"] == 0

        # Chaotic run: job 1's first worker attempt dies (os._exit, the
        # shape of a segfault/OOM-kill); the supervised retry backs off
        # and re-verifies.  Seeded plan: same disaster every run.
        plan = FaultPlan({1: Fault("crash", once=True)}, seed=9)
        chaos(plan, marker_dir=tmp_path / "markers")
        backoff = BackoffPolicy(base=0.01, jitter=0.5, seed=1)
        app = ServeApp(
            tmp_path / "state",
            cache=ResultCache(tmp_path / "cache"),
            job_workers=2,
            backoff=backoff,
            breaker=CircuitBreaker(),
        )
        with ServerThread(app) as server:
            accepted = client.submit(server.base_url, {"protocols": protocols})
            cid = accepted["id"]

            # Tear one SSE client mid-stream, then resume from the last
            # seen offset -- the reconnect contract under test.
            sock, pre = self._read_some_frames(server.base_url, cid, 3)
            sock.close()  # abrupt tear, no goodbye
            post: list[tuple[int, str]] = []
            final = client.watch(
                server.base_url,
                cid,
                offset=pre[-1][0],
                on_event=lambda e: post.append((e.id, e.data)),
            )

            # The full stream, replayed from 0, is exactly the torn
            # prefix plus the reconnected suffix: nothing lost, nothing
            # duplicated.
            full: list[tuple[int, str]] = []
            client.watch(
                server.base_url, cid, on_event=lambda e: full.append((e.id, e.data))
            )
            assert full == pre + post

        # Verdict equivalence with the fault-free run.
        assert final["exit_code"] == baseline["exit_code"] == 0
        assert _statuses(final) == _statuses(baseline)

        # The journal shows the disaster and the deterministic recovery.
        events = RunJournal.read(app.store.journal_path(cid))
        kinds = [e["event"] for e in events]
        assert "job_crash" in kinds
        [retry] = [e for e in events if e["event"] == "job_retry"]
        fingerprint = next(
            e["fingerprint"]
            for e in events
            if e["event"] == "job_start" and e["job"] == retry["job"]
        )
        assert retry["delay"] == pytest.approx(
            backoff.delay(fingerprint, 2), abs=1e-6
        )

    @staticmethod
    def _read_some_frames(base_url: str, cid: str, n: int):
        """Open a raw SSE connection and read the first *n* frames."""
        url = urlsplit(base_url)
        sock = socket.create_connection((url.hostname, url.port), timeout=30)
        sock.sendall(
            f"GET /campaigns/{cid}/events?offset=0 HTTP/1.1\r\n"
            f"Host: {url.hostname}\r\n\r\n".encode("ascii")
        )
        fp = sock.makefile("rb")
        status_line = fp.readline().decode("ascii")
        assert " 200 " in status_line, status_line
        while fp.readline().rstrip(b"\r\n"):
            pass  # skip response headers
        frames: list[tuple[int, str]] = []
        fields: dict[str, str] = {}
        while len(frames) < n:
            line = fp.readline().decode("utf-8").rstrip("\r\n")
            if line:
                name, _, value = line.partition(":")
                fields[name.strip()] = value.removeprefix(" ")
                continue
            if fields and "id" in fields:
                frames.append((int(fields["id"]), fields.get("data", "")))
            fields = {}
        return sock, frames


# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_drain_checkpoints_and_restart_resumes(self, tmp_path, chaos):
        # Slow cooperative jobs keep the campaign in flight long enough
        # to drain it mid-run deterministically.  The slow fault sleeps
        # in every react() call, so the campaign is pinned to the
        # interpreter, whose react() calls all happen under the guard
        # (kernel lowering probes every present-set first).
        protocols = ["msi", "illinois", "moesi", "berkeley"]
        chaos(FaultPlan({i: Fault("slow", delay=0.05) for i in range(4)}))
        cache = ResultCache(tmp_path / "cache")
        app = ServeApp(
            tmp_path / "state", cache=cache, job_workers=2, drain_grace=10.0
        )
        with ServerThread(app) as server:
            accepted = client.submit(
                server.base_url, {"protocols": protocols, "backend": "interp"}
            )
            cid = accepted["id"]
            journal_path = app.store.journal_path(cid)
            ready = client.get_json(server.base_url, "/healthz")
            assert ready["state"] == "ready" and ready["ok"]

            # Wait until at least one job has finished, then pull the
            # plug while the rest are mid-flight.
            _wait_for(
                lambda: journal_path.exists()
                and "job_finish" in journal_path.read_text(encoding="utf-8")
            )
            began = time.monotonic()
            server.drain()
            drain_seconds = time.monotonic() - began
            assert drain_seconds < 15.0  # soft-cancel, not a hang

            # A draining server reports not-ready and refuses new work
            # with 503 + Retry-After.
            status, _, body = _raw_get(server.base_url, "/healthz")
            assert status == 503
            assert json.loads(body)["state"] == "draining"
            with pytest.raises(client.ServiceError) as excinfo:
                client.submit(
                    server.base_url, {"protocols": ["msi"]}, max_retries=0
                )
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 1.0

            # The in-flight campaign was checkpointed, not failed: back
            # on the queue, journal aborted-but-resumable, no report.
            doc = client.get_json(server.base_url, f"/campaigns/{cid}")
            assert doc["state"] == "queued"
            assert app.collector.histograms["serve.drain.duration"].count == 1

        events = RunJournal.read(journal_path)
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "run_aborted"
        # At least one job finished cleanly before the plug was pulled
        # and at least one was soft-cancelled mid-flight by the drain.
        finished_clean = sum(
            1
            for e in events
            if e["event"] == "job_finish" and e.get("status") == "verified"
        )
        assert finished_clean >= 1
        assert any(
            e["event"] == "job_cancel" and e.get("reason") == "drain"
            for e in events
        )
        assert not (app.store.dir_for(cid) / "report.json").exists()

        # Restart over the same state dir (faults still armed, so the
        # rerun materializes identical jobs): recovery requeues and
        # every checkpointed job comes back as a cache hit.
        reborn = ServeApp(tmp_path / "state", cache=cache, job_workers=2)
        with ServerThread(reborn) as server:
            final = client.watch(server.base_url, cid)
        assert final["resumed"] is True
        assert final["state"] == "done" and final["exit_code"] == 0
        counts = final["report"]["counts"]
        assert counts["jobs"] == len(protocols)
        assert counts["verified"] == len(protocols)
        assert counts["cache_hits"] >= finished_clean  # zero hits lost
        combined = [e["event"] for e in RunJournal.read(journal_path)]
        assert combined.count("run_aborted") == 1
        assert combined.count("run_resume") == 1
        assert combined.count("run_end") == 1

    def test_drain_is_idempotent_and_empty_drain_is_fast(self, tmp_path):
        app = ServeApp(tmp_path / "state")
        with ServerThread(app) as server:
            server.drain()
            server.drain()  # second call is a no-op
            status, _, _ = _raw_get(server.base_url, "/healthz")
            assert status == 503
            _, _, text = _raw_get(server.base_url, "/metrics")
            assert "repro_serve_drain_duration_count 1" in text
        assert app.collector.histograms["serve.drain.duration"].count == 1


# ----------------------------------------------------------------------
class TestSigtermSubprocess:
    def test_sigterm_drains_exits_zero_and_restart_finishes(self, tmp_path):
        """Kill a real `repro serve` process mid-queue: exit 0, then a
        restarted server finishes every campaign with clean verdicts."""
        state, cache_dir = tmp_path / "state", tmp_path / "cache"
        protocols = [
            "write-once", "synapse", "berkeley", "illinois", "firefly",
            "dragon", "msi", "moesi", "mesif", "lock-msi",
        ]

        proc, base_url = self._start_server(state, cache_dir)
        try:
            ids = [
                client.submit(
                    base_url, {"protocols": protocols, "mutants": True}
                )["id"]
                for _ in range(4)
            ]
            # Let some real work land first, then kill mid-queue.
            _wait_for(
                lambda: any(
                    c["state"] == "done"
                    for c in client.get_json(base_url, "/campaigns")["campaigns"]
                ),
                timeout=60.0,
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0, proc.stdout.read()
            out = proc.stdout.read()
            assert "SIGTERM received, draining" in out
            assert "drained, exiting" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        # Restart over the same state: every campaign -- finished,
        # drained or never started -- converges to done, all four
        # identical submissions agree on the verdicts (mutant campaigns
        # legitimately exit 1: killed mutants are violations), and the
        # probe reports ready.
        proc, base_url = self._start_server(state, cache_dir)
        try:
            finals = [client.watch(base_url, cid, timeout=120.0) for cid in ids]

            def verdicts(final):
                # cache_hits legitimately differ between the four runs
                # (whoever verifies first populates the shared cache).
                return {
                    k: v
                    for k, v in final["report"]["counts"].items()
                    if k != "cache_hits"
                }

            for final in finals:
                assert final["state"] == "done", final["id"]
                assert final["error"] is None, final["id"]
                assert final["exit_code"] == finals[0]["exit_code"]
                assert verdicts(final) == verdicts(finals[0])
            assert finals[0]["exit_code"] in (0, 1)
            assert finals[0]["report"]["counts"]["errors"] == 0
            health = client.get_json(base_url, "/healthz")
            assert health["state"] == "ready"
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)

    @staticmethod
    def _start_server(state: Path, cache_dir: Path):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--port", "0",
                "--state-dir", str(state),
                "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(root),
        )
        line = proc.stdout.readline()
        assert "listening on" in line, line
        base_url = line.strip().rsplit(" ", 1)[-1]
        return proc, base_url


# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_overload_is_429_with_retry_after(self, tmp_path, chaos):
        # One slow campaign occupies the single worker, one more fills
        # the bounded lane; the third submission must be refused -- and
        # never persisted.  Pinned to the interpreter, as in the drain
        # test: the slow fault's timing follows its react() calls.
        chaos(FaultPlan({0: Fault("slow", delay=0.05)}))
        interp = {"backend": "interp"}
        app = ServeApp(
            tmp_path / "state",
            workers=1,
            job_workers=2,
            admission=AdmissionPolicy(max_lane_depth=1, retry_after=0.25),
        )
        with ServerThread(app) as server:
            running = client.submit(
                server.base_url, {"protocols": ["msi"], **interp}
            )
            _wait_for(
                lambda: client.get_json(
                    server.base_url, f"/campaigns/{running['id']}"
                )["state"]
                != "queued"
            )
            queued = client.submit(
                server.base_url, {"protocols": ["illinois"], **interp}
            )
            with pytest.raises(client.ServiceError) as excinfo:
                client.submit(
                    server.base_url,
                    {"protocols": ["moesi"], **interp},
                    max_retries=0,
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.25
            assert "lane is full" in str(excinfo.value)
            persisted = {
                p.name for p in (tmp_path / "state" / "campaigns").iterdir()
            }
            assert persisted == {running["id"], queued["id"]}
            status, _, text = _raw_get(server.base_url, "/metrics")
            assert status == 200
            assert "repro_serve_admission_rejected_total 1" in text
            # Let the queue flush so shutdown is clean.
            client.watch(server.base_url, queued["id"])

    def test_client_waits_out_retry_after(self, monkeypatch):
        answers = iter(
            [
                client.ServiceError(429, "full", retry_after=0.125),
                client.ServiceError(503, "draining", retry_after=0.5),
                {"id": "c0001-ok"},
            ]
        )

        def fake_request(*args, **kwargs):
            answer = next(answers)
            if isinstance(answer, Exception):
                raise answer
            return answer

        slept: list[float] = []
        monkeypatch.setattr(client, "_request", fake_request)
        monkeypatch.setattr(client.time, "sleep", slept.append)
        accepted = client.submit("http://x", {"protocols": ["msi"]})
        assert accepted["id"] == "c0001-ok"
        assert slept == [0.125, 0.5]

    def test_client_gives_up_after_max_retries(self, monkeypatch):
        def always_full(*args, **kwargs):
            raise client.ServiceError(429, "full", retry_after=0.01)

        slept: list[float] = []
        monkeypatch.setattr(client, "_request", always_full)
        monkeypatch.setattr(client.time, "sleep", slept.append)
        with pytest.raises(client.ServiceError) as excinfo:
            client.submit("http://x", {"protocols": ["msi"]}, max_retries=2)
        assert excinfo.value.status == 429
        assert len(slept) == 2


# ----------------------------------------------------------------------
class TestSlowloris:
    def test_trickling_client_gets_408(self, tmp_path):
        app = ServeApp(tmp_path / "state", read_timeout=0.3)
        with ServerThread(app) as server:
            url = urlsplit(server.base_url)
            with socket.create_connection(
                (url.hostname, url.port), timeout=30
            ) as sock:
                sock.sendall(b"GET /healthz HTT")  # ...and never finish
                response = sock.makefile("rb").read().decode("utf-8")
            assert response.startswith("HTTP/1.1 408 ")
            assert "not received within" in response
            # The server survived the pinned connection just fine.
            health = client.get_json(server.base_url, "/healthz")
            assert health["ok"]


# ----------------------------------------------------------------------
class TestDamagedStore:
    def test_damaged_campaign_is_skipped_with_warning(self, tmp_path):
        state = tmp_path / "state"
        app = ServeApp(state)
        with ServerThread(app) as server:
            good = client.submit(server.base_url, {"protocols": ["msi"]})
            client.watch(server.base_url, good["id"])
            bad = client.submit(server.base_url, {"protocols": ["illinois"]})
            client.watch(server.base_url, bad["id"])
        corrupt_store_file(state / "campaigns" / bad["id"] / "campaign.json")

        with pytest.warns(RuntimeWarning, match="damaged campaign"):
            reborn = ServeApp(state)
            with ServerThread(reborn) as server:
                listing = client.get_json(server.base_url, "/campaigns")
        assert [c["id"] for c in listing["campaigns"]] == [good["id"]]
