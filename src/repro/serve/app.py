"""The campaign service: HTTP routes wired to scheduler, store, engine.

:class:`ServeApp` is the whole service: an ``asyncio.start_server``
front end (:mod:`repro.serve.http`), the priority-lane scheduler
(:mod:`repro.serve.scheduler`), the restart-safe campaign store
(:mod:`repro.serve.store`) and the unchanged batch engine underneath.

Routes::

    POST /campaigns                submit; 202 + campaign id
    GET  /campaigns                list campaign summaries
    GET  /campaigns/{id}           the structured BatchReport
    GET  /campaigns/{id}/events    live SSE journal stream (?offset=N)
    GET  /cache/{fingerprint}      result-cache entries for one spec
    GET  /metrics                  Prometheus text exposition
    GET  /healthz                  readiness probe (503 while draining)

Resilience: submissions pass admission control (429 + ``Retry-After``
under overload, 503 while draining), request parsing is bounded by a
read timeout (408 for slowloris clients), campaigns run under the
engine's supervised retries with backoff and the shared circuit
breaker, and ``SIGTERM``/``SIGINT`` trigger a graceful drain that
checkpoints in-flight campaigns for resumption on restart (see
``docs/SERVICE.md``).

Campaigns are journaled through the engine's own
:class:`~repro.engine.journal.RunJournal`, so ``--resume`` semantics
survive server restarts: on startup, persisted campaigns without a
final report are requeued and their reruns replay every finished job
from the journal and the result cache (see
:meth:`ServeApp.recover`).  The full API contract lives in
``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import signal
import threading
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

from ..engine.batch import run_batch
from ..engine.cache import ResultCache
from ..engine.journal import RunJournal
from ..engine.resilience import BackoffPolicy, BatchCancelled, CircuitBreaker
from ..obs import clock
from ..obs.collector import Collector
from ..obs.export import to_prometheus
from .http import (
    HttpError,
    Request,
    Response,
    json_response,
    read_request,
    sse_event,
    sse_preamble,
    text_response,
)
from .model import Campaign, CampaignRequest, CampaignState, report_to_dict
from .resilience import AdmissionError, AdmissionPolicy
from .scheduler import Scheduler, TenantBudgets, TenantCap
from .store import CampaignStore

__all__ = ["ServeApp", "ServerThread"]

_CAMPAIGN_RE = re.compile(r"^/campaigns/([A-Za-z0-9_.-]+)$")
_EVENTS_RE = re.compile(r"^/campaigns/([A-Za-z0-9_.-]+)/events$")
_CACHE_RE = re.compile(r"^/cache/([0-9a-f]{8,64})$")

#: Safety-net poll (seconds) of a live SSE stream.  Streams wake on
#: every journal line and on the campaign's terminal state; this only
#: bounds the wait should a wake ever be missed.
_SAFETY = 1.0


class _WakingJournal(RunJournal):
    """A campaign journal that wakes the campaign's SSE streams.

    ``wake`` is called (in the batch thread) after every line is
    flushed, so a stream reads the line as soon as it exists.
    """

    def __init__(
        self, path: Path, *, mode: str, wake: Callable[[], None]
    ) -> None:
        super().__init__(path, mode=mode)
        self._wake = wake

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        record = super().emit(event, **fields)
        self._wake()
        return record


class ServeApp:
    """One campaign service instance (state dir + cache + scheduler)."""

    def __init__(
        self,
        state_dir: str | Path,
        *,
        cache: ResultCache | None = None,
        workers: int = 2,
        job_workers: int = 1,
        tenants: dict[str, float] | None = None,
        preflight: str | None = None,
        collector: Collector | None = None,
        admission: AdmissionPolicy | None = None,
        read_timeout: float | None = 10.0,
        drain_grace: float = 5.0,
        backoff: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.store = CampaignStore(state_dir)
        self.cache = cache
        self.job_workers = job_workers
        #: Preflight forced onto every campaign's run options (``None``
        #: honours each request's own).
        self.preflight = preflight
        self.collector = collector if collector is not None else Collector("serve")
        #: Per-connection bound on parsing one request (slowloris guard).
        self.read_timeout = read_timeout
        #: Seconds a drained job gets to honour its soft-cancel before
        #: SIGKILL (forwarded to ``run_batch(grace=...)`` during drain).
        self.drain_grace = drain_grace
        #: Retry policy shared by every campaign this server runs.
        self.backoff = backoff
        #: Circuit breaker shared across campaigns: a spec that keeps
        #: killing workers is quarantined service-wide, not per-run.
        self.breaker = breaker
        self.scheduler = Scheduler(
            self._execute,
            workers=workers,
            budgets=TenantBudgets(tenants),
            admission=admission,
        )
        self.campaigns: dict[str, Campaign] = {}
        #: Set while the server checkpoints and exits: new submissions
        #: get 503, /healthz reports ``draining``.
        self.draining = False
        #: Engine-level drain flag, observed by every in-flight
        #: ``run_batch`` (duck-typed CancelFlag: the runners only call
        #: ``is_set()``).
        self._cancel = threading.Event()
        # Touch the serve instruments so /metrics always exposes them,
        # even before the first request or submission lands.
        self.collector.count("serve.requests", 0)
        self.collector.count("serve.campaigns", 0)
        self.collector.count("serve.cache.served", 0)
        self.collector.count("serve.admission.rejected", 0)
        self.collector.gauge("serve.queue.depth", 0)
        self.collector.gauge("serve.sse.clients", 0)
        self._sse_clients = 0
        #: The event loop serving this app (set by :meth:`start`).
        self._loop: asyncio.AbstractEventLoop | None = None
        #: One wake event per open SSE stream, by campaign id.  Only the
        #: loop thread touches it; a stream adds its event on connect
        #: and removes it on close.
        self._wakes: dict[str, set[asyncio.Event]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Recover persisted campaigns, start workers, bind the socket."""
        self._loop = asyncio.get_running_loop()
        await self.scheduler.start()
        await self.recover()
        return await asyncio.start_server(self._handle_connection, host, port)

    async def stop(self, server) -> None:
        """Close the socket and stop the worker pool."""
        server.close()
        await server.wait_closed()
        await self.scheduler.stop()

    async def drain(self) -> None:
        """Gracefully wind the service down; returns when it is safe to exit.

        Admission stops first (new submissions 503), then every
        in-flight campaign is soft-cancelled through the engine's
        cancel flag: delivered results are already journaled, cut
        campaigns come back as :class:`~repro.engine.BatchCancelled`
        and are checkpointed queued -- no report file, journal intact
        -- so a restarted server requeues and resumes them.  Queued
        campaigns never start.  Idempotent.
        """
        if self.draining:
            return
        began = clock.monotonic()
        self.draining = True
        self._cancel.set()
        await self.scheduler.drain()
        self.collector.observe(
            "serve.drain.duration", clock.monotonic() - began
        )

    async def serve_forever(self, host: str = "127.0.0.1", port: int = 8642) -> None:
        """Blocking entry point used by ``repro serve``.

        ``SIGTERM``/``SIGINT`` trigger a graceful drain: admission
        stops, in-flight campaigns checkpoint, and the call returns
        normally (exit 0) with every journal resumable.
        """
        server = await self.start(host, port)
        bound = server.sockets[0].getsockname()
        print(f"repro serve: listening on http://{bound[0]}:{bound[1]}")
        loop = asyncio.get_running_loop()
        stopping: asyncio.Future[int] = loop.create_future()

        def _request_stop(signum: int) -> None:
            if not stopping.done():
                stopping.set_result(signum)

        hooked: list[int] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, _request_stop, signum)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        try:
            async with server:
                serving = asyncio.ensure_future(server.serve_forever())
                done, _ = await asyncio.wait(
                    {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
                )
                if stopping in done:
                    name = signal.Signals(stopping.result()).name
                    print(f"repro serve: {name} received, draining...")
                    server.close()
                    await server.wait_closed()
                    await self.drain()
                    print("repro serve: drained, exiting")
                serving.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await serving
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)
            if not self.draining:
                await self.scheduler.stop()

    async def recover(self) -> None:
        """Reload persisted campaigns; requeue the unfinished ones.

        An unfinished campaign with a journal resumes: the rerun reads
        the journal's event stream (``RunJournal.follow`` drained once)
        and hands it to ``run_batch(resume=...)``, which replays
        finished jobs instead of re-verifying them.
        """
        for campaign in self.store.load_all():
            self.campaigns[campaign.id] = campaign
            if not campaign.done:
                await self.scheduler.submit(campaign)
        self._set_queue_gauge()

    # ------------------------------------------------------------------
    # Campaign execution (worker thread)
    # ------------------------------------------------------------------
    def _execute(self, campaign: Campaign, cap: TenantCap | None) -> None:
        """Run one campaign through the batch engine (in a thread)."""
        try:
            request = campaign.request
            if self.preflight is not None:
                request = replace(
                    request,
                    options=replace(request.options, preflight=self.preflight),
                )
            jobs = request.jobs(
                self.store.spec_dir(campaign),
                deadline_cap=cap.deadline if cap else None,
                max_visits_cap=cap.max_visits if cap else None,
            )
            journal_path = self.store.journal_path(campaign)
            resume_events = None
            mode = "new"
            if campaign.resumed and journal_path.exists():
                resume_events = RunJournal.follow(journal_path).poll()
                mode = "append"
            with _WakingJournal(
                journal_path, mode=mode, wake=partial(self._wake, campaign.id)
            ) as journal:
                report = run_batch(
                    jobs,
                    workers=self.job_workers,
                    cache=self.cache,
                    journal=journal,
                    resume=resume_events,
                    backoff=self.backoff,
                    breaker=self.breaker,
                    cancel=self._cancel,
                    grace=self.drain_grace,
                )
        except BatchCancelled:
            # Graceful drain: deliberately *no* report file and no
            # state change here -- the store dir keeps its journal and
            # stays resumable; the scheduler requeues the campaign.
            raise
        except Exception as exc:
            # Make the failure terminal across restarts too: a broken
            # campaign must not be requeued (and re-broken) forever.
            campaign.state = CampaignState.FAILED
            campaign.error = f"{type(exc).__name__}: {exc}"
            campaign.exit_code = 2
            campaign.finished = clock.wall()
            self.store.save_report(campaign)
            raise
        else:
            campaign.report = report_to_dict(report)
            campaign.exit_code = report.exit_code
            campaign.state = CampaignState.DONE
            campaign.finished = clock.wall()
            self.store.save_report(campaign)
            self._set_queue_gauge()
        finally:
            # Done, failed, or queued again by a drain: the streams see
            # the new state now rather than at their safety-net poll.
            self._wake(campaign.id)

    def _wake(self, campaign_id: str) -> None:
        """Wake the campaign's SSE streams; safe from any thread.

        A batch can outlive the event loop (a server stopped while it
        runs): a wake after the loop closed is dropped, never raised
        into the journal write that made it.
        """
        if self._loop is None:
            return
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._set_wakes, campaign_id)

    def _set_wakes(self, campaign_id: str) -> None:
        for event in self._wakes.get(campaign_id, ()):
            event.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _set_queue_gauge(self) -> None:
        self.collector.gauge("serve.queue.depth", self.scheduler.queue_depth())

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        began = clock.monotonic()
        try:
            try:
                request = await read_request(reader, timeout=self.read_timeout)
            except HttpError as exc:
                request = None
                writer.write(
                    json_response(
                        {"error": exc.message}, status=exc.status
                    ).encode()
                )
                await writer.drain()
            if request is not None:
                self.collector.count("serve.requests")
                response = await self._dispatch(request, writer)
                if response is not None:
                    writer.write(response.encode())
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 - the server must survive
            try:
                writer.write(
                    json_response(
                        {"error": f"{type(exc).__name__}: {exc}"}, status=500
                    ).encode()
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            self.collector.observe(
                "serve.request.latency", clock.monotonic() - began
            )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Response | None:
        """Route one request; ``None`` means the handler streamed."""
        try:
            if request.path == "/campaigns":
                if request.method == "POST":
                    return await self._post_campaign(request)
                if request.method == "GET":
                    return self._list_campaigns()
                raise HttpError(405, f"{request.method} not allowed here")
            match = _EVENTS_RE.match(request.path)
            if match:
                self._require_get(request)
                await self._stream_events(
                    self._campaign(match.group(1)),
                    request.query_int("offset", 0),
                    writer,
                )
                return None
            match = _CAMPAIGN_RE.match(request.path)
            if match:
                self._require_get(request)
                return json_response(self._campaign(match.group(1)).to_dict())
            match = _CACHE_RE.match(request.path)
            if match:
                self._require_get(request)
                return self._cache_entries(match.group(1))
            if request.path == "/metrics":
                self._require_get(request)
                return text_response(to_prometheus(self.collector))
            if request.path == "/healthz":
                self._require_get(request)
                # A draining server is alive but no longer ready: 503
                # tells load balancers to stop routing new work while
                # in-flight campaigns checkpoint.
                return json_response(
                    {
                        "ok": not self.draining,
                        "state": "draining" if self.draining else "ready",
                        "campaigns": len(self.campaigns),
                        "queue_depth": self.scheduler.queue_depth(),
                        "tenants": self.scheduler.budgets.to_dict(),
                    },
                    status=503 if self.draining else 200,
                )
            raise HttpError(404, f"no route for {request.path}")
        except HttpError as exc:
            return json_response({"error": exc.message}, status=exc.status)

    @staticmethod
    def _require_get(request: Request) -> None:
        if request.method != "GET":
            raise HttpError(405, f"{request.method} not allowed here")

    def _campaign(self, cid: str) -> Campaign:
        campaign = self.campaigns.get(cid)
        if campaign is None:
            raise HttpError(404, f"unknown campaign {cid}")
        return campaign

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _post_campaign(self, request: Request) -> Response:
        if self.draining:
            return json_response(
                {"error": "server is draining; resubmit after restart"},
                status=503,
                headers={"Retry-After": "1"},
            )
        try:
            campaign_request = CampaignRequest.from_dict(request.json())
            # Resolve early so unknown protocols and broken inline
            # specs 400 at submission instead of erroring in a worker.
            campaign_request.validate()
        except ValueError as exc:
            raise HttpError(400, str(exc))
        try:
            # Backpressure check runs *before* the store persists
            # anything: a rejected submission leaves no state behind.
            self.scheduler.check_admission(campaign_request.priority)
        except AdmissionError as exc:
            self.collector.count("serve.admission.rejected")
            return json_response(
                {"error": exc.message},
                status=exc.status,
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
        campaign = self.store.create(campaign_request)
        self.campaigns[campaign.id] = campaign
        await self.scheduler.submit(campaign)
        self.collector.count("serve.campaigns")
        self._set_queue_gauge()
        return json_response(
            {
                "id": campaign.id,
                "state": campaign.state,
                "location": f"/campaigns/{campaign.id}",
                "events": f"/campaigns/{campaign.id}/events",
            },
            status=202,
        )

    def _list_campaigns(self) -> Response:
        return json_response(
            {
                "campaigns": [
                    self.campaigns[cid].to_dict(with_report=False)
                    for cid in sorted(self.campaigns)
                ]
            }
        )

    def _cache_entries(self, fingerprint: str) -> Response:
        """Serve the result cache as a shared artifact store.

        ``fingerprint`` is a spec fingerprint (or a prefix of one, 8+
        hex chars): every cached verification of that specification --
        any options, any budgets -- is returned with its full payload
        (see :meth:`~repro.engine.cache.ResultCache.entries`).
        """
        if self.cache is None:
            raise HttpError(404, "this server runs without a result cache")
        entries = self.cache.entries(fingerprint)
        if not entries:
            raise HttpError(404, f"no cache entries for {fingerprint}")
        self.collector.count("serve.cache.served", len(entries))
        return json_response(
            {"fingerprint": fingerprint, "entries": entries}
        )

    async def _stream_events(
        self, campaign: Campaign, offset: int, writer: asyncio.StreamWriter
    ) -> None:
        """SSE-stream the campaign journal, tail-following live runs.

        Events are the journal's own JSONL lines, one per frame, each
        ``id:`` the byte offset *after* that line -- so a reconnect
        with ``?offset=<last id>`` resumes exactly where the stream
        broke and replays byte-identically.  A terminal ``end`` frame
        carries the exit code once the campaign is done and the tail
        is drained.

        The stream sleeps on its own wake event, set by the batch
        thread after each journal line and once the campaign's state is
        terminal (:meth:`_wake`).  Each pass clears the event *before*
        reading the state and the journal, so a line or state change
        that lands after the read always triggers another pass.
        """
        if offset < 0:
            raise HttpError(400, "offset must be >= 0")
        writer.write(sse_preamble())
        await writer.drain()
        self._sse_clients += 1
        self.collector.gauge("serve.sse.clients", self._sse_clients)
        wake = asyncio.Event()
        self._wakes.setdefault(campaign.id, set()).add(wake)
        try:
            follower = RunJournal.follow(
                self.store.journal_path(campaign), offset=offset
            )
            while True:
                wake.clear()
                # A terminal state is set after the journal's last line.
                done = campaign.done
                lines = follower.poll_lines()
                for raw, end_offset in lines:
                    writer.write(sse_event(raw, id=end_offset))
                if lines:
                    await writer.drain()
                if done and not follower.pending:
                    break
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(wake.wait(), _SAFETY)
            closing = json.dumps(
                {"state": campaign.state, "exit_code": campaign.exit_code},
                sort_keys=True,
            ).encode("utf-8")
            writer.write(sse_event(closing, event="end"))
            await writer.drain()
        finally:
            streams = self._wakes[campaign.id]
            streams.discard(wake)
            if not streams:
                del self._wakes[campaign.id]
            self._sse_clients -= 1
            self.collector.gauge("serve.sse.clients", self._sse_clients)
            self._set_queue_gauge()


class ServerThread:
    """Run a :class:`ServeApp` on a background thread (tests, examples).

    Context manager: entering starts an event loop thread, binds the
    server (port 0 picks a free port) and exposes ``base_url``; exiting
    shuts the loop down and joins the thread.  In-flight campaigns
    finish before the pool stops.
    """

    def __init__(
        self, app: ServeApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.base_url: str = ""
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Future[None] | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if not self.base_url:
            raise RuntimeError("server thread failed to bind")
        return self

    def drain(self, timeout: float = 60.0) -> None:
        """Drain the app from the calling thread (chaos tests).

        Same semantics as the signal path in ``serve_forever``:
        admission stops, in-flight campaigns checkpoint, queued ones
        stay persisted for the next start.
        """
        assert self._loop is not None, "server thread not started"
        asyncio.run_coroutine_threadsafe(
            self.app.drain(), self._loop
        ).result(timeout=timeout)

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(
                lambda: self._stop.set_result(None)
                if not self._stop.done()
                else None
            )
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced on __enter__
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = self._loop.create_future()
        server = await self.app.start(self.host, self.port)
        bound = server.sockets[0].getsockname()
        self.port = bound[1]
        self.base_url = f"http://{bound[0]}:{bound[1]}"
        self._ready.set()
        try:
            await self._stop
        finally:
            await self.app.stop(server)
