"""Campaign scheduler: priority lanes, a worker pool, tenant budgets.

The scheduler is deliberately small: an asyncio worker pool pulling
campaigns from per-priority FIFO lanes (``high`` before ``normal``
before ``low`` -- a worker never takes a lower lane while a higher one
has work), with per-tenant wall-clock allotments enforced through the
engine's existing cooperative :class:`~repro.engine.guard.Guard`.

Tenant enforcement works by *clamping job budgets*, not by refusing
work: a tenant with remaining allotment ``r`` gets every job's
``deadline`` capped at ``r`` (the worker-side Guard is what actually
trips it), and a tenant whose allotment is exhausted still gets its
campaigns dispatched -- with a token budget (1 ms deadline, 1 visit)
that the Guard exhausts immediately, so results come back as
structured ``PARTIAL``, never as starvation or an opaque refusal.
Campaign execution itself runs in a thread (``asyncio.to_thread``)
because :func:`~repro.engine.batch.run_batch` is synchronous; the
event loop stays free to serve requests and event streams.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable

from ..engine.resilience import BatchCancelled
from ..obs import clock
from .model import PRIORITIES, Campaign, CampaignState
from .resilience import AdmissionPolicy

__all__ = ["TenantCap", "TenantBudgets", "Scheduler"]

#: Token deadline for exhausted tenants: long enough to construct a
#: Guard, short enough that its first poll trips.
MIN_DEADLINE = 0.001


class TenantCap:
    """The budget clamp one tenant's jobs run under right now."""

    __slots__ = ("deadline", "max_visits")

    def __init__(
        self, deadline: float | None = None, max_visits: int | None = None
    ) -> None:
        self.deadline = deadline
        self.max_visits = max_visits


class TenantBudgets:
    """Wall-clock allotments per tenant (seconds of campaign run time).

    Tenants without an allotment are unlimited.  Spend is charged from
    the scheduler's own measurement of each campaign's execution time,
    on the same monotonic clock the Guard uses.
    """

    def __init__(self, allotments: dict[str, float] | None = None) -> None:
        self.allotments = dict(allotments or {})
        for tenant, seconds in self.allotments.items():
            if seconds <= 0:
                raise ValueError(
                    f"tenant {tenant!r} allotment must be positive, "
                    f"got {seconds}"
                )
        self.spent: dict[str, float] = {}

    def remaining(self, tenant: str) -> float | None:
        """Seconds left for a tenant; ``None`` means unlimited."""
        allotment = self.allotments.get(tenant)
        if allotment is None:
            return None
        return max(allotment - self.spent.get(tenant, 0.0), 0.0)

    def charge(self, tenant: str, seconds: float) -> None:
        """Account one campaign's execution time to its tenant."""
        self.spent[tenant] = self.spent.get(tenant, 0.0) + max(seconds, 0.0)

    def cap(self, tenant: str) -> TenantCap | None:
        """The clamp for a tenant's next campaign (``None``: unclamped).

        Exhausted tenants get the token budget: dispatch still happens,
        the Guard trips on the first poll, and every job degrades to a
        structured partial result instead of starving in the queue.
        """
        remaining = self.remaining(tenant)
        if remaining is None:
            return None
        if remaining <= 0:
            return TenantCap(deadline=MIN_DEADLINE, max_visits=1)
        return TenantCap(deadline=remaining)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot for diagnostics endpoints."""
        return {
            tenant: {
                "allotment": allotment,
                "spent": round(self.spent.get(tenant, 0.0), 4),
                "remaining": round(self.remaining(tenant) or 0.0, 4),
            }
            for tenant, allotment in sorted(self.allotments.items())
        }


class Scheduler:
    """Shard campaigns across an asyncio worker pool with priority lanes.

    ``execute(campaign, cap)`` is the synchronous campaign runner
    (supplied by :class:`~repro.serve.app.ServeApp`; tests inject
    stubs); it is called in a worker thread.  Exceptions it raises mark
    the campaign ``failed`` -- one broken campaign never takes a worker
    down.
    """

    def __init__(
        self,
        execute: Callable[[Campaign, TenantCap | None], None],
        *,
        workers: int = 2,
        budgets: TenantBudgets | None = None,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.execute = execute
        self.workers = workers
        self.budgets = budgets if budgets is not None else TenantBudgets()
        #: Backpressure bounds checked by :meth:`check_admission`
        #: (``None`` admits everything, the pre-PR-9 behaviour).
        self.admission = admission
        self.lanes: dict[str, deque[Campaign]] = {
            lane: deque() for lane in PRIORITIES
        }
        self.executed: list[str] = []  # campaign ids, completion order
        #: Campaigns currently executing on the worker pool.
        self.in_flight = 0
        self._wakeup: asyncio.Condition | None = None
        self._tasks: list[asyncio.Task[None]] = []
        self._stopping = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker pool on the running event loop."""
        self._wakeup = asyncio.Condition()
        self._stopping = False
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Stop the pool; campaigns mid-execution finish first."""
        self._stopping = True
        if self._wakeup is not None:
            async with self._wakeup:
                self._wakeup.notify_all()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    async def drain(self) -> None:
        """Graceful variant of :meth:`stop`: no task cancellation.

        Workers stop taking queued campaigns (those stay on their
        lanes -- persisted, they resume on restart) and the call
        returns once every in-flight campaign has come back, which the
        caller arranges by setting the engine-level cancel flag first
        (see :meth:`repro.serve.app.ServeApp.drain`).
        """
        self._stopping = True
        if self._wakeup is not None:
            async with self._wakeup:
                self._wakeup.notify_all()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Campaigns waiting in all lanes (excluding running ones)."""
        return sum(len(lane) for lane in self.lanes.values())

    def check_admission(self, priority: str) -> None:
        """Backpressure gate for *new* submissions.

        Raises :class:`~repro.serve.resilience.AdmissionError` when the
        target lane or the worker pool is saturated.  Only the HTTP
        submission path calls this -- :meth:`submit` itself stays
        unbounded so restart recovery can always requeue persisted
        campaigns, however full the lanes are.
        """
        if self.admission is not None:
            self.admission.admit(
                lane=priority,
                lane_depth=len(self.lanes[priority]),
                in_flight=self.in_flight,
            )

    async def submit(self, campaign: Campaign) -> None:
        """Enqueue a campaign on its priority lane."""
        assert self._wakeup is not None, "scheduler not started"
        async with self._wakeup:
            self.lanes[campaign.request.priority].append(campaign)
            self._wakeup.notify()

    def _take(self) -> Campaign | None:
        for lane in PRIORITIES:
            queue = self.lanes[lane]
            if queue:
                return queue.popleft()
        return None

    async def _worker(self) -> None:
        assert self._wakeup is not None
        while True:
            async with self._wakeup:
                # A stopping/draining pool takes nothing new: queued
                # campaigns stay on their lanes (persisted campaigns
                # resume after a restart).
                campaign = None if self._stopping else self._take()
                while campaign is None and not self._stopping:
                    await self._wakeup.wait()
                    campaign = self._take()
            if campaign is None:
                return
            await self._run(campaign)

    async def _run(self, campaign: Campaign) -> None:
        campaign.state = CampaignState.RUNNING
        campaign.started = clock.wall()
        cap = self.budgets.cap(campaign.request.tenant)
        began = clock.monotonic()
        self.in_flight += 1
        try:
            await asyncio.to_thread(self.execute, campaign, cap)
            campaign.state = CampaignState.DONE
        except BatchCancelled:
            # Graceful drain cut the campaign short.  Not a failure:
            # its journal is resumable and its store dir has no report,
            # so a restarted server requeues and finishes it.
            campaign.state = CampaignState.QUEUED
            campaign.started = None
        except Exception as exc:  # noqa: BLE001 - worker isolation
            campaign.state = CampaignState.FAILED
            campaign.error = f"{type(exc).__name__}: {exc}"
            campaign.exit_code = 2
        finally:
            self.in_flight -= 1
            self.budgets.charge(
                campaign.request.tenant, clock.monotonic() - began
            )
            if campaign.state != CampaignState.QUEUED:
                campaign.finished = clock.wall()
            self.executed.append(campaign.id)
