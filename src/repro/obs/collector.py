"""Span tracer and metric collector with a zero-overhead no-op default.

The design goal is that an *uninstrumented* run pays nothing: every
instrumentation site either

* calls :func:`active` **once** and branches on ``None`` (the pattern
  used in hot loops -- one local-variable check per site), or
* calls the module-level :func:`span` / :func:`count` helpers, which
  reduce to a single context-variable read and return a shared
  do-nothing singleton when no collector is installed.

A :class:`Collector` becomes visible to downstream code through the
context-local :func:`use_collector` context manager -- context-local
(``contextvars``) rather than global so concurrent runs in different
threads or tasks cannot observe each other's collector.

Spans form a tree: the collector keeps an open-span stack, so spans
started while another is open record it as their parent.  Exiting a
span is exception-safe -- the ``with`` protocol closes it and stamps
the exception type into the record.  Hot paths that cannot afford a
context-manager call per iteration measure manually and call
:meth:`Collector.add_span` with an explicit start time.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import Counter, Gauge, Histogram

__all__ = [
    "SpanRecord",
    "Collector",
    "NOOP_SPAN",
    "active",
    "use_collector",
    "span",
    "count",
    "observe",
]


@dataclass
class SpanRecord:
    """One finished (or still open) span.

    ``start`` is seconds on the collector's monotonic clock *relative
    to the collector's epoch*, so exported timelines always begin at
    zero.  ``duration`` is ``None`` while the span is open.
    """

    name: str
    start: float
    index: int
    parent: int | None = None
    duration: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering (used by the JSON exporter)."""
        record: dict[str, Any] = {
            "name": self.name,
            "start": round(self.start, 9),
            "duration": (
                round(self.duration, 9) if self.duration is not None else None
            ),
            "index": self.index,
            "parent": self.parent,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.error is not None:
            record["error"] = self.error
        return record


class _Span:
    """Context-manager handle over one recording span."""

    __slots__ = ("_collector", "_record")

    def __init__(self, collector: "Collector", record: SpanRecord) -> None:
        self._collector = collector
        self._record = record

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes to the span while it is open."""
        self._record.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._collector._close(self._record, exc_type)
        return False


class _NoopSpan:
    """Shared do-nothing span used when no collector is active."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


#: The singleton no-op span: re-entrant, stateless, shared by every
#: disabled instrumentation site.
NOOP_SPAN = _NoopSpan()


class Collector:
    """Accumulates spans, counters, gauges and histograms for one run.

    Parameters
    ----------
    name:
        Label of the profiled activity (shows up in exports).
    clock_fn / wall_fn:
        Injectable time sources.  The defaults are the pipeline clock
        (:mod:`repro.obs.clock`); golden tests inject deterministic
        callables instead.
    """

    def __init__(
        self,
        name: str = "run",
        *,
        clock_fn: Callable[[], float] = clock.monotonic,
        wall_fn: Callable[[], float] = clock.wall,
    ) -> None:
        self.name = name
        self._clock = clock_fn
        self.epoch = clock_fn()
        self.created_wall = wall_fn()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._stack: list[int] = []

    # -- spans ----------------------------------------------------------
    def now(self) -> float:
        """Current reading of the collector's monotonic clock."""
        return self._clock()

    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a span; close it with the ``with`` protocol."""
        record = SpanRecord(
            name=name,
            start=self._clock() - self.epoch,
            index=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record.index)
        return _Span(self, record)

    def _close(self, record: SpanRecord, exc_type: Any) -> None:
        record.duration = self._clock() - self.epoch - record.start
        if exc_type is not None:
            record.error = exc_type.__name__
        # Closing out of order (a leaked inner span) must not corrupt
        # the ancestry of later spans: pop through the leaked entries.
        while self._stack and self._stack[-1] >= record.index:
            self._stack.pop()

    def add_span(
        self,
        name: str,
        started: float,
        *,
        ended: float | None = None,
        **attrs: Any,
    ) -> SpanRecord:
        """Record an already-measured span (hot-path manual timing).

        ``started``/``ended`` are raw readings of the collector's
        clock (:meth:`now`); the parent is whatever span is currently
        open.
        """
        ended = self._clock() if ended is None else ended
        record = SpanRecord(
            name=name,
            start=started - self.epoch,
            index=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            duration=ended - started,
            attrs=attrs,
        )
        self.spans.append(record)
        return record

    # -- metrics --------------------------------------------------------
    # The instruments (and the metric catalog beside them) load with
    # the first one created: an uninstrumented run never compiles them.
    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* (created on first use)."""
        counter = self.counters.get(name)
        if counter is None:
            from .metrics import Counter

            counter = self.counters[name] = Counter()
        counter.add(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* (created on first use)."""
        gauge = self.gauges.get(name)
        if gauge is None:
            from .metrics import Gauge

            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        """Record one observation into histogram *name*.

        ``bounds`` only takes effect when the histogram is created by
        this call; later observations reuse the existing buckets.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            from .metrics import Histogram

            histogram = self.histograms[name] = (
                Histogram(bounds=bounds) if bounds is not None else Histogram()
            )
        histogram.observe(value)

    # -- views ----------------------------------------------------------
    def span_totals(self) -> dict[str, tuple[int, float]]:
        """Per-name aggregate: ``{name: (count, total_seconds)}``.

        Open spans (no duration yet) contribute to the count only.
        """
        totals: dict[str, tuple[int, float]] = {}
        for record in self.spans:
            count, total = totals.get(record.name, (0, 0.0))
            totals[record.name] = (
                count + 1,
                total + (record.duration or 0.0),
            )
        return totals

    def metrics_snapshot(self) -> dict[str, Any]:
        """Flat JSON-able view of every instrument's current value."""
        snapshot: dict[str, Any] = {
            name: counter.value for name, counter in sorted(self.counters.items())
        }
        snapshot.update(
            (name, gauge.value) for name, gauge in sorted(self.gauges.items())
        )
        for name, histogram in sorted(self.histograms.items()):
            snapshot[name] = {
                "count": histogram.count,
                "sum": round(histogram.total, 9),
                "min": histogram.min,
                "max": histogram.max,
            }
        return snapshot

    def snapshot(self) -> dict[str, Any]:
        """Complete JSON-able view: identity, spans and instruments."""
        return {
            "name": self.name,
            "created": round(self.created_wall, 3),
            "spans": [record.to_dict() for record in self.spans],
            "counters": {
                name: counter.value
                for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "bounds": list(histogram.bounds),
                    "buckets": list(histogram.buckets),
                    "count": histogram.count,
                    "sum": round(histogram.total, 9),
                    "min": histogram.min,
                    "max": histogram.max,
                }
                for name, histogram in sorted(self.histograms.items())
            },
        }


#: The context-local active collector (None = instrumentation off).
_ACTIVE: ContextVar[Collector | None] = ContextVar(
    "repro_obs_collector", default=None
)


def active() -> Collector | None:
    """The collector instrumented code should report to, if any.

    Hot loops call this once up front and branch on ``None`` -- that
    single check is the entire disabled-mode cost.
    """
    return _ACTIVE.get()


@contextmanager
def use_collector(collector: Collector) -> Iterator[Collector]:
    """Make *collector* the active collector within the block."""
    token = _ACTIVE.set(collector)
    try:
        yield collector
    finally:
        _ACTIVE.reset(token)


def span(name: str, **attrs: Any) -> _Span | _NoopSpan:
    """Open a span on the active collector (shared no-op when none)."""
    collector = _ACTIVE.get()
    if collector is None:
        return NOOP_SPAN
    return collector.span(name, **attrs)


def count(name: str, amount: float = 1.0) -> None:
    """Increment a counter on the active collector (no-op when none)."""
    collector = _ACTIVE.get()
    if collector is not None:
        collector.count(name, amount)


def observe(name: str, value: float) -> None:
    """Histogram observation on the active collector (no-op when none)."""
    collector = _ACTIVE.get()
    if collector is not None:
        collector.observe(name, value)
