"""repro.obs -- tracing, metrics and profiling for the whole pipeline.

The paper's claims are quantitative (22 state visits, 5 essential
states for Illinois); making the reproduction *fast* requires knowing
where visits and wall time actually go.  This subsystem turns every
run into measurable data:

* a **span tracer** with a true zero-overhead no-op default: when no
  collector is active, ``obs.span(...)`` returns a shared do-nothing
  singleton and hot loops skip instrumentation behind a single
  ``None`` check (:func:`active`);
* **typed metrics** -- counters, gauges and histograms -- with a
  catalog of the standard names the instrumented pipeline emits
  (state visits, prune hits by kind, worklist depth, cache hits and
  misses, worker utilization, simulator bus traffic);
* **exporters** for JSON, Chrome trace-event format (Perfetto /
  ``chrome://tracing``) and the Prometheus text format;
* a single **clock** (:mod:`repro.obs.clock`) every duration in the
  repository is measured with.

Quickstart::

    from repro import verify
    from repro.obs import Collector, use_collector, render_report

    collector = Collector("illinois")
    with use_collector(collector):
        verify("illinois")
    print(render_report(collector))

The CLI front end is ``repro profile`` (see ``repro profile --help``
and ``docs/OBSERVABILITY.md``).
"""

from .._lazy import lazy_exports
from . import clock

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "collector": (
            "NOOP_SPAN",
            "Collector",
            "SpanRecord",
            "active",
            "count",
            "observe",
            "span",
            "use_collector",
        ),
        "export": (
            "EXPORT_EXTENSIONS",
            "EXPORTERS",
            "to_chrome_trace",
            "to_json",
            "to_prometheus",
        ),
        "metrics": (
            "CATALOG",
            "DEFAULT_BOUNDS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricKind",
            "MetricSpec",
            "catalog_entry",
        ),
        "profile": ("render_report",),
    },
)
__all__.append("clock")
