"""Observability layer: metrics registry, telemetry sampling, distributed
transaction spans, and Chrome-trace/JSON exporters.

Entry point: create an :class:`Observer`, ``install(cluster)`` before the
workload, run, then export::

    from repro.obs import Observer, write_chrome_trace

    obs = Observer(sim).install(cluster)
    ...  # run the workload
    write_chrome_trace("trace.json", obs)

Everything is simulated-time only and deterministic; with no Observer
installed the instrumentation hooks cost a single predicate per event.
See ``docs/OBSERVABILITY.md``.
"""

from .attrib import (ATTRIB_PHASES, AttributionResult, LatencyAttributor,
                     TxnAttribution, attribute_bench)
from .events import EventLog, InstantEvent, SpanEvent
from .export import (chrome_trace_events, diff_metrics, dumps_chrome_trace,
                     format_metrics_diff, metrics_to_dict,
                     print_metrics_summary, write_chrome_trace,
                     write_metrics_json)
from .observer import Observer
from .registry import MetricsRegistry, Sampler

__all__ = [
    "Observer",
    "ATTRIB_PHASES",
    "AttributionResult",
    "LatencyAttributor",
    "TxnAttribution",
    "attribute_bench",
    "diff_metrics",
    "format_metrics_diff",
    "MetricsRegistry",
    "Sampler",
    "EventLog",
    "SpanEvent",
    "InstantEvent",
    "chrome_trace_events",
    "dumps_chrome_trace",
    "write_chrome_trace",
    "metrics_to_dict",
    "write_metrics_json",
    "print_metrics_summary",
]
