"""Observability for the single-controller runtime: spans, metrics, exporters.

Three layers, all fed from the same seams the fault gate established:

* :class:`SpanTracer` / :class:`Span` — structured span tracing of every
  controller dispatch, transfer-protocol reshard, HybridEngine transition,
  checkpoint save/restore, and fault-recovery phase, with simulated-clock
  timing and dataflow links from future provenance.
* :class:`MetricsRegistry` — counters, gauges, and histograms fed by the
  cluster (memory high-water marks, link bytes), the fault gate (retries,
  timeouts, worker losses), and the RLHF pipeline (per-role latencies,
  tokens generated).
* Exporters — Chrome ``trace_event`` JSON (one track per pool, Figure 3),
  Prometheus text, and the per-iteration summary in
  :mod:`repro.runtime.report`.
"""

from repro.observability.collect import (
    collect_cluster_metrics,
    collect_fleet_metrics,
    collect_system_metrics,
    collect_traffic_metrics,
)
from repro.observability.export import (
    chrome_trace,
    pool_fractions_from_trace,
    render_chrome_trace,
    span_trace_events,
    timeline_trace_events,
    write_chrome_trace,
    write_prometheus,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.observability.spans import NULL_TRACER, Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "Span",
    "SpanTracer",
    "chrome_trace",
    "collect_cluster_metrics",
    "collect_fleet_metrics",
    "collect_system_metrics",
    "collect_traffic_metrics",
    "pool_fractions_from_trace",
    "render_chrome_trace",
    "span_trace_events",
    "timeline_trace_events",
    "write_chrome_trace",
    "write_prometheus",
]
