"""Exporters: Chrome ``trace_event`` JSON and Prometheus text dumps.

The Chrome exporter emits two process tracks, both loadable in
``chrome://tracing`` / Perfetto:

* **pid 0 — the timeline replay**: one thread per resource pool, mirroring
  the per-pool Gantt rows of Figure 3.  These events come from
  :class:`~repro.runtime.timeline.Timeline`, so per-pool busy/idle read off
  the trace file matches the ``Timeline`` accounting exactly
  (:func:`pool_fractions_from_trace` recomputes them from the exported JSON
  for verification).
* **pid 1 — runtime spans**: the :class:`~repro.observability.SpanTracer`
  record — dispatches, protocol reshards, HybridEngine transitions,
  checkpoint writes, retry backoffs, and recovery phases — nested by parent
  linkage, with dataflow provenance drawn as flow arrows.

All fields are emitted in a fixed order and times are rounded to a fixed
precision, so the output is byte-stable for golden-file tests.
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.serialization import json_safe

if TYPE_CHECKING:  # avoid a runtime cycle with repro.runtime.timeline
    from repro.observability.spans import Span
    from repro.runtime.timeline import Timeline

#: Microseconds per simulated second (trace_event timestamps are in µs).
_US = 1e6
#: pid of the Figure 3 timeline-replay track.
TIMELINE_PID = 0
#: pid of the runtime-span track.
SPANS_PID = 1


def _us(seconds: float) -> float:
    """Simulated seconds -> µs, rounded for byte-stable output."""
    return round(seconds * _US, 3)


def _meta(name: str, pid: int, tid: int, value: str) -> Dict[str, Any]:
    return {
        "name": name,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": value},
    }


def timeline_trace_events(
    timeline: "Timeline", pid: int = TIMELINE_PID
) -> List[Dict[str, Any]]:
    """Complete (``ph: X``) events, one thread per pool (Figure 3 rows)."""
    pools = timeline.pools()
    tid_of = {pool: i for i, pool in enumerate(pools)}
    events: List[Dict[str, Any]] = [
        _meta("process_name", pid, 0, "timeline (Figure 3 replay)")
    ]
    for pool in pools:
        events.append(_meta("thread_name", pid, tid_of[pool], f"pool {pool}"))
    for event in sorted(timeline.events, key=lambda e: (e.start, e.seq)):
        events.append(
            {
                "name": event.name,
                "cat": "timeline",
                "ph": "X",
                "ts": _us(event.start),
                "dur": _us(event.duration),
                "pid": pid,
                "tid": tid_of[event.pool],
                "args": {"seq": event.seq, "pool": event.pool},
            }
        )
    return events


def span_trace_events(
    spans: Iterable["Span"], pid: int = SPANS_PID
) -> List[Dict[str, Any]]:
    """Span events nested per pool track, plus dataflow flow arrows."""
    spans = [s for s in spans if s.finished]
    tracks = sorted({s.pool or "(controller)" for s in spans})
    tid_of = {track: i for i, track in enumerate(tracks)}
    events: List[Dict[str, Any]] = [_meta("process_name", pid, 0, "runtime spans")]
    for track in tracks:
        events.append(_meta("thread_name", pid, tid_of[track], track))
    by_id = {s.span_id: s for s in spans}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        tid = tid_of[span.pool or "(controller)"]
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.ranks:
            args["ranks"] = list(span.ranks)
        if span.payload_bytes:
            args["payload_bytes"] = span.payload_bytes
        if span.links:
            args["links"] = list(span.links)
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "pid": pid,
                "tid": tid,
                "args": json_safe(args, f"span[{span.span_id}].args"),
            }
        )
        # dataflow provenance as flow arrows: producer end -> this span start
        for link in span.links:
            producer = by_id.get(link)
            if producer is None or producer.end is None:
                continue
            flow_id = f"{link}->{span.span_id}"
            events.append(
                {
                    "name": "dataflow",
                    "cat": "provenance",
                    "ph": "s",
                    "id": flow_id,
                    "ts": _us(producer.end),
                    "pid": pid,
                    "tid": tid_of[producer.pool or "(controller)"],
                }
            )
            events.append(
                {
                    "name": "dataflow",
                    "cat": "provenance",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": _us(span.start),
                    "pid": pid,
                    "tid": tid,
                }
            )
    return events


def chrome_trace(
    timeline: Optional["Timeline"] = None,
    spans: Optional[Iterable["Span"]] = None,
) -> Dict[str, Any]:
    """The full ``trace_event`` document for one run."""
    events: List[Dict[str, Any]] = []
    if timeline is not None:
        events.extend(timeline_trace_events(timeline))
    if spans is not None:
        events.extend(span_trace_events(spans))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "generator": "repro.observability"},
    }


def render_chrome_trace(
    timeline: Optional["Timeline"] = None,
    spans: Optional[Iterable["Span"]] = None,
) -> str:
    """Deterministic JSON text of :func:`chrome_trace` (golden-testable)."""
    return json.dumps(chrome_trace(timeline=timeline, spans=spans), indent=2) + "\n"


def write_chrome_trace(
    path: str,
    timeline: Optional["Timeline"] = None,
    spans: Optional[Iterable["Span"]] = None,
) -> pathlib.Path:
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_chrome_trace(timeline=timeline, spans=spans))
    return out


def pool_fractions_from_trace(
    trace: Dict[str, Any], pid: int = TIMELINE_PID
) -> Dict[str, Dict[str, float]]:
    """Per-pool busy time and idle fraction recomputed from an exported trace.

    Reads only the serialized document (as a viewer would), so tests and the
    ``repro faults --trace`` CLI can verify the exporter against the in-memory
    :class:`~repro.runtime.timeline.Timeline` accounting.
    """
    thread_names: Dict[int, str] = {}
    busy: Dict[int, float] = {}
    makespan = 0.0
    for event in trace.get("traceEvents", []):
        if event.get("pid") != pid:
            continue
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            name = event["args"]["name"]
            prefix = "pool "
            thread_names[event["tid"]] = (
                name[len(prefix):] if name.startswith(prefix) else name
            )
        elif event.get("ph") == "X":
            tid = event["tid"]
            busy[tid] = busy.get(tid, 0.0) + event["dur"] / _US
            makespan = max(makespan, (event["ts"] + event["dur"]) / _US)
    out: Dict[str, Dict[str, float]] = {}
    for tid, name in sorted(thread_names.items()):
        pool_busy = busy.get(tid, 0.0)
        out[name] = {
            "busy": pool_busy,
            "idle_fraction": 1.0 - pool_busy / makespan if makespan else 0.0,
        }
    return out


def write_prometheus(path: str, registry) -> pathlib.Path:
    """Dump a :class:`~repro.observability.MetricsRegistry` as text."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(registry.render_prometheus())
    return out
