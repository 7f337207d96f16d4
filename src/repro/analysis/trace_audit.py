"""Post-execution happens-before audit of traces, timelines, and ledgers.

The observability layer (spans, the Figure 3 timeline replay, the per-device
memory ledgers) records what a run *did*; the :class:`TraceAuditor` turns
those records into a checkable artifact by verifying the invariants a
correct single-controller execution must satisfy:

========  ====================================================================
``TA201``  two busy intervals overlap on one pool/track (a pool time-shares)
``TA202``  a child span's interval escapes its parent's
``TA203``  a memory tag is still allocated at run end (leak)
``TA204``  a tag is freed twice without an allocation in between
``TA205``  a ledger event left a negative balance
``TA206``  device busy-time accounting disagrees with the timeline replay
========  ====================================================================

Three entry points: :meth:`TraceAuditor.audit_system` for a live
:class:`~repro.runtime.RlhfSystem`, :meth:`TraceAuditor.audit` for explicit
spans/timeline/devices, and :meth:`TraceAuditor.audit_chrome_trace` for an
exported ``trace_event`` JSON document (as a viewer sees it).
:func:`system_audit` is the whole post-run gate over a live system: this
audit plus the RC5xx race pass, in one report.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.races import RaceDetector
from repro.analysis.report import ERROR, WARNING, AnalysisReport, Finding

#: Tag suffixes resident by design between stages (§2.3): parameters,
#: gradients and optimizer state live for the whole job, so they are not
#: leaks when the run ends with them allocated.
PERSISTENT_SUFFIXES = ("/params", "/grads", "/optim")

#: Seconds two interval endpoints may disagree by and still count as equal.
TOLERANCE = 1e-6


class TraceAuditor:
    """Happens-before and ledger-consistency checks over a finished run."""

    # -- entry points ----------------------------------------------------------------

    def audit_system(self, system: Any) -> AnalysisReport:
        """Audit a live system: spans + rebuilt timeline + device ledgers.

        The busy-accounting cross-check (``TA206``) is skipped when a fault
        injector is attached — straggler-inflated durations legitimately
        diverge from the controller's planned durations.
        """
        from repro.runtime.timeline import build_timeline

        controller = system.controller
        timeline = build_timeline(controller.trace, controller.planned_duration)
        devices = []
        seen = set()
        for group in system.groups.values():
            for worker in group.workers:
                device = worker.ctx.device
                if device.global_rank not in seen:
                    seen.add(device.global_rank)
                    devices.append(device)
        device_pools = {}
        for group in system.groups.values():
            for worker in group.workers:
                device_pools[worker.ctx.device.global_rank] = (
                    group.resource_pool.name
                )
        return self.audit(
            spans=getattr(controller.tracer, "spans", ()),
            timeline=timeline,
            devices=devices,
            device_pools=device_pools,
            check_busy_accounting=(
                getattr(controller, "fault_injector", None) is None
            ),
        )

    def audit(
        self,
        spans: Iterable[Any] = (),
        timeline: Optional[Any] = None,
        devices: Iterable[Any] = (),
        device_pools: Optional[Dict[int, str]] = None,
        check_busy_accounting: bool = True,
    ) -> AnalysisReport:
        report = AnalysisReport("trace_audit")
        if timeline is not None:
            self._check_timeline_overlaps(timeline, report)
        self._check_span_nesting(list(spans), report)
        devices = list(devices)
        for device in devices:
            self._check_ledger(device, report)
        if (
            timeline is not None
            and check_busy_accounting
            and device_pools is not None
        ):
            self._check_busy_accounting(
                timeline, devices, device_pools, report
            )
        return report

    def audit_chrome_trace(self, doc: Dict[str, Any]) -> AnalysisReport:
        """Audit an exported ``trace_event`` document (pid 0 + pid 1 tracks).

        Reads only the serialized JSON, exactly as a trace viewer would, so
        the golden trace file itself is a checkable artifact.
        """
        from repro.observability.export import _US, SPANS_PID, TIMELINE_PID

        report = AnalysisReport("trace_audit")
        intervals: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
        spans_by_id: Dict[int, Tuple[float, float, Optional[int], str]] = {}
        track_names: Dict[Tuple[int, int], str] = {}
        for event in doc.get("traceEvents", []):
            pid, tid = event.get("pid"), event.get("tid")
            if event.get("ph") == "M" and event.get("name") == "thread_name":
                track_names[(pid, tid)] = event["args"]["name"]
            if event.get("ph") != "X":
                continue
            start = event["ts"] / _US
            end = (event["ts"] + event["dur"]) / _US
            if pid == TIMELINE_PID:
                intervals.setdefault((pid, tid), []).append(
                    (start, end, event.get("name", "?"))
                )
            elif pid == SPANS_PID:
                args = event.get("args", {})
                if "span_id" in args:
                    spans_by_id[args["span_id"]] = (
                        start,
                        end,
                        args.get("parent_id"),
                        event.get("name", "?"),
                    )
        for (pid, tid), events in sorted(intervals.items()):
            track = track_names.get((pid, tid), f"pid{pid}/tid{tid}")
            report.note_checked("tracks")
            self._flag_overlaps(events, f"trace {track}", report)
        report.note_checked("spans", len(spans_by_id))
        for span_id, (start, end, parent_id, name) in sorted(
            spans_by_id.items()
        ):
            if parent_id is None or parent_id not in spans_by_id:
                continue
            p_start, p_end, _, p_name = spans_by_id[parent_id]
            if (
                start < p_start - TOLERANCE
                or end > p_end + TOLERANCE
            ):
                report.add(
                    "TA202",
                    ERROR,
                    f"span {name!r} [{start:.3f}, {end:.3f}] escapes its "
                    f"parent {p_name!r} [{p_start:.3f}, {p_end:.3f}]",
                    location=f"span {span_id}",
                    hint="a child must end before its parent does",
                )
        return report

    # -- individual checks -----------------------------------------------------------

    def _flag_overlaps(
        self,
        events: List[Tuple[float, float, str]],
        location: str,
        report: AnalysisReport,
    ) -> None:
        ordered = sorted(events)
        for (s0, e0, n0), (s1, e1, n1) in zip(ordered, ordered[1:]):
            if s1 < e0 - TOLERANCE:
                report.add(
                    "TA201",
                    ERROR,
                    f"{n1!r} starts at {s1:.3f} while {n0!r} still runs "
                    f"until {e0:.3f}",
                    location=location,
                    hint=(
                        "one pool executes one call at a time (colocated "
                        "models time-share, §2.3)"
                    ),
                )

    def _check_timeline_overlaps(
        self, timeline: Any, report: AnalysisReport
    ) -> None:
        for pool in timeline.pools():
            report.note_checked("pools")
            events = [
                (e.start, e.end, e.name) for e in timeline.events_on(pool)
            ]
            self._flag_overlaps(events, f"pool {pool}", report)

    def _check_span_nesting(
        self, spans: List[Any], report: AnalysisReport
    ) -> None:
        by_id = {s.span_id: s for s in spans if s.finished}
        report.note_checked("spans", len(by_id))
        for span in spans:
            if not span.finished or span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                continue
            if (
                span.start < parent.start - TOLERANCE
                or span.end > parent.end + TOLERANCE
            ):
                report.add(
                    "TA202",
                    ERROR,
                    f"span {span.name!r} [{span.start:.3f}, {span.end:.3f}] "
                    f"escapes its parent {parent.name!r} "
                    f"[{parent.start:.3f}, {parent.end:.3f}]",
                    location=f"span {span.span_id}",
                    hint="a child must end before its parent does",
                )

    def _is_persistent(self, tag: str) -> bool:
        return any(tag.endswith(suffix) for suffix in PERSISTENT_SUFFIXES)

    def _check_ledger(self, device: Any, report: AnalysisReport) -> None:
        memory = device.memory
        report.note_checked("devices")
        for tag, nbytes in memory.tags():
            if nbytes > 0 and not self._is_persistent(tag):
                report.add(
                    "TA203",
                    ERROR,
                    f"tag {tag!r} still holds {nbytes} bytes at run end",
                    location=f"device {device.global_rank}",
                    hint=(
                        "free transient allocations (KV caches, transition "
                        "buffers) when their stage finishes"
                    ),
                )
        last_op: Dict[str, str] = {}
        for event in getattr(memory, "events", ()):
            report.note_checked("ledger_events")
            if event.balance < 0:
                report.add(
                    "TA205",
                    ERROR,
                    f"{event.op} on {event.tag!r} left a negative balance "
                    f"({event.balance} bytes)",
                    location=f"device {device.global_rank}",
                    hint="the ledger can never go below zero",
                )
            if (
                event.op == "free"
                and event.nbytes == 0
                and event.tag in memory.ever_allocated
                and last_op.get(event.tag) == "free"
            ):
                report.add(
                    "TA204",
                    ERROR,
                    f"tag {event.tag!r} freed twice with no allocation in "
                    "between",
                    location=f"device {device.global_rank}",
                    hint="track ownership of the buffer; free it once",
                )
            last_op[event.tag] = event.op

    def _check_busy_accounting(
        self,
        timeline: Any,
        devices: List[Any],
        device_pools: Dict[int, str],
        report: AnalysisReport,
    ) -> None:
        """Each device's ``occupy`` total must match its pool's replay (§4.1).

        The dispatch path occupies every device of a pool for the planned
        duration of each call; the timeline replays the same trace with the
        same duration model, so the two accountings agree on a clean run.
        """
        expected = {pool: timeline.busy_time(pool) for pool in timeline.pools()}
        for device in devices:
            pool = device_pools.get(device.global_rank)
            if pool is None or pool not in expected:
                continue
            report.note_checked("busy_accounted_devices")
            delta = abs(device.busy_time - expected[pool])
            if delta > max(TOLERANCE, 1e-9 * expected[pool]):
                report.add(
                    "TA206",
                    WARNING,
                    f"device busy time {device.busy_time:.3f}s disagrees "
                    f"with the timeline's {expected[pool]:.3f}s for pool "
                    f"{pool!r} (delta {delta:.3f}s)",
                    location=f"device {device.global_rank}",
                    hint=(
                        "occupy() charges and the replay's durations "
                        "must come from the same model"
                    ),
                )


def system_audit(system: Any) -> Tuple[AnalysisReport, List[Finding]]:
    """Audit a finished run of a live system: TA2xx over its spans, timeline
    and ledgers, then RC5xx over the same trace plus the access log.

    Returns the merged report and its race findings; a caller gating a
    schedule (the async overlap, a fleet tenant) fails on any of the latter.
    """
    report = TraceAuditor().audit_system(system)
    RaceDetector().detect_system(system, report=report)
    return report, [f for f in report.findings if f.rule.startswith("RC")]
