"""Run reports: summarise a functional RLHF system after training.

``system_report`` renders what an operator would want on one screen: the
model placement and parallelism, per-device memory peaks from the ledgers,
communication volume from the traffic meter, the execution-pattern timeline,
and the training metrics trend.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.observability.collect import collect_system_metrics
from repro.runtime.builder import RlhfSystem
from repro.runtime.timeline import build_timeline
from repro.serialization import json_safe


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024:
            return f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} TB"


def placement_summary(system: RlhfSystem) -> List[str]:
    lines = ["placement:"]
    for role, group in system.groups.items():
        cfg = group.train_topology.config
        gen = ""
        if group.gen_topology is not None:
            g = group.gen_topology.config
            gen = f", generation {g} ({group.gen_topology.mode.value})"
        n_params = getattr(group.workers[0], "model_config", None)
        size = ""
        if n_params is not None:
            from repro.models.tinylm import TinyLM

            size = f", {TinyLM(n_params).n_params():,} params"
        lines.append(
            f"  {role:9s} pool={group.resource_pool.name} "
            f"({group.world_size} GPUs), 3D {cfg}{gen}{size}"
        )
    return lines


def memory_summary(system: RlhfSystem) -> List[str]:
    lines = ["device memory (peak used):"]
    seen = set()
    for group in system.groups.values():
        for worker in group.workers:
            device = worker.ctx.device
            if device.global_rank in seen:
                continue
            seen.add(device.global_rank)
            lines.append(
                f"  GPU {device.global_rank}: peak "
                f"{_fmt_bytes(device.memory.peak_used)}, resident "
                f"{_fmt_bytes(device.memory.used)}"
            )
    return lines


def traffic_summary(system: RlhfSystem, top: int = 6) -> List[str]:
    meter = system.controller.meter
    by_op: Dict[str, int] = {}
    for (group, op), volume in meter.snapshot().items():
        key = f"{group.split('/')[0]}:{op}"
        by_op[key] = by_op.get(key, 0) + volume
    lines = [f"communication ({_fmt_bytes(meter.total_bytes())} total):"]
    for key, volume in sorted(by_op.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"  {key:40s} {_fmt_bytes(volume)}")
    return lines


def dataflow_summary(system: RlhfSystem) -> List[str]:
    counts: Dict[str, int] = {}
    for record in system.controller.trace:
        name = f"{record.group}.{record.method}"
        counts[name] = counts.get(name, 0) + 1
    lines = ["dataflow calls:"]
    for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:35s} x{count}")
    return lines


def metrics_summary(system: RlhfSystem) -> List[str]:
    history = system.trainer.history
    if not history:
        return ["metrics: (no training iterations recorded)"]
    first = history[0].get("score_mean")
    last = history[-1].get("score_mean")
    lines = [f"metrics over {len(history)} iterations:"]
    if first is not None and last is not None:
        lines.append(f"  score_mean {first:+.3f} -> {last:+.3f}")
    for key in sorted(history[-1]):
        value = history[-1][key]
        # np.float64 subclasses float but np.float32 does not: accept both
        # so worker metrics never silently drop out of the report
        if key != "score_mean" and isinstance(value, (float, np.floating)):
            lines.append(f"  {key} = {float(value):+.4f} (last)")
    return lines


def recovery_summary(report) -> List[str]:
    """Recovery-cost lines from a :class:`~repro.runtime.RecoveryReport`."""
    return report.summary_lines()


def observability_summary(system: RlhfSystem) -> List[str]:
    """Per-iteration latency table from the controller's iteration spans."""
    tracer = system.controller.tracer
    if not tracer.spans:
        return ["observability: (no spans recorded)"]
    counts = ", ".join(
        f"{category}={count}"
        for category, count in tracer.counts_by_category().items()
    )
    lines = [f"observability: {len(tracer.spans)} spans ({counts})"]
    iterations = [s for s in tracer.by_category("iteration") if s.finished]
    if iterations:
        lines.append("  iteration  algo      start      duration")
        for span in iterations:
            lines.append(
                f"  {span.attrs.get('iteration', '?'):>9}  "
                f"{str(span.attrs.get('algo', '?')):8s}  "
                f"{span.start:9.2f}  {span.duration:9.2f}s"
            )
    metrics = system.controller.metrics
    retries = metrics.total("repro_retries_total")
    losses = metrics.total("repro_worker_losses_total")
    tokens = metrics.total("repro_tokens_generated_total")
    lines.append(
        f"  dispatches={int(metrics.total('repro_dispatch_calls_total'))} "
        f"tokens={int(tokens)} retries={int(retries)} "
        f"worker_losses={int(losses)}"
    )
    return lines


def system_report_dict(
    system: RlhfSystem,
    recovery=None,
    analysis=None,
    model_check=None,
    shapes=None,
) -> Dict[str, Any]:
    """A machine-readable run report, sanitized for ``json.dumps``.

    Everything is routed through the same sanitizer as checkpoint
    manifests, so numpy scalars in trainer history or span attributes can
    never leak into the JSON output.

    Args:
        analysis: Optional :class:`~repro.analysis.AnalysisReport` (e.g. the
            TraceAuditor's post-run audit); embedded under ``"analysis"``.
        model_check: Optional iterable of
            :class:`~repro.analysis.ModelCheckResult` (the MC6xx bounded
            protocol exploration); coverage and any counterexample
            schedules are embedded under ``"model_check"``.
        shapes: Optional :class:`~repro.analysis.AnalysisReport` from the
            SF7xx runtime shape cross-validation
            (:func:`~repro.analysis.shape_cross_validate`); embedded under
            ``"shapes"``.
    """
    controller = system.controller
    collect_system_metrics(controller)
    doc: Dict[str, Any] = {
        "placement": {
            role: {
                "pool": group.resource_pool.name,
                "world_size": group.world_size,
                "parallel": str(group.train_topology.config),
            }
            for role, group in system.groups.items()
        },
        "history": system.trainer.history,
        "trace_calls": len(controller.trace),
        "comm_bytes_total": controller.meter.total_bytes(),
        "spans": [s.to_dict() for s in controller.tracer.spans],
        "metrics": controller.metrics.as_dict(),
    }
    if analysis is not None:
        doc["analysis"] = analysis.to_dict()
    if shapes is not None:
        doc["shapes"] = shapes.to_dict()
    if model_check is not None:
        import dataclasses

        results = list(model_check)
        doc["model_check"] = {
            "models": [
                {
                    "model": result.model,
                    "states": result.states,
                    "transitions": result.transitions,
                    "truncated": result.truncated,
                    "counterexamples": [
                        dataclasses.asdict(ce)
                        for ce in result.counterexamples
                    ],
                }
                for result in results
            ],
            "states_total": sum(r.states for r in results),
            "ok": all(r.ok for r in results),
        }
    if recovery is not None:
        doc["recovery"] = {
            "n_failures": recovery.n_failures,
            "lost_iterations": recovery.total_lost_iterations,
            "total_downtime": recovery.total_downtime,
            "mttr": recovery.mttr,
            "checkpoints_saved": recovery.checkpoints_saved,
            "checkpoint_time": recovery.checkpoint_time,
            "total_time": recovery.total_time,
        }
    return json_safe(doc, "report")


def system_report(
    system: RlhfSystem,
    include_timeline: bool = True,
    timeline_width: int = 60,
    recovery=None,
) -> str:
    """A one-screen report of a functional RLHF run.

    Args:
        recovery: Optional :class:`~repro.runtime.RecoveryReport` from
            :func:`~repro.runtime.train_with_recovery`; adds a fault-
            tolerance section with lost work, restore time, and MTTR.
    """
    sections = [
        ["=== RLHF system report ==="],
        placement_summary(system),
        dataflow_summary(system),
        traffic_summary(system),
        memory_summary(system),
        metrics_summary(system),
        observability_summary(system),
    ]
    if recovery is not None:
        sections.append(recovery_summary(recovery))
    if include_timeline and system.controller.trace:
        controller = system.controller
        timeline = build_timeline(controller.trace, controller.planned_duration)
        sections.append(
            ["execution timeline:"]
            + timeline.render_ascii(timeline_width)
            .splitlines()[: 3 + len(timeline.pools())]
        )
    return "\n".join("\n".join(section) for section in sections)
