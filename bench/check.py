"""Output checks: what makes a step count as failed.

Every check reads the program's public registry (``controller.metrics``,
``controller.meter``, ``trainer.history``, ``driver.report()``) between
steps, outside the timed region.  A step that raises or trips one of these
counts toward ``failed``; the run is ``correct`` only with none.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from bench.workloads import Job


def snapshot(job: Job) -> Dict[str, float]:
    """Cumulative counters of a job, for per-step and per-window deltas."""
    report = job.driver.report() if job.driver is not None else {}
    return {
        "iterations": job.iterations,
        "dispatches": job.total("repro_dispatch_calls_total"),
        "generated": job.total("repro_tokens_generated_total"),
        "response_tokens": job.response_tokens(),
        "comm_bytes": float(job.controller.meter.total_bytes()),
        "transition_bytes": job.total("repro_transition_bytes_total"),
        "published_bytes": job.total("repro_pipeline_published_bytes_total"),
        "kv_blocks_peak": job.total("repro_serving_kv_blocks_peak"),
        "sim_seconds": float(job.controller.clock.now),
        "max_staleness": report.get("max_staleness_seen", 0),
        "buffer_peak": report.get("buffer_peak_occupancy", 0),
        "publications": report.get("publications", 0),
    }


def step_tokens(job: Job, before: Dict[str, float], after: Dict[str, float]) -> int:
    """Prompt + *real* response tokens one step processed (§8.1 numerator)."""
    w = job.workload
    iterations = int(after["iterations"] - before["iterations"])
    prompt = iterations * w.sequences_per_iteration * w.prompt_length
    return prompt + int(after["response_tokens"] - before["response_tokens"])


def _non_finite(history: List[Dict[str, Any]]) -> List[str]:
    return [
        key
        for entry in history
        for key, value in entry.items()
        if isinstance(value, (int, float)) and not math.isfinite(value)
    ]


def check_step(
    job: Job, before: Dict[str, float], after: Dict[str, float]
) -> List[str]:
    """Why the step between two snapshots failed (empty when it passed)."""
    w = job.workload
    problems: List[str] = []
    iterations = int(after["iterations"] - before["iterations"])
    if iterations != w.iters_per_step:
        problems.append(
            f"ran {iterations} iterations, expected {w.iters_per_step}"
        )
    # the dispatch counter sees fixed-width output, padding included
    padded = iterations * w.sequences_per_iteration * w.max_new_tokens
    generated = int(after["generated"] - before["generated"])
    if generated != padded:
        problems.append(f"generated {generated} token slots, expected {padded}")
    real = int(after["response_tokens"] - before["response_tokens"])
    if not (0 < real <= padded) or (not w.ragged and real != padded):
        problems.append(f"{real} real response tokens against {padded} slots")
    dispatches = int(after["dispatches"] - before["dispatches"])
    if dispatches != iterations * w.dispatches_per_iteration:
        problems.append(
            f"{dispatches} dispatches, expected "
            f"{iterations * w.dispatches_per_iteration}"
        )
    bad = _non_finite(job.trainer.history[-iterations:] if iterations else [])
    if bad:
        problems.append(f"non-finite metrics: {sorted(set(bad))}")
    if job.driver is not None:
        if after["max_staleness"] != w.staleness_window:
            problems.append(
                f"max staleness {after['max_staleness']}, expected "
                f"{w.staleness_window}"
            )
        if after["publications"] != after["iterations"]:
            problems.append(
                f"{after['publications']} publications after "
                f"{after['iterations']} iterations"
            )
    return problems


def policy_losses(job: Job, n: int = 8) -> List[float]:
    """The first ``n`` policy losses, to compare parent and change by eye."""
    return [
        float(entry["actor/policy_loss"])
        for entry in job.trainer.history[:n]
        if "actor/policy_loss" in entry
    ]
