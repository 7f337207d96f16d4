"""Continuous vs. static batching for the generation stage (Orca [83]).

The paper's baselines "may not incorporate continuous-batching optimization
during generation", so its benchmarks pin all response lengths equal (§8.1).
This module implements both serving disciplines as step-level simulations,
quantifying what that fairness control removed: with *variable* response
lengths, static batching holds every slot until the longest sequence of the
wave finishes, while continuous batching refills slots as sequences
complete.

Both disciplines share the per-step decode cost model of
:mod:`repro.perf.generation`, so the comparison isolates scheduling.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.config import ClusterSpec, ModelSpec
from repro.perf.generation import _decode_step_time


@dataclasses.dataclass(frozen=True)
class ServingResult:
    """Outcome of serving one batch of generation requests."""

    total_time: float
    n_steps: int
    #: Mean fraction of KV slots occupied over the run (scheduler quality).
    slot_utilisation: float


def sample_response_lengths(
    n_requests: int,
    mean_length: int,
    max_length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Geometric-ish response lengths clipped to ``max_length`` (real RLHF
    generation lengths are highly skewed)."""
    if n_requests < 1 or mean_length < 1 or max_length < mean_length:
        raise ValueError(
            f"bad request shape: n={n_requests}, mean={mean_length}, "
            f"max={max_length}"
        )
    lengths = rng.geometric(1.0 / mean_length, size=n_requests)
    return np.clip(lengths, 1, max_length).astype(np.int64)


def _step_time(
    spec: ModelSpec,
    cluster: ClusterSpec,
    gen_tp: int,
    gen_pp: int,
    active: int,
    context_len: float,
) -> float:
    return _decode_step_time(
        spec, cluster, gen_tp, gen_pp, active, context_len, use_kv_cache=True
    )


def serve_static(
    lengths: Sequence[int],
    capacity: int,
    spec: ModelSpec,
    cluster: ClusterSpec,
    gen_tp: int = 1,
    gen_pp: int = 1,
    prompt_length: int = 1024,
) -> ServingResult:
    """Wave scheduling: a wave of ``capacity`` requests runs until its
    longest member finishes; freed slots idle until the next wave."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    lengths = np.asarray(lengths)
    total_time = 0.0
    n_steps = 0
    occupied_steps = 0.0
    for start in range(0, len(lengths), capacity):
        wave = lengths[start : start + capacity]
        wave_steps = int(wave.max())
        for step in range(wave_steps):
            active = int((wave > step).sum())
            # static batching keeps padded slots in the batch: cost scales
            # with the wave size, not the live count
            total_time += _step_time(
                spec, cluster, gen_tp, gen_pp, len(wave),
                prompt_length + step,
            )
            occupied_steps += active
            n_steps += 1
    denominator = n_steps * capacity if n_steps else 1
    return ServingResult(
        total_time=total_time,
        n_steps=n_steps,
        slot_utilisation=occupied_steps / denominator,
    )


def _continuous_trace(
    lengths: Sequence[int], capacity: int
) -> Iterator[Tuple[int, float]]:
    """Step-level ``(n_active, mean_progress)`` trace of the Orca schedule.

    The pure scheduling decision sequence, shared by the cost-model wrapper
    below and the step-count cross-check the functional engine
    (:mod:`repro.serving`) is validated against.
    """
    remaining: List[int] = list(int(x) for x in lengths)
    active: List[int] = []
    progress: List[int] = []
    while remaining or active:
        while remaining and len(active) < capacity:
            active.append(remaining.pop(0))
            progress.append(0)
        yield len(active), (
            sum(progress) / len(progress) if progress else 0.0
        )
        progress = [p + 1 for p in progress]
        keep = [
            i for i, (length, p) in enumerate(zip(active, progress)) if p < length
        ]
        active = [active[i] for i in keep]
        progress = [progress[i] for i in keep]


def continuous_schedule_stats(
    lengths: Sequence[int], capacity: int
) -> Tuple[int, float]:
    """``(n_steps, slot_utilisation)`` of continuous batching, no cost model.

    What a perfect iteration-level scheduler achieves on ``lengths``; the
    functional engine's measured utilisation must agree with this on a
    matched workload (one token per occupied slot-step in both).
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    n_steps = 0
    occupied = 0.0
    for n_active, _ in _continuous_trace(lengths, capacity):
        n_steps += 1
        occupied += n_active
    denominator = n_steps * capacity if n_steps else 1
    return n_steps, occupied / denominator


def static_schedule_stats(
    lengths: Sequence[int], capacity: int
) -> Tuple[int, float]:
    """``(n_steps, slot_utilisation)`` of static wave batching, no cost model."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    lengths = np.asarray(lengths)
    n_steps = 0
    occupied = 0.0
    for start in range(0, len(lengths), capacity):
        wave = lengths[start : start + capacity]
        wave_steps = int(wave.max())
        n_steps += wave_steps
        occupied += float(wave.sum())
    denominator = n_steps * capacity if n_steps else 1
    return n_steps, occupied / denominator


@dataclasses.dataclass(frozen=True)
class EngineCrossCheck:
    """A drain of the functional engine against both analytic schedules."""

    static_steps: int
    n_steps: int
    slot_utilisation: float
    #: Everything queued at t=0, one priority class, no preemption: only
    #: then must the engine replay the Orca schedule, so only then is
    #: ``ok`` a verdict.
    matched: bool
    ok: bool


def cross_check_engine(report, capacity: int) -> EngineCrossCheck:
    """Hold a :class:`~repro.serving.ServingReport` of a ``capacity``-slot
    server to the analytic schedules of the responses it realised."""
    realised = [r.response_length for r in report.completed]
    static_steps, _ = static_schedule_stats(realised, capacity)
    n_steps, util = continuous_schedule_stats(realised, capacity)
    return EngineCrossCheck(
        static_steps=static_steps,
        n_steps=n_steps,
        slot_utilisation=util,
        matched=(
            report.n_preemptions == 0
            and len({r.priority for r in report.completed}) == 1
            and not any(r.arrival_time for r in report.completed)
        ),
        ok=(
            n_steps == report.n_steps
            and abs(util - report.slot_utilisation) < 1e-9
        ),
    )


def serve_continuous(
    lengths: Sequence[int],
    capacity: int,
    spec: ModelSpec,
    cluster: ClusterSpec,
    gen_tp: int = 1,
    gen_pp: int = 1,
    prompt_length: int = 1024,
) -> ServingResult:
    """Orca-style iteration-level scheduling: finished sequences leave the
    batch at step granularity and waiting requests join immediately."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    total_time = 0.0
    n_steps = 0
    occupied_steps = 0.0
    for n_active, mean_progress in _continuous_trace(lengths, capacity):
        avg_ctx = prompt_length + mean_progress
        total_time += _step_time(
            spec, cluster, gen_tp, gen_pp, n_active, avg_ctx
        )
        occupied_steps += n_active
        n_steps += 1
    denominator = n_steps * capacity if n_steps else 1
    return ServingResult(
        total_time=total_time,
        n_steps=n_steps,
        slot_utilisation=occupied_steps / denominator,
    )


def continuous_batching_speedup(
    n_requests: int,
    mean_length: int,
    max_length: int,
    capacity: int,
    spec: ModelSpec,
    cluster: ClusterSpec,
    gen_tp: int = 1,
    seed: int = 0,
) -> float:
    """Static / continuous serving-time ratio for a sampled workload."""
    rng = np.random.default_rng(seed)
    lengths = sample_response_lengths(n_requests, mean_length, max_length, rng)
    static = serve_static(lengths, capacity, spec, cluster, gen_tp=gen_tp)
    continuous = serve_continuous(lengths, capacity, spec, cluster, gen_tp=gen_tp)
    return static.total_time / continuous.total_time
