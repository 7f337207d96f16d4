"""Pipeline-parallel schedules: GPipe and 1F1B bubble analysis ([32], [53]).

The training latency model multiplies compute by ``(m + p - 1) / m`` for
``p`` stages and ``m`` microbatches — the pipeline *bubble* factor.  This
module derives that factor from an actual event-driven schedule rather than
asserting it, and exposes per-stage busy/idle accounting (useful for the
placement discussions: pipeline bubbles are another source of the idle time
Figure 3 reasons about).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple


def bubble_fraction(pp: int, n_microbatches: int) -> float:
    """Idle fraction of a GPipe/1F1B pipeline: ``(p-1) / (m + p - 1)``."""
    if pp < 1 or n_microbatches < 1:
        raise ValueError(
            f"need pp >= 1 and microbatches >= 1, got {pp}, {n_microbatches}"
        )
    return (pp - 1) / (n_microbatches + pp - 1)


def bubble_multiplier(pp: int, n_microbatches: int) -> float:
    """Latency multiplier over the bubble-free ideal: ``(m + p - 1) / m``."""
    if pp < 1 or n_microbatches < 1:
        raise ValueError(
            f"need pp >= 1 and microbatches >= 1, got {pp}, {n_microbatches}"
        )
    return 1.0 + (pp - 1) / n_microbatches


@dataclasses.dataclass(frozen=True)
class StageOp:
    """One forward or backward of one microbatch on one stage."""

    stage: int
    microbatch: int
    kind: str  # "fwd" or "bwd"
    start: float
    end: float


@dataclasses.dataclass
class PipelineSchedule:
    """An executed schedule with per-stage accounting."""

    ops: List[StageOp]
    pp: int

    @property
    def makespan(self) -> float:
        return max(op.end for op in self.ops)

    def busy_time(self, stage: int) -> float:
        return sum(op.end - op.start for op in self.ops if op.stage == stage)

    def idle_fraction(self, stage: int) -> float:
        return 1.0 - self.busy_time(stage) / self.makespan


def gpipe_schedule(
    pp: int,
    n_microbatches: int,
    fwd_time: float = 1.0,
    bwd_time: float = 2.0,
) -> PipelineSchedule:
    """Event-driven GPipe: all forwards flow down, all backwards flow up.

    Forward of microbatch ``i`` on stage ``s`` waits for its predecessor
    stage and for the stage itself to be free; backwards run in reverse
    stage order after the last forward.
    """
    if pp < 1 or n_microbatches < 1:
        raise ValueError("need at least one stage and one microbatch")
    stage_free = [0.0] * pp
    fwd_done: Dict[Tuple[int, int], float] = {}
    ops: List[StageOp] = []
    for mb in range(n_microbatches):
        for s in range(pp):
            ready = fwd_done[(mb, s - 1)] if s > 0 else 0.0
            start = max(ready, stage_free[s])
            end = start + fwd_time
            stage_free[s] = end
            fwd_done[(mb, s)] = end
            ops.append(StageOp(s, mb, "fwd", start, end))
    bwd_done: Dict[Tuple[int, int], float] = {}
    for mb in range(n_microbatches):
        for s in reversed(range(pp)):
            ready = bwd_done[(mb, s + 1)] if s < pp - 1 else 0.0
            start = max(ready, stage_free[s])
            end = start + bwd_time
            stage_free[s] = end
            bwd_done[(mb, s)] = end
            ops.append(StageOp(s, mb, "bwd", start, end))
    return PipelineSchedule(ops=ops, pp=pp)


def peak_in_flight_microbatches(
    schedule: PipelineSchedule, stage: int = 0
) -> int:
    """Max microbatches whose activations a stage holds simultaneously.

    GPipe keeps all ``m`` in flight on stage 0 (its memory weakness; 1F1B
    caps this at ``p``), which is why the memory model charges activations
    per microbatch.
    """
    fwd_end: Dict[int, float] = {}
    bwd_end: Dict[int, float] = {}
    for op in schedule.ops:
        if op.stage != stage:
            continue
        if op.kind == "fwd":
            fwd_end[op.microbatch] = op.end
        else:
            bwd_end[op.microbatch] = op.end
    peak = 0
    times = sorted(
        {t for t in list(fwd_end.values()) + list(bwd_end.values())}
    )
    for t in times:
        live = sum(
            1
            for mb in fwd_end
            if fwd_end[mb] <= t and bwd_end.get(mb, float("inf")) > t
        )
        peak = max(peak, live)
    return peak
