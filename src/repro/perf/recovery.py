"""Analytic fault-tolerance cost model: MTTR, goodput vs checkpoint interval.

Complements the *measured* recovery accounting of
:mod:`repro.runtime.recovery` with the classic first-order algebra
(Young 1974 / Daly 2006) so the checkpoint-interval trade-off can be studied
without running anything: checkpoint too often and the overhead dominates;
too rarely and each failure throws away half an interval of work on average.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def optimal_checkpoint_interval(checkpoint_time: float, mtbf: float) -> float:
    """Young's approximation: the work (seconds) between checkpoints.

    ``sqrt(2 * delta * MTBF)`` with ``delta`` the time to write one
    checkpoint — optimal to first order when ``delta << MTBF``.
    """
    if checkpoint_time <= 0 or mtbf <= 0:
        raise ValueError(
            f"need positive checkpoint_time and mtbf, got "
            f"{checkpoint_time} and {mtbf}"
        )
    return math.sqrt(2.0 * checkpoint_time * mtbf)


def expected_goodput(
    iteration_time: float,
    interval_iterations: int,
    checkpoint_time: float,
    restore_time: float,
    reinit_time: float,
    mtbf: float,
) -> float:
    """Expected fraction of wall time spent on *retained* work.

    One cycle does ``interval_iterations`` iterations of useful work, pays
    one checkpoint write, and — at rate ``cycle / mtbf`` — a failure that
    costs half the interval's work (uniform failure position) plus the
    repair (restore + re-init).
    """
    if interval_iterations < 1:
        raise ValueError(f"interval must be >= 1 iteration, got {interval_iterations}")
    if iteration_time <= 0 or mtbf <= 0:
        raise ValueError("iteration_time and mtbf must be positive")
    useful = interval_iterations * iteration_time
    cycle = useful + checkpoint_time
    failures_per_cycle = cycle / mtbf
    rework = useful / 2.0 + restore_time + reinit_time
    return useful / (cycle + failures_per_cycle * rework)


def goodput_vs_interval(
    iteration_time: float,
    checkpoint_time: float,
    restore_time: float,
    reinit_time: float,
    mtbf: float,
    intervals: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> List[Tuple[int, float]]:
    """The goodput curve over candidate checkpoint intervals (iterations)."""
    return [
        (
            k,
            expected_goodput(
                iteration_time, k, checkpoint_time, restore_time, reinit_time, mtbf
            ),
        )
        for k in intervals
    ]


def measured_interval_study(
    report, mtbf: float
) -> Tuple[float, float, List[Tuple[int, float]]]:
    """Young's interval and the goodput curve for the job one run measured.

    Parameterises the algebra above from a :class:`~repro.runtime.RecoveryReport`:
    the mean *surviving* iteration and checkpoint-write times, and the first
    repair's restore/re-init (twice a save, and 2 s, when nothing failed).

    Returns:
        ``(interval_seconds, interval_iterations, goodput_curve)``.
    """
    iter_time = report.useful_time / max(len(report.iteration_times), 1)
    ckpt_time = report.checkpoint_time / max(report.checkpoints_saved, 1)
    first = report.events[0] if report.events else None
    restore = first.restore_time if first else ckpt_time * 2.0
    reinit = first.reinit_time if first else 2.0
    interval = optimal_checkpoint_interval(max(ckpt_time, 1e-9), mtbf)
    curve = goodput_vs_interval(iter_time, ckpt_time, restore, reinit, mtbf)
    return interval, interval / iter_time, curve


def mean_time_to_recover(
    restore_time: float, reinit_time: float, lost_work_time: float = 0.0
) -> float:
    """MTTR of one failure: repair cost plus the re-run of lost work."""
    if min(restore_time, reinit_time, lost_work_time) < 0:
        raise ValueError("recovery times must be non-negative")
    return restore_time + reinit_time + lost_work_time
