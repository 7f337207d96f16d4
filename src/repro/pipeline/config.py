"""Configuration of the bounded-staleness async RLHF pipeline."""

from __future__ import annotations

import dataclasses

from repro.config import bounded, check_bounds


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """How far the rollout engine may run ahead of the trainer.

    Stale batches always carry per-token truncated importance weights
    (:func:`repro.rlhf.losses.truncated_importance_weights`) so the
    PPO/GRPO surrogate stays sound off-policy, and the experience buffer
    always holds ``staleness_window + 1`` batches: the trainer never runs
    further ahead than that.

    Attributes:
        staleness_window: Maximum iterations the behaviour policy may lag
            the trained policy.  ``0`` is the synchronous loop — every
            iteration is ``trainer.run_step``; ``1`` is classic one-step-off
            overlap; larger windows absorb generation-time jitter at the
            price of more off-policy drift.
        iw_clip: Truncation bound for the importance ratio (V-trace's
            rho-bar); must be ``>= 1`` so on-policy tokens are never scaled.
        stream_scoring: Dispatch frozen-model scoring (reference log-probs
            and rewards) right after each rollout finishes instead of at
            the train-step boundary, so scoring overlaps the next rollout.
            Numerically inert — both models are frozen — but it moves the
            scoring work off the training critical path in the modeled
            schedule.
    """

    staleness_window: int = bounded(1, ge=0)
    iw_clip: float = bounded(2.0, ge=1.0)
    stream_scoring: bool = False

    def __post_init__(self) -> None:
        check_bounds(self)


__all__ = ["PipelineConfig"]
