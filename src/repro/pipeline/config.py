"""Configuration of the bounded-staleness async RLHF pipeline."""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """How far the rollout engine may run ahead of the trainer.

    Attributes:
        staleness_window: Maximum iterations the behaviour policy may lag
            the trained policy.  ``0`` is the synchronous loop — every
            iteration is ``trainer.run_step``; ``1`` is classic one-step-off
            overlap; larger windows absorb generation-time jitter at the
            price of more off-policy drift.
        importance_weighting: Attach per-token truncated importance weights
            (:func:`repro.rlhf.losses.truncated_importance_weights`) to
            stale batches so the PPO/GRPO surrogate stays sound off-policy.
            Disabling it with ``staleness_window > 0`` is rejected by the
            ``DF108`` dataflow rule.
        iw_clip: Truncation bound for the importance ratio (V-trace's
            rho-bar); must be ``>= 1`` so on-policy tokens are never scaled.
        buffer_capacity: Slots in the experience buffer.  ``None`` sizes it
            to the minimum the window needs (``staleness_window + 1``).
        stream_scoring: Dispatch frozen-model scoring (reference log-probs
            and rewards) right after each rollout finishes instead of at
            the train-step boundary, so scoring overlaps the next rollout.
            Numerically inert — both models are frozen — but it moves the
            scoring work off the training critical path in the modeled
            schedule.
    """

    staleness_window: int = 1
    importance_weighting: bool = True
    iw_clip: float = 2.0
    buffer_capacity: Optional[int] = None
    stream_scoring: bool = False

    @property
    def resolved_capacity(self) -> int:
        """Buffer slots actually allocated (window + 1 when unset)."""
        if self.buffer_capacity is not None:
            return self.buffer_capacity
        return self.staleness_window + 1

    def validate(self) -> None:
        """Raise on configurations that could never run at all.

        Soundness problems a run *could* limp through (stale batches with
        importance weighting disabled, a window exceeding the buffer) are
        the :class:`~repro.analysis.DataflowChecker`'s ``DF108`` findings —
        one shared source of truth the driver also consults at build time.
        """
        if self.staleness_window < 0:
            raise ValueError(
                f"staleness_window must be >= 0, got {self.staleness_window}"
            )
        if self.resolved_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1, got {self.buffer_capacity}"
            )
        if self.iw_clip < 1.0:
            raise ValueError(f"iw_clip must be >= 1.0, got {self.iw_clip}")


__all__ = ["PipelineConfig"]
