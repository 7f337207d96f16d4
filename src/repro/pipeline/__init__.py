"""Async one-step-off RLHF pipeline with bounded staleness.

While the trainer consumes iteration *t*'s experience, the rollout engine
already generates iteration *t+1* on the last published policy — the
DistFlow / MindSpeed-RL relaxation of HybridFlow's synchronous dataflow,
built so that every existing correctness gate (DF1xx dataflow checks, TA2xx
trace audit, RC5xx race detection) still passes on the overlapped schedule.

* :class:`PipelineConfig` — staleness window, importance weighting, buffer.
* :class:`ExperienceBuffer` — bounded in-flight experience, version-tagged.
* :class:`AsyncPipelineDriver` — attaches to a trainer and overlaps its one
  loop; ``staleness_window=0`` is the synchronous loop itself.
* :func:`overlap_study` — sync vs W=0 (bit-exact) vs W on the shipped job:
  the self-verifying run behind ``repro pipeline`` and its bench pin.
"""

from repro.pipeline.buffer import BufferFull, Experience, ExperienceBuffer
from repro.pipeline.config import PipelineConfig
from repro.pipeline.driver import (
    AsyncPipelineDriver,
    OverlapStudy,
    overlap_study,
)

__all__ = [
    "AsyncPipelineDriver",
    "BufferFull",
    "Experience",
    "ExperienceBuffer",
    "OverlapStudy",
    "PipelineConfig",
    "overlap_study",
]
