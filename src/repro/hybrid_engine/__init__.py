"""The 3D-HybridEngine (§5): actor train/generation resharding on shared GPUs.

The engine executes the §5.2 workflow: all-gather the updated training
shards within each micro-DP group into generation shards (step ①), serve
generation, then drop the generation-only buffers and return to the training
layout (step ④).  Two grouping modes are supported — the vanilla grouping of
HybridFlow-V and the paper's interval grouping with zero memory redundancy —
and the engine reports per-rank communication volume, peak memory, and
redundant bytes so the Table 2 algebra is checkable against real arrays.
"""

from repro.hybrid_engine.engine import (
    GatherTile,
    HybridEngine3D,
    RankTransitionPlan,
    TransitionPlan,
    TransitionReport,
    plan_for_geometry,
    plan_transition,
)
from repro.hybrid_engine.overhead import (
    EngineKind,
    TransitionOverhead,
    transition_overhead,
)
from repro.hybrid_engine.publication import WeightPublisher

__all__ = [
    "EngineKind",
    "WeightPublisher",
    "GatherTile",
    "HybridEngine3D",
    "RankTransitionPlan",
    "TransitionOverhead",
    "TransitionPlan",
    "TransitionReport",
    "plan_for_geometry",
    "plan_transition",
    "transition_overhead",
]
