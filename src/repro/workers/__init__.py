"""Model worker classes: the primitive APIs of the RLHF dataflow (Table 4).

``ActorWorker`` exposes ``generate_sequences`` / ``compute_log_prob`` /
``compute_loss`` / ``update_actor``; ``CriticWorker`` exposes
``compute_values`` / ``update_critic``; ``ReferenceWorker`` and
``RewardWorker`` expose their forward passes.  All inherit a sharded-model
base (the reproduction's ``3DParallelWorker`` / ``FSDPWorker`` /
``ZeROWorker``) that stores each rank's weight shard, materialises full
replicas through metered collectives, and keeps data-parallel training
semantics real (per-replica batches, gradient all-reduce, identical Adam
updates).
"""

from repro.workers.base import (
    FSDPWorker,
    ShardedModelWorker,
    ThreeDParallelWorker,
    ZeROWorker,
)
from repro.workers.actor import ActorWorker
from repro.workers.critic import CriticWorker
from repro.workers.scorers import (
    CostWorker,
    ReferenceWorker,
    RewardFunctionWorker,
    RewardWorker,
    TrainableRewardWorker,
)

#: Model role -> worker class (Figure 1); key order is the canonical role order.
WORKER_CLASSES = {
    "actor": ActorWorker,
    "critic": CriticWorker,
    "reference": ReferenceWorker,
    "reward": RewardWorker,
    "cost": CostWorker,
}

__all__ = [
    "ActorWorker",
    "CostWorker",
    "CriticWorker",
    "FSDPWorker",
    "ReferenceWorker",
    "RewardFunctionWorker",
    "RewardWorker",
    "ShardedModelWorker",
    "ThreeDParallelWorker",
    "TrainableRewardWorker",
    "WORKER_CLASSES",
    "ZeROWorker",
]
