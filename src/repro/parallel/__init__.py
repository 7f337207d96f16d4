"""3D parallel topology math: training groups, generation groups, sharding.

Implements the parallel-grouping rules of §5 of the paper:

* Training groups ``p-t-d`` use the classic Megatron convention — consecutive
  ranks form TP groups, consecutive blocks form pipeline stages, and DP groups
  pick ranks at interval ``p*t``.
* Generation groups ``p_g-t_g-d_g-d`` come in two flavours: the **vanilla**
  method (HybridFlow-V) reuses the training convention with generation sizes,
  while the **hybridflow** method selects generation TP/PP ranks at intervals
  ``t/t_g`` and ``p/p_g`` so every device's training shard is a sub-slice of
  its generation shard (zero-redundancy resharding, §5.3).
"""

from repro.parallel.topology import (
    GenGroupingMode,
    GenTopology,
    ParallelTopology,
    Rank3D,
    Rank4D,
)
from repro.parallel.sharding import ShardRange, WeightShard, shard_overlap_fraction
from repro.parallel.zero import ZeroConfig, ZeroStage, zero_memory_per_rank
from repro.parallel.fsdp import FsdpConfig

__all__ = [
    "FsdpConfig",
    "GenGroupingMode",
    "GenTopology",
    "ParallelTopology",
    "Rank3D",
    "Rank4D",
    "ShardRange",
    "WeightShard",
    "ZeroConfig",
    "ZeroStage",
    "shard_overlap_fraction",
    "zero_memory_per_rank",
]
