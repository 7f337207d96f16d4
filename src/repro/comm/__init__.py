"""Communication substrate: process groups, collectives, and cost models.

Two layers live here:

* **Functional collectives** (:mod:`repro.comm.collectives`) move real numpy
  arrays between simulated ranks, so resharding correctness (bit-exact
  weights after a 3D-HybridEngine transition) is actually exercised.
* **Analytical costs** (:mod:`repro.comm.cost`) give the per-GPU communication
  volume and latency of ring collectives, following Chan et al. — the same
  reference ([13]) the paper uses for Table 2's volumes.
"""

from repro.comm.groups import (
    GroupCache,
    ProcessGroup,
    TrafficMeter,
    partition_problems,
    ring_all_gather_bytes,
)
from repro.comm.collectives import (
    all_gather,
    all_gather_object,
    all_reduce,
    all_to_all,
    broadcast,
    gather,
    reduce_scatter,
    scatter,
)
from repro.comm.cost import (
    all_gather_time,
    all_gather_volume_per_rank,
    all_reduce_time,
    all_reduce_volume_per_rank,
    broadcast_time,
    group_bandwidth,
    p2p_time,
    reduce_scatter_volume_per_rank,
)

__all__ = [
    "GroupCache",
    "ProcessGroup",
    "TrafficMeter",
    "all_gather",
    "all_gather_object",
    "all_gather_time",
    "all_gather_volume_per_rank",
    "all_reduce",
    "all_reduce_time",
    "all_reduce_volume_per_rank",
    "all_to_all",
    "broadcast",
    "broadcast_time",
    "gather",
    "group_bandwidth",
    "p2p_time",
    "partition_problems",
    "reduce_scatter",
    "reduce_scatter_volume_per_rank",
    "ring_all_gather_bytes",
    "scatter",
]
