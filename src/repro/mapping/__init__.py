"""Auto device mapping (§6): placement enumeration + parallelism search.

``map_dataflow`` is Algorithm 1: enumerate all model placements (set
partitions of the dataflow's models), find the minimum feasible GPU
allocation of each colocated set, enumerate allocations, pick each model's
parallelism with Algorithm 2 (:func:`auto_parallel`), and score candidates
with the ``d_cost`` iteration model — returning the mapping with minimal
estimated RLHF iteration latency, on one homogeneous cluster or over
``ClusterZone`` s of different devices.
"""

from repro.mapping.placement_enum import (
    allowed_allocations,
    enum_alloc,
    set_partitions,
)
from repro.mapping.auto_parallel import ModelRole, StrategyChoice, auto_parallel
from repro.mapping.device_mapping import (
    ClusterZone,
    InfeasibleScenario,
    MappingResult,
    map_dataflow,
)

__all__ = [
    "ClusterZone",
    "InfeasibleScenario",
    "MappingResult",
    "ModelRole",
    "StrategyChoice",
    "allowed_allocations",
    "auto_parallel",
    "enum_alloc",
    "map_dataflow",
    "set_partitions",
]
