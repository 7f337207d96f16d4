"""Shared pieces for the baseline system models."""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.config import ClusterSpec, ModelSpec, ParallelConfig, RlhfWorkload
from repro.mapping.auto_parallel import ModelRole, auto_parallel
from repro.mapping.device_mapping import InfeasibleScenario
from repro.perf.iteration import IterationBreakdown


@dataclasses.dataclass(frozen=True)
class SystemEstimate:
    """One system's estimated performance on one scenario."""

    system: str
    breakdown: IterationBreakdown
    placement: str
    details: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def iteration_time(self) -> float:
        return self.breakdown.total

    def throughput(self, workload: RlhfWorkload) -> float:
        return self.breakdown.throughput(workload)


def choose_3d_parallel(
    spec: ModelSpec,
    cluster: ClusterSpec,
    n_gpus: int,
    workload: RlhfWorkload,
    role: ModelRole,
) -> ParallelConfig:
    """A well-tuned Megatron-style 3D configuration for a baseline's model.

    Baselines configure Megatron by hand; giving them the same parallelism
    search HybridFlow uses keeps the comparison about system architecture.
    """
    choice = auto_parallel(spec, cluster, n_gpus, workload, role)
    if choice is None:
        raise InfeasibleScenario(
            f"{spec.name} does not fit on {n_gpus} GPUs in any 3D layout"
        )
    return choice.parallel


def zero3_fits(
    spec: ModelSpec,
    cluster: ClusterSpec,
    n_gpus: int,
    workload: RlhfWorkload,
    trainable: bool = True,
) -> bool:
    """Does ZeRO-3 over ``n_gpus`` ranks fit this model in memory?"""
    from repro.perf.memory import MemoryModel

    memory = MemoryModel(spec, cluster)
    parallel = ParallelConfig(pp=1, tp=1, dp=n_gpus)
    if trainable:
        stage = memory.training(parallel, workload, zero3=True)
    else:
        stage = memory.inference(ParallelConfig(pp=1, tp=1, dp=1), workload)
        # forward-only ZeRO-3 still shards parameters but must materialise
        # one layer at a time; approximate with sharded params + one layer
        stage = dataclasses.replace(
            stage,
            params=spec.n_params() * 2 / n_gpus
            + memory._largest_layer_bytes(),
        )
    return stage.total <= memory.usable_bytes_per_gpu()
