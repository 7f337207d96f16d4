"""Algorithm 2: per-model parallelism search, cached, priced by ``simu``.

For a model allocated ``A`` GPUs, enumerate tensor-parallel sizes up to one
machine (``U``) and pipeline sizes up to the machine count, derive the DP
size, reject configurations that do not fit in memory, and keep the strategy
with minimal estimated latency for the model's workload (training for
actor/critic, inference for reference/reward, with the actor's generation
strategy searched separately over divisors of its model-parallel size).
Every estimate is :func:`repro.perf.iteration.call_latency`, the stage
dispatch Algorithm 1's ``d_cost`` replay prices its calls with.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Optional, Tuple

from repro.config import ClusterSpec, ModelSpec, ParallelConfig, RlhfWorkload
from repro.perf.iteration import GenerationPlan, ModelExecution, call_latency
from repro.perf.memory import MemoryModel
from repro.rlhf.graph import GENERATION, PREPARATION, TRAINING


class ModelRole(str, enum.Enum):
    """What a model computes across stages, deciding its search objective."""

    ACTOR = "actor"  # training + generation
    CRITIC = "critic"  # training + inference
    SCORER = "scorer"  # inference only (reference / reward / cost)


@dataclasses.dataclass(frozen=True)
class StrategyChoice:
    """The selected parallelism for one model on one allocation."""

    parallel: ParallelConfig
    latency: float
    gen_tp: Optional[int] = None
    gen_pp: Optional[int] = None
    gen_latency: Optional[float] = None


def clear_cache() -> None:
    """Forget every cached strategy (a cold search, as Figure 16 times it)."""
    auto_parallel.cache_clear()


def _fits_memory(
    spec: ModelSpec,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    workload: RlhfWorkload,
    role: ModelRole,
) -> bool:
    memory = MemoryModel(spec, cluster)
    if role is ModelRole.SCORER:
        stage = memory.inference(parallel, workload)
    else:
        stage = memory.training(parallel, workload)
    return stage.total <= memory.usable_bytes_per_gpu()


def search_generation_strategy(
    spec: ModelSpec,
    cluster: ClusterSpec,
    train: ParallelConfig,
    workload: RlhfWorkload,
    reserved_bytes: float = 0.0,
) -> Tuple[int, int, float]:
    """Best ``(gen_tp, gen_pp)`` dividing the training MP size (§5.1)."""
    best: Optional[Tuple[int, int, float]] = None
    mp = train.model_parallel_size
    for gen_tp in range(1, train.tp + 1):
        if train.tp % gen_tp:
            continue
        for gen_pp in range(1, train.pp + 1):
            if train.pp % gen_pp:
                continue
            if mp % (gen_tp * gen_pp):
                continue
            plan = GenerationPlan(
                tp=gen_tp,
                pp=gen_pp,
                n_replicas=train.world_size // (gen_tp * gen_pp),
                pool="actor",
                reserved_bytes=reserved_bytes,
            )
            latency = call_latency(
                GENERATION, ModelExecution(spec, "actor", train), plan,
                workload, cluster,
            )
            if best is None or latency < best[2]:
                best = (gen_tp, gen_pp, latency)
    assert best is not None  # gen_tp = train.tp always feasible
    return best


@functools.cache
def auto_parallel(
    spec: ModelSpec,
    cluster: ClusterSpec,
    n_gpus: int,
    workload: RlhfWorkload,
    role: ModelRole,
    min_tp: int = 1,
    min_pp: int = 1,
    reserved_bytes: float = 0.0,
) -> Optional[StrategyChoice]:
    """Best parallel strategy for ``spec`` on ``n_gpus`` GPUs, or None if no
    configuration fits in memory (the caller then grows the allocation).

    Cached on the whole input — the frozen specs and workload included — so a
    zone of one device never reuses a strategy searched on another."""
    machine = cluster.gpus_per_machine
    best: Optional[StrategyChoice] = None
    tp = min_tp
    while tp <= min(machine, n_gpus):
        pp = min_pp
        while pp <= max(1, n_gpus // machine) and tp * pp <= n_gpus:
            if n_gpus % (tp * pp) == 0:
                parallel = ParallelConfig(pp=pp, tp=tp, dp=n_gpus // (tp * pp))
                if _fits_memory(spec, cluster, parallel, workload, role):
                    stage = PREPARATION if role is ModelRole.SCORER else TRAINING
                    latency = call_latency(
                        stage, ModelExecution(spec, role.value, parallel), None,
                        workload, cluster,
                    )
                    choice = StrategyChoice(parallel=parallel, latency=latency)
                    if role is ModelRole.ACTOR:
                        gen_tp, gen_pp, gen_latency = search_generation_strategy(
                            spec, cluster, parallel, workload, reserved_bytes
                        )
                        choice = StrategyChoice(
                            parallel=parallel,
                            latency=latency + gen_latency,
                            gen_tp=gen_tp,
                            gen_pp=gen_pp,
                            gen_latency=gen_latency,
                        )
                    if best is None or choice.latency < best.latency:
                        best = choice
            pp *= 2
        tp *= 2
    return best
