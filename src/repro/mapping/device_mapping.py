"""Algorithm 1: optimized device mapping for an RLHF dataflow (§6).

Enumerates model placements (set partitions), minimal and feasible GPU
allocations, per-model parallel strategies (Algorithm 2), and scores each
candidate with the end-to-end iteration estimate (``d_cost``), returning the
cheapest mapping.  Parallelism choices are cached per (model, allocation),
the optimisation the paper uses to keep search time to minutes (§8.5).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.config import (
    BYTES_BF16,
    ClusterSpec,
    ModelSpec,
    ParallelConfig,
    RlhfWorkload,
)
from repro.hybrid_engine.overhead import EngineKind
from repro.mapping.auto_parallel import ModelRole, StrategyChoice, auto_parallel
from repro.mapping.placement_enum import (
    allowed_allocations,
    enum_alloc,
    set_partitions,
)
from repro.perf.iteration import (
    GenerationPlan,
    IterationBreakdown,
    ModelExecution,
    estimate_iteration,
)
from repro.perf.memory import MemoryModel, OPTIMIZER_BYTES, GRAD_BYTES
from repro.rlhf.core import AlgoType

_ROLE_OF = {
    "actor": ModelRole.ACTOR,
    "critic": ModelRole.CRITIC,
    "reference": ModelRole.SCORER,
    "reward": ModelRole.SCORER,
    "cost": ModelRole.SCORER,
}

#: Fraction of usable memory the persistent states of a colocated set may
#: take; the rest is activations and best-effort KV cache.
PERSISTENT_BUDGET_FRACTION = 0.75


@dataclasses.dataclass
class MappingResult:
    """The chosen placement, allocation, strategies, and estimated cost."""

    placement: List[List[str]]
    allocation: Dict[str, int]  # pool name -> GPUs
    strategies: Dict[str, StrategyChoice]
    breakdown: IterationBreakdown
    cost: float

    def pool_of(self, model: str) -> str:
        for index, group in enumerate(self.placement):
            if model in group:
                return f"set{index}"
        raise KeyError(model)

    def describe(self) -> str:
        sets = " | ".join(
            f"{'+'.join(group)}@{self.allocation[f'set{i}']}"
            for i, group in enumerate(self.placement)
        )
        return f"[{sets}] cost={self.cost:.1f}s"


def persistent_bytes(spec: ModelSpec, role: ModelRole) -> float:
    """State a model keeps resident between stages, before sharding."""
    per_param = BYTES_BF16
    if role is not ModelRole.SCORER:
        per_param += GRAD_BYTES + OPTIMIZER_BYTES
    return spec.n_params() * per_param


def get_min_alloc(
    models: List[Tuple[str, ModelSpec]],
    cluster: ClusterSpec,
    n_gpus_total: int,
) -> Optional[int]:
    """Smallest allowed GPU count whose memory fits the colocated set (§6).

    Returns None when even the full cluster cannot host the set.
    """
    memory = MemoryModel(models[0][1], cluster)
    total = sum(
        persistent_bytes(spec, _ROLE_OF[name]) for name, spec in models
    )
    budget_per_gpu = memory.usable_bytes_per_gpu() * PERSISTENT_BUDGET_FRACTION
    needed = math.ceil(total / budget_per_gpu)
    for size in allowed_allocations(n_gpus_total, cluster.gpus_per_machine):
        if size >= needed:
            return size
    return None


def _reserved_bytes_for_generation(
    colocated: List[Tuple[str, ModelSpec]], n_gpus: int
) -> float:
    """Per-GPU memory held by a colocated set's persistent states."""
    total = sum(
        persistent_bytes(spec, _ROLE_OF[name]) for name, spec in colocated
    )
    return total / n_gpus


def _score_candidate(
    algo: AlgoType,
    placement: List[List[str]],
    allocation: Tuple[int, ...],
    specs: Dict[str, ModelSpec],
    cluster: ClusterSpec,
    workload: RlhfWorkload,
) -> Optional[Tuple[Dict[str, StrategyChoice], IterationBreakdown]]:
    strategies: Dict[str, StrategyChoice] = {}
    executions: Dict[str, ModelExecution] = {}
    gen_plan: Optional[GenerationPlan] = None

    for set_index, group in enumerate(placement):
        n_gpus = allocation[set_index]
        pool = f"set{set_index}"
        colocated = [(m, specs[m]) for m in group]
        reserved = _reserved_bytes_for_generation(colocated, n_gpus)
        for model in group:
            role = _ROLE_OF[model]
            choice = auto_parallel(
                specs[model],
                cluster,
                n_gpus,
                workload,
                role,
                reserved_bytes=reserved if role is ModelRole.ACTOR else 0.0,
            )
            if choice is None:
                return None  # does not fit: infeasible allocation
            strategies[model] = choice
            executions[model] = ModelExecution(
                spec=specs[model], pool=pool, parallel=choice.parallel
            )
            if role is ModelRole.ACTOR:
                assert choice.gen_tp is not None and choice.gen_pp is not None
                gen_mp = choice.gen_tp * choice.gen_pp
                gen_plan = GenerationPlan(
                    tp=choice.gen_tp,
                    pp=choice.gen_pp,
                    n_replicas=choice.parallel.world_size // gen_mp,
                    pool=pool,
                    engine=EngineKind.HYBRIDFLOW,
                    reserved_bytes=reserved,
                )
    assert gen_plan is not None
    breakdown = estimate_iteration(algo, executions, gen_plan, workload, cluster)
    return strategies, breakdown


def map_dataflow(
    algo: AlgoType,
    specs: Dict[str, ModelSpec],
    cluster: ClusterSpec,
    workload: RlhfWorkload,
    max_allocations_per_placement: int = 5000,
    placements: Optional[List[List[List[str]]]] = None,
) -> MappingResult:
    """Algorithm 1: best placement + allocation + parallelism for a dataflow.

    Args:
        algo: An ``AlgoType`` member or a trainer class.
        specs: Model role -> architecture (e.g. ``{"actor": 7B, ...}``).
        max_allocations_per_placement: Safety cap on the allocation
            enumeration per placement (the integer-partition space).
        placements: Restrict the search to these placements (each a list of
            colocated-model groups).  Used by §8.3's placement comparison to
            evaluate the colocate / standalone / split strategies under
            HybridFlow; by default all set partitions are searched.
    """
    models = list(specs)
    if "actor" not in models:
        raise ValueError("the dataflow needs an actor model")
    n = cluster.n_gpus

    best: Optional[MappingResult] = None
    candidate_placements = (
        placements if placements is not None else set_partitions(models)
    )
    for placement in candidate_placements:
        minimums = []
        feasible = True
        for group in placement:
            min_alloc = get_min_alloc(
                [(m, specs[m]) for m in group], cluster, n
            )
            if min_alloc is None:
                feasible = False
                break
            minimums.append(min_alloc)
        if not feasible or sum(minimums) > n:
            continue

        count = 0
        for allocation in enum_alloc(n, minimums, cluster.gpus_per_machine):
            count += 1
            if count > max_allocations_per_placement:
                break
            scored = _score_candidate(
                algo, placement, allocation, specs, cluster, workload
            )
            if scored is None:
                continue
            strategies, breakdown = scored
            if best is None or breakdown.total < best.cost:
                best = MappingResult(
                    placement=[list(g) for g in placement],
                    allocation={
                        f"set{i}": a for i, a in enumerate(allocation)
                    },
                    strategies=strategies,
                    breakdown=breakdown,
                    cost=breakdown.total,
                )
    if best is None:
        raise RuntimeError(
            f"no feasible mapping for {sorted(specs)} on {n} GPUs"
        )
    return best
