"""Algorithm 1: optimized device mapping for an RLHF dataflow (§6).

Enumerates model placements (set partitions), minimal and feasible GPU
allocations, per-model parallel strategies (Algorithm 2), and scores each
candidate with the end-to-end iteration estimate (``d_cost``), returning the
cheapest mapping.  Parallelism choices are cached per (model, allocation),
the optimisation the paper uses to keep search time to minutes (§8.5).

The cluster is one homogeneous :class:`~repro.config.ClusterSpec` or a list
of :class:`ClusterZone` s of different devices — the extension §6 sketches:
"Algorithm 1 can be readily extended for optimizing model mapping over
heterogeneous devices, by considering heterogeneous devices in simu and
auto_parallel modules".  A colocated set lives inside one zone (collectives
spanning device generations are impractical), and each of its models is
searched and priced against that zone's devices.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.config import (
    BYTES_BF16,
    ClusterSpec,
    ModelSpec,
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
    FIGURE1_DATAFLOW,
    GenerationPlan,
    IterationBreakdown,
    ModelExecution,
    estimate_iteration,
)
from repro.perf.memory import MemoryModel, OPTIMIZER_BYTES, GRAD_BYTES
from repro.rlhf.core import AlgoType
from repro.rlhf.graph import DataflowGraph, dataflow_of

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


class InfeasibleScenario(RuntimeError):
    """The scenario cannot run on this system (OOM at every configuration)."""


@dataclasses.dataclass(frozen=True)
class ClusterZone:
    """A named homogeneous slice of a heterogeneous cluster."""

    name: str
    spec: ClusterSpec

    @property
    def n_gpus(self) -> int:
        return self.spec.n_gpus


@dataclasses.dataclass
class MappingResult:
    """The chosen placement, allocation, strategies, and estimated cost."""

    placement: List[List[str]]
    allocation: Dict[str, int]  # pool name -> GPUs
    strategies: Dict[str, StrategyChoice]
    breakdown: IterationBreakdown
    cost: float
    zone_of_set: List[str]  # "" on a homogeneous cluster

    def _set_of(self, model: str) -> int:
        for index, group in enumerate(self.placement):
            if model in group:
                return index
        raise KeyError(model)

    def pool_of(self, model: str) -> str:
        return f"set{self._set_of(model)}"

    def zone_of(self, model: str) -> str:
        return self.zone_of_set[self._set_of(model)]

    def describe(self) -> str:
        sets = " | ".join(
            f"{'+'.join(group)}@{self.allocation[f'set{i}']}"
            + (f":{zone}" if zone else "")
            for i, (group, zone) in enumerate(
                zip(self.placement, self.zone_of_set)
            )
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


def _candidates(
    placement: List[List[str]],
    specs: Dict[str, ModelSpec],
    zones: List[ClusterZone],
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """``(zone of each set, GPUs of each set)`` for every candidate of one
    placement: each set goes to one zone (a zone may host none), and the sets
    a zone hosts split its GPUs exactly, each at least its minimum allocation
    on that zone's devices (``enum_alloc``)."""
    for assignment in itertools.product(range(len(zones)), repeat=len(placement)):
        minimums = [
            get_min_alloc([(m, specs[m]) for m in group], zones[z].spec, zones[z].n_gpus)
            for group, z in zip(placement, assignment)
        ]
        if None in minimums:
            continue
        hosted = {
            z: [i for i, a in enumerate(assignment) if a == z]
            for z in sorted(set(assignment))
        }
        splits = [
            list(enum_alloc(
                zones[z].n_gpus, [minimums[i] for i in sets],
                zones[z].spec.gpus_per_machine,
            ))
            for z, sets in hosted.items()
        ]
        order = [i for sets in hosted.values() for i in sets]
        for split in itertools.product(*splits):
            size_of = dict(zip(order, itertools.chain(*split)))
            yield assignment, tuple(size_of[i] for i in range(len(placement)))


def _score_candidate(
    graph: DataflowGraph,
    placement: List[List[str]],
    assignment: Tuple[int, ...],
    allocation: Tuple[int, ...],
    specs: Dict[str, ModelSpec],
    zones: List[ClusterZone],
    workload: RlhfWorkload,
) -> Optional[Tuple[Dict[str, StrategyChoice], IterationBreakdown]]:
    strategies: Dict[str, StrategyChoice] = {}
    executions: Dict[str, ModelExecution] = {}
    gen_plan: Optional[GenerationPlan] = None

    for set_index, group in enumerate(placement):
        n_gpus = allocation[set_index]
        cluster = zones[assignment[set_index]].spec
        pool = f"set{set_index}"
        # per-GPU memory held by the set's persistent states
        reserved = sum(
            persistent_bytes(specs[m], _ROLE_OF[m]) for m in group
        ) / n_gpus
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
                spec=specs[model],
                pool=pool,
                parallel=choice.parallel,
                cluster=cluster,
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
                    cluster=cluster,
                )
    assert gen_plan is not None
    breakdown = estimate_iteration(
        graph, executions, gen_plan, workload, zones[0].spec
    )
    return strategies, breakdown


def map_dataflow(
    algo: AlgoType,
    specs: Dict[str, ModelSpec],
    cluster: Union[ClusterSpec, Sequence[ClusterZone]],
    workload: RlhfWorkload,
    max_allocations_per_placement: int = 5000,
    placements: Optional[List[List[List[str]]]] = None,
) -> MappingResult:
    """Algorithm 1: best placement + allocation + parallelism for a dataflow.

    Args:
        algo: An ``AlgoType`` member or a trainer class.
        specs: Model role -> architecture (e.g. ``{"actor": 7B, ...}``).
        cluster: One homogeneous cluster, or the zones of a heterogeneous
            one (each set is placed in one zone; a zone may stay empty).
        max_allocations_per_placement: Safety cap on the allocation
            enumeration per placement (the integer-partition space).
        placements: Restrict the search to these placements (each a list of
            colocated-model groups).  Used by §8.3's placement comparison to
            evaluate the colocate / standalone / split strategies under
            HybridFlow; by default all set partitions are searched.
    """
    if isinstance(cluster, ClusterSpec):
        zones = [ClusterZone("", cluster)]
    else:
        zones = list(cluster)
    if not zones:
        raise ValueError("need at least one cluster zone")
    if len({z.name for z in zones}) != len(zones):
        raise ValueError("zone names must be unique")
    if "actor" not in specs:
        raise ValueError("the dataflow needs an actor model")

    graph = dataflow_of(algo, FIGURE1_DATAFLOW)  # one derivation prices every candidate
    best: Optional[MappingResult] = None
    candidate_placements = (
        placements if placements is not None else set_partitions(list(specs))
    )
    for placement in candidate_placements:
        candidates = _candidates(placement, specs, zones)
        for assignment, allocation in itertools.islice(
            candidates, max_allocations_per_placement
        ):
            scored = _score_candidate(
                graph, placement, assignment, allocation, specs, zones, workload
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
                    zone_of_set=[zones[z].name for z in assignment],
                )
    if best is None:
        raise InfeasibleScenario(
            f"no feasible mapping for {sorted(specs)} on "
            f"{sum(z.n_gpus for z in zones)} GPUs"
        )
    return best
