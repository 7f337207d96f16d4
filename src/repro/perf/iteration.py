"""End-to-end RLHF iteration latency under a placement (the d_cost model, §6).

The iteration is the DAG one ``step`` of the algorithm dispatches (Figure 1,
:func:`repro.rlhf.graph.dataflow_of`), replayed by the scheduler every
timeline goes through (:func:`repro.runtime.timeline.build_timeline`): a
call starts once the calls it reads have finished and its pool is free, so
colocated models execute sequentially and models on disjoint pools in
parallel.  The actor's train->generation transition is its first call; data
transfer and framework overhead are an additive tail.  When every training
call waits on every preparation call and those on generation (PPO, GRPO,
Safe-RLHF), this is exactly the ``d_cost`` accounting of Algorithm 1 (sum
within a colocated set, max across sets, sum over stages); ReMax's scorers
on their own pool overlap its second, greedy rollout.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.config import (
    BYTES_BF16,
    ClusterSpec,
    GenParallelConfig,
    ModelSpec,
    ParallelConfig,
    RlhfWorkload,
)
from repro.hybrid_engine.overhead import EngineKind
from repro.perf.compute import inference_latency, training_latency
from repro.perf.generation import generation_latency
from repro.perf.transition import transition_time, weight_sync_time
from repro.rlhf.core import AlgoType
from repro.rlhf.graph import GENERATION, PREPARATION, TRAINING, DataflowGraph, dataflow_of
from repro.rlhf.trainers import TrainerConfig
from repro.runtime.timeline import build_timeline
from repro.single_controller.controller import ExecutionRecord


@dataclasses.dataclass(frozen=True)
class ModelExecution:
    """How one model runs: its architecture, pool, and parallel strategy.

    ``cluster`` optionally overrides the job-wide cluster for this model's
    latency estimates — the hook behind heterogeneous-device mapping (§6:
    "Algorithm 1 can be readily extended ... by considering heterogeneous
    devices in simu and auto_parallel").
    """

    spec: ModelSpec
    pool: str
    parallel: ParallelConfig
    zero3: bool = False
    cluster: Optional[ClusterSpec] = None


@dataclasses.dataclass(frozen=True)
class GenerationPlan:
    """How and where the actor generates."""

    tp: int
    pp: int
    n_replicas: int
    pool: str
    #: Resharding engine on shared devices, or None when the generation
    #: parallelism equals training (NeMo-Aligner) or runs on separate
    #: devices (OpenRLHF).
    engine: Optional[EngineKind] = EngineKind.HYBRIDFLOW
    #: OpenRLHF: a second weight copy synchronised across machines.
    weight_sync: bool = False
    use_kv_cache: bool = True
    reserved_bytes: float = 0.0
    #: Fixed per-decode-step engine overhead (unoptimised generation loops).
    step_overhead: float = 0.0
    #: Optional cluster override for the generation pool (heterogeneity).
    cluster: Optional[ClusterSpec] = None


@dataclasses.dataclass(frozen=True)
class IterationBreakdown:
    """Latency decomposition of one RLHF iteration: the time its critical
    path spends in the transition and in each Figure-1 stage, plus the
    additive data-transfer tail."""

    transition: float
    generation: float
    preparation: float
    training: float
    data_transfer: float

    @property
    def total(self) -> float:
        return (
            self.transition
            + self.generation
            + self.preparation
            + self.training
            + self.data_transfer
        )

    def throughput(self, workload: RlhfWorkload) -> float:
        """Tokens/sec as the paper defines it (§8.1)."""
        if self.total == float("inf"):
            return 0.0
        return workload.tokens_per_iteration / self.total


#: Figure 1 draws the dataflow whose anchor log-probs are the sampler's own
#: (no recompute pass); stages and pass counts are read off that graph.
FIGURE1_DATAFLOW = TrainerConfig(recompute_log_probs=False)

#: Safe-RLHF trains the actor on RL data plus the auxiliary pretraining batch
#: — a cost of its loss, not a call in its graph.
SAFE_RLHF_ACTOR_TRAIN_FACTOR = 1.5

#: Per-iteration serial overhead: dataloading, controller dispatch, optimizer
#: step launches, checkpoint/bookkeeping — independent of the cluster size,
#: this floor is what pushes strong-scaling efficiency below 100% (§8.2).
FRAMEWORK_OVERHEAD_BASE = 3.0
FRAMEWORK_OVERHEAD_PER_UPDATE = 0.5

#: Trace seq of the actor's train→generation transition, which precedes call 0.
TRANSITION = -1


def call_latency(
    stage: str,
    execution: ModelExecution,
    gen_plan: Optional[GenerationPlan],
    workload: RlhfWorkload,
    cluster: ClusterSpec,
    passes: float = 1.0,
) -> float:
    """Simulated seconds of one call in Figure-1 ``stage`` by the model
    ``execution`` places (App. C): a rollout of the global batch under
    ``gen_plan``, ``passes`` training passes over it, or one scoring forward."""
    cluster = execution.cluster or cluster
    if stage == GENERATION:
        return generation_latency(
            execution.spec, gen_plan.cluster or cluster, gen_plan.tp, gen_plan.pp,
            gen_plan.n_replicas, workload, use_kv_cache=gen_plan.use_kv_cache,
            reserved_bytes=gen_plan.reserved_bytes,
            step_overhead=gen_plan.step_overhead,
        ).total
    if stage == TRAINING:
        return training_latency(
            execution.spec, cluster, execution.parallel, workload,
            zero3=execution.zero3, n_passes_over_batch=passes,
        )
    return inference_latency(
        execution.spec, cluster, execution.parallel, workload, zero3=execution.zero3
    )


def estimate_iteration(
    algo: AlgoType,
    executions: Dict[str, ModelExecution],
    gen_plan: GenerationPlan,
    workload: RlhfWorkload,
    cluster: ClusterSpec,
) -> IterationBreakdown:
    """Latency of one RLHF iteration under a full system configuration.

    ``algo`` is an ``AlgoType`` member, a trainer class, or the graph
    ``dataflow_of(algo, FIGURE1_DATAFLOW)`` derived (Algorithm 1 prices
    every candidate on one); ``executions`` maps the model roles its
    dataflow calls (Figure 1) to their placement and parallelism;
    ``gen_plan`` describes the actor's generation configuration and
    resharding mechanism.  Each stage of the breakdown is the time the
    iteration's critical path spends in its calls.
    """
    graph = algo if isinstance(algo, DataflowGraph) else dataflow_of(algo, FIGURE1_DATAFLOW)
    prep_calls, train_calls = graph.calls(PREPARATION), graph.calls(TRAINING)
    missing = [r for r in graph.roles if r not in executions]
    if missing:
        raise ValueError(f"{graph.name} needs executions for {missing}")
    actor = executions["actor"]

    # -- transition --------------------------------------------------------------
    transition = 0.0
    actor_cluster = actor.cluster or cluster
    gen_cluster = gen_plan.cluster or actor_cluster
    if gen_plan.weight_sync:
        gen_gpus = gen_plan.n_replicas * gen_plan.tp * gen_plan.pp
        transition = weight_sync_time(actor.spec, gen_cluster, gen_gpus)
    elif gen_plan.engine is not None:
        if actor.zero3:
            # ZeRO-3 shards parameters over all ranks: the transition gathers
            # across the whole DP world (the DS-Chat row of Table 2)
            train_cfg = ParallelConfig(pp=1, tp=1, dp=actor.parallel.world_size)
            gen_cfg = GenParallelConfig(pp=1, tp=1, micro_dp=1)
        else:
            train_cfg = actor.parallel
            gen_cfg = GenParallelConfig.derive(
                train_cfg, gen_plan.pp, gen_plan.tp
            )
        transition = transition_time(
            gen_plan.engine, actor.spec, actor_cluster, train_cfg, gen_cfg
        )

    # -- the dataflow graph, replayed ---------------------------------------------------
    seconds = {TRANSITION: transition}
    records = [ExecutionRecord(TRANSITION, "actor", "to_generation", actor.pool)]
    for node in graph.nodes:
        execution = executions[node.role]
        safe_actor = node.role == "actor" and graph.name == AlgoType.SAFE_RLHF.value
        factor = SAFE_RLHF_ACTOR_TRAIN_FACTOR if safe_actor else 1.0
        passes = workload.ppo_epochs * factor
        seconds[node.seq] = call_latency(
            node.stage, execution, gen_plan, workload, cluster, passes
        )
        pool = gen_plan.pool if node.stage == GENERATION else execution.pool
        deps = node.deps or (TRANSITION,)  # generation waits for the transition
        records.append(ExecutionRecord(node.seq, node.role, node.method, pool, deps))
    timeline = build_timeline(records, lambda record: seconds[record.seq])

    # the critical path, walked back from the last call to finish through the
    # input or pool predecessor each call waited for; it starts at the
    # transition, and every other call on it is charged to its stage
    ended, waited_for, last_on = {}, {}, {}
    for record, event in zip(records, timeline.events):
        before = [last_on.get(record.pool), *(ended[d] for d in record.deps)]
        waited_for[event.seq] = next(
            (e for e in before if e is not None and e.end == event.start), None
        )
        ended[event.seq] = last_on[record.pool] = event
    path = [max(timeline.events, key=lambda e: e.end)]
    while waited_for[path[-1].seq] is not None:
        path.append(waited_for[path[-1].seq])
    stage_of = {node.seq: node.stage for node in graph.nodes}
    spent = dict.fromkeys((GENERATION, PREPARATION, TRAINING), 0.0)
    for event in reversed(path[:-1]):
        spent[stage_of[event.seq]] += seconds[event.seq]

    # -- inter-model data movement ------------------------------------------------------
    # sequences + per-token floats flow between models; tiny next to weights
    batch_tokens = workload.tokens_per_iteration
    edge_bytes = batch_tokens * (8 + 4 * BYTES_BF16)
    n_edges = len(prep_calls) + len(train_calls)
    data_transfer = n_edges * edge_bytes / cluster.inter_node_bandwidth
    data_transfer += (
        FRAMEWORK_OVERHEAD_BASE
        + FRAMEWORK_OVERHEAD_PER_UPDATE
        * workload.ppo_epochs
        * workload.ppo_updates_per_epoch
    )

    return IterationBreakdown(
        transition=transition,
        generation=spent[GENERATION],
        preparation=spent[PREPARATION],
        training=spent[TRAINING],
        data_transfer=data_transfer,
    )
