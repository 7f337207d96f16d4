"""Project a functional dataflow trace onto full-scale analytical timing.

The functional layer runs miniature models, but its controller trace is the
*real* RLHF dataflow DAG.  This module assigns each traced call the latency
the analytical simulators predict for a full-scale model under the traced
placement — bridging the two layers: write and debug a dataflow at toy
scale, then read off its projected iteration time and per-pool utilisation
on (simulated) Llama-class models and A100 clusters.  A call is priced by
its dataflow stage and role, with the cost model's own
:func:`repro.perf.iteration.call_latency`.

The model :func:`perf_duration_fn` returns is a drop-in for the
controller's one duration model: assign it to
``system.controller.planned_duration`` and dispatch, the fault injector and
every replay (``build_timeline(controller.trace,
controller.planned_duration)``) are re-timed together; or replay a finished
trace under it directly with ``build_timeline(trace, model)``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.config import ClusterSpec, ModelSpec, ParallelConfig, RlhfWorkload
from repro.perf.iteration import (
    GenerationPlan,
    ModelExecution,
    call_latency,
)
from repro.rlhf.graph import TRAINING, dataflow_of
from repro.runtime.builder import RlhfSystem
from repro.single_controller.controller import ExecutionRecord


def perf_duration_fn(
    system: RlhfSystem,
    model_specs: Mapping[str, ModelSpec],
    workload: RlhfWorkload,
    cluster: ClusterSpec,
    gen_tp: Optional[int] = None,
    gen_pp: int = 1,
):
    """A duration model backed by the perf simulators.

    Args:
        system: The functional system whose trace is being projected; its
            worker groups supply each model's pool size and parallel shape
            (scaled to the projection cluster by keeping the MP sizes and
            widening DP), its trainer the stage of each call.
        model_specs: Full-scale architecture per model role.
        gen_tp/gen_pp: Generation parallel sizes for the actor (defaults to
            its training TP).
    """
    graph = dataflow_of(type(system.trainer), system.trainer.config)
    stage_of = {(node.role, node.method): node.stage for node in graph.nodes}
    executions = {}
    total = sum(g.resource_pool.size for g in set(system.groups.values()))
    for role, group in system.groups.items():
        if role not in model_specs:
            continue
        cfg = group.train_topology.config
        share = group.resource_pool.size / total
        n_gpus = max(
            cfg.model_parallel_size,
            int(cluster.n_gpus * share)
            // cfg.model_parallel_size
            * cfg.model_parallel_size,
        )
        parallel = ParallelConfig(
            pp=cfg.pp, tp=cfg.tp, dp=n_gpus // cfg.model_parallel_size
        )
        executions[role] = ModelExecution(
            model_specs[role], group.resource_pool.name, parallel
        )

    def duration(record: ExecutionRecord) -> float:
        stage = stage_of.get((record.group, record.method))
        if record.group not in executions or stage is None:
            return 0.01  # non-NN workers (reward functions etc.)
        execution = executions[record.group]
        tp = gen_tp or execution.parallel.tp
        n_replicas = max(1, execution.parallel.world_size // (tp * gen_pp))
        gen_plan = GenerationPlan(tp, gen_pp, n_replicas, execution.pool)
        latency = call_latency(stage, execution, gen_plan, workload, cluster)
        if stage == TRAINING:
            # one traced update call covers one minibatch of the epoch
            return latency / max(1, workload.ppo_updates_per_epoch)
        return latency

    return duration
