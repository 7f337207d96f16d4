"""Compute-bound latency models: training and single-pass inference (App. C).

Latency = arithmetic time on the model's GPUs (roofline against achievable
FLOP/s) + tensor-parallel activation traffic + pipeline bubble + data-parallel
gradient synchronisation (+ ZeRO-3 parameter gathering when selected).
"""

from __future__ import annotations

from repro.comm.cost import group_bandwidth
from repro.config import (
    BYTES_BF16,
    ClusterSpec,
    ModelSpec,
    ParallelConfig,
    RlhfWorkload,
)
from repro.perf.pipeline import bubble_multiplier

#: All-reduce ops per transformer layer in a TP forward pass (Megatron: one
#: after attention, one after the MLP); backward doubles it.
TP_ALLREDUCE_PER_LAYER_FWD = 2

#: Tokens per GPU per pass at which matmuls reach half their peak
#: efficiency.  Scaling a fixed global batch over more GPUs shrinks local
#: batches and drops utilisation — the paper's stated reason strong-scaling
#: efficiency is 66.8% rather than 100% (§8.2).
SATURATION_TOKENS_PER_GPU = 1536


def batch_efficiency(tokens_per_gpu: float) -> float:
    """Fraction of achievable FLOP/s realised at this per-GPU batch size."""
    if tokens_per_gpu <= 0:
        return 0.0
    return tokens_per_gpu / (tokens_per_gpu + SATURATION_TOKENS_PER_GPU)


def _tp_ranks(cluster: ClusterSpec, tp: int) -> list:
    """Representative rank set for a TP group (consecutive device ranks)."""
    return list(range(min(tp, cluster.n_gpus)))


def _dp_ranks(cluster: ClusterSpec, parallel: ParallelConfig) -> list:
    """Representative rank set for a DP group (stride = MP size)."""
    stride = parallel.model_parallel_size
    return [min(i * stride, cluster.n_gpus - 1) for i in range(parallel.dp)]


def _tp_traffic_time(
    spec: ModelSpec,
    cluster: ClusterSpec,
    tp: int,
    tokens_per_replica: float,
    n_passes: int,
) -> float:
    """Activation all-reduce time for ``tokens`` flowing through TP layers."""
    if tp <= 1:
        return 0.0
    ranks = _tp_ranks(cluster, tp)
    bw = group_bandwidth(cluster, ranks)
    per_op_bytes = tokens_per_replica * spec.hidden_size * BYTES_BF16
    volume = 2.0 * (tp - 1) / tp * per_op_bytes  # ring all-reduce per op
    ops = TP_ALLREDUCE_PER_LAYER_FWD * spec.n_layers * n_passes
    return ops * (cluster.link_latency * 2 * (tp - 1) + volume / bw)


def _pipeline_bubble(parallel: ParallelConfig, workload: RlhfWorkload) -> float:
    """Bubble multiplier with ``m`` microbatches per DP rank (at least ``p``)."""
    microbatches = max(parallel.pp, workload.global_batch_size // max(parallel.dp, 1))
    return bubble_multiplier(parallel.pp, microbatches)


def training_latency(
    spec: ModelSpec,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    workload: RlhfWorkload,
    zero3: bool = False,
    n_passes_over_batch: float = 1.0,
) -> float:
    """Seconds to run one training phase over the global batch.

    ``n_passes_over_batch`` scales for PPO epochs > 1.  The paper's training
    stage covers the whole global batch once per epoch regardless of the
    minibatch count, so update count only affects optimizer overhead (small,
    folded into the efficiency factor).
    """
    n_gpus = parallel.world_size
    tokens = workload.tokens_per_iteration * n_passes_over_batch
    flops = tokens * spec.flops_per_token_train(workload.seq_length)
    n_updates = max(1, workload.ppo_updates_per_epoch)
    tokens_per_gpu_pass = workload.tokens_per_iteration / (n_gpus * n_updates)
    achievable = (
        cluster.gpu.peak_flops
        * cluster.gpu.flops_efficiency
        * batch_efficiency(tokens_per_gpu_pass)
    )
    compute = flops / (n_gpus * achievable)

    compute *= _pipeline_bubble(parallel, workload)

    tokens_per_replica = tokens / max(parallel.dp, 1)
    tp_time = _tp_traffic_time(
        spec, cluster, parallel.tp, tokens_per_replica, n_passes=3
    )

    # data-parallel gradient synchronisation (per optimizer pass over batch)
    dp_time = 0.0
    if parallel.dp > 1:
        grad_bytes = spec.n_params() * BYTES_BF16 / parallel.model_parallel_size
        ranks = _dp_ranks(cluster, parallel)
        bw = group_bandwidth(cluster, ranks)
        factor = 1.0 if zero3 else 2.0  # reduce-scatter vs all-reduce
        n_updates = max(1, workload.ppo_updates_per_epoch)
        dp_time = (
            factor * (parallel.dp - 1) / parallel.dp * grad_bytes / bw
        ) * n_updates
        if zero3:
            # ZeRO-3 re-gathers parameters for the forward and backward of
            # *every* minibatch update — the per-step traffic that makes
            # ZeRO-3 training lose to 3D parallelism across machines
            param_bytes = spec.n_params() * BYTES_BF16 / parallel.model_parallel_size
            dp_time += (
                2.0 * (parallel.dp - 1) / parallel.dp * param_bytes / bw
            ) * n_updates
        dp_time *= n_passes_over_batch

    # DP traffic overlaps with backward compute (bucketed all-reduce /
    # ZeRO prefetch); only the excess over half the compute time is exposed
    dp_exposed = max(0.0, dp_time - 0.5 * compute)
    return compute + tp_time + dp_exposed


def inference_latency(
    spec: ModelSpec,
    cluster: ClusterSpec,
    parallel: ParallelConfig,
    workload: RlhfWorkload,
    zero3: bool = False,
) -> float:
    """Seconds for one forward pass of the global batch (prep-stage scoring).

    ``zero3`` adds the parameter all-gather a ZeRO-sharded forward needs
    (DeepSpeed-Chat keeps even forward-only models ZeRO-3-sharded).
    """
    n_gpus = parallel.world_size
    tokens = workload.tokens_per_iteration
    flops = tokens * spec.flops_per_token_forward(workload.seq_length)
    achievable = (
        cluster.gpu.peak_flops
        * cluster.gpu.flops_efficiency
        * batch_efficiency(tokens / n_gpus)
    )
    compute = flops / (n_gpus * achievable) * _pipeline_bubble(parallel, workload)
    tokens_per_replica = tokens / max(parallel.dp, 1)
    tp_time = _tp_traffic_time(
        spec, cluster, parallel.tp, tokens_per_replica, n_passes=1
    )
    zero_time = 0.0
    if zero3 and parallel.dp > 1:
        param_bytes = spec.n_params() * BYTES_BF16 / parallel.model_parallel_size
        ranks = _dp_ranks(cluster, parallel)
        bw = group_bandwidth(cluster, ranks)
        gather = (parallel.dp - 1) / parallel.dp * param_bytes / bw
        zero_time = max(0.0, gather - 0.5 * compute)  # prefetch overlap
    return compute + tp_time + zero_time
