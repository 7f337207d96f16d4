"""Model, cluster, and parallelism configuration for the HybridFlow reproduction.

The paper evaluates Llama-family models of 7B to 70B parameters on a cluster
of 16 machines, each with 8 NVIDIA A100-80GB GPUs (NVLink 600 GB/s
intra-machine, 200 Gbps InfiniBand inter-machine).  This module captures those
specifications as plain dataclasses so both the functional runtime and the
analytical performance simulators can share one source of truth.

All sizes are expressed in base units: bytes, FLOPs, seconds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Any, Dict, Mapping, Tuple

GiB = 1024**3
GB = 10**9


class BoundError(ValueError):
    """A setting outside its declared bound; ``field`` names the setting and
    ``requirement`` says what it must be (``"must be >= 1"``)."""

    def __init__(
        self, field: str, value: Any, requirement: str, optional: bool = False
    ) -> None:
        self.field, self.value, self.requirement = field, value, requirement
        if optional:
            requirement = requirement.replace("must be ", "must be None or ", 1)
        super().__init__(f"{field} {requirement}, got {value}")


_LIMITS = {"ge": (">=", operator.ge), "gt": (">", operator.gt)}


def check_bound(name: str, value: Any, bound: Mapping[str, Any], optional: bool = False) -> None:
    """Raise :class:`BoundError` unless ``value`` (each element, for a
    tuple) meets ``bound``: ``{"ge": k}`` and/or ``{"gt": k}``."""
    for key, limit in bound.items():
        symbol, holds = _LIMITS[key]
        for v in value if isinstance(value, tuple) else (value,):
            if not holds(v, limit):
                raise BoundError(name, value, f"must be {symbol} {limit}", optional)


def bounded(default: Any = dataclasses.MISSING, **bound: Any) -> Any:
    """A dataclass field whose value must meet ``bound`` (``ge=k``, ``gt=k``);
    the class's ``__post_init__`` enforces it with :func:`check_bounds`.  A
    field defaulting to ``None`` may also be ``None``."""
    return dataclasses.field(default=default, metadata=bound)


@functools.lru_cache(maxsize=None)
def field_bounds(cls: type) -> Dict[str, Tuple[Mapping[str, Any], bool]]:
    """``{field: (bound, optional)}`` over the bounded fields of ``cls``."""
    return {
        f.name: (f.metadata, f.default is None)
        for f in dataclasses.fields(cls)
        if f.metadata.keys() & _LIMITS.keys()
    }


def check_bounds(config: Any) -> None:
    """Hold every bounded field of the dataclass ``config`` to its bound."""
    for name, (bound, optional) in field_bounds(type(config)).items():
        value = getattr(config, name)
        if not (optional and value is None):
            check_bound(name, value, bound, optional)


#: Bytes per element for the precisions the paper uses (§8.1: BF16 parameters,
#: FP32 gradients and optimizer states).
BYTES_BF16 = 2
BYTES_FP16 = 2
BYTES_FP32 = 4


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Architecture of a decoder-only transformer LM.

    Attributes:
        name: Human readable identifier, e.g. ``"llama-7b"``.
        n_layers: Number of transformer decoder layers.
        hidden_size: Model (embedding) dimension.
        n_heads: Number of attention heads.
        n_kv_heads: Number of key/value heads (grouped-query attention);
            equals ``n_heads`` for classic multi-head attention.
        ffn_hidden_size: Inner dimension of the (gated) MLP.
        vocab_size: Token vocabulary size.
        max_seq_len: Maximum sequence length the model supports.
        tie_embeddings: Whether the output projection shares the input
            embedding matrix.
    """

    name: str
    n_layers: int
    hidden_size: int
    n_heads: int
    n_kv_heads: int
    ffn_hidden_size: int
    vocab_size: int = 32000
    max_seq_len: int = 4096
    tie_embeddings: bool = False

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    def n_params(self) -> int:
        """Total parameter count (embedding + per-layer + final norm + head)."""
        h = self.hidden_size
        kv = self.n_kv_heads * self.head_dim
        # attention: Q (h*h), K (h*kv), V (h*kv), O (h*h)
        attn = h * h + 2 * h * kv + h * h
        # gated MLP (SwiGLU): gate + up + down
        mlp = 3 * h * self.ffn_hidden_size
        # two RMSNorm weights per layer
        norms = 2 * h
        per_layer = attn + mlp + norms
        embed = self.vocab_size * h
        head = 0 if self.tie_embeddings else self.vocab_size * h
        return embed + self.n_layers * per_layer + norms // 2 + head

    def param_bytes(self, bytes_per_param: int = BYTES_BF16) -> int:
        return self.n_params() * bytes_per_param

    def kv_cache_bytes_per_token(self, bytes_per_elem: int = BYTES_BF16) -> int:
        """KV-cache bytes for one token across all layers (K and V)."""
        return 2 * self.n_layers * self.n_kv_heads * self.head_dim * bytes_per_elem

    def flops_per_token_forward(self, seq_len: int) -> float:
        """Approximate forward FLOPs to process one token with ``seq_len`` context.

        Uses the standard ``2 * n_params`` matmul estimate plus the quadratic
        attention term ``2 * 2 * n_layers * seq_len * hidden`` (QK^T and
        attention-times-V), following the Megatron-LM accounting the paper's
        ``simu`` module builds on.
        """
        dense = 2.0 * self.n_params()
        attn = 4.0 * self.n_layers * seq_len * self.hidden_size
        return dense + attn

    def flops_per_token_train(self, seq_len: int) -> float:
        """Training FLOPs per token: forward plus ~2x backward."""
        return 3.0 * self.flops_per_token_forward(seq_len)

    def with_value_head(self, name_suffix: str = "-critic") -> "ModelSpec":
        """Return a spec whose LM head is replaced by a scalar output head.

        Critic / reward / cost models in RLHF replace the vocabulary
        projection with a scalar head (§2.1); parameter count changes only in
        the head, which this approximation captures by keeping the trunk.
        """
        return dataclasses.replace(self, name=self.name + name_suffix)


#: Llama-family model specs used throughout the paper's evaluation (§8.1).
MODEL_SPECS: Dict[str, ModelSpec] = {
    "llama-7b": ModelSpec("llama-7b", 32, 4096, 32, 32, 11008),
    "llama-13b": ModelSpec("llama-13b", 40, 5120, 40, 40, 13824),
    "llama-34b": ModelSpec("llama-34b", 48, 8192, 64, 8, 22016),
    "llama-70b": ModelSpec("llama-70b", 80, 8192, 64, 8, 28672),
}


def tiny_spec(
    n_layers: int = 2,
    hidden_size: int = 32,
    n_heads: int = 4,
    ffn_hidden_size: int = 64,
    vocab_size: int = 64,
    max_seq_len: int = 64,
) -> ModelSpec:
    """A miniature spec for functional (real-array) runs in tests/examples."""
    return ModelSpec(
        name="tiny",
        n_layers=n_layers,
        hidden_size=hidden_size,
        n_heads=n_heads,
        n_kv_heads=n_heads,
        ffn_hidden_size=ffn_hidden_size,
        vocab_size=vocab_size,
        max_seq_len=max_seq_len,
    )


@dataclasses.dataclass(frozen=True)
class GpuSpec:
    """Performance envelope of one accelerator (defaults: NVIDIA A100-80GB)."""

    name: str = "A100-80GB"
    memory_bytes: int = 80 * GiB
    #: Peak dense BF16 throughput (FLOP/s).
    peak_flops: float = 312e12
    #: HBM bandwidth (bytes/s).
    hbm_bandwidth: float = 2039 * GB
    #: Achievable fraction of peak in well-tuned large matmuls.
    flops_efficiency: float = 0.45
    #: Achievable fraction of HBM bandwidth in memory-bound decode.
    hbm_efficiency: float = 0.7


#: Device presets for heterogeneous-cluster experiments (peak dense BF16/FP16
#: throughput and HBM bandwidth from vendor datasheets).
GPU_SPECS: Dict[str, GpuSpec] = {
    "A100-80GB": GpuSpec(),
    "A100-40GB": dataclasses.replace(
        GpuSpec(), name="A100-40GB", memory_bytes=40 * GiB
    ),
    "H100-80GB": dataclasses.replace(
        GpuSpec(),
        name="H100-80GB",
        peak_flops=989e12,
        hbm_bandwidth=3350 * GB,
    ),
    "H800-80GB": dataclasses.replace(
        GpuSpec(),
        name="H800-80GB",
        peak_flops=989e12,
        hbm_bandwidth=3350 * GB,
    ),
    "V100-32GB": dataclasses.replace(
        GpuSpec(),
        name="V100-32GB",
        memory_bytes=32 * GiB,
        peak_flops=125e12,
        hbm_bandwidth=900 * GB,
    ),
}


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster (paper testbed: 16 machines x 8 A100)."""

    n_machines: int = bounded(16, ge=1)
    gpus_per_machine: int = bounded(8, ge=1)
    gpu: GpuSpec = dataclasses.field(default_factory=GpuSpec)
    #: Intra-machine (NVLink) bandwidth per GPU pair direction, bytes/s.
    intra_node_bandwidth: float = bounded(600 * GB, gt=0)
    #: Inter-machine (InfiniBand) bandwidth per machine, bytes/s (200 Gbps).
    inter_node_bandwidth: float = bounded(25 * GB, gt=0)
    #: Per-collective launch latency (seconds).
    link_latency: float = bounded(10e-6, ge=0)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def n_gpus(self) -> int:
        return self.n_machines * self.gpus_per_machine

    def machine_of(self, rank: int) -> int:
        """Machine index hosting global device ``rank``."""
        if not 0 <= rank < self.n_gpus:
            raise ValueError(f"rank {rank} out of range for {self.n_gpus} GPUs")
        return rank // self.gpus_per_machine

    def n_racks(self, machines_per_rack: int) -> int:
        """Racks of ``machines_per_rack`` contiguous machines (a failure
        domain, :meth:`SimCluster.fail_rack`); a partial last rack counts."""
        if machines_per_rack < 1:
            raise ValueError(
                f"machines_per_rack must be >= 1, got {machines_per_rack}"
            )
        return -(-self.n_machines // machines_per_rack)

    def bandwidth_between(self, rank_a: int, rank_b: int) -> float:
        """Point-to-point bandwidth between two device ranks."""
        if rank_a == rank_b:
            return math.inf
        if self.machine_of(rank_a) == self.machine_of(rank_b):
            return self.intra_node_bandwidth
        return self.inter_node_bandwidth

    def subcluster(self, n_gpus: int) -> "ClusterSpec":
        """A cluster spec restricted to the first ``n_gpus`` devices."""
        if n_gpus <= 0 or n_gpus > self.n_gpus:
            raise ValueError(f"cannot take {n_gpus} GPUs from {self.n_gpus}")
        if n_gpus < self.gpus_per_machine:
            return dataclasses.replace(self, n_machines=1, gpus_per_machine=n_gpus)
        if n_gpus % self.gpus_per_machine:
            raise ValueError(
                f"{n_gpus} GPUs is not a whole number of {self.gpus_per_machine}-GPU machines"
            )
        return dataclasses.replace(self, n_machines=n_gpus // self.gpus_per_machine)


@dataclasses.dataclass(frozen=True)
class ParallelConfig:
    """A 3D parallelism strategy ``p-t-d`` (§5.1).

    ``pp`` pipeline stages, ``tp`` tensor shards, ``dp`` data-parallel
    replicas; world size is ``pp * tp * dp``.
    """

    pp: int = bounded(1, ge=1)
    tp: int = bounded(1, ge=1)
    dp: int = bounded(1, ge=1)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def world_size(self) -> int:
        return self.pp * self.tp * self.dp

    @property
    def model_parallel_size(self) -> int:
        """Number of partitions one model replica is split into (``p * t``)."""
        return self.pp * self.tp

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.pp, self.tp, self.dp)

    def __str__(self) -> str:  # "1-8-2" convention used in the paper's figures
        return f"{self.pp}-{self.tp}-{self.dp}"


@dataclasses.dataclass(frozen=True)
class GenParallelConfig:
    """Generation-stage parallel sizes ``p_g-t_g-d_g`` layered on training ``d``.

    §5.1: ``N_a = p*t*d = p_g*t_g*d_g*d`` so ``d_g = (p*t)/(p_g*t_g)``.  The
    micro data-parallel size ``d_g`` multiplies the training DP size to give
    the effective generation DP size ``d_g * d``.
    """

    pp: int = bounded(1, ge=1)
    tp: int = bounded(1, ge=1)
    micro_dp: int = bounded(1, ge=1)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def model_parallel_size(self) -> int:
        return self.pp * self.tp

    @classmethod
    def derive(cls, train: ParallelConfig, gen_pp: int, gen_tp: int) -> "GenParallelConfig":
        """Derive the micro-DP size from training and generation MP sizes.

        Raises ``ValueError`` when the generation model-parallel size does not
        divide the training model-parallel size, which the 3D-HybridEngine
        requires (§5.1).
        """
        cls(pp=gen_pp, tp=gen_tp)  # the bounds first: a size of 0 divides nothing
        mp_train = train.model_parallel_size
        mp_gen = gen_pp * gen_tp
        if mp_gen > mp_train or mp_train % mp_gen:
            raise ValueError(
                f"generation MP size {mp_gen} must divide training MP size {mp_train}"
            )
        return cls(pp=gen_pp, tp=gen_tp, micro_dp=mp_train // mp_gen)

    def __str__(self) -> str:
        return f"{self.pp}-{self.tp}-{self.micro_dp}"


@dataclasses.dataclass(frozen=True)
class RlhfWorkload:
    """Workload shape of one RLHF iteration (§8.1 defaults).

    Attributes:
        prompt_length: Tokens per input prompt.
        response_length: Tokens generated per response.
        global_batch_size: Prompts per RLHF iteration (global).
        ppo_epochs: PPO epochs over the collected batch.
        ppo_updates_per_epoch: Minibatch updates per epoch.
        n_generations_per_prompt: Responses sampled per prompt (GRPO uses >1).
    """

    prompt_length: int = bounded(1024, ge=1)
    response_length: int = bounded(1024, ge=1)
    global_batch_size: int = bounded(1024, ge=1)
    ppo_epochs: int = bounded(1, ge=1)
    ppo_updates_per_epoch: int = bounded(8, ge=1)
    n_generations_per_prompt: int = bounded(1, ge=1)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def seq_length(self) -> int:
        return self.prompt_length + self.response_length

    @property
    def tokens_per_iteration(self) -> int:
        """Total prompt+response tokens in a global batch (the throughput
        numerator the paper uses in §8.1)."""
        return self.global_batch_size * self.seq_length * self.n_generations_per_prompt


def resolve_model_spec(model: "ModelSpec | str") -> ModelSpec:
    """Accept either a spec or a registered name like ``"llama-7b"``."""
    if isinstance(model, ModelSpec):
        return model
    try:
        return MODEL_SPECS[model]
    except KeyError:
        raise KeyError(
            f"unknown model {model!r}; known: {sorted(MODEL_SPECS)}"
        ) from None
