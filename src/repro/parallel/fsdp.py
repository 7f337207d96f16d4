"""PyTorch FSDP sharding model ([57], §4.1).

HybridFlow's ``FSDPWorker`` base class supports fully-sharded data parallel
training.  FSDP's FULL_SHARD mode is memory-equivalent to ZeRO-3: parameters,
gradients and optimizer states are all sharded over the DP group and
parameters are all-gathered per layer for compute.  Its memory and traffic
are those of the ZeRO stage :meth:`FsdpConfig.as_zero` maps it to: call the
``repro.parallel.zero`` functions on ``config.as_zero()``.
"""

from __future__ import annotations

import dataclasses

from repro.parallel.zero import ZeroConfig, ZeroStage


@dataclasses.dataclass(frozen=True)
class FsdpConfig:
    """FSDP configuration: sharding degree and strategy."""

    dp: int
    #: "full" shards params+grads+opt (ZeRO-3-like); "grad_op" shards
    #: grads+opt only (ZeRO-2-like); "no_shard" is plain DDP.
    strategy: str = "full"

    def __post_init__(self) -> None:
        if self.dp < 1:
            raise ValueError(f"dp must be >= 1, got {self.dp}")
        if self.strategy not in ("full", "grad_op", "no_shard"):
            raise ValueError(f"unknown FSDP strategy {self.strategy!r}")

    def as_zero(self) -> ZeroConfig:
        stage = {
            "full": ZeroStage.PARAMETERS,
            "grad_op": ZeroStage.GRADIENTS,
            "no_shard": ZeroStage.DDP,
        }[self.strategy]
        return ZeroConfig(stage=stage, dp=self.dp)

