"""``CriticWorker``: value estimation and value-function training (Table 4)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.data.batch import DataBatch
from repro.models.tinylm import TinyLM, TinyLMConfig
from repro.rlhf import losses as L
from repro.single_controller.decorator import register, shape_contract
from repro.single_controller.worker import WorkerContext
from repro.workers.base import ThreeDParallelWorker


class CriticWorker(ThreeDParallelWorker):
    """The value model: forward inference in preparation, training in stage 3."""

    def __init__(
        self,
        ctx: WorkerContext,
        model_config: TinyLMConfig,
        seed: int = 1,
        tag: str = "critic",
        lr: float = 1e-3,
        max_grad_norm: Optional[float] = 1.0,
        value_clip: float = 0.2,
    ) -> None:
        if model_config.output_head != "scalar":
            raise ValueError("the critic needs a scalar output head")
        super().__init__(
            ctx,
            model_config,
            seed=seed,
            tag=tag,
            lr=lr,
            max_grad_norm=max_grad_norm,
        )
        self.value_clip = value_clip

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={"sequences": "B,L:int64", "?response_mask": "B,R"},
        outputs={"sequences": "B,L:int64", "values": "B,R"},
    )
    def compute_values(
        self, batch: DataBatch, keep_graph: bool = False
    ) -> Optional[DataBatch]:
        """Values of each response position, ``(batch, response_len)``.

        The value at response step ``t`` is the scalar head's output on the
        prefix ending just before token ``t`` is emitted.  ``keep_graph``:
        the next ``update_critic`` on these rows trains on this forward.
        """

        def compute(model: TinyLM):
            values = self.response_forward(model.values, batch, keep_graph).data
            return batch.select(["sequences"]).union(
                DataBatch({"values": values[:, :-1]}, meta=batch.meta)
            )

        return self.replica_forward(compute, keep_graph)

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={
            "sequences": "B,L:int64",
            "values": "B,R",
            "returns": "B,R",
            "?response_mask": "B,R",
        },
        returns="metrics",
    )
    def update_critic(
        self,
        batch: DataBatch,
        loss_func: str = "ppo",
    ) -> Optional[Dict[str, float]]:
        """Clipped squared-error regression of values onto returns (Table 4).

        ``loss_func`` selects the return column: ``"ppo"``/``"remax"`` use
        ``returns``; ``"safe-rlhf"`` also has a cost critic elsewhere, the
        reward critic here still regresses onto ``returns``.
        """
        if loss_func not in ("ppo", "remax", "safe-rlhf", "grpo"):
            raise ValueError(f"unknown critic loss {loss_func!r}")

        def compute(model: TinyLM):
            values = self.response_forward(model.values, batch)[:, :-1]
            mask = batch["response_mask"] if "response_mask" in batch else None
            return L.value_loss(
                values,
                batch["values"],
                batch["returns"],
                self.value_clip,
                response_mask=mask,
            )

        return self.replica_train_step(compute, batch)
