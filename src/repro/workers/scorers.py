"""Reference, reward, and cost workers — the forward-only models (Table 4).

Also includes :class:`RewardFunctionWorker`, the paper's §9 extension point:
"the reward model can be replaced by non-neural-network reward modules, such
as a sandbox environment for evaluating generated code or a reward function
... by wrapping them as remote functions".
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.data.batch import DataBatch
from repro.models.tinylm import Layout, TinyLM, TinyLMConfig
from repro.rlhf import losses as L
from repro.single_controller.decorator import register, shape_contract
from repro.single_controller.worker import Worker, WorkerContext
from repro.workers.base import ThreeDParallelWorker, real_lengths


def _sequence_scores(
    model: TinyLM, batch: DataBatch
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar-head score of each sequence at its last *real* token, and the
    head's output at every position from ``prompt_length - 1`` on.

    Without a ``response_mask`` the score is the final position's (the
    historical behaviour); with one (EOS sampling), scoring the padded final
    column would judge the response by its padding, so the forward runs
    over ``prompt_length + max(response_length, 1)`` tokens per row and
    scores the last of them.
    """
    prompt_len = batch.meta["prompt_length"]
    lengths = real_lengths(batch)
    if lengths is not None:
        lengths = np.maximum(lengths, prompt_len + 1)
    values = model.values(batch["sequences"], Layout(lengths, prompt_len)).data
    if lengths is None:
        return values[:, -1], values
    return values[np.arange(len(values)), lengths - prompt_len], values


class ReferenceWorker(ThreeDParallelWorker):
    """The frozen reference policy: one forward pass per batch."""

    trainable = False

    def __init__(
        self,
        ctx: WorkerContext,
        model_config: TinyLMConfig,
        seed: int = 0,
        tag: str = "reference",
    ) -> None:
        if model_config.output_head != "lm":
            raise ValueError("the reference policy needs an LM head")
        super().__init__(ctx, model_config, seed=seed, tag=tag)

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={"sequences": "B,L:int64", "?response_mask": "B,R"},
        outputs={"sequences": "B,L:int64", "ref_log_probs": "B,R"},
    )
    def compute_ref_log_prob(self, batch: DataBatch) -> Optional[DataBatch]:
        """Reference log-probs of the response tokens (Table 4)."""

        def compute(model: TinyLM):
            logp = self.response_forward(model.token_log_probs, batch).data
            return batch.select(["sequences"]).union(
                DataBatch({"ref_log_probs": logp}, meta=batch.meta)
            )

        return self.replica_forward(compute)


class RewardWorker(ThreeDParallelWorker):
    """The preference reward model: scalar score per sequence (Table 4)."""

    trainable = False
    score_column = "scores"

    def __init__(
        self,
        ctx: WorkerContext,
        model_config: TinyLMConfig,
        seed: int = 2,
        tag: str = "reward",
    ) -> None:
        if model_config.output_head != "scalar":
            raise ValueError("the reward model needs a scalar output head")
        super().__init__(ctx, model_config, seed=seed, tag=tag)

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={"sequences": "B,L:int64", "?response_mask": "B,R"},
        outputs={"sequences": "B,L:int64", "scores": "B"},
    )
    def compute_reward(self, batch: DataBatch) -> Optional[DataBatch]:
        def compute(model: TinyLM):
            scores, _values = _sequence_scores(model, batch)
            return batch.select(["sequences"]).union(
                DataBatch({self.score_column: scores}, meta=batch.meta)
            )

        return self.replica_forward(compute)


class TrainableRewardWorker(RewardWorker):
    """A reward model that can be *trained* on human preference pairs.

    §2.1: "The critic and reward models can be different LLMs fine-tuned on
    the human preference dataset."  Training uses the Bradley-Terry pairwise
    objective of InstructGPT [55]: maximise
    ``log sigmoid(r(chosen) - r(rejected))``.
    """

    trainable = True

    def __init__(
        self,
        ctx: WorkerContext,
        model_config: TinyLMConfig,
        seed: int = 2,
        tag: str = "reward",
        lr: float = 1e-3,
    ) -> None:
        super().__init__(ctx, model_config, seed=seed, tag=tag)
        self.lr = lr

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={"chosen": "B,T:int64", "rejected": "B,T:int64"},
        returns="metrics",
    )
    def update_reward(self, batch: DataBatch):
        """One pairwise-preference update on ``chosen``/``rejected`` pairs."""

        def compute(model: TinyLM):
            r_chosen = model.sequence_reward(batch["chosen"])
            r_rejected = model.sequence_reward(batch["rejected"])
            loss = L.preference_loss(r_chosen, r_rejected)
            margin = r_chosen.data - r_rejected.data
            return loss, {
                "rm_loss": float(loss.item()),
                "rm_accuracy": float((margin > 0).mean()),
                "rm_margin": float(margin.mean()),
            }

        return self.replica_train_step(compute)


class CostWorker(RewardWorker):
    """Safe-RLHF's cost model (§2.1): same architecture as the reward model.

    Mirrors Figure 6's reuse ("Initialize cost model by reusing the
    RewardWorker").  Besides the per-sample cost it also exposes its
    token-level scalar outputs as cost values for the cost-GAE computation.
    """

    score_column = "costs"

    def __init__(
        self,
        ctx: WorkerContext,
        model_config: TinyLMConfig,
        seed: int = 3,
        tag: str = "cost",
    ) -> None:
        super().__init__(ctx, model_config, seed=seed, tag=tag)

    @register(protocol="3d_proto")
    @shape_contract(
        inputs={"sequences": "B,L:int64", "?response_mask": "B,R"},
        outputs={
            "sequences": "B,L:int64",
            "costs": "B",
            "cost_values": "B,R",
        },
    )
    def compute_cost(self, batch: DataBatch) -> Optional[DataBatch]:
        """Per-sample cost plus token-level cost values (for cost GAE)."""

        def compute(model: TinyLM):
            costs, values = _sequence_scores(model, batch)
            return batch.select(["sequences"]).union(
                DataBatch(
                    {"costs": costs, "cost_values": values[:, :-1]},
                    meta=batch.meta,
                )
            )

        return self.replica_forward(compute)


class RewardFunctionWorker(Worker):
    """A non-NN reward module wrapped as a remote function (§9).

    ``reward_fn`` maps response token arrays to per-sample scores — e.g. a
    sandbox pass/fail for code or an exact-match checker for math.  Runs on a
    single rank under the ``one_to_one`` protocol.
    """

    def __init__(
        self,
        ctx: WorkerContext,
        reward_fn: Callable[..., np.ndarray],
        score_column: str = "scores",
        pass_prompts: bool = False,
    ) -> None:
        super().__init__(ctx)
        self.reward_fn = reward_fn
        self.score_column = score_column
        #: When True the callable receives ``(prompts, responses)`` — needed
        #: for verifiable rewards that depend on the question (code tests,
        #: math answers, §9).
        self.pass_prompts = pass_prompts

    @register(protocol="one_to_one")
    @shape_contract(
        inputs={"sequences": "B,L:int64"},
        outputs={"sequences": "B,L:int64", "scores": "B"},
    )
    def compute_reward(self, batch: DataBatch) -> DataBatch:
        prompt_len = batch.meta["prompt_length"]
        responses = batch["sequences"][:, prompt_len:]
        if self.pass_prompts:
            prompts = batch["sequences"][:, :prompt_len]
            scores = np.asarray(
                self.reward_fn(prompts, responses), dtype=np.float64
            )
        else:
            scores = np.asarray(self.reward_fn(responses), dtype=np.float64)
        if scores.shape != (batch.batch_size,):
            raise ValueError(
                f"reward function returned shape {scores.shape}, expected "
                f"({batch.batch_size},)"
            )
        return batch.select(["sequences"]).union(
            DataBatch({self.score_column: scores}, meta=batch.meta)
        )

    @register(protocol="one_to_one")
    @shape_contract(
        inputs={"sequences": "B,L:int64"},
        outputs={
            "sequences": "B,L:int64",
            "costs": "B",
            "cost_values": "B,R",
        },
    )
    def compute_cost(self, batch: DataBatch) -> DataBatch:
        """Function-based safety cost for Safe-RLHF (the §9 pattern applied
        to the cost signal).

        Emits per-sample ``costs`` plus zero ``cost_values`` so the cost-GAE
        reduces to the cost-to-go of the programmatic signal.
        """
        prompt_len = batch.meta["prompt_length"]
        responses = batch["sequences"][:, prompt_len:]
        costs = np.asarray(self.reward_fn(responses), dtype=np.float64)
        if costs.shape != (batch.batch_size,):
            raise ValueError(
                f"cost function returned shape {costs.shape}, expected "
                f"({batch.batch_size},)"
            )
        return batch.select(["sequences"]).union(
            DataBatch(
                {
                    "costs": costs,
                    "cost_values": np.zeros(
                        (batch.batch_size, responses.shape[1]),
                        dtype=np.float64,
                    ),
                },
                meta=batch.meta,
            )
        )
