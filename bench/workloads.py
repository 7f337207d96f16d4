"""The four benchmark workloads, built through ``repro``'s public API only.

Every number below is a *pin*: ``--seed`` reaches only ``PromptDataset``
(the program receives generated inputs, never the seed), model and trainer
seeds are fixed, and a shape never changes to fit a machine — only
``iters_per_step`` may, and it is recorded in ``BENCHMARK.json``.

A *step* is the workload's fixed unit of work (``iters_per_step`` RLHF
iterations); it is what the benchmark times.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.pipeline import AsyncPipelineDriver, PipelineConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.serving import ServingConfig

#: Prompts in every workload's dataset; the loader cycles through them.
N_PROMPTS = 256
#: Model/trainer seed shared by all workloads (a pin, not an input).
MODEL_SEED = 7
#: Small enough that the policy barely moves within a run, so a run that
#: fits a few more or fewer steps into ``--seconds`` measures the same regime
#: and seeds differ by sampling noise only.  At 1e-3 GRPO stops emitting EOS
#: within ten iterations and the ragged workload turns fixed-length; at 1e-4
#: response length still drifts up by a sixth over 36 iterations.
LR = 1e-5


def _lm(n_layers: int, hidden: int, vocab: int, max_seq_len: int) -> TinyLMConfig:
    return TinyLMConfig(
        n_layers=n_layers,
        hidden_size=hidden,
        n_heads=4,
        ffn_hidden_size=2 * hidden,
        vocab_size=vocab,
        max_seq_len=max_seq_len,
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: why it exists and the pins that define it."""

    name: str
    why: str
    algo: AlgoType
    model: TinyLMConfig
    prompt_length: int
    max_new_tokens: int
    #: Prompts per iteration (GRPO expands each to ``group_size`` requests).
    batch_size: int
    iters_per_step: int
    trainer: TrainerConfig
    placement: str
    build_system: Callable[["Workload"], Any]
    eos_token_id: Optional[int] = None
    #: Set when generation goes through ``RolloutServer``.
    serving: Optional[ServingConfig] = None
    #: Set when ``AsyncPipelineDriver`` drives the trainer.
    staleness_window: Optional[int] = None

    @property
    def sequences_per_iteration(self) -> int:
        group = self.trainer.group_size if self.algo is AlgoType.GRPO else 1
        return self.batch_size * group

    @property
    def ragged(self) -> bool:
        return self.eos_token_id is not None

    @property
    def dispatches_per_iteration(self) -> int:
        """Remote calls one iteration issues — the algorithm graph's constant."""
        updates = self.trainer.ppo_epochs * self.trainer.updates_per_epoch
        # generate + ref + reward + log-prob recompute, then the updates
        if self.algo is AlgoType.GRPO:
            return 4 + updates
        if self.algo is AlgoType.PPO:
            return 5 + 2 * updates  # + values; critic and actor per update
        if self.algo is AlgoType.SAFE_RLHF:
            return 7 + 2 * updates  # + values, cost, ptx loss
        raise ValueError(f"no dispatch count for {self.algo}")

    def pins(self) -> Dict[str, Any]:
        """Everything that defines the workload, for ``--list`` and the record."""
        m = self.model
        return {
            "algo": self.algo.value,
            "n_layers": m.n_layers,
            "hidden_size": m.hidden_size,
            "n_heads": m.n_heads,
            "ffn_hidden_size": m.ffn_hidden_size,
            "vocab_size": m.vocab_size,
            "max_seq_len": m.max_seq_len,
            "prompt_length": self.prompt_length,
            "max_new_tokens": self.max_new_tokens,
            "batch_size": self.batch_size,
            "sequences_per_iteration": self.sequences_per_iteration,
            "iters_per_step": self.iters_per_step,
            "ppo_epochs": self.trainer.ppo_epochs,
            "updates_per_epoch": self.trainer.updates_per_epoch,
            "eos_token_id": self.eos_token_id,
            "serving": (
                None
                if self.serving is None
                else {
                    "max_slots": self.serving.max_slots,
                    "block_size": self.serving.block_size,
                    "n_blocks": self.serving.n_blocks,
                }
            ),
            "staleness_window": self.staleness_window,
            "placement": self.placement,
            "n_prompts": N_PROMPTS,
            "model_seed": MODEL_SEED,
            "lr": LR,
        }


class Job:
    """A built workload: the system, its prompt stream, and ``step()``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.dataset = PromptDataset(
            n_prompts=N_PROMPTS,
            prompt_length=workload.prompt_length,
            vocab_size=workload.model.vocab_size,
            seed=seed,
        )
        self.system = workload.build_system(workload)
        self.controller = self.system.controller
        self.trainer = self.system.trainer
        self.driver: Optional[AsyncPipelineDriver] = None
        if workload.staleness_window is not None:
            self.driver = AsyncPipelineDriver(
                self.trainer,
                PipelineConfig(staleness_window=workload.staleness_window),
            )
        self._batches = self.dataset.iter_batches(
            workload.batch_size, epochs=10**6
        )

    def step(self) -> None:
        """Run ``iters_per_step`` RLHF iterations (closed loop, one client)."""
        w = self.workload
        if self.driver is not None:
            # the driver owns its prompt cursor (absolute iteration order)
            self.driver.train(
                self.dataset,
                n_iterations=w.iters_per_step,
                batch_size=w.batch_size,
            )
            return
        for _ in range(w.iters_per_step):
            self.trainer.run_step(next(self._batches))

    # -- what the checks and counts read (public registry only) ------------------

    @property
    def iterations(self) -> int:
        return len(self.trainer.history)

    def total(self, metric: str) -> float:
        return float(self.controller.metrics.total(metric))

    def response_tokens(self) -> int:
        """Real response tokens generated so far (padding excluded)."""
        if self.workload.serving is not None:
            return int(self.total("repro_serving_tokens_total"))
        return int(self.total("repro_tokens_generated_total"))

    def state_digest(self) -> str:
        """sha256 over actor (+critic) checkpoint state of every rank."""
        digest = hashlib.sha256()
        for name in ("actor", "critic"):
            group = self.system.groups.get(name)
            if group is None:
                continue
            for worker in group.workers:
                state = worker.state_for_checkpoint()
                for key in sorted(state):
                    digest.update(key.encode())
                    digest.update(
                        np.ascontiguousarray(np.asarray(state[key])).tobytes()
                    )
        return digest.hexdigest()


# -- builders ------------------------------------------------------------------


def _task(w: Workload) -> SyntheticPreferenceTask:
    return SyntheticPreferenceTask(
        vocab_size=w.model.vocab_size, target_token=7, unsafe_token=3
    )


def _build_ppo_colocated(w: Workload):
    par = ParallelConfig(pp=1, tp=2, dp=1)
    plan = PlacementPlan(
        pools={"main": 2, "r": 1},
        assignments={
            "actor": ModelAssignment(
                "main", par, GenParallelConfig.derive(par, 1, 1)
            ),
            "critic": ModelAssignment("main", par),
            "reference": ModelAssignment("main", par),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        w.model,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=w.trainer,
        reward_fn=_task(w).reward,
        max_new_tokens=w.max_new_tokens,
        lr=LR,
        seed=MODEL_SEED,
    )


def _build_grpo_serving(w: Workload):
    par = ParallelConfig(pp=1, tp=2, dp=1)
    plan = PlacementPlan(
        pools={"main": 2, "r": 1},
        assignments={
            # gen tp2 == train tp2: one generation replica, no resharding
            "actor": ModelAssignment(
                "main", par, GenParallelConfig.derive(par, 1, 2)
            ),
            "reference": ModelAssignment("main", par),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )
    return build_rlhf_system(
        AlgoType.GRPO,
        plan,
        w.model,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=w.trainer,
        reward_fn=_task(w).reward,
        max_new_tokens=w.max_new_tokens,
        lr=LR,
        seed=MODEL_SEED,
        eos_token_id=w.eos_token_id,
        use_serving=True,
        serving_config=w.serving,
    )


def _build_safe_many_rank(w: Workload):
    par = ParallelConfig(pp=1, tp=4, dp=2)
    one = ParallelConfig(1, 1, 1)
    plan = PlacementPlan(
        pools={"main": 8, "r": 1, "c": 1},
        assignments={
            # gen tp2 under train tp4: micro-DP 2, a real all-gather each
            # iteration
            "actor": ModelAssignment(
                "main", par, GenParallelConfig.derive(par, 1, 2)
            ),
            "critic": ModelAssignment("main", par),
            "reference": ModelAssignment("main", par),
            "reward": ModelAssignment("r", one),
            "cost": ModelAssignment("c", one),
        },
    )
    task = _task(w)
    return build_rlhf_system(
        AlgoType.SAFE_RLHF,
        plan,
        w.model,
        # 5 GPUs per machine: the 8-GPU main pool spans both machines
        cluster_spec=ClusterSpec(n_machines=2, gpus_per_machine=5),
        trainer_config=w.trainer,
        reward_fn=task.reward,
        cost_fn=task.cost,
        pretrain_dataset=PromptDataset(
            n_prompts=64,
            prompt_length=w.prompt_length + w.max_new_tokens,
            vocab_size=w.model.vocab_size,
            seed=MODEL_SEED,
        ),
        max_new_tokens=w.max_new_tokens,
        lr=LR,
        seed=MODEL_SEED,
    )


def _build_ppo_disaggregated(w: Workload):
    actor_par = ParallelConfig(pp=1, tp=2, dp=1)
    scorer_par = ParallelConfig(1, 1, 1)
    plan = PlacementPlan(
        pools={"actor": 2, "scorer": 1},
        assignments={
            "actor": ModelAssignment(
                "actor", actor_par, GenParallelConfig.derive(actor_par, 1, 1)
            ),
            "critic": ModelAssignment("scorer", scorer_par),
            "reference": ModelAssignment("scorer", scorer_par),
            "reward": ModelAssignment("scorer", scorer_par),
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        w.model,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=w.trainer,
        max_new_tokens=w.max_new_tokens,
        lr=LR,
        seed=MODEL_SEED,
    )


_BIG = _lm(n_layers=4, hidden=64, vocab=64, max_seq_len=128)

WORKLOADS: List[Workload] = [
    Workload(
        name="ppo_train_heavy",
        why=(
            "PPO, all models colocated, fixed-length rows: update_actor+"
            "update_critic are ~80% of the step, so autograd backward and "
            "Adam decide it; pad share 0, so packing must show no change"
        ),
        algo=AlgoType.PPO,
        model=_BIG,
        prompt_length=32,
        max_new_tokens=16,
        batch_size=16,
        iters_per_step=1,
        trainer=TrainerConfig(
            kl_coef=0.01, ppo_epochs=2, updates_per_epoch=2, seed=MODEL_SEED
        ),
        placement="actor+critic+reference@main[2gpu,tp2,gen1-1] reward_fn@r",
        build_system=_build_ppo_colocated,
    ),
    Workload(
        name="grpo_serve_ragged",
        why=(
            "GRPO through RolloutServer with EOS: decode-mode forwards and "
            "slot refill are half the step and training runs over padded "
            "ragged rows; moves for one decode loop and padding-free batches"
        ),
        algo=AlgoType.GRPO,
        model=_BIG,
        prompt_length=16,
        max_new_tokens=48,
        batch_size=4,
        iters_per_step=1,
        trainer=TrainerConfig(kl_coef=0.01, group_size=8, seed=MODEL_SEED),
        placement="actor+reference@main[2gpu,tp2,gen1-2] reward_fn@r",
        build_system=_build_grpo_serving,
        eos_token_id=0,
        # 128 blocks hold 16 full-length sequences: no block pressure.  At the
        # 88 the issue asked for, preempt-and-recompute raises on some seeds
        # (bench/README.md, "Findings"), and a workload may not fail.
        serving=ServingConfig(max_slots=16, block_size=8, n_blocks=128),
    ),
    Workload(
        name="safe_many_rank_small",
        why=(
            "Safe-RLHF, five roles on tp4*dp2 over two machines, tensors too "
            "small for numpy to matter: dispatch, protocol, resharding, "
            "transitions and collectives reach their largest share"
        ),
        algo=AlgoType.SAFE_RLHF,
        model=_lm(n_layers=2, hidden=16, vocab=16, max_seq_len=32),
        prompt_length=4,
        max_new_tokens=4,
        batch_size=16,
        iters_per_step=12,
        trainer=TrainerConfig(kl_coef=0.01, seed=MODEL_SEED),
        placement=(
            "actor+critic+reference@main[8gpu,2 machines,tp4*dp2,gen1-2] "
            "reward_fn@r cost_fn@c"
        ),
        build_system=_build_safe_many_rank,
    ),
    Workload(
        name="async_ppo_w1",
        why=(
            "same PPO model and workers driven by AsyncPipelineDriver(W=1) "
            "on the disaggregated placement: a gain for the sync loop at the "
            "async path's expense, or the reverse, shows"
        ),
        algo=AlgoType.PPO,
        model=_BIG,
        prompt_length=16,
        max_new_tokens=16,
        batch_size=16,
        iters_per_step=3,
        trainer=TrainerConfig(kl_coef=0.01, seed=MODEL_SEED),
        placement="actor@actor[2gpu,tp2,gen1-1] critic+reference+reward@scorer[1gpu]",
        build_system=_build_ppo_disaggregated,
        staleness_window=1,
    ),
]

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
