"""Build a complete functional RLHF system from a placement plan.

``build_rlhf_system`` is the reproduction of the paper's §3 workflow: the
user supplies model specifications, a device placement (hand-written or from
the auto-mapping algorithm), and per-model parallelism strategies; the single
controller initialises worker groups on the virtualised resource pools and
returns a ready-to-run trainer.

:class:`SystemSpec` is that input for the one functional job the repo ships
— the tiny PPO/ReMax/GRPO job every functional subcommand, bench workload,
analysis pass, example and fleet tenant runs.  §8.3 varies the placement, so
the spec can say both shipped ones; everything else is a pinned
hyperparameter.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig, bounded, check_bounds
from repro.data.dataset import PromptDataset, SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.parallel.topology import GenGroupingMode
from repro.rlhf.core import AlgoType
from repro.rlhf.graph import dataflow_of
from repro.rlhf.trainers import RlhfTrainerBase, TrainerConfig, trainer_class
from repro.runtime.placement import PlacementPlan
from repro.single_controller import ResourcePool, SingleController, WorkerGroup
from repro.workers import WORKER_CLASSES, RewardFunctionWorker


@dataclasses.dataclass
class RlhfSystem:
    """A constructed RLHF job: controller, worker groups, and the trainer."""

    controller: SingleController
    groups: Dict[str, WorkerGroup]
    trainer: RlhfTrainerBase
    plan: PlacementPlan

    def group(self, model: str) -> WorkerGroup:
        return self.groups[model]

    # -- the bit-exactness oracle: recovery, resize, W=0 and every refactor
    #    are "the same run" when this state is -------------------------------------

    def checkpoint_state(self) -> Dict[Tuple[str, int, str], Any]:
        """Every worker's ``state_for_checkpoint()`` under ``(group, rank, key)``:
        weights, optimizer moments and step, rng counters."""
        return {
            (name, rank, key): value
            for name, group in self.groups.items()
            for rank, worker in enumerate(group.workers)
            for key, value in worker.state_for_checkpoint().items()
        }

    def state_equal(self, other: "RlhfSystem") -> bool:
        """Whether both systems' checkpoint state is equal bit for bit."""
        mine, theirs = self.checkpoint_state(), other.checkpoint_state()
        return mine.keys() == theirs.keys() and all(
            np.array_equal(np.asarray(value), np.asarray(theirs[key]))
            for key, value in mine.items()
        )

    def state_digest(self) -> str:
        """sha256 of the checkpoint state — equality across processes/commits."""
        digest = hashlib.sha256()
        state = self.checkpoint_state()
        for key in sorted(state):
            digest.update(repr(key).encode())
            digest.update(np.ascontiguousarray(np.asarray(state[key])).tobytes())
        return digest.hexdigest()


def required_models(algo: AlgoType) -> tuple:
    """Model roles an algorithm's dataflow contains (Figure 1): the roles
    its trainer's ``step`` calls."""
    return dataflow_of(algo).roles


def build_rlhf_system(
    algo: AlgoType,
    plan: PlacementPlan,
    actor_config: TinyLMConfig,
    cluster_spec: Optional[ClusterSpec] = None,
    trainer_config: Optional[TrainerConfig] = None,
    critic_config: Optional[TinyLMConfig] = None,
    gen_mode: GenGroupingMode = GenGroupingMode.HYBRIDFLOW,
    reward_fn: Optional[Callable[..., np.ndarray]] = None,
    reward_fn_pass_prompts: bool = False,
    cost_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    max_new_tokens: int = 8,
    temperature: float = 1.0,
    lr: float = 1e-3,
    seed: int = 0,
    pretrain_dataset=None,
    cluster=None,
    eos_token_id: Optional[int] = None,
    use_serving: bool = False,
    serving_config=None,
) -> RlhfSystem:
    """Construct controller, pools, worker groups, and trainer.

    Args:
        algo: Which RLHF dataflow to build (Figure 1): an ``AlgoType``
            member, or a ``RlhfTrainerBase`` subclass for any other algorithm.
        plan: Device placement plus per-model parallelism.
        actor_config: TinyLM architecture of the actor/reference.
        critic_config: Architecture of critic/reward/cost models (scalar
            head added automatically); defaults to the actor's trunk.
        gen_mode: Generation parallel-grouping method for the HybridEngine.
        reward_fn: When given, the reward model is replaced by a non-NN
            reward function worker on a single GPU (§9); the plan must then
            assign ``"reward"`` to a 1-GPU pool.
        pretrain_dataset: Optional pretraining prompts for Safe-RLHF's
            auxiliary loss.
        cluster: Re-use an existing :class:`~repro.cluster.SimCluster`
            instead of materialising ``cluster_spec`` — the recovery path
            passes the surviving cluster back in so re-placement runs on
            the devices that are still alive (§9).
        eos_token_id: Generation stops per sequence at this token; the
            pipeline then carries a ``response_mask`` column so losses and
            advantages ignore post-EOS padding.
        use_serving: Route actor generation through the continuous-batching
            :class:`~repro.serving.RolloutServer` instead of the lock-step
            sequential sampler (bit-exact per request in greedy mode).
        serving_config: Optional :class:`~repro.serving.ServingConfig`
            overriding the serving engine's defaults (slots, block size,
            SLOs); eos/temperature/seed fields are filled in per call.
    """
    trainer_cls = trainer_class(algo)
    models = required_models(trainer_cls)
    missing = [m for m in models if m not in plan.assignments]
    if missing:
        raise ValueError(f"placement plan lacks assignments for {missing}")
    if plan.assignments["actor"].gen_parallel is None:
        raise ValueError("the actor assignment needs a gen_parallel config")

    if critic_config is None:
        critic_config = dataclasses.replace(actor_config, output_head="scalar")
    lm_config = actor_config
    scalar_config = critic_config

    controller = SingleController(cluster_spec, cluster=cluster)
    pools: Dict[str, ResourcePool] = {
        name: controller.create_pool(n, name=name)
        for name, n in plan.pools.items()
    }

    worker_kwargs: Dict[str, Dict[str, Any]] = {
        "actor": dict(
            model_config=lm_config,
            seed=seed,
            lr=lr,
            temperature=temperature,
            max_new_tokens=max_new_tokens,
            eos_token_id=eos_token_id,
            use_serving=use_serving,
            serving_config=serving_config,
        ),
        "critic": dict(model_config=scalar_config, seed=seed + 1, lr=lr),
        "reference": dict(model_config=lm_config, seed=seed),
        "reward": dict(model_config=scalar_config, seed=seed + 2),
        "cost": dict(model_config=scalar_config, seed=seed + 3),
    }

    groups: Dict[str, WorkerGroup] = {}
    for model in models:
        assignment = plan.assignments[model]
        worker_cls = WORKER_CLASSES[model]
        kwargs = worker_kwargs[model]
        if model == "reward" and reward_fn is not None:
            worker_cls = RewardFunctionWorker
            kwargs = dict(
                reward_fn=reward_fn, pass_prompts=reward_fn_pass_prompts
            )
        if model == "cost" and cost_fn is not None:
            worker_cls = RewardFunctionWorker
            kwargs = dict(reward_fn=cost_fn, score_column="costs")
        groups[model] = WorkerGroup(
            worker_cls,
            pools[assignment.pool],
            parallel_config=assignment.parallel,
            gen_config=assignment.gen_parallel,
            gen_mode=gen_mode,
            name=model,
            controller=controller,
            worker_kwargs=kwargs,
        )

    trainer_args: Dict[str, Any] = {role: groups.get(role) for role in WORKER_CLASSES}
    if pretrain_dataset is not None:
        trainer_args["pretrain_dataset"] = pretrain_dataset
    trainer = trainer_cls(**trainer_args, config=trainer_config)
    return RlhfSystem(
        controller=controller, groups=groups, trainer=trainer, plan=plan
    )


#: The 2-layer, 32-wide, vocab-16 LM of every shipped functional run.
TINY_LM = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)

ONE_GPU = ParallelConfig(pp=1, tp=1, dp=1)


@dataclasses.dataclass(frozen=True)
class SystemSpec:
    """One RLHF job: algorithm, model, 3D width, placement, seeds, data.

    Attributes:
        disaggregated: ``False`` colocates the models on ``main[tp*dp]``
            and scores with the task's reward *function* on a 1-GPU ``r``;
            ``True`` leaves the actor alone on ``actor[tp*dp]`` and puts
            critic, reference and a reward *model* on a 1-GPU ``scorer`` —
            the placement whose idle actor the async pipeline fills.
        seed: Model init, worker rng streams and the trainer.
    """

    algo: AlgoType = AlgoType.PPO
    model_config: TinyLMConfig = TINY_LM
    tp: int = bounded(2, ge=1)
    dp: int = bounded(1, ge=1)
    disaggregated: bool = False
    seed: int = 7
    lr: float = bounded(5e-3, gt=0)
    kl_coef: float = 0.01
    max_new_tokens: int = bounded(6, ge=1)
    target_token: int = 7
    dataset_seed: int = 1
    n_prompts: int = bounded(128, ge=1)
    prompt_length: int = bounded(4, ge=1)

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def function_rewards(self) -> Tuple[str, ...]:
        """Roles served by a plain function instead of a model."""
        return () if self.disaggregated else ("reward",)

    @property
    def plan(self) -> PlacementPlan:
        par = ParallelConfig(pp=1, tp=self.tp, dp=self.dp)
        roles = required_models(self.algo)
        if self.disaggregated:
            scorers = [role for role in roles if role != "actor"]
            groups = {"actor": (par, ["actor"]), "scorer": (ONE_GPU, scorers)}
        else:
            models = [role for role in roles if role != "reward"]
            groups = {"main": (par, models), "r": (ONE_GPU, ["reward"])}
        return PlacementPlan.grouped(groups, GenParallelConfig.derive(par, 1, 1))

    def dataset(self) -> PromptDataset:
        """A fresh, deterministic prompt stream (same bytes every call)."""
        return PromptDataset(
            n_prompts=self.n_prompts,
            prompt_length=self.prompt_length,
            vocab_size=self.model_config.vocab_size,
            seed=self.dataset_seed,
        )

    def build(
        self, cluster=None, cluster_spec: Optional[ClusterSpec] = None
    ) -> RlhfSystem:
        """A fresh system, deterministic in the spec: two builds start
        bit-identical.  Allocate out of a live ``cluster`` (recovery, the
        fleet) or materialise ``cluster_spec``."""
        task = SyntheticPreferenceTask(
            vocab_size=self.model_config.vocab_size,
            target_token=self.target_token,
        )
        return build_rlhf_system(
            self.algo,
            self.plan,
            self.model_config,
            cluster_spec=cluster_spec,
            trainer_config=TrainerConfig(kl_coef=self.kl_coef, seed=self.seed),
            reward_fn=task.reward if self.function_rewards else None,
            max_new_tokens=self.max_new_tokens,
            lr=self.lr,
            seed=self.seed,
            cluster=cluster,
        )


def shipped_placements() -> Dict[str, PlacementPlan]:
    """The two placements ``repro check`` proves (DF and SH read both; SF
    runs ``SystemSpec(algo).plan`` per shipped graph): the tiny job (1-2-1
    → generation 1-1) and the llama-7b colocated placement of §8's
    evaluation clusters (1-8-2 → generation 1-2)."""
    full = ParallelConfig(pp=1, tp=8, dp=2)
    return {
        "tiny-ppo": SystemSpec().plan,
        "llama-7b-colocate": PlacementPlan.grouped(
            {"all": (full, required_models(AlgoType.PPO))},
            GenParallelConfig.derive(full, 1, 2),
        ),
    }
