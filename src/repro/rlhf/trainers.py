"""Single-process RLHF dataflow drivers (the Figure 6 programs).

Each trainer is the few-lines-of-code driver the hybrid programming model
promises: a sequence of primitive API calls on worker groups, with all
distribution, resharding and collection hidden behind transfer protocols.
The numerical differences between algorithms live in
:func:`repro.rlhf.core.compute_advantages` and the workers' loss functions —
moving between algorithms only adds/removes a few calls, exactly as the
paper's Figure 6 shows.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.config import bounded, check_bounds
from repro.data.batch import DataBatch
from repro.data.dataset import PromptDataset
from repro.rlhf.core import AlgoType, compute_advantages
from repro.rlhf.losses import update_lagrange_multiplier


@dataclasses.dataclass
class TrainerConfig:
    """Hyperparameters shared by the RLHF drivers (§8.1 conventions)."""

    kl_coef: float = 0.05
    gamma: float = 1.0
    lam: float = 0.95
    ppo_epochs: int = bounded(1, ge=1)
    updates_per_epoch: int = bounded(1, ge=1)
    recompute_log_probs: bool = True
    whiten_advantages: bool = True
    seed: int = 0
    # Safe-RLHF
    cost_limit: float = 0.1
    lagrange_lr: float = 0.5
    ptx_coef: float = 0.1
    # GRPO
    group_size: int = bounded(4, ge=1)

    def __post_init__(self) -> None:
        check_bounds(self)


class RlhfTrainerBase:
    """One RLHF iteration as three overridable stages, plus the one loop.

    An async pipeline driver that overlaps the loop's stages calls the same
    ``rollout`` / ``prepare`` / ``learn`` — it restates no algorithm.
    """

    algo: AlgoType
    #: The loss stays sound on stale batches: it scales its surrogate by
    #: truncated importance weights, so the async pipeline may run it with a
    #: positive staleness window (DF108).
    off_policy_correctable = False
    #: Fewest responses per prompt the advantage can be normalised over;
    #: above 1 the trainer samples groups and checks ``group_size`` (DF107).
    min_group_size = 1
    #: The role :meth:`_update` trains first.  When one update consumes the
    #: whole batch, its scoring call keeps the forward's graph for it.
    trains_first = "actor"

    def __init__(
        self,
        actor,
        reference,
        reward,
        critic=None,
        cost=None,
        config: Optional[TrainerConfig] = None,
    ) -> None:
        self.actor = actor
        self.critic = critic
        self.reference = reference
        self.reward = reward
        self.cost = cost
        self.config = config or TrainerConfig()
        self.history: List[Dict[str, Any]] = []
        self._rng = np.random.default_rng(self.config.seed)
        #: The :class:`~repro.pipeline.AsyncPipelineDriver` that attached
        #: itself to this trainer; ``None`` runs every iteration in step.
        self.pipeline = None

    @classmethod
    def group_size_problem(cls, group_size: int) -> Optional[Tuple[str, str]]:
        """``(message, hint)`` when ``group_size`` is below
        :attr:`min_group_size`; ``None`` when the trainer can run it."""
        if group_size >= cls.min_group_size:
            return None
        return (
            f"{cls.algo.name} group_size={group_size}: group-normalised "
            f"advantages need at least {cls.min_group_size} samples per prompt "
            "(the group std of a single sample is zero)",
            f"set TrainerConfig.group_size >= {cls.min_group_size}",
        )

    # -- driver-level checkpoint state (§9: dataloader IDs etc.) -------------------

    def state_dict(self) -> Dict[str, Any]:
        """Driver state to persist alongside the workers' checkpoints,
        rollouts in flight and the published policy version included."""
        state = {
            "iterations_done": len(self.history),
            "rng_state": self._rng.bit_generator.state,
        }
        if self.pipeline is not None:
            state["pipeline"] = {
                "max_staleness_seen": self.pipeline.max_staleness_seen,
                "buffer": self.pipeline.buffer.state_dict(),
                "publisher": self.pipeline.publisher.state_dict(),
            }
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.history = [{} for _ in range(int(state["iterations_done"]))]
        self._rng.bit_generator.state = state["rng_state"]
        if self.pipeline is not None:
            saved = state["pipeline"]
            self.pipeline.max_staleness_seen = int(saved["max_staleness_seen"])
            self.pipeline.buffer.load_state_dict(saved["buffer"])
            self.pipeline.publisher.load_state_dict(saved["publisher"])

    # -- the three stages of one iteration (§2.1, Figure 6) ------------------------

    def rollout(self, prompts: DataBatch) -> DataBatch:
        """Stage 1: generate responses under the actor's current policy."""
        return self.actor.generate_sequences(prompts).get()

    def score(self, gen: DataBatch) -> DataBatch:
        """The frozen-model half of stage 2: reference log-probs + rewards.

        Valid any time after :meth:`rollout`; :meth:`prepare` skips it when
        the columns already ride on the batch (streamed scoring).
        """
        ref = self.reference.compute_ref_log_prob(gen)
        scores = self.reward.compute_reward(gen)
        return gen.union(ref.get()).union(scores.get())

    def _keep_graph(self, role: str) -> bool:
        """Whether ``role``'s scoring call keeps its graph: ``role`` trains
        first and once per batch, so that update runs on the call's rows at
        the call's weights."""
        cfg = self.config
        return role == self.trains_first and cfg.ppo_epochs * cfg.updates_per_epoch == 1

    def _experience(self, gen: DataBatch) -> DataBatch:
        """Stage-2 columns every algorithm shares.

        Every preparation call consumes the *generation output* rather than
        each other's results — the independence that lets models on disjoint
        pools run concurrently (§4.1's asynchronous execution; visible in
        the execution timelines).  The anchor log-probs are taken *now*,
        under the train-time policy.
        """
        scored = gen if "scores" in gen else self.score(gen)
        if self.config.recompute_log_probs:
            log_probs = self.actor.compute_log_prob(
                gen, keep_graph=self._keep_graph("actor")
            )
            return scored.union(log_probs.get())
        return scored.union(
            DataBatch({"log_probs": gen["old_log_probs"]}, meta=gen.meta)
        )

    def _advantages(self, batch: DataBatch) -> DataBatch:
        cfg = self.config
        return compute_advantages(
            batch,
            self.algo,
            kl_coef=cfg.kl_coef,
            gamma=cfg.gamma,
            lam=cfg.lam,
            group_size=cfg.group_size,
            whiten_advantages=cfg.whiten_advantages,
        )

    def prepare(self, gen: DataBatch, *scored) -> DataBatch:
        """Stage 2: experience preparation, ending in the advantage columns.

        ``scored``: futures of the scoring calls a subclass dispatched on
        ``gen`` first (critic values, Safe-RLHF costs).
        """
        batch = self._experience(gen)
        for future in scored:
            batch = batch.union(future.get())
        return self._advantages(batch)

    def _update(self, mini: DataBatch) -> Dict[str, Dict[str, Any]]:
        """One optimizer step per trained model: its metrics, by role."""
        raise NotImplementedError

    def learn(self, batch: DataBatch, **extra: Any) -> Dict[str, Any]:
        """Stage 3: ``ppo_epochs`` passes of :meth:`_update` over minibatches
        (``extra``: the algorithm's own summary metrics, reported first)."""
        cfg = self.config
        metrics = {"score_mean": float(batch["scores"].mean()), **extra}
        for _ in range(cfg.ppo_epochs):
            for mini in batch.chunk(cfg.updates_per_epoch):
                update = self._update(mini)
            for role, values in update.items():
                metrics.update({f"{role}/{k}": v for k, v in values.items()})
        return metrics

    def step(self, prompts: DataBatch) -> Dict[str, Any]:
        return self.learn(self.prepare(self.rollout(prompts)))

    # -- the loop ------------------------------------------------------------------

    def run_iteration(self, body: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
        """Run ``body`` as the next RLHF iteration, traced and metered.

        Wraps it in an ``iteration`` span (so every dispatch of the
        iteration nests under it in the exported trace), records
        per-iteration count/latency, and appends the returned metrics to
        :attr:`history` on success — so iteration numbering stays correct
        for any schedule: ``run_step``, the recovery loop, the async pipeline.
        """
        iteration = len(self.history)
        algo = self.algo.name.lower()
        with self.actor.tracer.span(
            f"iteration[{iteration}]",
            category="iteration",
            algo=algo,
            iteration=iteration,
        ) as span:
            result = body()
        metrics = self.actor.metrics
        metrics.counter(
            "repro_iterations_total", "RLHF iterations completed", algo=algo
        ).inc()
        metrics.histogram(
            "repro_iteration_seconds",
            "Simulated seconds per RLHF iteration",
            algo=algo,
        ).observe(span.duration)
        self.history.append(result)
        return result

    def run_step(self, prompts: DataBatch) -> Dict[str, Any]:
        """One synchronous RLHF iteration."""
        return self.run_iteration(lambda: self.step(prompts))

    def run_ahead(self, target: int) -> int:
        """The run-ahead bound: the last iteration whose batch may be
        generated before iteration ``len(history)`` trains — ``W`` ahead
        under an attached :attr:`pipeline`, never past ``target - 1``."""
        window = self.pipeline.config.staleness_window if self.pipeline else 0
        return min(len(self.history) + window, target - 1)

    def moves(self, target: int) -> Tuple[str, ...]:
        """What the loop toward iteration ``target`` may do next.

        ``"step"`` when nothing is buffered and :meth:`run_ahead` allows no
        look-ahead (every iteration at ``W = 0``); otherwise ``"rollout"``
        while the bound allows one more batch and ``"learn"`` once the next
        iteration's batch is buffered.  :meth:`train` takes the first; the
        MC6xx model checker explores every order.
        """
        done = len(self.history)
        if done >= target:
            return ()
        buffer = self.pipeline.buffer if self.pipeline else ()
        ahead = self.run_ahead(target)
        if not buffer and ahead == done:
            return ("step",)
        rollout = ("rollout",) if done + len(buffer) <= ahead else ()
        learn = ("learn",) if done in buffer.indices() else ()
        return rollout + learn

    def advance(self, move: str, batches: Iterator[DataBatch]) -> None:
        """Make one of :meth:`moves`, drawing its prompts from ``batches``."""
        pipeline = self.pipeline
        if move == "rollout":
            pipeline.rollout(next(batches))
            return
        if move == "step":
            self.run_step(next(batches))
        else:
            self.run_iteration(pipeline.learn)
        if pipeline is not None and pipeline.config.staleness_window:
            # a new policy version: staged for the rollout engine without
            # blocking its decode loop
            pipeline.publisher.publish(len(self.history))

    def train(
        self,
        dataset: PromptDataset,
        n_iterations: int,
        batch_size: int,
        target: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run ``n_iterations`` more RLHF iterations: the one loop, overlapped
        by an attached :attr:`pipeline` with staleness window ``W``.

        One prompt cursor, batch ``len(history) + len(buffer)`` next, so a
        restored trainer resumes the stream, rollouts in flight included
        (§9's dataloader IDs).  Rollouts run ahead to :meth:`run_ahead`;
        ``target``, the job's final iteration count (default: this call's),
        makes a job stepped one iteration at a time run the schedule of one
        call.  An iteration with nothing buffered that may not look ahead —
        every one at ``W = 0`` — is exactly :meth:`run_step`.
        """
        buffer = self.pipeline.buffer if self.pipeline else ()
        stop = len(self.history) + n_iterations
        target = stop if target is None else target
        if target < stop:
            raise ValueError(f"target {target} is before iteration {stop}")
        batches = dataset.iter_batches(
            batch_size, epochs=10**6, skip=len(self.history) + len(buffer)
        )
        while len(self.history) < stop:
            self.advance(self.moves(target)[0], batches)
        return self.history


class PPOTrainer(RlhfTrainerBase):
    """PPO [55, 68]: the 8-line driver of Figure 6."""

    algo = AlgoType.PPO
    off_policy_correctable = True
    trains_first = "critic"

    def prepare(self, gen: DataBatch) -> DataBatch:
        values = self.critic.compute_values(gen, keep_graph=self._keep_graph("critic"))
        return super().prepare(gen, values)

    def _update(self, mini: DataBatch) -> Dict[str, Dict[str, Any]]:
        return {
            "critic": self.critic.update_critic(mini, loss_func="ppo").get(),
            "actor": self.actor.update_actor(mini, loss_func="ppo").get(),
        }


class ReMaxTrainer(RlhfTrainerBase):
    """ReMax [43]: extra greedy generation pass, no critic (Figure 6)."""

    algo = AlgoType.REMAX

    def step(self, prompts: DataBatch) -> Dict[str, Any]:
        # the greedy baseline is a second stage-1 pass over the *prompts*
        # (no dataflow edge from the sampled rollout), so it cannot ride
        # through rollout()'s single-batch return: ReMax threads it itself
        gen = self.rollout(prompts)
        baseline = self.actor.generate_sequences(prompts, do_sample=False).get()
        batch = self.prepare(gen, baseline)
        baseline_mean = float(batch["baseline_scores"].mean())
        return self.learn(batch, baseline_score_mean=baseline_mean)

    def prepare(self, gen: DataBatch, baseline: DataBatch) -> DataBatch:
        batch = self._experience(gen)
        scored = self.reward.compute_reward(baseline).get()
        # built with the call's own meta: the advantages depend on this call
        extra = DataBatch({"baseline_scores": scored["scores"]}, meta=scored.meta)
        return self._advantages(batch.union(extra))

    def _update(self, mini: DataBatch) -> Dict[str, Dict[str, Any]]:
        return {"actor": self.actor.update_actor(mini, loss_func="remax").get()}


class SafeRLHFTrainer(RlhfTrainerBase):
    """Safe-RLHF [19]: PPO plus a cost model, Lagrangian dual, pretrain loss."""

    algo = AlgoType.SAFE_RLHF
    trains_first = "critic"

    def __init__(self, *args, pretrain_dataset=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.cost is None:
            raise ValueError("Safe-RLHF requires a cost worker")
        self.lagrange_multiplier = 0.0
        self.pretrain_dataset = pretrain_dataset
        self._pretrain: Optional[DataBatch] = None

    def state_dict(self):
        state = super().state_dict()
        state["lagrange_multiplier"] = self.lagrange_multiplier
        return state

    def load_state_dict(self, state) -> None:
        self.lagrange_multiplier = float(state["lagrange_multiplier"])
        super().load_state_dict(state)

    def _pretrain_batch(self, size: int) -> Optional[DataBatch]:
        if self.pretrain_dataset is None:
            return None
        start = int(self._rng.integers(0, len(self.pretrain_dataset) - size + 1))
        pretrain = self.pretrain_dataset.batch(start, size)
        return DataBatch({"tokens": pretrain["prompts"]})

    def prepare(self, gen: DataBatch) -> DataBatch:
        values = self.critic.compute_values(gen, keep_graph=self._keep_graph("critic"))
        costs = self.cost.compute_cost(gen)
        return super().prepare(gen, values, costs)

    def learn(self, batch: DataBatch) -> Dict[str, Any]:
        cfg = self.config
        self.lagrange_multiplier = update_lagrange_multiplier(
            self.lagrange_multiplier,
            batch["costs"],
            cfg.cost_limit,
            cfg.lagrange_lr,
        )
        extra: Dict[str, Any] = {
            "cost_mean": float(batch["costs"].mean()),
            "lagrange_multiplier": self.lagrange_multiplier,
        }
        self._pretrain = self._pretrain_batch(batch.batch_size)
        if self._pretrain is not None:
            extra.update(self.actor.compute_loss(self._pretrain).get())
        return super().learn(batch, **extra)

    def _update(self, mini: DataBatch) -> Dict[str, Dict[str, Any]]:
        critic = self.critic.update_critic(mini, loss_func="safe-rlhf").get()
        actor = self.actor.update_actor(
            mini,
            loss_func="safe-rlhf",
            lagrange_multiplier=self.lagrange_multiplier,
            pretrain_batch=self._pretrain,
            ptx_coef=self.config.ptx_coef,
        ).get()
        return {"critic": critic, "actor": actor}


class GRPOTrainer(RlhfTrainerBase):
    """GRPO [70]: group-relative advantages, no critic (§9's reasoning recipe)."""

    algo = AlgoType.GRPO
    off_policy_correctable = True
    min_group_size = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        problem = self.group_size_problem(self.config.group_size)
        if problem is not None:
            raise ValueError("%s; %s" % problem)

    def rollout(self, prompts: DataBatch) -> DataBatch:
        return super().rollout(prompts.repeat(self.config.group_size))

    def _update(self, mini: DataBatch) -> Dict[str, Dict[str, Any]]:
        actor = self.actor.update_actor(
            mini, loss_func="grpo", kl_coef=self.config.kl_coef
        ).get()
        return {"actor": actor}


#: The shipped algorithms — the CLI's vocabulary.  Any other algorithm is
#: named by its trainer class.
_TRAINERS = {
    AlgoType.PPO: PPOTrainer,
    AlgoType.REMAX: ReMaxTrainer,
    AlgoType.SAFE_RLHF: SafeRLHFTrainer,
    AlgoType.GRPO: GRPOTrainer,
}


def trainer_class(algo: Any) -> Type[RlhfTrainerBase]:
    """The trainer behind "an algorithm": an :class:`AlgoType` member (or its
    value), or a :class:`RlhfTrainerBase` subclass standing for itself."""
    if isinstance(algo, type) and issubclass(algo, RlhfTrainerBase):
        return algo
    return _TRAINERS[AlgoType(algo)]
