"""``AsyncPipelineDriver``: the one-step-off bounded-staleness RLHF loop.

The synchronous drivers (:mod:`repro.rlhf.trainers`) serialize every
iteration end to end: generate → score → update, with the rollout engine
idle while the trainer consumes its output and vice versa.  This driver
relaxes that barrier the way DistFlow / MindSpeed-RL do: while the trainer
consumes iteration *t*'s experience, the rollout engine is already
generating iteration *t+1* on the last *published* policy.

Semantics (``W = staleness_window``):

* batch *i* is generated under policy version ``max(0, i - W)`` and trained
  at version *i* — its staleness is ``min(i, W)``, never more;
* the experience buffer holds at most ``W + 1`` in-flight batches (the
  structural enforcement of the bound);
* stale batches get per-token truncated importance weights
  (:func:`repro.rlhf.losses.truncated_importance_weights`) so the PPO/GRPO
  surrogate stays sound off-policy;
* ``W = 0`` degenerates to exactly the synchronous interleave — the same
  trainer stages on the same data in the same order, so the run is
  bit-exact with ``RlhfTrainerBase.train`` (weights, sequences, and
  per-iteration metrics);
* weight hand-off goes through a
  :class:`~repro.hybrid_engine.WeightPublisher`: the trainer *publishes*
  after every optimizer step without blocking decode, the rollout engine
  *acquires* at generate-call boundaries, and both sides leave
  happens-before edges in the access log so the RC5xx race detector can
  prove the overlapped schedule free of torn reads.

The driver is a *schedule* over the trainer's own stages
(``rollout`` / ``score`` / ``prepare`` / ``learn`` of
:class:`~repro.rlhf.trainers.RlhfTrainerBase`) and restates no algorithm;
the overlap materializes in the modeled schedule
(:func:`repro.runtime.timeline.build_timeline`): the generate record for
*t+1* precedes iteration *t*'s scoring/update records in the trace and
carries no dependency on them, so pools that only score or update overlap
it instead of idling — the Figure-3-style bubble collapses.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.data.batch import DataBatch
from repro.data.dataset import PromptDataset
from repro.hybrid_engine.publication import WeightPublisher
from repro.pipeline.buffer import ExperienceBuffer
from repro.pipeline.config import PipelineConfig
from repro.rlhf.losses import truncated_importance_weights
from repro.rlhf.trainers import RlhfTrainerBase
from repro.single_controller.access_log import READ, WRITE


class AsyncPipelineDriver:
    """Bounded-staleness overlap of rollout and training for PPO / GRPO."""

    def __init__(
        self,
        trainer: RlhfTrainerBase,
        config: Optional[PipelineConfig] = None,
        publisher: Optional[WeightPublisher] = None,
    ) -> None:
        self.trainer = trainer
        self.config = config or PipelineConfig()
        self.config.validate()
        # one source of truth for soundness constraints (supported
        # algorithms included): the same DF108 findings `repro check` raises
        # statically reject the config here
        from repro.analysis.dataflow import DataflowChecker

        report = DataflowChecker().check_pipeline(
            self.config, trainer.config, trainer.algo, actor=trainer.actor
        )
        errors = [f for f in report.findings if f.severity == "error"]
        if errors:
            raise ValueError(
                "pipeline config rejected by DF108: "
                + "; ".join(f.message for f in errors)
            )
        self.buffer = ExperienceBuffer(self.config.resolved_capacity)
        self.publisher = publisher or WeightPublisher(trainer.actor)
        self._next_gen = 0
        self.max_staleness_seen = 0

    # -- rollout track ---------------------------------------------------------------

    def _rollout(self, prompts: DataBatch) -> None:
        """Generate batch ``self._next_gen`` under the active policy version.

        With ``stream_scoring`` the frozen-model scoring passes (reference
        log-probs, rewards) are dispatched as soon as generation finishes —
        at the rollout boundary instead of the train-step boundary — so in
        the modeled schedule they overlap the *next* rollout rather than
        sitting on the training critical path.  Both models are frozen, so
        the results are identical either way.
        """
        index = self._next_gen
        version = self.publisher.acquire()
        trainer = self.trainer
        with trainer.actor.tracer.span(
            f"pipeline.rollout[{index}]",
            category="pipeline",
            iteration=index,
            policy_version=version,
        ):
            batch = trainer.rollout(prompts)
            if self.config.stream_scoring:
                batch = trainer.score(batch)
        trainer.actor.record_access(
            WRITE,
            f"pipeline/experience[{index}]",
            note=f"rollout buffers iteration {index} at version {version}",
        )
        self.buffer.put(index, version, batch)
        trainer.actor.metrics.counter(
            "repro_pipeline_rollouts_total",
            "Rollouts completed by the async pipeline",
        ).inc()
        self._next_gen += 1

    # -- training track --------------------------------------------------------------

    def _train_one(self) -> Dict[str, Any]:
        """Consume the oldest buffered batch as the trainer's next iteration."""
        result = self.trainer.run_iteration(self._learn_from_buffer)
        # the optimizer step produced a new policy version; stage it for the
        # rollout engine without blocking its decode loop
        self.publisher.publish(len(self.trainer.history))
        return result

    def _learn_from_buffer(self) -> Dict[str, Any]:
        """Stages 2 and 3 on the buffered batch, importance-weighted if stale.

        ``prepare`` skips the frozen-model scoring for streamed entries
        (their ``ref_log_probs`` / ``scores`` arrived at rollout time) and
        takes the anchor-policy log-probs *now*, under the train-time policy
        — the importance-weight anchor.
        """
        trainer = self.trainer
        iteration = len(trainer.history)
        trainer.actor.record_access(
            READ,
            f"pipeline/experience[{iteration}]",
            note=f"trainer consumes iteration {iteration}",
        )
        entry = self.buffer.pop(iteration)
        staleness = iteration - entry.version
        self.max_staleness_seen = max(self.max_staleness_seen, staleness)
        batch = self._attach_importance_weights(
            trainer.prepare(entry.batch), staleness
        )
        metrics = trainer.learn(batch)
        if staleness > 0:
            # extra keys only off-policy: the W=0 history stays bit-equal
            # to the synchronous trainer's
            metrics["pipeline/staleness"] = staleness
            metrics["pipeline/policy_version"] = entry.version
        return metrics

    def _attach_importance_weights(
        self, batch: DataBatch, staleness: int
    ) -> DataBatch:
        if staleness == 0 or not self.config.importance_weighting:
            return batch
        mask = batch["response_mask"] if "response_mask" in batch else None
        weights = truncated_importance_weights(
            batch["log_probs"],
            batch["old_log_probs"],
            clip=self.config.iw_clip,
            response_mask=mask,
        )
        return batch.union(
            DataBatch({"importance_weights": weights}, meta=batch.meta)
        )

    # -- the loop --------------------------------------------------------------------

    def train(
        self, dataset: PromptDataset, n_iterations: int, batch_size: int
    ) -> List[Dict[str, Any]]:
        """Run ``n_iterations`` more iterations with bounded-staleness overlap.

        Prompt batches are consumed in absolute iteration order: a driver
        restored mid-overlap fast-forwards the deterministic dataset
        iterator past the batches it already generated, so the resumed run
        is bit-exact with an uninterrupted one.
        """
        target = len(self.trainer.history) + n_iterations
        if self._next_gen > target:
            raise ValueError(
                f"{self._next_gen} rollouts already buffered but only "
                f"{target} total iterations requested"
            )
        batches = dataset.iter_batches(
            batch_size, epochs=10**6, skip=self._next_gen
        )
        while len(self.trainer.history) < target:
            horizon = min(
                len(self.trainer.history) + self.config.staleness_window,
                target - 1,
            )
            while self._next_gen <= horizon:
                self._rollout(next(batches))
            self._train_one()
        return self.trainer.history

    # -- reporting -------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        return {
            "algo": self.trainer.algo.value,
            "iterations": len(self.trainer.history),
            "staleness_window": self.config.staleness_window,
            "max_staleness_seen": self.max_staleness_seen,
            "importance_weighting": self.config.importance_weighting,
            "stream_scoring": self.config.stream_scoring,
            "buffer_capacity": self.buffer.capacity,
            "buffer_peak_occupancy": self.buffer.peak_occupancy,
            "pending_rollouts": len(self.buffer),
            "publications": self.publisher.publications,
            "published_bytes": self.publisher.bytes_published,
            "active_policy_version": self.publisher.active_version,
        }

    # -- checkpointing ---------------------------------------------------------------

    def _controller(self):
        controller = self.trainer.actor.controller
        if controller is None:
            raise RuntimeError("checkpointing needs a controller-built system")
        return controller

    def state_dict(self) -> Dict[str, Any]:
        return {
            "next_gen": self._next_gen,
            "max_staleness_seen": self.max_staleness_seen,
            "buffer": self.buffer.state_dict(),
            "publisher": self.publisher.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._next_gen = int(state["next_gen"])
        self.max_staleness_seen = int(state["max_staleness_seen"])
        self.buffer.load_state_dict(state["buffer"])
        self.publisher.load_state_dict(state["publisher"])

    def save_checkpoint(self, directory: str) -> None:
        """Atomic checkpoint of workers + trainer + in-flight pipeline state.

        A save taken *mid-overlap* — rollouts buffered ahead of the trainer
        — captures the buffered experience and both cursors, so the restore
        resumes with the same staleness schedule.
        """
        self._controller().save_checkpoint(
            directory,
            extra={
                "trainer": self.trainer.state_dict(),
                "pipeline": self.state_dict(),
            },
        )

    def load_checkpoint(self, directory: str) -> Dict[str, Any]:
        manifest = self._controller().load_checkpoint(directory)
        extra = manifest.get("extra") or {}
        self.trainer.load_state_dict(extra["trainer"])
        self.load_state_dict(extra["pipeline"])
        return manifest


@dataclasses.dataclass
class OverlapStudy:
    """What a staleness window buys, with its proof attached.

    ``repro pipeline`` prints it, ``examples/async_pipeline.py`` narrates it
    and the ``async_ppo_overlap`` bench workload pins it.
    """

    #: ``staleness_window=0`` reproduced the synchronous run's checkpoint
    #: state exactly — the relaxation is opt-in, never silent.
    bit_exact: bool
    sync_makespan: float
    #: The overlapped run: its system, modeled timeline, ``driver.report()``.
    system: Any
    timeline: Any
    report: Dict[str, Any]

    @property
    def speedup(self) -> float:
        return self.sync_makespan / max(self.timeline.makespan, 1e-9)


def overlap_study(
    n_iterations: int, batch_size: int, config: PipelineConfig
) -> OverlapStudy:
    """Three runs of the shipped PPO job on the disaggregated placement.

    The synchronous trainer; the driver with an *empty* window, which must
    land on the same checkpoint state bit for bit; the driver with
    ``config``'s window.  The overlap is read off the modeled timeline
    (simulated seconds, deterministic on every host).  Raises ``ValueError``
    before anything runs when the runs could not (bad window, no
    iterations, a batch the placement cannot split).
    """
    from repro.analysis.dataflow import DataflowChecker
    from repro.config import ClusterSpec
    from repro.runtime.builder import SystemSpec
    from repro.runtime.timeline import build_timeline

    spec = SystemSpec(disaggregated=True)
    config.validate()
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    unsplittable = DataflowChecker(global_batch_size=batch_size).check_plan(
        spec.algo, spec.plan, function_rewards=spec.function_rewards
    ).errors
    if unsplittable:
        raise ValueError("; ".join(f.message for f in unsplittable))

    def build():
        return spec.build(
            cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4)
        )

    sync = build()
    sync.trainer.train(spec.dataset(), n_iterations, batch_size)
    exact = build()
    AsyncPipelineDriver(exact.trainer, PipelineConfig(staleness_window=0)).train(
        spec.dataset(), n_iterations, batch_size
    )
    overlapped = build()
    driver = AsyncPipelineDriver(overlapped.trainer, config)
    driver.train(spec.dataset(), n_iterations, batch_size)
    return OverlapStudy(
        bit_exact=sync.state_equal(exact),
        sync_makespan=build_timeline(sync.controller).makespan,
        system=overlapped,
        timeline=build_timeline(overlapped.controller),
        report=driver.report(),
    )


__all__ = ["AsyncPipelineDriver", "OverlapStudy", "overlap_study"]
