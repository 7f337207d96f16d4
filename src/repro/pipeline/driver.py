"""``AsyncPipelineDriver``: the one-step-off bounded-staleness RLHF loop.

The synchronous loop (:meth:`repro.rlhf.trainers.RlhfTrainerBase.train`)
serializes every iteration end to end: generate → score → update, with the
rollout engine idle while the trainer consumes its output and vice versa.
A driver attached to the trainer relaxes that barrier the way DistFlow /
MindSpeed-RL do: while the trainer consumes iteration *t*'s experience, the
rollout engine is already generating iteration *t+1* on the last
*published* policy.

Semantics (``W = staleness_window``):

* batch *i* is generated under policy version ``max(0, i - W)`` and trained
  at version *i* — its staleness is ``min(i, W)``, never more;
* the experience buffer holds at most ``W + 1`` in-flight batches (the
  structural enforcement of the bound);
* stale batches get per-token truncated importance weights
  (:func:`repro.rlhf.losses.truncated_importance_weights`) so the PPO/GRPO
  surrogate stays sound off-policy;
* ``W = 0`` *is* the synchronous loop: the trainer's one loop never looks
  ahead, so every iteration is ``run_step`` — no buffer, no publication;
* weight hand-off goes through a
  :class:`~repro.hybrid_engine.WeightPublisher`: the trainer *publishes*
  after every optimizer step without blocking decode, the rollout engine
  *acquires* at generate-call boundaries, and both sides leave
  happens-before edges in the access log so the RC5xx race detector can
  prove the overlapped schedule free of torn reads.

The driver holds only what is asynchronous — buffer, publisher, staleness
bookkeeping — and the two stage bodies the trainer's loop calls when it
runs ahead (:meth:`AsyncPipelineDriver.rollout`,
:meth:`AsyncPipelineDriver.learn`); the trainer's ``state_dict`` carries
that state, so :class:`~repro.runtime.JobRun` checkpoints a job with
rollouts in flight.  It restates no algorithm; the overlap materializes in
the modeled schedule
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
    """Bounded-staleness overlap of rollout and training.

    Attaches itself to ``trainer`` (:attr:`RlhfTrainerBase.pipeline`): the
    trainer's loop then runs ahead through :meth:`rollout` and trains the
    buffered batches through :meth:`learn`.
    """

    def __init__(
        self,
        trainer: RlhfTrainerBase,
        config: Optional[PipelineConfig] = None,
        publisher: Optional[WeightPublisher] = None,
    ) -> None:
        self.trainer = trainer
        self.config = config or PipelineConfig()
        # one source of truth for soundness constraints (supported
        # algorithms included): the same DF108 findings `repro check` raises
        # statically reject the config here
        from repro.analysis.dataflow import DataflowChecker

        report = DataflowChecker().check_pipeline(
            self.config, trainer.config, type(trainer), actor=trainer.actor
        )
        if report.errors:
            raise ValueError(
                "pipeline config rejected by DF108: "
                + "; ".join(f.message for f in report.errors)
            )
        self.buffer = ExperienceBuffer(self.config.staleness_window + 1)
        self.publisher = publisher or WeightPublisher(trainer.actor)
        self.max_staleness_seen = 0
        trainer.pipeline = self

    # -- rollout track ---------------------------------------------------------------

    def rollout(self, prompts: DataBatch) -> None:
        """Generate the next batch (the cursor, ``len(history) + len(buffer)``)
        under the active policy version and buffer it.

        With ``stream_scoring`` the frozen-model scoring passes (reference
        log-probs, rewards) are dispatched as soon as generation finishes —
        at the rollout boundary instead of the train-step boundary — so in
        the modeled schedule they overlap the *next* rollout rather than
        sitting on the training critical path.  Both models are frozen, so
        the results are identical either way.
        """
        trainer = self.trainer
        index = len(trainer.history) + len(self.buffer)
        version = self.publisher.acquire()
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

    # -- training track --------------------------------------------------------------

    def learn(self) -> Dict[str, Any]:
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
        batch = trainer.prepare(entry.batch)
        if staleness > 0:
            mask = batch["response_mask"] if "response_mask" in batch else None
            weights = truncated_importance_weights(
                batch["log_probs"],
                batch["old_log_probs"],
                clip=self.config.iw_clip,
                response_mask=mask,
            )
            batch = batch.union(
                DataBatch({"importance_weights": weights}, meta=batch.meta)
            )
        metrics = trainer.learn(batch)
        if staleness > 0:
            # extra keys only off-policy: an on-policy history stays
            # bit-equal to the synchronous trainer's
            metrics["pipeline/staleness"] = staleness
            metrics["pipeline/policy_version"] = entry.version
        return metrics

    def train(
        self, dataset: PromptDataset, n_iterations: int, batch_size: int
    ) -> List[Dict[str, Any]]:
        """Run ``n_iterations`` more iterations of the trainer's one loop,
        with this driver's staleness window."""
        return self.trainer.train(dataset, n_iterations, batch_size)

    # -- reporting -------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        return {
            "algo": self.trainer.algo.value,
            "iterations": len(self.trainer.history),
            "staleness_window": self.config.staleness_window,
            "max_staleness_seen": self.max_staleness_seen,
            "stream_scoring": self.config.stream_scoring,
            "buffer_capacity": self.buffer.capacity,
            "buffer_peak_occupancy": self.buffer.peak_occupancy,
            "pending_rollouts": len(self.buffer),
            "publications": self.publisher.publications,
            "published_bytes": self.publisher.bytes_published,
            "active_policy_version": self.publisher.active_version,
        }


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


def check_overlap_study(n_iterations: int, batch_size: int) -> None:
    """Raise ``ValueError`` when :func:`overlap_study` could not run: no
    iterations, or a batch the placement cannot split (SF703)."""
    from repro.analysis.shapeflow import ShapeFlowChecker
    from repro.runtime.builder import SystemSpec

    spec = SystemSpec(disaggregated=True)
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    unsplittable = ShapeFlowChecker().check_plan(
        spec.algo, spec.plan, spec.function_rewards, batch_size=batch_size,
        prompt_length=spec.prompt_length, max_new_tokens=spec.max_new_tokens,
        max_seq_len=spec.model_config.max_seq_len,
    ).errors
    if unsplittable:
        raise ValueError("; ".join(f.message for f in unsplittable))


def overlap_study(
    n_iterations: int, batch_size: int, config: PipelineConfig
) -> OverlapStudy:
    """Three runs of the shipped PPO job on the disaggregated placement.

    The synchronous trainer; the driver with an *empty* window, which must
    land on the same checkpoint state bit for bit; the driver with
    ``config``'s window.  The overlap is read off the modeled timeline
    (simulated seconds, deterministic on every host).  Raises ``ValueError``
    before anything runs when :func:`check_overlap_study` does; a bad window
    fails at ``PipelineConfig``.
    """
    from repro.config import ClusterSpec
    from repro.runtime.builder import SystemSpec
    from repro.runtime.timeline import build_timeline

    check_overlap_study(n_iterations, batch_size)
    spec = SystemSpec(disaggregated=True)

    def build():
        return spec.build(
            cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4)
        )

    def replay(system):
        controller = system.controller
        return build_timeline(controller.trace, controller.planned_duration)

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
        sync_makespan=replay(sync).makespan,
        system=overlapped,
        timeline=replay(overlapped),
        report=driver.report(),
    )


__all__ = ["AsyncPipelineDriver", "OverlapStudy", "check_overlap_study", "overlap_study"]
