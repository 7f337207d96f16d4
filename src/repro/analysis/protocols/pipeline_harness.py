"""The async one-step-off pipeline, explored on its real objects.

:class:`PipelineHarness` builds a real :class:`~repro.pipeline.AsyncPipelineDriver`
— its :class:`~repro.pipeline.ExperienceBuffer` and
:class:`~repro.hybrid_engine.WeightPublisher` — attached to a trainer whose
stages do no numerics.  Its moves are the trainer loop's own
(:meth:`~repro.rlhf.trainers.RlhfTrainerBase.moves`): ``rollout`` while the
run-ahead bound allows one more batch, ``learn`` (which publishes the new
policy version) once the next batch is buffered, ``step`` for an iteration
in step.  The loop always takes the first; the checker takes every order.

Invariants: a rollout never acquires a version older than the one staged
(MC606), no batch trains more than ``W`` versions stale (MC603), and no
batch is lost, overwritten or left buffered (MC604 — the buffer's own
``BufferFull`` / pop errors, or a batch still buffered at the end).
"""

from __future__ import annotations

import itertools
import types
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.analysis.protocols.core import Harness, Mutant, Step, Violations
from repro.config import GenParallelConfig, ParallelConfig
from repro.data.batch import DataBatch
from repro.hybrid_engine.publication import WeightPublisher
from repro.observability.metrics import NULL_METRICS
from repro.observability.spans import NULL_TRACER
from repro.parallel.topology import GenTopology, ParallelTopology
from repro.pipeline import AsyncPipelineDriver, BufferFull, PipelineConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import RlhfTrainerBase
from repro.single_controller.access_log import (
    CONTROLLER_RANK,
    READ,
    WRITE,
    AccessLog,
)

_ROW = np.zeros((1, 1))


class _StandInActor:
    """The actor group as the driver and the publisher read it: one rank,
    an empty shard, and an access log of its own."""

    name = "actor"
    tracer = NULL_TRACER
    metrics = NULL_METRICS
    gen_topology = GenTopology(
        ParallelTopology(ParallelConfig(1, 1, 1)), GenParallelConfig(1, 1, 1)
    )
    workers = (types.SimpleNamespace(ctx=types.SimpleNamespace(global_rank=0), shard={}),)

    def __init__(self) -> None:
        self.log = AccessLog()

    def record_access(self, kind: str, resource: str, note: str = "") -> None:
        self.log.record(kind, resource, CONTROLLER_RANK, None, 0, note=note)


class _StandInTrainer(RlhfTrainerBase):
    """The trainer loop over stages that do no numerics: a batch is one row."""

    algo = AlgoType.PPO
    off_policy_correctable = True

    def rollout(self, prompts: DataBatch) -> DataBatch:
        return DataBatch({"old_log_probs": _ROW})

    def prepare(self, gen: DataBatch) -> DataBatch:
        return gen.union(DataBatch({"log_probs": _ROW}))

    def learn(self, batch: DataBatch, **extra: Any) -> Dict[str, Any]:
        return {}


class PipelineHarness(Harness):
    """``n_iterations`` of the trainer loop at staleness window ``window``."""

    def __init__(
        self, n_iterations: int, window: int, mutant: Optional[Mutant] = None
    ) -> None:
        super().__init__(mutant)
        self.n = n_iterations
        self.window = window
        self.name = self._named(f"async-pipeline[w{window},n{n_iterations}]")

    def build(self) -> Any:
        trainer = _StandInTrainer(_StandInActor(), None, None)
        driver = AsyncPipelineDriver(trainer, PipelineConfig(staleness_window=self.window))
        prompts = itertools.repeat(DataBatch({"prompts": _ROW}))
        return types.SimpleNamespace(trainer=trainer, driver=driver, prompts=prompts)

    def shared(self, world: Any) -> List[Any]:
        trainer = world.trainer
        return [trainer.config, trainer._rng, world.driver.config, world.prompts]

    def candidates(self, world: Any) -> List[Tuple[str, str]]:
        return [
            (move, "rollout" if move == "rollout" else "train")
            for move in world.trainer.moves(self.n)
        ]

    def perform(self, world: Any, move: str) -> Step:
        trainer, driver = world.trainer, world.driver
        buffer, publisher = driver.buffer, driver.publisher
        done, staged = len(trainer.history), publisher.staged_version
        index = done + len(buffer)
        log = trainer.actor.log
        log.clear()
        viol: Violations = ()
        try:
            trainer.advance(move, world.prompts)
        except (BufferFull, KeyError, ValueError) as err:
            viol = (("MC604", f"{move} of iteration {index if move == 'rollout' else done} "
                     f"lost its batch: {err}"),)
        except Exception as err:  # the loop cannot go on
            viol = (("MC601", f"{move} raised {type(err).__name__}: {err}"),)
        reads = tuple(e.resource for e in log.events if e.kind == READ)
        writes = tuple(e.resource for e in log.events if e.kind == WRITE)
        if move == "rollout" and index in buffer.indices() and not viol:
            version = buffer.version_of(index)
            if version < staged:
                viol = (("MC606", f"rollout {index} decodes version {version} while "
                         f"version {staged} is staged: the publication was lost "
                         "at the acquire"),)
        if driver.max_staleness_seen > self.window and not viol:
            viol = (("MC603", f"batch {done} trained at staleness "
                     f"{driver.max_staleness_seen}, past the bound W={self.window}"),)
        return Step(
            reads=reads, writes=writes, ctrl_reads=("history", "buffer", "staged"),
            syncs=reads, releases=writes, viol=viol,
        )

    def fingerprint(self, world: Any) -> Dict[str, Hashable]:
        driver = world.driver
        buffer = driver.buffer
        return {
            "history": len(world.trainer.history),
            "buffer": tuple((i, buffer.version_of(i)) for i in buffer.indices()),
            "staged": driver.publisher.staged_version,
            "active": driver.publisher.active_version,
            "staleness": driver.max_staleness_seen,
        }

    def terminal(self, world: Any) -> bool:
        return len(world.trainer.history) >= self.n

    def leftovers(self, world: Any) -> Violations:
        return tuple(
            ("MC604", f"batch {i} still buffered at run end: generated, never trained")
            for i in world.driver.buffer.indices()
        )


def _publish_unstaged(self: WeightPublisher, version: int) -> int:
    """``WeightPublisher.publish`` with the staging dropped: the trainer's
    new version never reaches the rollout engine."""
    self.publications += 1
    return 0


def _acquire_unflipped(self: WeightPublisher) -> int:
    """``WeightPublisher.acquire`` with the staged->active flip dropped."""
    self.group.record_access(READ, f"pipeline/weights[v{self._active}]")
    self.acquisitions += 1
    return self._active


def mutants() -> Dict[str, PipelineHarness]:
    """Rule -> a harness with the one real function whose guard it needs
    replaced."""
    return {
        "MC603": PipelineHarness(4, 1, Mutant(WeightPublisher, "publish", _publish_unstaged)),
        "MC604": PipelineHarness(
            3, 1, Mutant(RlhfTrainerBase, "run_ahead", lambda self, target: target - 1)
        ),
        "MC606": PipelineHarness(4, 1, Mutant(WeightPublisher, "acquire", _acquire_unflipped)),
    }


__all__ = ["PipelineHarness", "mutants"]
