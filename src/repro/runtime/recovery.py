"""Automatic failure recovery for functional RLHF runs (§9, beyond the happy path).

:func:`train_with_recovery` wraps a trainer loop with the full
fail-detect-recover cycle the single-controller model makes easy:

1. **Detect** — a remote call against a pool with a dead device (or with an
   exhausted retry budget) raises a typed
   :class:`~repro.faults.WorkerLostError` from the dispatch gate.
2. **Tear down** — the failed job's pools are released back to the cluster
   (:meth:`SingleController.release_pools`); dead devices stay dead.
3. **Re-place** — the caller's build function runs again *on the surviving
   cluster*, so pool allocation re-runs placement on the shrunken world.
4. **Restore** — the last atomic checkpoint is loaded (workers, optimizer,
   RNG, trainer/dataloader state) and lost iterations are re-run; because
   worker RNG streams are keyed by local rank, the recovered trajectory is
   bit-exact against an uninterrupted run.

Every recovery is accounted on the simulated clock (lost work since the
last checkpoint, re-init, restore) and surfaced in a
:class:`RecoveryReport`, so MTTR and goodput-vs-checkpoint-interval can be
studied with :mod:`repro.perf.recovery`.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.data.dataset import PromptDataset
from repro.faults.errors import WorkerLostError
from repro.faults.injector import FaultInjector
from repro.faults.policy import RetryPolicy
from repro.runtime.builder import RlhfSystem

#: Builds (or rebuilds) the RLHF system; receives the surviving cluster on
#: recovery, ``None`` on the first build.
BuildFn = Callable[[Optional[Any]], RlhfSystem]


@dataclasses.dataclass
class RecoveryCostModel:
    """Simulated-time costs of the recovery path.

    Attributes:
        reinit_time: Seconds to respawn worker groups and rebuild process
            groups on the surviving devices.
        restore_bandwidth: Bytes/s at which checkpoint state is read back.
        checkpoint_bandwidth: Bytes/s at which checkpoint state is written.
    """

    reinit_time: float = 2.0
    restore_bandwidth: float = 1e9
    checkpoint_bandwidth: float = 2e9

    def restore_time(self, checkpoint_bytes: int) -> float:
        return checkpoint_bytes / self.restore_bandwidth

    def save_time(self, checkpoint_bytes: int) -> float:
        return checkpoint_bytes / self.checkpoint_bandwidth


@dataclasses.dataclass(frozen=True)
class RecoveryEvent:
    """One detected failure and its recovery, in simulated time."""

    failed_iteration: int  # iteration (0-based) in flight when the fault hit
    resumed_iteration: int  # last checkpointed iteration we rolled back to
    lost_iterations: int  # completed iterations whose work was lost
    dead_ranks: Tuple[int, ...]
    pool: str
    cause: str
    detected_at: float  # simulated clock at detection
    restore_time: float
    reinit_time: float

    @property
    def downtime(self) -> float:
        """Re-init plus restore: the simulated repair time of this failure."""
        return self.restore_time + self.reinit_time


@dataclasses.dataclass
class RecoveryReport:
    """Aggregate recovery-cost accounting of one run."""

    events: List[RecoveryEvent] = dataclasses.field(default_factory=list)
    checkpoints_saved: int = 0
    checkpoint_time: float = 0.0  # total simulated seconds spent saving
    total_time: float = 0.0  # simulated clock at the end of the run

    @property
    def n_failures(self) -> int:
        return len(self.events)

    @property
    def total_lost_iterations(self) -> int:
        return sum(e.lost_iterations for e in self.events)

    @property
    def total_downtime(self) -> float:
        return sum(e.downtime for e in self.events)

    @property
    def mttr(self) -> float:
        """Mean simulated time to repair a failure (0 when none occurred)."""
        if not self.events:
            return 0.0
        return self.total_downtime / len(self.events)

    def summary_lines(self) -> List[str]:
        lines = [
            f"recovery: {self.n_failures} failure(s), "
            f"{self.total_lost_iterations} iteration(s) of work lost"
        ]
        for e in self.events:
            ranks = f"ranks {list(e.dead_ranks)}" if e.dead_ranks else "no dead ranks"
            lines.append(
                f"  at iter {e.failed_iteration}: {e.cause} ({ranks}, pool "
                f"{e.pool!r}) -> rolled back to iter {e.resumed_iteration}, "
                f"repair {e.downtime:.2f}s (restore {e.restore_time:.2f}s "
                f"+ reinit {e.reinit_time:.2f}s)"
            )
        lines.append(
            f"  checkpoints: {self.checkpoints_saved} saved, "
            f"{self.checkpoint_time:.2f}s simulated write time"
        )
        if self.events:
            lines.append(f"  MTTR {self.mttr:.2f}s over {self.n_failures} repair(s)")
        return lines


def _checkpoint_nbytes(directory: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in directory.glob("*") if f.is_file())


def restore_system(
    system: RlhfSystem,
    checkpoint_dir: str,
    cost_model: Optional[RecoveryCostModel] = None,
    allow_resize: bool = False,
) -> Tuple[int, float]:
    """Load the atomic checkpoint into a (possibly resized) rebuilt system.

    The one restore path shared by :func:`train_with_recovery` and the fleet
    scheduler: loads worker state (``allow_resize=True`` permits a different
    DP width — see :meth:`SingleController.load_checkpoint`), charges the
    restore to the simulated clock, and re-hydrates the trainer's RNG and
    iteration counter from the manifest.

    Returns:
        ``(resumed_iteration, restore_time)``.
    """
    cost = cost_model or RecoveryCostModel()
    root = pathlib.Path(checkpoint_dir)
    manifest = system.controller.load_checkpoint(root, allow_resize=allow_resize)
    src = root if root.is_dir() else root.parent / f".{root.name}.replaced"
    restore_time = cost.restore_time(_checkpoint_nbytes(src))
    system.controller.clock.advance(restore_time)
    extra = manifest.get("extra") or {}
    if "trainer" in extra:
        system.trainer.load_state_dict(extra["trainer"])
    return int(extra.get("iteration", 0)), restore_time


def train_with_recovery(
    build_fn: BuildFn,
    dataset: PromptDataset,
    n_iterations: int,
    batch_size: int,
    checkpoint_dir: str,
    checkpoint_every: int = 1,
    injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
    cost_model: Optional[RecoveryCostModel] = None,
    max_recoveries: int = 8,
) -> Tuple[RlhfSystem, List[Dict[str, Any]], RecoveryReport]:
    """Train for ``n_iterations``, surviving injected permanent failures.

    Args:
        build_fn: ``build_fn(cluster)`` returning a fresh
            :class:`RlhfSystem`; called with ``None`` initially and with the
            surviving :class:`~repro.cluster.SimCluster` on every rebuild.
            It must construct the system deterministically (same seeds).
        checkpoint_every: Save an atomic checkpoint after every N completed
            iterations (the goodput/checkpoint-interval trade-off of
            :mod:`repro.perf.recovery`).
        injector: Optional fault delivery; re-bound to each rebuilt
            controller so one plan spans the whole run.
        retry_policy: Override the controller's transient-fault policy.
        max_recoveries: Abort (re-raise ``WorkerLostError``) after this many
            recoveries — e.g. when no feasible placement survives.

    Returns:
        ``(system, history, report)`` — the final system, per-iteration
        metrics (identical to an uninterrupted run), and the recovery-cost
        accounting.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    cost = cost_model or RecoveryCostModel()
    root = pathlib.Path(checkpoint_dir)
    report = RecoveryReport()
    #: Observability record of the whole run: captured from the first build
    #: and re-attached to every rebuilt controller, so one tracer/registry
    #: spans the faulted run, the recovery phases, and the resumed run.
    obs: Dict[str, Any] = {}

    def _wire(system: RlhfSystem) -> RlhfSystem:
        if retry_policy is not None:
            system.controller.retry_policy = retry_policy
        if injector is not None:
            system.controller.attach_fault_injector(injector)
        if not obs:
            obs["tracer"] = system.controller.tracer
            obs["metrics"] = system.controller.metrics
        else:
            system.controller.attach_observability(obs["tracer"], obs["metrics"])
        return system

    def _save(system: RlhfSystem, iteration: int) -> None:
        controller = system.controller
        with controller.tracer.span(
            "checkpoint.save", category="checkpoint", iteration=iteration
        ) as span:
            controller.save_checkpoint(
                root,
                extra={
                    "iteration": iteration,
                    "trainer": system.trainer.state_dict(),
                },
            )
            save_time = cost.save_time(_checkpoint_nbytes(root))
            controller.clock.advance(save_time)
            span.attrs["save_time"] = save_time
        report.checkpoints_saved += 1
        report.checkpoint_time += save_time

    def _stream_at(iteration: int):
        batches = dataset.iter_batches(batch_size, epochs=10**6)
        for _ in range(iteration):
            next(batches)
        return batches

    system = _wire(build_fn(None))
    cluster = system.controller.cluster
    _save(system, 0)  # recovery target before the first periodic save exists
    history: List[Dict[str, Any]] = []
    batches = _stream_at(0)
    it = 0
    recoveries = 0
    while it < n_iterations:
        prompts = next(batches)
        try:
            metrics = system.trainer.run_step(prompts)
        except WorkerLostError as err:
            recoveries += 1
            if recoveries > max_recoveries:
                raise
            tracer = obs["tracer"]
            run_metrics = obs["metrics"]
            detected = system.controller.clock.now
            with tracer.span(
                f"recovery[{recoveries - 1}]",
                category="recovery",
                pool=err.pool,
                ranks=tuple(err.dead_ranks),
                cause=err.cause or "worker lost",
                failed_iteration=it,
            ) as recovery_span:
                # tear down the failed job; survivors return to the cluster
                with tracer.span("recovery.teardown", category="recovery"):
                    system.controller.release_pools()
                # re-place on the shrunken cluster and restore the
                # checkpoint.  _wire re-points the shared tracer at the
                # rebuilt controller's clock, which restarts at 0 — advance
                # it back to the detection time before opening any further
                # spans.
                system = _wire(build_fn(cluster))
                system.controller.clock.advance(detected)
                with tracer.span("recovery.rebuild", category="recovery"):
                    system.controller.clock.advance(cost.reinit_time)
                with tracer.span(
                    "recovery.restore", category="recovery"
                ) as restore_span:
                    resumed, restore_time = restore_system(system, root, cost)
                    restore_span.attrs["restore_time"] = restore_time
                recovery_span.attrs.update(
                    resumed_iteration=resumed, lost_iterations=it - resumed
                )
            run_metrics.counter(
                "repro_recoveries_total", "Completed failure recoveries"
            ).inc()
            run_metrics.counter(
                "repro_lost_iterations_total",
                "Completed iterations whose work was lost to failures",
            ).inc(it - resumed)
            report.events.append(
                RecoveryEvent(
                    failed_iteration=it,
                    resumed_iteration=resumed,
                    lost_iterations=it - resumed,
                    dead_ranks=err.dead_ranks,
                    pool=err.pool,
                    cause=err.cause or "worker lost",
                    detected_at=detected,
                    restore_time=restore_time,
                    reinit_time=cost.reinit_time,
                )
            )
            history = history[:resumed]
            batches = _stream_at(resumed)
            it = resumed
            continue
        history.append(metrics)
        it += 1
        if it % checkpoint_every == 0:
            _save(system, it)
    report.total_time = system.controller.clock.now
    return system, history, report
