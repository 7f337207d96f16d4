"""Automatic failure recovery for functional RLHF runs (§9, beyond the happy path).

:class:`JobRun` is the one supervised-job lifecycle — :func:`train_with_recovery`
and the fleet scheduler both drive it — with the full fail-detect-recover
cycle the single-controller model makes easy:

1. **Detect** — a remote call against a pool with a dead device (or with an
   exhausted retry budget) raises a typed
   :class:`~repro.faults.WorkerLostError` from the dispatch gate.
2. **Tear down** — the failed job's pools are released back to the cluster
   (:meth:`SingleController.release_pools`); dead devices stay dead.
3. **Re-place** — the caller's build function runs again *on the surviving
   cluster*, so pool allocation re-runs placement on the shrunken world.
4. **Restore** — the last atomic checkpoint is loaded (workers, optimizer,
   RNG, trainer/dataloader state, an async job's rollouts in flight) and
   lost iterations are re-run; because worker RNG streams are keyed by
   local rank, the recovered trajectory is bit-exact against an
   uninterrupted run.

Every recovery is accounted on the job's one simulated clock (surviving
and lost work, checkpoint writes, re-init, restore) and surfaced in a
:class:`RecoveryReport`, so MTTR and goodput-vs-checkpoint-interval can be
studied with :mod:`repro.perf.recovery`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pathlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.data.dataset import PromptDataset
from repro.faults.errors import WorkerLostError
from repro.faults.injector import FaultInjector
from repro.faults.policy import RetryPolicy, SimClock
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Span, SpanTracer
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
    #: Simulated seconds of each surviving iteration; a rollback truncates it
    #: together with the history, so re-run work is never counted twice.
    iteration_times: List[float] = dataclasses.field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return len(self.events)

    @property
    def useful_time(self) -> float:
        """Simulated seconds of iteration work that survived."""
        return sum(self.iteration_times)

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

    Loads worker state (``allow_resize=True`` permits a different DP width
    — see :meth:`SingleController.load_checkpoint`), charges the restore to
    the simulated clock, and re-hydrates the trainer's ``state_dict`` (RNG,
    iteration counter, an attached pipeline's buffer and publisher).

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


class JobRun:
    """One supervised job: build -> checkpoint -> step -> recover, written once.

    Owns what is job-long — build function, checkpoint directory, cost
    model, fault wiring, **one** clock / tracer / registry that every
    controller the job builds adopts, the surviving ``history`` and the
    :class:`RecoveryReport` — while :attr:`system` comes and goes with each
    placement.  The caller decides only *when* to start, step, save and stop.
    """

    def __init__(
        self,
        build_fn: BuildFn,
        dataset: PromptDataset,
        batch_size: int,
        checkpoint_dir: str,
        cost_model: Optional[RecoveryCostModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
        cluster: Optional[Any] = None,
        allow_resize: bool = False,
    ) -> None:
        self.build_fn = build_fn
        self.dataset = dataset
        self.batch_size = batch_size
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.cost = cost_model or RecoveryCostModel()
        self.retry_policy = retry_policy
        self.injector = injector
        #: ``None`` until the first build creates one; every later build
        #: re-places the job on what survives of the same cluster.
        self.cluster = cluster
        self.allow_resize = allow_resize
        self.clock = SimClock()
        self.tracer = SpanTracer(self.clock)
        self.metrics = MetricsRegistry()
        self.system: Optional[RlhfSystem] = None
        #: Per-iteration trainer metrics of the work that survived.
        self.history: List[Dict[str, Any]] = []
        self.report = RecoveryReport()
        #: The error and the ``recovery[N]`` span (opened at detection) of a
        #: failure the next :meth:`start` repairs.
        self._failure: Optional[Tuple[WorkerLostError, Span]] = None

    @property
    def iteration(self) -> int:
        """Completed iterations whose work survives (the next one to run)."""
        return len(self.history)

    def start(self) -> Optional[RecoveryEvent]:
        """Place the job and bring it to its last durable state.

        Builds on what is alive of the cluster and hands the new controller
        the fault policy and the job's clock/tracer/registry.  The first
        start writes the iteration-0 checkpoint (the recovery target before
        any periodic save exists); every later one pays re-init, restores
        the checkpoint and rolls ``history`` back to it — booked (and
        returned) as a :class:`RecoveryEvent` when it repairs a failure,
        plain scheduling overhead when it resumes a preempted job.
        """
        self.system = self.build_fn(self.cluster)
        controller = self.system.controller
        self.cluster = controller.cluster
        controller.adopt(self.clock, self.tracer, self.metrics)
        if self.retry_policy is not None:
            controller.retry_policy = self.retry_policy
        if self.injector is not None:
            controller.attach_fault_injector(self.injector)
        if not self.report.checkpoints_saved:
            self.save()
            return None
        with self.tracer.span("recovery.rebuild", category="recovery"):
            self.clock.advance(self.cost.reinit_time)
        with self.tracer.span("recovery.restore", category="recovery") as span:
            resumed, restore_time = restore_system(
                self.system, self.checkpoint_dir, self.cost, self.allow_resize
            )
            span.attrs["restore_time"] = restore_time
        failed_iteration = self.iteration
        lost = failed_iteration - resumed
        del self.history[resumed:]
        del self.report.iteration_times[resumed:]
        if self._failure is None:
            return None
        err, recovery_span = self._failure
        self._failure = None
        recovery_span.attrs.update(resumed_iteration=resumed, lost_iterations=lost)
        self.metrics.counter(
            "repro_recoveries_total", "Completed failure recoveries"
        ).inc()
        self.metrics.counter(
            "repro_lost_iterations_total",
            "Completed iterations whose work was lost to failures",
        ).inc(lost)
        event = RecoveryEvent(
            failed_iteration=failed_iteration,
            resumed_iteration=resumed,
            lost_iterations=lost,
            dead_ranks=err.dead_ranks,
            pool=err.pool,
            cause=err.cause or "worker lost",
            detected_at=recovery_span.start,
            restore_time=restore_time,
            reinit_time=self.cost.reinit_time,
        )
        self.report.events.append(event)
        return event

    def save(self) -> None:
        """Atomic checkpoint of workers + trainer at the current iteration."""
        with self.tracer.span(
            "checkpoint.save", category="checkpoint", iteration=self.iteration
        ) as span:
            self.system.controller.save_checkpoint(
                self.checkpoint_dir,
                extra={
                    "iteration": self.iteration,
                    "trainer": self.system.trainer.state_dict(),
                },
            )
            save_time = self.cost.save_time(_checkpoint_nbytes(self.checkpoint_dir))
            self.clock.advance(save_time)
            span.attrs["save_time"] = save_time
        self.report.checkpoints_saved += 1
        self.report.checkpoint_time += save_time

    def step(self, target: int) -> Dict[str, Any]:
        """One RLHF iteration of a job ``target`` iterations long — an async
        job's rollouts run ahead toward it exactly as in one unsupervised
        call.  A ``WorkerLostError`` leaves the books as they were (an
        aborted iteration is neither history nor useful time)."""
        started = self.clock.now
        trainer = self.system.trainer
        metrics = trainer.train(self.dataset, 1, self.batch_size, target)[-1]
        self.history.append(metrics)
        self.report.iteration_times.append(self.clock.now - started)
        return metrics

    def stop(self) -> None:
        """Tear the placement down: its devices go back to the cluster."""
        self.system.controller.release_pools()
        self.system = None

    @contextlib.contextmanager
    def recovery(self, err: WorkerLostError) -> Iterator[Span]:
        """The ``recovery[N]`` span of one detected failure.

        Tears the victim down on entry; whatever the caller does next —
        restart at once, requeue, give up — happens under the span, and the
        next :meth:`start`, whenever it comes, is booked as this repair.
        """
        with self.tracer.span(
            f"recovery[{self.report.n_failures}]",
            category="recovery",
            pool=err.pool,
            ranks=tuple(err.dead_ranks),
            cause=err.cause or "worker lost",
            failed_iteration=self.iteration,
        ) as span:
            self._failure = (err, span)
            with self.tracer.span("recovery.teardown", category="recovery"):
                self.stop()
            yield span


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
    run = JobRun(
        build_fn, dataset, batch_size, checkpoint_dir,
        cost_model=cost_model, retry_policy=retry_policy, injector=injector,
    )
    run.start()
    while run.iteration < n_iterations:
        try:
            run.step(n_iterations)
        except WorkerLostError as err:
            if run.report.n_failures >= max_recoveries:
                raise
            with run.recovery(err):
                run.start()
            continue
        if run.iteration % checkpoint_every == 0:
            run.save()
    run.report.total_time = run.clock.now
    return run.system, run.history, run.report
