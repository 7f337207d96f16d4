"""The fleet gang scheduler, explored on its real objects.

:class:`FleetHarness` builds a real :class:`~repro.fleet.FleetScheduler` over
a small shared cluster, each tenant a stand-in run (:class:`_StandInRun`)
whose iteration is a counter: it holds a gang of the cluster's devices, keeps
its checkpoint in memory and finds a dead device of its gang on its next
step, as a real job finds it on its next remote call.  The moves are the
scheduler's own: a job arrives (the arrival tick passes), the fault plan's
next kill fires, an admission round admits somebody (``_admit``, with its
checkpoint-and-evict preemption; with nothing running it ends as the tick
loop does, giving up waiters nothing can change, ``_give_up``), or a running
job steps (``_step_job``, with its fault recovery).  Jobs step concurrently on
disjoint devices, so the checker commutes their steps.

Invariants: running gangs never share a device (MC607); only a fault rolls a
job back — a preemption resumes it where it stopped (MC608); a job either
runs to completion or is failed (MC601: stuck, MC602: an eviction cycle).
"""

from __future__ import annotations

import types
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.analysis.protocols.core import Harness, Mutant, Step, Violations
from repro.cluster.cluster import SimCluster
from repro.config import ClusterSpec
from repro.faults.errors import WorkerLostError
from repro.faults.plan import FaultPlan
from repro.fleet import FleetScheduler, JobSpec, JobState
from repro.fleet.scheduler import _JobRuntime
from repro.observability.spans import NULL_TRACER
from repro.runtime.recovery import RecoveryEvent

_DONE = (JobState.COMPLETED, JobState.FAILED)


class _StandInRun(_JobRuntime):
    """A tenant whose iteration is a counter, on a gang of real devices."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.tracer = NULL_TRACER
        self.dataset = None
        self.gang = None
        self.saved: Optional[int] = None
        #: Ranks whose ledger this run wrote since the harness last read it.
        self.wrote: List[int] = []

    def start(self) -> Optional[RecoveryEvent]:
        self.gang = self.cluster.allocate(self.spec.gpus_at(self.dp))
        for device in self.gang:
            device.memory.alloc(f"fleet/{self.spec.name}", 1)
        self.wrote += self.gang.global_ranks
        if self.saved is None:
            self.save()
            return None
        failed = self.iteration
        del self.history[self.saved:]
        if self._failure is None:
            return None
        err, _span = self._failure
        self._failure = None
        event = RecoveryEvent(
            failed, self.saved, failed - self.saved, err.dead_ranks, err.pool,
            err.cause, 0.0, 0.0, 0.0,
        )
        self.report.events.append(event)
        return event

    def save(self) -> None:
        self.saved = self.iteration
        self.report.checkpoints_saved += 1

    def step(self, target: int) -> Dict[str, Any]:
        dead = tuple(d.global_rank for d in self.gang if not d.alive)
        if dead:
            raise WorkerLostError(
                f"job {self.spec.name!r} lost rank(s) {dead}",
                pool=self.spec.name, dead_ranks=dead, cause="device lost",
            )
        for device in self.gang:
            device.occupy(1.0)
        self.history.append({})
        return {}

    def stop(self) -> None:
        # the release clears each live device's tag; a dead one's went with it
        self.wrote += [d.global_rank for d in self.gang if d.alive]
        self.cluster.release(self.gang)
        self.gang = None


class _Scheduler(FleetScheduler):
    runtime = _StandInRun


class FleetHarness(Harness):
    """``jobs`` (fleet :class:`~repro.fleet.JobSpec`) on ``gpus`` devices of
    one machine; ``kills`` are the fault plan's device kills, in order."""

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        gpus: int,
        kills: Sequence[int] = (),
        max_failures: int = 4,
        mutant: Optional[Mutant] = None,
    ) -> None:
        super().__init__(mutant)
        self.jobs, self.gpus = tuple(jobs), gpus
        self.kills, self.max_failures = tuple(kills), max_failures
        spec = ",".join(
            f"{j.name}:p{j.priority}d{j.min_dp}-{j.preferred_dp}i{j.n_iterations}"
            + (f"c{j.checkpoint_every}" if j.checkpoint_every > 1 else "")
            + (f"a{j.arrival_tick}" if j.arrival_tick else "")
            for j in self.jobs
        )
        self.name = self._named(f"fleet-gang[{spec};g{gpus},k{len(self.kills)}]")

    def build(self) -> Any:
        plan = FaultPlan()
        for order, rank in enumerate(self.kills):
            plan.kill_device(rank, at_step=order)
        scheduler = _Scheduler(
            ClusterSpec(n_machines=1, gpus_per_machine=self.gpus),
            list(self.jobs),
            checkpoint_root="fleet-harness",
            fault_plan=plan,
            aging=0.0,
            max_failures_per_job=self.max_failures,
        )
        return types.SimpleNamespace(scheduler=scheduler, tick=0)

    def shared(self, world: Any) -> List[Any]:
        scheduler = world.scheduler
        return (
            [scheduler.cluster_spec, scheduler.metrics, scheduler.cluster.spec]
            + [device.spec for device in scheduler.cluster.devices]
            + [job.spec for job in scheduler.jobs]
            + [job.injector for job in scheduler.jobs]
            + [job.metrics for job in scheduler.jobs]
            + [job.cost for job in scheduler.jobs]
            + [job.checkpoint_dir for job in scheduler.jobs]
            + [job.build_fn for job in scheduler.jobs]
            + [scheduler.driver.plan if scheduler.driver else None]
        )

    def candidates(self, world: Any) -> List[Tuple[str, str]]:
        scheduler = world.scheduler
        moves = []
        later = [j for j in scheduler.jobs if j.spec.arrival_tick > world.tick]
        if later:
            first = min(later, key=lambda j: (j.spec.arrival_tick, j.spec.name))
            moves.append((f"arrive[{first.spec.name}]", "sched"))
        if _pending(scheduler):
            moves.append((f"kill[{_pending(scheduler)[0].rank}]", "sched"))
        running = [j for j in scheduler.jobs if j.state == JobState.RUNNING]
        if scheduler._waiting(world.tick):
            moves.append(("admit", "sched"))
        moves += [(f"step[{j.spec.name}]", f"job.{j.spec.name}") for j in running]
        return moves

    def perform(self, world: Any, move: str) -> Optional[Step]:
        scheduler = world.scheduler
        cluster = scheduler.cluster
        iterations = {j.spec.name: (j.iteration, j.report.n_failures) for j in scheduler.jobs}
        held = _gangs(scheduler)
        running = {j.spec.name for j in scheduler.jobs if j.state == JobState.RUNNING}
        busy = [d.busy_time for d in cluster.devices]
        viol: Violations = ()
        try:
            if move.startswith("arrive"):
                world.tick = min(
                    j.spec.arrival_tick for j in scheduler.jobs if j.spec.arrival_tick > world.tick
                )
            elif move.startswith("kill"):
                scheduler.driver.apply_due(cluster, _pending(scheduler)[0].at_step)
            elif move == "admit":
                # an admission round of the tick loop; with nothing running
                # to make progress, it gives the waiters up if nothing can
                # change
                waiting = len(scheduler._waiting(world.tick))
                admitted = scheduler._admit(world.tick)
                if not running:
                    scheduler._give_up(world.tick, admitted)
                if not admitted and len(scheduler._waiting(world.tick)) == waiting:
                    return None
            else:
                job = next(j for j in scheduler.jobs if f"step[{j.spec.name}]" == move)
                scheduler._step_job(job, world.tick)
        except Exception as err:  # the scheduler cannot go on
            viol = (("MC601", f"{move} raised {type(err).__name__}: {err}"),)
        after = _gangs(scheduler)
        ranks = [r for gang in after.values() for r in gang]
        if len(set(ranks)) < len(ranks) and not viol:
            viol = (("MC607", f"gangs {after} share a device"),)
        for job in scheduler.jobs:
            was, failures = iterations[job.spec.name]
            if job.iteration < was and job.report.n_failures == failures and not viol:
                viol = (("MC608", f"job {job.spec.name!r} resumes at iteration "
                         f"{job.iteration} after stopping at {was}, with no fault"),)
        held_ranks, ranks = set().union(*held.values()), set(ranks)
        granted, freed = sorted(ranks - held_ranks), sorted(held_ranks - ranks)
        started = [n for n, g in after.items() if held.get(n) != g]
        stopped = [n for n in running if n not in after]
        wrote = set()
        for job in scheduler.jobs:
            wrote.update(job.wrote)
            job.wrote.clear()  # read: the next move's writes start empty
        touched = [
            f"gpu{device.global_rank}"
            for device, was_busy in zip(cluster.devices, busy)
            # a fault is the cluster's doing, no thread's access
            if not move.startswith("kill")
            and (device.global_rank in wrote or device.busy_time != was_busy)
        ]
        own = [move[5:-1]] if move.startswith("step") else []
        return Step(
            writes=tuple(touched),
            ctrl_reads=(
                tuple(f"job.{n}" for n in own) + ("alive", "free")
                if own else tuple(self.fingerprint(world))
            ),
            syncs=tuple(f"dev{r}" for r in granted)
            + tuple(f"step.{n}" for n in stopped if n not in own)
            + tuple(f"run.{n}" for n in own),
            releases=tuple(f"dev{r}" for r in freed)
            + tuple(f"run.{n}" for n in started)
            + tuple(f"step.{n}" for n in own),
            viol=viol,
        )

    def fingerprint(self, world: Any) -> Dict[str, Hashable]:
        scheduler = world.scheduler
        cluster: SimCluster = scheduler.cluster
        fp: Dict[str, Hashable] = {
            "tick": world.tick,
            "faults": len(_pending(scheduler)),
            "alive": tuple(d.alive for d in cluster.devices),
            "free": tuple(sorted(cluster._free)),
        }
        for job in scheduler.jobs:
            fp[f"job.{job.spec.name}"] = (
                job.state, job.iteration, job.saved, job.dp,
                tuple(job.gang.global_ranks) if job.gang is not None else None,
                job.failures,
            )
        return fp

    def terminal(self, world: Any) -> bool:
        scheduler = world.scheduler
        return not _pending(scheduler) and all(
            j.state in _DONE for j in scheduler.jobs
        )


def _pending(scheduler: FleetScheduler) -> Tuple[Any, ...]:
    """The fault plan's kills still to fire."""
    return scheduler.driver.pending_events if scheduler.driver else ()


def _gangs(scheduler: FleetScheduler) -> Dict[str, Tuple[int, ...]]:
    """Each running job's devices."""
    return {
        j.spec.name: tuple(j.gang.global_ranks)
        for j in scheduler.jobs
        if j.state == JobState.RUNNING and j.gang is not None
    }


def job(
    name: str, priority: int, dp: Tuple[int, int], iterations: int,
    arrival: int = 0, checkpoint_every: int = 1,
) -> JobSpec:
    """A tenant at tensor-parallel width 1: ``gpus_at(dp) = dp + 1``."""
    return JobSpec(
        name=name, priority=priority, n_iterations=iterations, batch_size=4, tp=1,
        min_dp=dp[0], preferred_dp=dp[1], arrival_tick=arrival,
        checkpoint_every=checkpoint_every,
    )


def _preempt_unsaved(self: FleetScheduler, victim: _JobRuntime, tick: int) -> None:
    """``FleetScheduler._preempt`` with the victim's checkpoint dropped."""
    victim.stop()
    victim.state = JobState.PENDING
    victim.preemptions += 1


def mutants() -> Dict[str, FleetHarness]:
    """Rule -> a harness with the one real function whose guard it needs
    replaced."""
    return {
        "MC601": FleetHarness(
            (job("a", 1, (1, 1), 1),), gpus=2, kills=(0,),
            mutant=Mutant(FleetScheduler, "_give_up", lambda self, tick, progressed: None),
        ),
        "MC602": FleetHarness(
            (job("a", 1, (1, 1), 2), job("b", 1, (1, 1), 1)), gpus=2,
            mutant=Mutant(
                FleetScheduler, "_may_preempt",
                staticmethod(lambda victim, waiter: victim.spec.priority <= waiter.spec.priority),
            ),
        ),
        "MC607": FleetHarness(
            (job("a", 1, (1, 1), 1), job("b", 1, (1, 1), 1)), gpus=3,
            mutant=Mutant(
                SimCluster, "allocatable_ranks",
                lambda self: [d.global_rank for d in self.devices if d.alive],
            ),
        ),
        "MC608": FleetHarness(
            (job("a", 1, (1, 1), 2, checkpoint_every=2), job("b", 2, (1, 1), 1, arrival=1)),
            gpus=2,
            mutant=Mutant(FleetScheduler, "_preempt", _preempt_unsaved),
        ),
    }


__all__ = ["FleetHarness", "job", "mutants"]
