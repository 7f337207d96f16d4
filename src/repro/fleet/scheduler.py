"""Multi-tenant gang scheduler over one shared :class:`SimCluster`.

One :class:`FleetScheduler` drives several tenant RLHF jobs — each a
:class:`~repro.runtime.recovery.JobRun`, the same supervised lifecycle
``train_with_recovery`` loops over, with its own clock, tracer, and metrics
— against one shared cluster, in discrete scheduler *ticks*; this module
only decides *when* each run starts, steps, saves and stops:

1. **Faults** — kill events from a fleet-level :class:`FaultPlan` (keyed by
   tick, applied by :class:`~repro.faults.ClusterFaultDriver`) mutate the
   shared cluster; every job carries a (possibly empty-plan)
   :class:`FaultInjector`, so each tenant *detects* the loss on its next
   remote call, exactly like single-job fault handling.
2. **Admission** — schedulable jobs are ranked by effective priority
   (``priority + aging * wait_ticks``) and gang-admitted at the widest
   data-parallel width that fits free capacity; when nothing fits, a
   lower-priority running victim is checkpointed and evicted
   (checkpoint-and-preempt) and the waiter takes its devices.
3. **Step** — every running job executes one RLHF iteration on disjoint
   devices; the fleet clock advances by the *maximum* per-job delta (the
   jobs run concurrently in simulated time).  A job whose step detects a
   worker loss is torn down, elastically resized onto the survivors
   (narrower DP if needed), restored from its atomic checkpoint, and
   resumes bit-exact; if even its narrowest width no longer fits, it is
   requeued — degraded, not failed.

Completion optionally runs the repo's analysis gate (dataflow DF, trace
audit TA, sharding SH, race RC) over each finished job's trace.
"""

from __future__ import annotations

import pathlib
import shutil
from typing import Any, Dict, List, Optional

from repro.config import ClusterSpec
from repro.cluster.cluster import SimCluster
from repro.faults.errors import WorkerLostError
from repro.faults.injector import ClusterFaultDriver, FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy, SimClock
from repro.fleet.job import JobSpec
from repro.fleet.report import FleetReport, JobReport
from repro.observability.metrics import MetricsRegistry
from repro.runtime import JobRun, RecoveryCostModel


class JobState:
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


class _JobRuntime(JobRun):
    """One tenant: its supervised run plus the scheduler's own state."""

    def __init__(
        self,
        spec: JobSpec,
        checkpoint_dir: pathlib.Path,
        cluster: SimCluster,
        cost_model: Optional[RecoveryCostModel],
        retry_policy: Optional[RetryPolicy],
    ) -> None:
        # One injector per job for the lifetime of the fleet run: the
        # dispatch gate only does dead-device detection when an injector is
        # attached, so even fault-free tenants carry an empty-plan one.
        super().__init__(
            lambda shared: spec.build(cluster=shared, dp=self.dp),
            spec.dataset(),
            spec.batch_size,
            checkpoint_dir,
            cost_model=cost_model,
            retry_policy=retry_policy,
            injector=FaultInjector(FaultPlan()),
            cluster=cluster,
            allow_resize=True,
        )
        self.spec = spec
        self.state = JobState.PENDING
        #: DP width of the current (or, while queued, the last) placement.
        self.dp: Optional[int] = None
        self.preemptions = 0
        self.resizes = 0
        self.failures = 0
        self.wait_ticks = 0
        self.submitted_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.detail = ""
        #: ``(resumed_iteration, dp, snapshot_dir)`` per fault recovery when
        #: the scheduler keeps recovery checkpoints (bit-exactness audits).
        self.recovery_points: List[Dict[str, Any]] = []

    def effective_priority(self, aging: float) -> float:
        return self.spec.priority + aging * self.wait_ticks

    @property
    def gpus_held(self) -> int:
        if self.state != JobState.RUNNING or self.dp is None:
            return 0
        return self.spec.gpus_at(self.dp)


class FleetScheduler:
    """Gang-schedules tenant RLHF jobs onto one shared simulated cluster.

    Args:
        cluster_spec: Shape of the shared cluster.
        jobs: Tenant job specs (unique names).
        checkpoint_root: Directory holding one checkpoint dir per job.
        fault_plan: Fleet-level kill events, keyed by scheduler tick
            (see :class:`~repro.faults.ClusterFaultDriver`).
        aging: Effective-priority gain per tick a schedulable job waits —
            the anti-starvation knob; 0 disables aging.
        preemption: Allow checkpoint-and-evict of strictly lower-priority
            running jobs when a waiter cannot be admitted otherwise.
        retry_policy: Optional override applied to every job's controller.
        run_checks: Run the DF/TA/SH/RC analysis gate on each completed
            job's system and trace; findings land in the report.
        keep_recovery_checkpoints: Snapshot the checkpoint a fault recovery
            restored from (the job overwrites its live checkpoint as it
            advances); tests replay these to prove bit-exact resumes.
        max_failures_per_job: Fault recoveries a job may consume before it
            is declared failed.
        max_ticks: Hard stop against livelock.
    """

    #: What runs one tenant: a supervised :class:`~repro.runtime.JobRun`
    #: plus the scheduler's bookkeeping.
    runtime = _JobRuntime

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        jobs: List[JobSpec],
        checkpoint_root: str,
        fault_plan: Optional[FaultPlan] = None,
        aging: float = 0.25,
        preemption: bool = True,
        cost_model: Optional[RecoveryCostModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        run_checks: bool = False,
        keep_recovery_checkpoints: bool = False,
        max_failures_per_job: int = 4,
        max_ticks: int = 10_000,
    ) -> None:
        names = [spec.name for spec in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")
        if not jobs:
            raise ValueError("a fleet needs at least one job")
        if aging < 0:
            raise ValueError(f"aging must be >= 0, got {aging}")
        self.cluster_spec = cluster_spec
        self.cluster = SimCluster(cluster_spec)
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.aging = aging
        self.preemption = preemption
        self.run_checks = run_checks
        self.keep_recovery_checkpoints = keep_recovery_checkpoints
        self.max_failures_per_job = max_failures_per_job
        self.max_ticks = max_ticks
        self.driver = (
            ClusterFaultDriver(fault_plan)
            if fault_plan is not None and len(fault_plan)
            else None
        )
        root = pathlib.Path(checkpoint_root)
        self.jobs = [
            self.runtime(spec, root / spec.name, self.cluster, cost_model, retry_policy)
            for spec in jobs
        ]
        self.ticks_run = 0
        self.analysis = None  # AnalysisReport once run_checks fires

    # -- capacity ----------------------------------------------------------------------

    def _free_gpus(self) -> int:
        return len(self.cluster.allocatable_ranks())

    def _choose_dp(self, spec: JobSpec, budget: int) -> Optional[int]:
        for dp in spec.candidate_dps():
            if spec.gpus_at(dp) <= budget:
                return dp
        return None

    # -- job lifecycle -----------------------------------------------------------------

    def _admit_one(self, job: _JobRuntime, tick: int) -> bool:
        """Place (or re-place) a pending job at the widest width that fits."""
        dp = self._choose_dp(job.spec, self._free_gpus())
        if dp is None:
            return False
        resized = job.dp is not None and dp != job.dp
        job.dp = dp
        # time that passed while the job sat in the queue is idle, not work
        job.clock.advance_to(self.clock.now)
        if job.submitted_at is None:
            job.submitted_at = self.clock.now
        with job.tracer.span(
            "fleet.admit",
            category="fleet",
            job=job.spec.name,
            tick=tick,
            dp=dp,
            resized=resized,
        ):
            repair = job.start()
        if repair is not None:
            job.recovery_points.append(
                {
                    "resumed_iteration": repair.resumed_iteration,
                    "dp": dp,
                    "snapshot": self._snapshot_recovery_point(job),
                    "tick": tick,
                }
            )
        if resized:
            job.resizes += 1
            self.metrics.counter(
                "repro_fleet_resizes_total",
                "Elastic DP resizes across the fleet",
                job=job.spec.name,
            ).inc()
        job.state = JobState.RUNNING
        return True

    def _preempt(self, victim: _JobRuntime, tick: int) -> None:
        """Checkpoint-and-evict: the victim requeues with its progress saved."""
        with victim.tracer.span(
            "fleet.preempt", category="fleet", job=victim.spec.name, tick=tick
        ):
            victim.save()
            victim.stop()
        victim.state = JobState.PENDING
        victim.preemptions += 1
        self.metrics.counter(
            "repro_fleet_preemptions_total",
            "Checkpoint-and-evict preemptions across the fleet",
            job=victim.spec.name,
        ).inc()

    @staticmethod
    def _may_preempt(victim: _JobRuntime, waiter: _JobRuntime) -> bool:
        """Only a strictly lower-priority job is ever evicted for a waiter."""
        return victim.spec.priority < waiter.spec.priority

    def _preempt_for(self, waiter: _JobRuntime, tick: int) -> bool:
        """Evict strictly lower-priority victims until ``waiter`` fits."""
        need = waiter.spec.min_gpus
        victims = [
            j
            for j in self.jobs
            if j.state == JobState.RUNNING and self._may_preempt(j, waiter)
        ]
        if self._free_gpus() + sum(v.gpus_held for v in victims) < need:
            return False
        # weakest (lowest effective priority) first; aging protects a
        # long-waiting victim from being evicted over and over
        victims.sort(key=lambda v: (v.effective_priority(self.aging), v.spec.name))
        for victim in victims:
            if self._free_gpus() >= need:
                break
            self._preempt(victim, tick)
        return self._free_gpus() >= need

    def _admit(self, tick: int) -> bool:
        eligible = self._waiting(tick)
        eligible.sort(
            key=lambda j: (
                -j.effective_priority(self.aging),
                j.spec.arrival_tick,
                j.spec.name,
            )
        )
        admitted = False
        for job in eligible:
            if self._admit_one(job, tick):
                admitted = True
                continue
            if self.preemption and self._preempt_for(job, tick):
                if self._admit_one(job, tick):
                    admitted = True
        return admitted

    def _snapshot_recovery_point(self, job: _JobRuntime) -> Optional[str]:
        """Copy of the checkpoint a repair just restored from (the job
        overwrites the live one as it advances)."""
        if not self.keep_recovery_checkpoints:
            return None
        dest = job.checkpoint_dir.parent / (
            f".{job.checkpoint_dir.name}.recovery{job.failures}"
        )
        if dest.exists():
            shutil.rmtree(dest)
        shutil.copytree(job.checkpoint_dir, dest)
        return str(dest)

    def _recover(self, job: _JobRuntime, err: WorkerLostError, tick: int) -> float:
        """Fault-driven rebalance of one job; returns its clock delta."""
        job.failures += 1
        with job.recovery(err) as span:
            self.metrics.counter(
                "repro_fleet_job_failures_total",
                "Worker-loss events detected by fleet jobs",
                job=job.spec.name,
            ).inc()
            if job.failures > self.max_failures_per_job:
                job.state = JobState.FAILED
                job.detail = (
                    f"gave up after {job.failures} worker-loss events "
                    f"(max {self.max_failures_per_job})"
                )
                span.attrs["outcome"] = "failed"
            else:
                job.state = JobState.PENDING
                # graceful degradation: when not even min_dp fits the
                # survivors right now, stay queued (with aging) until
                # capacity or a preemption frees devices.
                resumed = self._admit_one(job, tick)
                span.attrs["outcome"] = "resumed" if resumed else "requeued"
        return job.clock.now - self.clock.now

    def _complete(self, job: _JobRuntime) -> None:
        if self.run_checks:
            self._check(job)
        job.completed_at = job.clock.now
        job.stop()
        job.state = JobState.COMPLETED

    def _check(self, job: _JobRuntime) -> None:
        """Run the repo's DF/TA/SH/RC analysis gate over one finished job."""
        from repro.analysis import (
            AnalysisReport,
            DataflowChecker,
            ShardingVerifier,
            system_audit,
        )

        if self.analysis is None:
            self.analysis = AnalysisReport(name="fleet")
        system = job.system
        self.analysis.merge(DataflowChecker().check_system(system))
        self.analysis.merge(system_audit(system)[0])
        verifier = ShardingVerifier()
        actor = system.groups["actor"]
        sh = verifier.verify_topology(actor.train_topology)
        if actor.gen_topology is not None:
            verifier.verify_transition(actor.gen_topology, report=sh)
        self.analysis.merge(sh)

    def _step_job(self, job: _JobRuntime, tick: int) -> float:
        """One RLHF iteration for one running job; returns its clock delta."""
        # time that passed while other tenants ran is idle time, not work
        started = job.clock.advance_to(self.clock.now)
        try:
            job.step(job.spec.n_iterations)
        except WorkerLostError as err:
            return self._recover(job, err, tick)
        if job.iteration >= job.spec.n_iterations:
            self._complete(job)
        elif job.iteration % job.spec.checkpoint_every == 0:
            job.save()
        return job.clock.now - started

    # -- the tick loop -----------------------------------------------------------------

    def _unfinished(self) -> List[_JobRuntime]:
        return [
            j
            for j in self.jobs
            if j.state in (JobState.PENDING, JobState.RUNNING)
        ]

    def _waiting(self, tick: int) -> List[_JobRuntime]:
        return [
            j
            for j in self.jobs
            if j.state == JobState.PENDING and j.spec.arrival_tick <= tick
        ]

    def _give_up(self, tick: int, progressed: bool) -> None:
        """Fail the waiters of ``tick`` when nothing ran or was admitted and
        no arrival or fault can change that: they can never fit (e.g. demand
        exceeds the alive cluster at ``min_dp``) — fail them rather than spin."""
        future_arrivals = any(
            j.spec.arrival_tick > tick
            for j in self.jobs
            if j.state == JobState.PENDING
        )
        faults_pending = self.driver is not None and self.driver.pending_events
        if progressed or future_arrivals or faults_pending:
            return
        for job in self._waiting(tick):
            job.state = JobState.FAILED
            job.detail = (
                f"unschedulable: needs {job.spec.min_gpus} GPU(s) at "
                f"dp={job.spec.candidate_dps()[-1]}, cluster has "
                f"{self._free_gpus()} allocatable"
            )

    def run(self) -> FleetReport:
        tick = 0
        while self._unfinished() and tick < self.max_ticks:
            self.ticks_run = tick + 1
            if self.driver is not None:
                died = self.driver.apply_due(
                    self.cluster, tick, at_time=self.clock.now
                )
                if died:
                    self.metrics.counter(
                        "repro_fleet_devices_killed_total",
                        "Devices killed by the fleet fault driver",
                    ).inc(len(died))
            progressed = self._admit(tick)
            deltas = [
                self._step_job(job, tick)
                for job in list(self.jobs)
                if job.state == JobState.RUNNING
            ]
            if deltas:
                self.clock.advance(max(deltas))
                progressed = True
            for job in self._waiting(tick):
                job.wait_ticks += 1
            self._give_up(tick, progressed)
            tick += 1
        for job in self._unfinished():
            if not job.detail:
                job.detail = f"still {job.state} when the tick budget ran out"
            job.state = JobState.FAILED
        return self.report()

    # -- reporting ---------------------------------------------------------------------

    def report(self) -> FleetReport:
        rows = []
        for job in self.jobs:
            if job.submitted_at is None:
                total = 0.0
            elif job.completed_at is not None:
                total = job.completed_at - job.submitted_at
            else:
                total = self.clock.now - job.submitted_at
            rows.append(
                JobReport(
                    name=job.spec.name,
                    priority=job.spec.priority,
                    state=job.state,
                    dp=job.dp or 0,
                    iterations=job.iteration,
                    preemptions=job.preemptions,
                    resizes=job.resizes,
                    failures=job.failures,
                    lost_iterations=job.report.total_lost_iterations,
                    wait_ticks=job.wait_ticks,
                    downtime=job.report.total_downtime,
                    useful_time=job.report.useful_time,
                    checkpoint_time=job.report.checkpoint_time,
                    total_time=total,
                    detail=job.detail,
                )
            )
        findings: Dict[str, int] = {}
        if self.analysis is not None:
            findings = dict(self.analysis.family_counts())
        return FleetReport(
            jobs=rows,
            makespan=self.clock.now,
            ticks=self.ticks_run,
            devices_killed=self.driver.devices_killed if self.driver else 0,
            analysis_findings=findings,
            checks_run=self.run_checks,
        )
