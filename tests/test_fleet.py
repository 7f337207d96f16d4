"""Multi-tenant fleet scheduling: admission, chaos, preemption, accounting.

The acceptance scenario: three concurrent tenant jobs on one shared
12-GPU cluster, a correlated double-machine kill at tick 2, every job
completes, the elastic tenant resizes dp=2 -> dp=1 and its post-restore
trajectory is bit-exact with a fresh resized build restored from the same
checkpoint, and the DF/TA/SH/RC analysis gate stays clean.
"""

import json

import pytest

from repro.config import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.fleet import FleetScheduler, JobSpec, JobState, jain_fairness
from repro.observability import collect_fleet_metrics
from repro.rlhf import AlgoType
from repro.runtime import JobRun, restore_system, train_with_recovery

SPEC_12 = ClusterSpec(n_machines=3, gpus_per_machine=4)
SPEC_8 = ClusterSpec(n_machines=2, gpus_per_machine=4)

#: Trainer metric keys compared for bit-exactness.
FLOAT_KEYS = (
    "score_mean",
    "critic/value_loss",
    "critic/value_clip_frac",
    "critic/explained_var",
    "actor/policy_loss",
    "actor/clip_frac",
    "actor/approx_kl",
    "actor/ratio_mean",
)


@pytest.fixture(autouse=True, scope="module")
def one_clock_one_count():
    """Every fleet run in this module: each placement of a job — first
    admission, preemption resume, resize, repair — runs on the job's one
    clock, and a job's ``useful_time`` is exactly its iteration spans whose
    work survived (the last clean run of each index), so re-run work is never
    counted twice."""
    real_run, real_start = FleetScheduler.run, JobRun.start

    def start(self):
        event = real_start(self)
        controller = self.system.controller
        assert controller.clock is controller.tracer.clock is self.clock
        return event

    def run(self):
        report = real_run(self)
        for job in self.jobs:
            survived = {}
            for span in job.tracer.by_category("iteration"):
                if span.attrs.get("status") != "error":
                    survived[span.attrs["iteration"]] = span.duration
            row = report.job(job.spec.name)
            assert len(survived) == row.iterations
            assert row.useful_time == pytest.approx(sum(survived.values()))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetScheduler, "run", run)
        patch.setattr(JobRun, "start", start)
        yield


def tenant(name, **kw):
    kw.setdefault("n_iterations", 3)
    kw.setdefault("seed", {"alpha": 7, "beta": 11, "gamma": 13}.get(name, 7))
    return JobSpec(name=name, **kw)


def assert_bit_exact(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in FLOAT_KEYS:
            assert g[key] == w[key], key


def run_solo(spec, tmp_path, dp=None):
    """One job alone on its own fleet: the bit-exactness reference."""
    solo = JobSpec(**{**spec.__dict__, "preferred_dp": dp or spec.preferred_dp})
    scheduler = FleetScheduler(SPEC_12, [solo], checkpoint_root=str(tmp_path / "solo"))
    report = scheduler.run()
    assert report.all_completed
    return scheduler.jobs[0].history


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty name"):
            JobSpec(name="")
        with pytest.raises(ValueError, match="n_iterations"):
            JobSpec(name="j", n_iterations=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            JobSpec(name="j", checkpoint_every=0)
        with pytest.raises(ValueError, match="min_dp"):
            JobSpec(name="j", preferred_dp=1, min_dp=2)
        with pytest.raises(ValueError, match="support"):
            JobSpec(name="j", algo=AlgoType.SAFE_RLHF)
        with pytest.raises(ValueError, match="no admissible DP width"):
            JobSpec(name="j", preferred_dp=3, min_dp=3, batch_size=8)

    def test_candidate_dps_skip_indivisible_widths(self):
        spec = JobSpec(name="j", preferred_dp=4, min_dp=1, batch_size=8)
        assert spec.candidate_dps() == [4, 2, 1]  # 3 does not divide 8

    def test_gpu_demand(self):
        spec = JobSpec(name="j", tp=2, preferred_dp=2, min_dp=1)
        assert spec.gpus_at(2) == 5  # 2x2 model pool + 1 reward GPU
        assert spec.min_gpus == 3

    def test_build_rejects_inadmissible_width(self):
        spec = JobSpec(name="j", preferred_dp=2, min_dp=1, batch_size=8)
        with pytest.raises(ValueError, match="cannot run at dp=3"):
            spec.build(cluster_spec=SPEC_12, dp=3)


class TestJainFairness:
    def test_bounds_and_known_values(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0
        assert jain_fairness([0.5, 0.5, 0.5]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0]) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            jain_fairness([0.5, -0.1])


class TestCleanFleet:
    def test_three_tenants_complete_bit_exactly(self, tmp_path):
        jobs = [
            tenant("alpha", preferred_dp=2, min_dp=1, n_iterations=4),
            tenant("beta"),
            tenant("gamma"),
        ]
        scheduler = FleetScheduler(
            SPEC_12, jobs, checkpoint_root=str(tmp_path), run_checks=True
        )
        report = scheduler.run()
        assert report.all_completed
        assert report.devices_killed == 0
        assert report.failures == 0
        assert report.fairness == pytest.approx(1.0)
        assert report.checks_run and report.analysis_findings == {}
        # sharing a cluster must not perturb any tenant's numerics
        for runtime in scheduler.jobs:
            assert_bit_exact(
                runtime.history, run_solo(runtime.spec, tmp_path / runtime.spec.name)
            )

    def test_report_round_trips_through_json(self, tmp_path):
        jobs = [tenant("alpha"), tenant("beta")]
        report = FleetScheduler(
            SPEC_12, jobs, checkpoint_root=str(tmp_path)
        ).run()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["all_completed"] is True
        assert {j["name"] for j in payload["jobs"]} == {"alpha", "beta"}
        assert all(j["goodput"] > 0 for j in payload["jobs"])

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            FleetScheduler(
                SPEC_12,
                [tenant("alpha"), tenant("alpha")],
                checkpoint_root=str(tmp_path),
            )


class TestChaosAcceptance:
    """Correlated double-machine kill: resize, degrade, resume bit-exact."""

    @pytest.fixture(scope="class")
    def chaos(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("fleet-chaos")
        plan = FaultPlan()
        plan.kill_machines([0, 2], at_step=2)  # one correlated event
        jobs = [
            tenant("alpha", preferred_dp=2, min_dp=1, n_iterations=4),
            tenant("beta"),
            tenant("gamma"),
        ]
        scheduler = FleetScheduler(
            SPEC_12,
            jobs,
            checkpoint_root=str(tmp_path),
            fault_plan=plan,
            run_checks=True,
            keep_recovery_checkpoints=True,
        )
        return scheduler, scheduler.run()

    def test_every_job_completes(self, chaos):
        _, report = chaos
        assert report.all_completed
        assert report.devices_killed == 8  # machines 0 and 2, 4 GPUs each

    def test_elastic_tenant_resized(self, chaos):
        _, report = chaos
        alpha = report.job("alpha")
        assert alpha.failures == 1
        assert alpha.resizes == 1 and alpha.dp == 1
        # checkpoint_every=1: only the in-flight iteration was lost, never
        # completed work
        assert alpha.lost_iterations == 0

    def test_mttr_and_goodput_accounted(self, chaos):
        _, report = chaos
        for name in ("alpha", "gamma"):
            row = report.job(name)
            assert row.failures == 1
            assert row.mttr > 0
            assert 0 < row.goodput < 1  # repairs and re-runs erode it
        assert report.job("beta").failures == 0
        assert report.mttr == pytest.approx(
            sum(j.downtime for j in report.jobs) / report.failures
        )
        assert 0 < report.fairness <= 1

    def test_degraded_tenant_waited_not_failed(self, chaos):
        scheduler, report = chaos
        # alpha could not readmit right away (only one surviving machine,
        # partly occupied): it aged in the queue — degraded, never failed —
        # until capacity freed up, then resumed narrow
        assert report.job("alpha").wait_ticks > 0
        assert report.job("alpha").state == JobState.COMPLETED
        # gamma's recovery found capacity the moment beta completed, so it
        # was readmitted inline at its original width
        assert report.job("gamma").state == JobState.COMPLETED
        assert report.job("gamma").resizes == 0

    def test_analysis_gate_clean(self, chaos):
        _, report = chaos
        assert report.checks_run
        assert report.analysis_findings == {}

    def test_resized_resume_is_bit_exact(self, chaos):
        """Post-restore trajectory == fresh resized build + same checkpoint."""
        scheduler, _ = chaos
        alpha = next(j for j in scheduler.jobs if j.spec.name == "alpha")
        assert len(alpha.recovery_points) == 1
        point = alpha.recovery_points[0]
        assert point["dp"] == 1 and point["snapshot"] is not None

        spec = alpha.spec
        reference = spec.build(
            cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
            dp=point["dp"],
        )
        resumed, _ = restore_system(
            reference, point["snapshot"], allow_resize=True
        )
        assert resumed == point["resumed_iteration"]
        batches = spec.dataset().iter_batches(
            spec.batch_size, epochs=10**6, skip=resumed
        )
        replay = [
            reference.trainer.run_step(next(batches))
            for _ in range(spec.n_iterations - resumed)
        ]
        assert_bit_exact(alpha.history[resumed:], replay)


class TestLostWorkAccounting:
    def test_rerun_iterations_are_not_counted_twice(self, tmp_path):
        """checkpoint_every=4, device 0 dies at tick 5: iteration 4 completed,
        was rolled back and re-run — 8 x 16 s survive, not 9 x 16 s."""
        report = FleetScheduler(
            ClusterSpec(n_machines=1, gpus_per_machine=6),
            [JobSpec("a", n_iterations=8, checkpoint_every=4, tp=2)],
            str(tmp_path),
            fault_plan=FaultPlan().kill_device(0, at_step=5),
        ).run()
        row = report.job("a")
        assert row.lost_iterations == 1
        assert row.useful_time == pytest.approx(128.0)
        assert row.goodput == pytest.approx(128.0 / row.total_time)
        assert row.goodput == pytest.approx(0.8767, abs=1e-4)
        assert "lost 1 iter(s)" in "\n".join(report.summary_lines())

    def test_fleet_of_one_is_the_supervised_job(self, tmp_path):
        """One lifecycle, two callers: the same job, killed as iteration 3
        starts, keeps the same books under the scheduler and under
        ``train_with_recovery`` — and the same bits."""
        spec = tenant("alpha", n_iterations=5, checkpoint_every=2)
        scheduler = FleetScheduler(
            SPEC_12,
            [spec],
            str(tmp_path / "fleet"),
            fault_plan=FaultPlan().kill_device(0, at_step=3),
        )
        row = scheduler.run().job("alpha")

        probe = spec.build(cluster_spec=SPEC_12)
        probe.trainer.train(spec.dataset(), 3, spec.batch_size)
        _, history, report = train_with_recovery(
            lambda cluster: spec.build(cluster=cluster, cluster_spec=SPEC_12),
            spec.dataset(),
            spec.n_iterations,
            spec.batch_size,
            str(tmp_path / "solo"),
            checkpoint_every=spec.checkpoint_every,
            injector=FaultInjector(
                FaultPlan().kill_device(0, at_step=probe.controller.next_seq)
            ),
        )
        assert_bit_exact(scheduler.jobs[0].history, history)
        assert row.failures == report.n_failures == 1
        assert row.lost_iterations == report.total_lost_iterations == 1
        assert row.useful_time == pytest.approx(report.useful_time)
        assert row.downtime == pytest.approx(report.total_downtime)
        assert row.checkpoint_time == pytest.approx(report.checkpoint_time)


class TestPreemption:
    def test_high_priority_arrival_preempts_weakest(self, tmp_path):
        jobs = [
            tenant("low-a", priority=0, preferred_dp=2, min_dp=1, n_iterations=4),
            tenant("low-b", priority=0, n_iterations=4),
            tenant("high", priority=10, arrival_tick=1),
        ]
        scheduler = FleetScheduler(
            SPEC_8, jobs, checkpoint_root=str(tmp_path), run_checks=True
        )
        report = scheduler.run()
        assert report.all_completed
        assert report.preemptions == 1
        victim = report.job("low-a")
        assert victim.preemptions == 1
        # checkpoint-and-evict: progress at eviction survives
        assert victim.lost_iterations == 0
        assert victim.iterations == 4
        # preemption overhead is not repair time
        assert victim.failures == 0 and victim.mttr == 0.0
        assert report.analysis_findings == {}
        runtime = next(j for j in scheduler.jobs if j.spec.name == "low-a")
        assert_bit_exact(
            runtime.history, run_solo(runtime.spec, tmp_path / "ref")
        )

    def test_preemption_never_evicts_equal_priority(self, tmp_path):
        jobs = [
            tenant("low-a", priority=0, preferred_dp=2, min_dp=1, n_iterations=2),
            tenant("low-b", priority=0, n_iterations=2),
            tenant("peer", priority=0, arrival_tick=1, n_iterations=2),
        ]
        report = FleetScheduler(
            SPEC_8, jobs, checkpoint_root=str(tmp_path)
        ).run()
        assert report.all_completed  # peer waits its turn instead
        assert report.preemptions == 0
        assert report.job("peer").wait_ticks > 0

    def test_preemption_can_be_disabled(self, tmp_path):
        jobs = [
            tenant("low-a", priority=0, preferred_dp=2, min_dp=1, n_iterations=2),
            tenant("low-b", priority=0, n_iterations=2),
            tenant("high", priority=10, arrival_tick=1, n_iterations=2),
        ]
        report = FleetScheduler(
            SPEC_8, jobs, checkpoint_root=str(tmp_path), preemption=False
        ).run()
        assert report.all_completed
        assert report.preemptions == 0
        assert report.job("high").wait_ticks > 0


class TestGracefulDegradation:
    def test_oversized_job_fails_typed_not_livelocked(self, tmp_path):
        small = ClusterSpec(n_machines=1, gpus_per_machine=2)
        jobs = [tenant("huge", preferred_dp=2, min_dp=2)]  # needs 5 of 2 GPUs
        report = FleetScheduler(
            small, jobs, checkpoint_root=str(tmp_path)
        ).run()
        huge = report.job("huge")
        assert huge.state == JobState.FAILED
        assert "unschedulable" in huge.detail
        assert report.ticks < 10  # detected promptly, no tick-budget spin

    def test_fitting_peer_still_completes(self, tmp_path):
        small = ClusterSpec(n_machines=1, gpus_per_machine=4)
        jobs = [
            tenant("huge", preferred_dp=4, min_dp=4, batch_size=8),  # 9 GPUs
            tenant("small", n_iterations=2),
        ]
        report = FleetScheduler(
            small, jobs, checkpoint_root=str(tmp_path)
        ).run()
        assert report.job("small").state == JobState.COMPLETED
        assert report.job("huge").state == JobState.FAILED


class TestFleetMetrics:
    def test_collect_fleet_metrics_samples_per_job_gauges(self, tmp_path):
        jobs = [tenant("alpha"), tenant("beta")]
        scheduler = FleetScheduler(SPEC_12, jobs, checkpoint_root=str(tmp_path))
        report = scheduler.run()
        registry = collect_fleet_metrics(scheduler)
        for name in ("alpha", "beta"):
            assert registry.value("repro_fleet_job_state", job=name) == 2.0
            assert registry.value("repro_fleet_job_iterations", job=name) == 3.0
            assert registry.value("repro_fleet_job_goodput", job=name) > 0
        assert registry.value("repro_fleet_fairness") == pytest.approx(
            report.fairness
        )
        assert registry.value("repro_fleet_clock_seconds") == pytest.approx(
            report.makespan
        )
        # idempotent: sampling twice does not change anything
        again = collect_fleet_metrics(scheduler)
        assert again.value("repro_fleet_job_iterations", job="alpha") == 3.0
