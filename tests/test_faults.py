"""Fault injection, retry/backoff, detection, and automatic recovery (§9)."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import system_audit
from repro.cluster import SimCluster
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.faults import (
    ClusterFaultDriver,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryBudgetExhausted,
    RetryPolicy,
    SimClock,
    TransientRpcError,
    WorkerLostError,
)
from repro.models.tinylm import TinyLMConfig
from repro.perf import (
    expected_goodput,
    goodput_vs_interval,
    mean_time_to_recover,
    optimal_checkpoint_interval,
)
from repro.rlhf import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import (
    ModelAssignment,
    PlacementPlan,
    SystemSpec,
    build_rlhf_system,
    train_with_recovery,
)
from repro.single_controller import (
    CheckpointError,
    SingleController,
    Worker,
    WorkerGroup,
    register,
)


class CounterWorker(Worker):
    def __init__(self, ctx, start=0):
        super().__init__(ctx)
        self.count = start

    @register(protocol="one_to_all")
    def bump(self):
        self.count += 1
        return self.count

    def state_for_checkpoint(self):
        # Mix numpy scalar types in deliberately: the checkpoint sanitizer
        # must coerce them to plain JSON scalars.
        return {
            "count": np.int64(self.count),
            "gain": np.float32(1.5),
            "arr": np.full(3, self.count, dtype=float),
        }

    def load_from_checkpoint(self, state):
        self.count = int(state["count"])


def faulty_controller(plan, n=2, policy=None, n_machines=1):
    controller = SingleController(ClusterSpec(n_machines=n_machines))
    if policy is not None:
        controller.retry_policy = policy
    injector = FaultInjector(plan)
    controller.attach_fault_injector(injector)
    pool = controller.create_pool(n, name="main")
    group = WorkerGroup(
        CounterWorker, pool, controller=controller, name="counter"
    )
    return controller, group, injector


class TestPlanAndPolicy:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="rank"):
            FaultEvent(FaultKind.DEVICE_LOSS, at_step=0)
        with pytest.raises(ValueError, match="machine"):
            FaultEvent(FaultKind.MACHINE_LOSS, at_step=0)
        with pytest.raises(ValueError, match="slower"):
            FaultEvent(FaultKind.STRAGGLER, at_step=0, rank=0, slow_factor=0.5)
        with pytest.raises(ValueError, match="at_step"):
            FaultEvent(FaultKind.TRANSIENT_RPC, at_step=-1)

    def test_plan_sorted_and_fluent(self):
        plan = FaultPlan().transient(at_step=9).kill_device(0, at_step=2)
        assert [e.at_step for e in plan] == [2, 9]
        assert len(plan) == 2

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(seed=5, n_events=8, max_step=50, n_ranks=4)
        b = FaultPlan.random(seed=5, n_events=8, max_step=50, n_ranks=4)
        assert a.events == b.events
        c = FaultPlan.random(seed=6, n_events=8, max_step=50, n_ranks=4)
        assert a.events != c.events

    def test_backoff_schedule_deterministic(self):
        p1 = RetryPolicy(max_retries=4, jitter=0.5, seed=11)
        p2 = RetryPolicy(max_retries=4, jitter=0.5, seed=11)
        assert p1.schedule() == p2.schedule()
        # without jitter: pure geometric progression
        p = RetryPolicy(max_retries=3, backoff_base=0.1, backoff_factor=3.0)
        assert p.schedule() == pytest.approx([0.1, 0.3, 0.9])

    def test_clock_monotone(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestTransientRetry:
    def test_transient_retried_then_succeeds(self):
        plan = FaultPlan().transient(at_step=0, count=2)
        controller, group, injector = faulty_controller(plan)
        result = group.bump().get()
        assert result == [1, 1]
        assert injector.stats.transients_injected == 2
        assert injector.stats.retries_observed == 2

    def test_retries_do_not_corrupt_trace(self):
        plan = FaultPlan().transient(at_step=0, count=2)
        controller, group, _ = faulty_controller(plan)
        group.bump()
        group.bump()
        # each call appears exactly once despite the retries
        assert controller.trace_methods() == ["counter.bump", "counter.bump"]
        assert [r.seq for r in controller.trace] == [0, 1]

    def test_backoff_advances_simulated_clock(self):
        plan = FaultPlan().transient(at_step=0, count=2)
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0)
        controller, group, _ = faulty_controller(plan, policy=policy)
        group.bump()
        # two backoffs (0.05 + 0.10) plus the call's simulated duration
        assert controller.clock.now == pytest.approx(0.15 + 1.0)

    def test_exhausted_retries_escalate(self):
        plan = FaultPlan().transient(at_step=0, count=10)
        policy = RetryPolicy(max_retries=2)
        controller, group, injector = faulty_controller(plan, policy=policy)
        with pytest.raises(WorkerLostError) as exc_info:
            group.bump()
        err = exc_info.value
        assert err.cause == "retries exhausted"
        assert err.group == "counter"
        assert err.pool == "main"
        assert isinstance(err.__cause__, TransientRpcError)
        # first attempt + 2 retries, and the trace stayed clean
        assert injector.stats.transients_injected == 3
        assert controller.trace == []


class TestTimeoutsAndStragglers:
    def test_straggler_inflates_duration(self):
        plan = FaultPlan().straggler(rank=0, at_step=0, slow_factor=4.0)
        controller, group, injector = faulty_controller(plan)
        group.bump()
        assert injector.straggle == {0: 4.0}
        assert controller.clock.now == pytest.approx(4.0)  # 1.0s base x4

    def test_persistent_straggler_times_out_and_escalates(self):
        plan = FaultPlan().straggler(rank=1, at_step=0, slow_factor=8.0)
        policy = RetryPolicy(max_retries=2, timeout=2.0)
        controller, group, _ = faulty_controller(plan, policy=policy)
        with pytest.raises(WorkerLostError) as exc_info:
            group.bump()
        assert exc_info.value.dead_ranks == (1,)  # the slow rank is named
        assert exc_info.value.cause == "retries exhausted"

    def test_fast_call_passes_under_timeout(self):
        controller, group, _ = faulty_controller(
            FaultPlan(), policy=RetryPolicy(timeout=2.0)
        )
        assert group.bump().get() == [1, 1]


class TestDetection:
    def test_dead_device_detected_on_contact(self):
        plan = FaultPlan().kill_device(1, at_step=0)
        controller, group, injector = faulty_controller(plan)
        with pytest.raises(WorkerLostError) as exc_info:
            group.bump()
        err = exc_info.value
        assert err.dead_ranks == (1,)
        assert err.pool == "main"
        assert err.cause == "device loss"
        assert err.step == 0
        assert injector.stats.detections == 1
        assert not controller.cluster.device(1).alive

    def test_kill_arms_only_at_its_step(self):
        plan = FaultPlan().kill_device(0, at_step=2)
        controller, group, _ = faulty_controller(plan)
        group.bump()
        group.bump()  # steps 0 and 1 run normally
        with pytest.raises(WorkerLostError):
            group.bump()

    def test_machine_loss_kills_all_its_devices(self):
        plan = FaultPlan().kill_machine(0, at_step=0)
        controller, group, injector = faulty_controller(plan, n_machines=2)
        with pytest.raises(WorkerLostError):
            group.bump()
        assert injector.stats.devices_killed == 8
        assert controller.cluster.n_alive == 8  # machine 1 survives


class TestClusterAfterFailure:
    def test_dead_ranks_never_reallocated(self):
        cluster = SimCluster(ClusterSpec(n_machines=1, gpus_per_machine=4))
        first = cluster.allocate(2)  # ranks 0, 1
        cluster.fail_device(1)
        cluster.release(first)
        again = cluster.allocate(2)
        assert 1 not in again.global_ranks

    def test_noncontiguous_fallback_after_holes(self):
        cluster = SimCluster(ClusterSpec(n_machines=1, gpus_per_machine=4))
        cluster.fail_device(1)
        # no contiguous pair below rank 2 — allocation still succeeds
        got = cluster.allocate(3)
        assert got.global_ranks == [0, 2, 3]

    def test_exhausted_when_survivors_insufficient(self):
        cluster = SimCluster(ClusterSpec(n_machines=1, gpus_per_machine=2))
        cluster.fail_machine(0)
        with pytest.raises(RuntimeError, match="exhausted"):
            cluster.allocate(1)

    def test_failed_device_memory_wiped(self):
        cluster = SimCluster(ClusterSpec(n_machines=1, gpus_per_machine=2))
        device = cluster.device(0)
        device.memory.alloc("weights", 1000)
        cluster.fail_device(0, at_time=12.5)
        assert device.memory.used == 0
        assert device.failed_at == 12.5


class TestCheckpointRobustness:
    def _controller(self, n=2):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(n, name="main")
        group = WorkerGroup(
            CounterWorker, pool, controller=controller, name="counter"
        )
        return controller, group

    def test_numpy_scalars_sanitized(self, tmp_path):
        controller, group = self._controller()
        group.bump()
        controller.save_checkpoint(tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        scalars = manifest["groups"][0]["workers"][0]["scalars"]
        assert scalars["count"] == 1 and isinstance(scalars["count"], int)
        assert scalars["gain"] == pytest.approx(1.5)

    def test_unserializable_extra_rejected(self, tmp_path):
        controller, _ = self._controller()
        with pytest.raises(CheckpointError, match="cannot serialize"):
            controller.save_checkpoint(tmp_path / "ckpt", extra={"x": object()})

    def test_save_is_atomic_no_staging_left(self, tmp_path):
        controller, group = self._controller()
        controller.save_checkpoint(tmp_path / "ckpt")
        group.bump()
        controller.save_checkpoint(tmp_path / "ckpt")  # overwrite in place
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ckpt"]
        assert leftovers == []
        controller2, group2 = self._controller()
        controller2.load_checkpoint(tmp_path / "ckpt")
        assert [w.count for w in group2.workers] == [1, 1]

    def test_trace_seq_persisted(self, tmp_path):
        controller, group = self._controller()
        group.bump()
        group.bump()
        controller.save_checkpoint(tmp_path / "ckpt")
        controller2, _ = self._controller()
        controller2.load_checkpoint(tmp_path / "ckpt")
        assert controller2.next_seq == 2  # trace numbering continues

    def test_missing_directory_is_typed_error(self, tmp_path):
        controller, _ = self._controller()
        with pytest.raises(CheckpointError, match="no checkpoint"):
            controller.load_checkpoint(tmp_path / "nope")

    def test_truncated_manifest_is_typed_error(self, tmp_path):
        controller, _ = self._controller()
        controller.save_checkpoint(tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.json"
        manifest.write_text(manifest.read_text()[: len(manifest.read_text()) // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            self._controller()[0].load_checkpoint(tmp_path / "ckpt")

    def test_missing_arrays_file_is_typed_error(self, tmp_path):
        controller, _ = self._controller()
        controller.save_checkpoint(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "group0_worker0.npz").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            self._controller()[0].load_checkpoint(tmp_path / "ckpt")

    def test_corrupt_arrays_file_is_typed_error(self, tmp_path):
        controller, _ = self._controller()
        controller.save_checkpoint(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "group0_worker0.npz").write_bytes(b"not an npz")
        with pytest.raises(CheckpointError):
            self._controller()[0].load_checkpoint(tmp_path / "ckpt")


# -- end-to-end: machine loss mid-PPO, automatic bit-exact recovery -------------

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)
TASK = SyntheticPreferenceTask(vocab_size=16, target_token=7)
PAR = ParallelConfig(pp=1, tp=2, dp=1)
SPEC = ClusterSpec(n_machines=2, gpus_per_machine=4)  # spare for re-placement


def build_ppo(cluster=None):
    plan = PlacementPlan(
        pools={"main": 2, "r": 1},
        assignments={
            "actor": ModelAssignment(
                "main", PAR, GenParallelConfig.derive(PAR, 1, 1)
            ),
            "critic": ModelAssignment("main", PAR),
            "reference": ModelAssignment("main", PAR),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        CFG,
        cluster_spec=SPEC,
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        reward_fn=TASK.reward,
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
        cluster=cluster,
    )


def _dataset():
    return PromptDataset(n_prompts=128, prompt_length=4, vocab_size=16, seed=1)


class TestAutomaticRecovery:
    N_ITER = 4

    @pytest.fixture(scope="class")
    def reference(self):
        system = build_ppo()
        seqs = []
        history = []
        for batch in _dataset().iter_batches(8, epochs=1):
            if len(history) == self.N_ITER:
                break
            history.append(system.trainer.step(batch))
            seqs.append(system.controller.next_seq)
        return system, history, seqs

    def _recovered(self, reference, checkpoint_every, kill_at, tmp_path):
        _, _, seqs = reference
        injector = FaultInjector(FaultPlan().kill_machine(0, at_step=kill_at))
        return (
            train_with_recovery(
                build_ppo,
                _dataset(),
                n_iterations=self.N_ITER,
                batch_size=8,
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_every=checkpoint_every,
                injector=injector,
            ),
            injector,
        )

    def test_machine_loss_recovers_bit_exactly(self, reference, tmp_path):
        ref_system, ref_history, seqs = reference
        # arm the kill mid-way through the second iteration
        kill_at = (seqs[0] + seqs[1]) // 2
        (system, history, report), injector = self._recovered(
            reference, 1, kill_at, tmp_path
        )
        assert injector.stats.devices_killed == 4
        assert report.n_failures == 1
        # the whole trajectory matches the failure-free run exactly
        ref_scores = [h["score_mean"] for h in ref_history]
        got_scores = [h["score_mean"] for h in history]
        assert got_scores == ref_scores
        # and so do the final actor weights, despite re-placement
        ref_state = ref_system.groups["actor"].workers[0].materialize_full_state()
        got_state = system.groups["actor"].workers[0].materialize_full_state()
        for name in ref_state:
            np.testing.assert_array_equal(ref_state[name], got_state[name])

    def test_replaced_onto_surviving_machine(self, reference, tmp_path):
        _, _, seqs = reference
        (system, _, report), _ = self._recovered(reference, 1, seqs[0] + 1, tmp_path)
        ranks = {
            w.ctx.device.global_rank
            for g in system.groups.values()
            for w in g.workers
        }
        assert ranks <= set(range(4, 8))  # machine 0 is ranks 0-3
        assert all(system.controller.cluster.device(r).alive for r in ranks)

    def test_report_accounts_lost_work(self, reference, tmp_path):
        ref_system, ref_history, seqs = reference
        # checkpoint every 2 iterations, fail during iteration 3 (0-based):
        # rollback to iteration 2 loses one completed iteration
        kill_at = (seqs[2] + seqs[3]) // 2
        (system, history, report), _ = self._recovered(
            reference, 2, kill_at, tmp_path
        )
        assert report.n_failures == 1
        event = report.events[0]
        assert event.failed_iteration == 3
        assert event.resumed_iteration == 2
        assert event.lost_iterations == 1
        assert report.total_lost_iterations == 1
        assert event.dead_ranks  # which ranks died is reported
        assert event.restore_time >= 0 and event.reinit_time > 0
        assert report.mttr == pytest.approx(event.downtime)
        assert report.total_time > 0
        assert any("lost" in line for line in report.summary_lines())
        # lost work is re-run to the same result
        assert [h["score_mean"] for h in history] == [
            h["score_mean"] for h in ref_history
        ]

    def test_unrecoverable_when_survivors_insufficient(self, tmp_path):
        # a 1-machine cluster has nowhere to re-place
        spec = ClusterSpec(n_machines=1, gpus_per_machine=4)

        def build(cluster=None):
            plan = PlacementPlan(
                pools={"main": 2, "r": 1},
                assignments={
                    "actor": ModelAssignment(
                        "main", PAR, GenParallelConfig.derive(PAR, 1, 1)
                    ),
                    "critic": ModelAssignment("main", PAR),
                    "reference": ModelAssignment("main", PAR),
                    "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
                },
            )
            return build_rlhf_system(
                AlgoType.PPO,
                plan,
                CFG,
                cluster_spec=spec,
                trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
                reward_fn=TASK.reward,
                max_new_tokens=6,
                lr=5e-3,
                seed=7,
                cluster=cluster,
            )

        injector = FaultInjector(FaultPlan().kill_machine(0, at_step=2))
        with pytest.raises(RuntimeError, match="exhausted"):
            train_with_recovery(
                build,
                _dataset(),
                n_iterations=2,
                batch_size=8,
                checkpoint_dir=str(tmp_path / "ckpt"),
                injector=injector,
            )


# -- whole supervised runs under random fault schedules (ROADMAP item 5) ----------

SPEC_3x4 = ClusterSpec(n_machines=3, gpus_per_machine=4)  # 4 GPUs outlive any 2 kills
N_ITER = 4


@functools.lru_cache(maxsize=None)
def fault_free(job: SystemSpec):
    system = job.build(cluster_spec=SPEC_3x4)
    return system, list(system.trainer.train(job.dataset(), N_ITER, 8))


@st.composite
def fault_plans(draw):
    step = st.integers(0, 27)  # traces are 20 (GRPO) to 28 (PPO, ReMax) calls long
    plan = FaultPlan()
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):  # ranks the job sits on before/after a re-placement
            plan.kill_device(draw(st.integers(0, 5)), at_step=draw(step))
        else:
            plan.kill_machine(draw(st.integers(0, 2)), at_step=draw(step))
    if draw(st.booleans()):  # counts above max_retries=3 escalate to a loss
        plan.transient(at_step=draw(step), count=draw(st.integers(1, 4)))
    if draw(st.booleans()):
        plan.straggler(draw(st.integers(0, 11)), at_step=draw(step))
    return plan


class TestSupervisedJobProperty:
    @settings(derandomize=True, max_examples=16, deadline=None)
    @given(
        algo=st.sampled_from([AlgoType.PPO, AlgoType.GRPO, AlgoType.REMAX]),
        disaggregated=st.booleans(),
        checkpoint_every=st.integers(1, 3),
        plan=fault_plans(),
    )
    def test_recovered_run_is_the_fault_free_run(
        self, tmp_path_factory, algo, disaggregated, checkpoint_every, plan
    ):
        job = SystemSpec(algo=algo, disaggregated=disaggregated)
        reference, ref_history = fault_free(job)
        system, history, report = train_with_recovery(
            lambda cluster: job.build(cluster, SPEC_3x4),
            job.dataset(),
            N_ITER,
            8,
            str(tmp_path_factory.mktemp("job") / "ckpt"),
            checkpoint_every=checkpoint_every,
            injector=FaultInjector(plan),
        )
        assert history == ref_history
        assert system.state_equal(reference)
        # the books: only surviving work is useful, and nothing is counted twice
        assert len(report.iteration_times) == N_ITER
        assert report.total_time >= (
            report.useful_time + report.total_downtime + report.checkpoint_time - 1e-9
        )
        # one clock: simulated time never restarts across rebuilds
        controller = system.controller
        assert controller.clock is controller.tracer.clock
        starts = [span.start for span in controller.tracer.spans]
        assert starts == sorted(starts)
        assert system_audit(system)[0].findings == []


class TestRecoveryAnalytics:
    def test_young_interval(self):
        assert optimal_checkpoint_interval(2.0, 100.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(0.0, 100.0)

    def test_goodput_bounded_and_penalised_by_faults(self):
        reliable = expected_goodput(1.0, 8, 0.5, 1.0, 2.0, mtbf=1e9)
        flaky = expected_goodput(1.0, 8, 0.5, 1.0, 2.0, mtbf=50.0)
        assert 0 < flaky < reliable < 1.0

    def test_goodput_curve_peaks_between_extremes(self):
        curve = goodput_vs_interval(
            1.0, 0.5, 1.0, 2.0, mtbf=60.0, intervals=(1, 4, 16, 64, 256)
        )
        values = [g for _, g in curve]
        best = max(range(len(values)), key=values.__getitem__)
        assert 0 < best < len(values) - 1  # checkpointing trade-off is real

    def test_mttr(self):
        assert mean_time_to_recover(1.0, 2.0, 3.0) == 6.0
        with pytest.raises(ValueError):
            mean_time_to_recover(-1.0, 0.0)


# -- correlated failures: machine groups and rack-scoped kills ------------------


class TestCorrelatedFailures:
    def test_kill_machines_is_one_correlated_event_per_machine(self):
        plan = FaultPlan().kill_machines([0, 2], at_step=5)
        assert len(plan) == 2
        assert all(
            e.kind is FaultKind.MACHINE_LOSS and e.at_step == 5
            for e in plan.events
        )
        assert [e.machine for e in plan.events] == [0, 2]

    def test_rack_event_validation(self):
        with pytest.raises(ValueError, match="rack"):
            FaultEvent(FaultKind.RACK_LOSS, at_step=1)
        with pytest.raises(ValueError, match="machines_per_rack"):
            FaultEvent(
                FaultKind.RACK_LOSS, at_step=1, rack=0, machines_per_rack=0
            )

    def test_fail_rack_kills_the_whole_machine_block(self):
        cluster = SimCluster(ClusterSpec(n_machines=4, gpus_per_machine=2))
        died = cluster.fail_rack(1, machines_per_rack=2)
        assert died == [4, 5, 6, 7]  # machines 2 and 3
        assert cluster.n_alive == 4
        with pytest.raises(ValueError):
            cluster.fail_rack(2, machines_per_rack=2)  # only racks 0..1

    def test_a_partial_last_rack_exists_everywhere(self):
        # 3 machines in racks of 2: rack 1 is machine 2 alone.  fail_rack
        # always killed it; FaultPlan.random and `repro fleet` used to count
        # racks with floor division and never reach it.
        spec = ClusterSpec(n_machines=3, gpus_per_machine=4)
        assert SimCluster(spec).fail_rack(1, machines_per_rack=2) == [8, 9, 10, 11]
        plan = FaultPlan.random(
            seed=0,
            n_events=16,
            max_step=20,
            n_ranks=12,
            n_machines=3,
            machines_per_rack=2,
            kinds=(FaultKind.RACK_LOSS,),
        )
        assert {e.rack for e in plan.events} == {0, 1}

    def test_injector_arms_rack_loss(self):
        plan = FaultPlan().kill_rack(0, at_step=1, machines_per_rack=2)
        controller, group, injector = faulty_controller(plan, n_machines=2)
        with pytest.raises(WorkerLostError) as err:
            for _ in range(4):
                group.bump()
        assert injector.stats.devices_killed == controller.cluster.n_gpus
        assert len(err.value.dead_ranks) > 0

    def test_random_rack_plan_is_seed_deterministic(self):
        kw = dict(
            n_events=6,
            max_step=20,
            n_ranks=8,
            n_machines=4,
            machines_per_rack=2,
            kinds=(FaultKind.RACK_LOSS, FaultKind.MACHINE_LOSS),
        )
        a = FaultPlan.random(seed=3, **kw)
        b = FaultPlan.random(seed=3, **kw)
        assert a.events == b.events
        assert any(e.kind is FaultKind.RACK_LOSS for e in a.events)
        assert all(
            e.rack is not None and 0 <= e.rack < 2
            for e in a.events
            if e.kind is FaultKind.RACK_LOSS
        )


class TestClusterFaultDriver:
    def test_rejects_non_kill_kinds(self):
        plan = FaultPlan().transient(at_step=1)
        with pytest.raises(ValueError, match="kill"):
            ClusterFaultDriver(plan)

    def test_applies_events_due_at_or_before_tick(self):
        plan = FaultPlan()
        plan.kill_device(0, at_step=1)
        plan.kill_machine(1, at_step=3)
        driver = ClusterFaultDriver(plan)
        cluster = SimCluster(ClusterSpec(n_machines=2, gpus_per_machine=2))
        assert driver.apply_due(cluster, tick=0) == []
        assert driver.pending_events
        assert driver.apply_due(cluster, tick=1) == [0]
        # tick 5 catches up on everything due, even skipped ticks
        assert driver.apply_due(cluster, tick=5) == [2, 3]
        assert not driver.pending_events
        assert driver.devices_killed == 3
        assert cluster.n_alive == 1

    def test_rack_event_applies_to_cluster(self):
        plan = FaultPlan().kill_rack(0, at_step=2, machines_per_rack=2)
        driver = ClusterFaultDriver(plan)
        cluster = SimCluster(ClusterSpec(n_machines=4, gpus_per_machine=2))
        assert driver.apply_due(cluster, tick=2) == [0, 1, 2, 3]
        assert cluster.n_alive == 4


# -- per-call retry deadline budget ---------------------------------------------


class TestRetryDeadlineBudget:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=0.0)

    def test_backoff_delay_clips_to_remaining_budget(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, deadline=2.5)
        assert policy.backoff_delay(1, spent=0.0) == pytest.approx(1.0)
        # attempt 2 wants 2.0s but only 1.5s of budget remains
        assert policy.backoff_delay(2, spent=1.0) == pytest.approx(1.5)

    def test_backoff_delay_raises_typed_error_when_budget_gone(self):
        policy = RetryPolicy(backoff_base=1.0, deadline=2.0)
        with pytest.raises(RetryBudgetExhausted) as err:
            policy.backoff_delay(3, spent=2.0)
        assert err.value.deadline == 2.0
        assert err.value.spent == 2.0
        assert isinstance(err.value, WorkerLostError)  # recoverable family

    def test_schedule_truncated_by_deadline(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base=1.0, backoff_factor=2.0, deadline=4.0
        )
        schedule = policy.schedule()
        assert schedule == [1.0, 2.0, 1.0]  # last wait clipped, rest dropped
        assert sum(schedule) == pytest.approx(4.0)

    def test_schedule_unbounded_without_deadline(self):
        policy = RetryPolicy(max_retries=3, backoff_base=1.0, backoff_factor=2.0)
        assert policy.schedule() == [1.0, 2.0, 4.0]

    def test_dispatch_gate_escalates_with_context(self):
        plan = FaultPlan().transient(at_step=1, count=10)
        policy = RetryPolicy(
            max_retries=8, backoff_base=1.0, backoff_factor=2.0, deadline=2.5
        )
        controller, group, _ = faulty_controller(plan, policy=policy)
        group.bump()  # seq 0: clean
        with pytest.raises(RetryBudgetExhausted) as err:
            group.bump()
        assert err.value.method == "bump"
        assert err.value.deadline == 2.5
        assert err.value.spent >= 2.5
        assert err.value.attempts >= 2
        assert (
            controller.metrics.total("repro_retry_budget_exhausted_total") == 1
        )

    def test_no_deadline_preserves_retry_exhaustion_behaviour(self):
        plan = FaultPlan().transient(at_step=1, count=10)
        policy = RetryPolicy(max_retries=2, backoff_base=1.0)
        _, group, _ = faulty_controller(plan, policy=policy)
        group.bump()
        with pytest.raises(WorkerLostError) as err:
            group.bump()
        assert not isinstance(err.value, RetryBudgetExhausted)


# -- torn saves: a fault during save_checkpoint never corrupts restore ----------


class TestTornSave:
    def _controller(self, n=2):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(n, name="main")
        group = WorkerGroup(
            CounterWorker, pool, controller=controller, name="counter"
        )
        return controller, group

    def test_crash_mid_staging_preserves_previous_checkpoint(self, tmp_path):
        import repro.single_controller.controller as ctrl_mod

        controller, group = self._controller()
        group.bump()
        controller.save_checkpoint(tmp_path / "ckpt")
        group.bump()

        def torn_savez(*args, **kwargs):
            raise OSError("simulated disk failure mid-save")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctrl_mod.np, "savez", torn_savez)
            with pytest.raises(OSError, match="mid-save"):
                controller.save_checkpoint(tmp_path / "ckpt")
        # the torn attempt stayed in staging; the old root is intact
        assert (tmp_path / ".ckpt.saving").exists()
        fresh, fresh_group = self._controller()
        fresh.load_checkpoint(tmp_path / "ckpt")
        assert [w.count for w in fresh_group.workers] == [1, 1]
        # the next save clears the stale staging and lands the new state
        controller.save_checkpoint(tmp_path / "ckpt")
        assert not (tmp_path / ".ckpt.saving").exists()
        fresh2, fresh_group2 = self._controller()
        fresh2.load_checkpoint(tmp_path / "ckpt")
        assert [w.count for w in fresh_group2.workers] == [2, 2]

    def test_crash_between_renames_falls_back_to_replaced(self, tmp_path):
        controller, group = self._controller()
        group.bump()
        controller.save_checkpoint(tmp_path / "ckpt")
        # simulate dying between "park the old root" and "promote staging":
        # the previous complete checkpoint sits under the .replaced name
        (tmp_path / "ckpt").rename(tmp_path / ".ckpt.replaced")
        fresh, fresh_group = self._controller()
        fresh.load_checkpoint(tmp_path / "ckpt")
        assert [w.count for w in fresh_group.workers] == [1, 1]

    def test_missing_root_and_fallback_is_still_typed(self, tmp_path):
        fresh, _ = self._controller()
        with pytest.raises(CheckpointError, match="no checkpoint"):
            fresh.load_checkpoint(tmp_path / "ckpt")


# -- elastic (resize-aware) checkpoint restore ----------------------------------


def build_ppo_at(dp, tp=2):
    par = ParallelConfig(pp=1, tp=tp, dp=dp)
    plan = PlacementPlan(
        pools={"main": tp * dp, "r": 1},
        assignments={
            "actor": ModelAssignment(
                "main", par, GenParallelConfig.derive(par, 1, 1)
            ),
            "critic": ModelAssignment("main", par),
            "reference": ModelAssignment("main", par),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        CFG,
        cluster_spec=SPEC,
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        reward_fn=TASK.reward,
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
    )


class TestElasticRestore:
    def test_resize_requires_explicit_flag(self, tmp_path):
        donor = build_ppo_at(dp=2)
        donor.controller.save_checkpoint(tmp_path / "ckpt")
        target = build_ppo_at(dp=1)
        with pytest.raises(CheckpointError, match="allow_resize"):
            target.controller.load_checkpoint(tmp_path / "ckpt")

    def test_shrink_restores_first_replica(self, tmp_path):
        donor = build_ppo_at(dp=2)
        donor.controller.save_checkpoint(tmp_path / "ckpt")
        target = build_ppo_at(dp=1)
        target.controller.load_checkpoint(tmp_path / "ckpt", allow_resize=True)
        # local ranks enumerate TP fastest, so the narrow system's workers
        # are exactly the wide system's first DP replica
        got, want = target.checkpoint_state(), donor.checkpoint_state()
        np.testing.assert_equal(got, {key: want[key] for key in got})

    def test_grow_clones_last_replica(self, tmp_path):
        donor = build_ppo_at(dp=1)
        donor.controller.save_checkpoint(tmp_path / "ckpt")
        target = build_ppo_at(dp=2)
        target.controller.load_checkpoint(tmp_path / "ckpt", allow_resize=True)
        stage = 2  # pp * tp
        got, want = target.checkpoint_state(), donor.checkpoint_state()
        np.testing.assert_equal(
            got, {(g, r, k): want[g, r % stage, k] for g, r, k in got}
        )

    def test_resize_rejects_tp_change(self, tmp_path):
        donor = build_ppo_at(dp=1, tp=2)
        donor.controller.save_checkpoint(tmp_path / "ckpt")
        target = build_ppo_at(dp=1, tp=1)
        with pytest.raises(CheckpointError, match="only resizes DP"):
            target.controller.load_checkpoint(
                tmp_path / "ckpt", allow_resize=True
            )

    def test_resize_rejects_non_3d_layouts(self, tmp_path):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(2, name="main")
        WorkerGroup(CounterWorker, pool, controller=controller, name="counter")
        controller.save_checkpoint(tmp_path / "ckpt")
        wider = SingleController(ClusterSpec(n_machines=1))
        pool = wider.create_pool(3, name="main")
        WorkerGroup(CounterWorker, pool, controller=wider, name="counter")
        with pytest.raises(CheckpointError, match="3d layout"):
            wider.load_checkpoint(tmp_path / "ckpt", allow_resize=True)
