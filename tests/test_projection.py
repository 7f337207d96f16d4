"""Tests for projecting functional traces onto full-scale timing."""

import pytest

from repro.config import (
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
)
from repro.data.dataset import PromptDataset, SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import AlgoType
from repro.runtime import (
    ModelAssignment,
    PlacementPlan,
    SystemSpec,
    build_rlhf_system,
    build_timeline,
)
from repro.runtime.projection import perf_duration_fn

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)
TASK = SyntheticPreferenceTask(vocab_size=16)
PAR = ParallelConfig(1, 2, 1)
GEN = GenParallelConfig.derive(PAR, 1, 1)


def run_system(split: bool):
    if split:
        plan = PlacementPlan(
            pools={"a": 2, "c": 2, "r": 1},
            assignments={
                "actor": ModelAssignment("a", PAR, GEN),
                "reference": ModelAssignment("a", PAR),
                "critic": ModelAssignment("c", PAR),
                "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
            },
        )
    else:
        plan = PlacementPlan(
            pools={"a": 2, "r": 1},
            assignments={
                "actor": ModelAssignment("a", PAR, GEN),
                "reference": ModelAssignment("a", PAR),
                "critic": ModelAssignment("a", PAR),
                "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
            },
        )
    system = build_rlhf_system(
        AlgoType.PPO, plan, CFG, reward_fn=TASK.reward, max_new_tokens=5
    )
    system.trainer.train(PromptDataset(32, 4, 16, seed=1), 1, 8)
    return system


SPECS = {m: MODEL_SPECS["llama-7b"] for m in ("actor", "critic", "reference")}
WL = RlhfWorkload()
CLUSTER = ClusterSpec(n_machines=2)


def project_trace(system, model_specs, gen_tp):
    """Replay a finished trace under the projected full-scale model."""
    model = perf_duration_fn(system, model_specs, WL, CLUSTER, gen_tp=gen_tp)
    return build_timeline(system.controller.trace, model)


class TestProjection:
    def test_generation_dominates_projected_iteration(self):
        system = run_system(split=False)
        timeline = project_trace(system, SPECS, gen_tp=1)
        gen_events = [
            e for e in timeline.events if e.name.endswith("generate_sequences")
        ]
        assert gen_events[0].duration > max(
            e.duration
            for e in timeline.events
            if e.name.endswith("compute_values")
        )
        assert timeline.makespan > 0

    def test_split_projection_overlaps_critic(self):
        colocated = project_trace(run_system(split=False), SPECS, gen_tp=1)
        split = project_trace(run_system(split=True), SPECS, gen_tp=1)
        assert split.makespan < colocated.makespan

    def test_non_nn_workers_are_near_free(self):
        system = run_system(split=False)
        fn = perf_duration_fn(system, SPECS, WL, CLUSTER)
        reward_record = next(
            r for r in system.controller.trace if r.group == "reward"
        )
        assert fn(reward_record) == pytest.approx(0.01)

    def test_bigger_model_projects_slower(self):
        system = run_system(split=False)
        small = project_trace(system, SPECS, gen_tp=1)
        big_specs = {m: MODEL_SPECS["llama-13b"] for m in SPECS}
        big = project_trace(system, big_specs, gen_tp=2)
        assert big.makespan > small.makespan

    def test_update_duration_scales_with_minibatches(self):
        system = run_system(split=False)
        fn8 = perf_duration_fn(system, SPECS, WL, CLUSTER)
        wl1 = RlhfWorkload(ppo_updates_per_epoch=1)
        fn1 = perf_duration_fn(system, SPECS, wl1, CLUSTER)
        update = next(
            r for r in system.controller.trace if r.method == "update_actor"
        )
        assert fn1(update) > fn8(update)


class TestProjectedModelIsADropIn:
    """The projected model installed as the controller's one duration model
    re-times the shipped job without changing what it runs."""

    @staticmethod
    def run_shipped(install_projection: bool):
        spec = SystemSpec()
        system = spec.build()
        controller = system.controller
        if install_projection:
            controller.planned_duration = perf_duration_fn(
                system, SPECS, WL, CLUSTER
            )
        system.trainer.train(spec.dataset(), 2, 8)
        return system

    @pytest.fixture(scope="class")
    def runs(self):
        return [self.run_shipped(install) for install in (False, True)]

    def test_same_calls_in_the_same_order_and_the_same_state(self, runs):
        table, projected = runs

        def calls(system):
            return [
                (r.group, r.method, r.pool, r.deps) for r in system.controller.trace
            ]

        assert calls(table) == calls(projected)
        assert table.state_digest() == projected.state_digest()
        # the two models price the run differently
        assert table.controller.clock.now != projected.controller.clock.now

    def test_the_clock_is_the_installed_model_summed_over_the_trace(self, runs):
        for system in runs:
            controller = system.controller
            charged = 0.0
            for record in controller.trace:
                charged += controller.planned_duration(record)
            assert controller.clock.now == charged

    def test_the_replay_reproduces_what_dispatch_charged(self, runs):
        for system in runs:
            controller = system.controller
            tracer = controller.tracer
            spans = {span.span_id: span for span in tracer.spans}
            timeline = build_timeline(controller.trace, controller.planned_duration)
            assert [e.seq for e in timeline.events] == [
                r.seq for r in controller.trace
            ]
            for event in timeline.events:
                span = spans[tracer.span_id_for_seq(event.seq)]
                assert event.end == event.start + span.attrs["duration_model"]
