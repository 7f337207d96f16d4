"""Tests for the execution-timeline scheduler (Figure 3 semantics)."""

import pathlib
import re

import numpy as np

import repro

from repro.config import GenParallelConfig, ParallelConfig
from repro.data.dataset import PromptDataset, SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import AlgoType
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.runtime.timeline import Timeline, TimelineEvent, build_timeline
from repro.single_controller.controller import ExecutionRecord

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
ONE = ParallelConfig(1, 1, 1)


def build_system(split: bool):
    if split:
        plan = PlacementPlan(
            pools={"actor_side": 2, "critic_side": 2, "r": 1},
            assignments={
                "actor": ModelAssignment("actor_side", PAR, GEN),
                "reference": ModelAssignment("actor_side", PAR),
                "critic": ModelAssignment("critic_side", PAR),
                "reward": ModelAssignment("r", ONE),
            },
        )
    else:
        plan = PlacementPlan(
            pools={"main": 2, "r": 1},
            assignments={
                "actor": ModelAssignment("main", PAR, GEN),
                "reference": ModelAssignment("main", PAR),
                "critic": ModelAssignment("main", PAR),
                "reward": ModelAssignment("r", ONE),
            },
        )
    return build_rlhf_system(
        AlgoType.PPO, plan, CFG, reward_fn=TASK.reward, max_new_tokens=5
    )


def replay(controller):
    return build_timeline(controller.trace, controller.planned_duration)


def run_iteration(split: bool):
    system = build_system(split)
    ds = PromptDataset(32, 4, 16, seed=1)
    system.trainer.train(ds, 1, 8)
    return system


class TestDependencyCapture:
    def test_trace_records_dataflow_edges(self):
        system = run_iteration(split=False)
        trace = system.controller.trace
        by_name = {f"{r.group}.{r.method}": r for r in trace}
        gen = by_name["actor.generate_sequences"]
        values = by_name["critic.compute_values"]
        update = by_name["actor.update_actor"]
        assert gen.deps == ()
        assert gen.seq in values.deps
        assert update.deps  # depends on prepared batch

    def test_future_provenance(self):
        system = build_system(split=False)
        from repro.data.batch import DataBatch

        prompts = DataBatch(
            {"prompts": np.zeros((4, 4), dtype=int)}
        )
        out = system.groups["actor"].generate_sequences(prompts)
        assert out.record_seq is not None
        values = system.groups["critic"].compute_values(out)
        rec = system.controller.trace[-1]
        assert out.record_seq in rec.deps
        assert values.record_seq == rec.seq


class TestScheduling:
    def make_records(self):
        # diamond: a -> (b, c) -> d, b and c on different pools
        return [
            ExecutionRecord(0, "a", "m", "p0", ()),
            ExecutionRecord(1, "b", "m", "p1", (0,)),
            ExecutionRecord(2, "c", "m", "p2", (0,)),
            ExecutionRecord(3, "d", "m", "p0", (1, 2)),
        ]

    def test_diamond_overlaps_independent_branches(self):
        timeline = build_timeline(self.make_records(), lambda r: 2.0)
        by_name = {e.name: e for e in timeline.events}
        assert by_name["b.m"].start == by_name["c.m"].start == 2.0
        assert by_name["d.m"].start == 4.0
        assert timeline.makespan == 6.0

    def test_same_pool_serialises(self):
        records = [
            ExecutionRecord(0, "a", "m", "p0", ()),
            ExecutionRecord(1, "b", "m", "p0", ()),
        ]
        timeline = build_timeline(records, lambda r: 1.0)
        assert timeline.makespan == 2.0
        assert timeline.idle_fraction("p0") == 0.0


class TestFigure3Semantics:
    def test_split_overlaps_critic_and_actor_work(self):
        """With actor/ref and critic on different pools, the critic's value
        pass overlaps actor-side work, shortening the makespan vs colocate."""
        colocated = replay(run_iteration(split=False).controller)
        split = replay(run_iteration(split=True).controller)
        assert split.makespan < colocated.makespan

    def test_split_placement_has_idle_time(self):
        """Figure 3 / §2.3: separated models idle during stages they don't
        participate in (e.g. critic during generation)."""
        system = run_iteration(split=True)
        timeline = replay(system.controller)
        gen_event = next(
            e for e in timeline.events if e.name == "actor.generate_sequences"
        )
        busy = timeline.busy_during("critic_side", gen_event.start, gen_event.end)
        assert busy == 0.0  # critic idles through generation
        assert timeline.idle_fraction("critic_side") > 0.2

    def test_colocated_pool_fully_busy(self):
        system = run_iteration(split=False)
        timeline = replay(system.controller)
        assert timeline.idle_fraction("main") < 0.35  # only the reward call

    def test_render_ascii(self):
        system = run_iteration(split=True)
        text = replay(system.controller).render_ascii(width=40)
        assert "actor_side" in text and "idle=" in text and "legend:" in text

    def test_custom_duration_fn(self):
        system = run_iteration(split=False)
        timeline = build_timeline(system.controller.trace, lambda r: 5.0)
        assert timeline.makespan == 5.0 * len(system.controller.trace) - 5.0 * sum(
            1 for r in system.controller.trace if r.pool != "main"
        ) or timeline.makespan > 0  # duration plumbed through

    def test_empty_timeline(self):
        timeline = Timeline(events=[])
        assert timeline.makespan == 0.0
        assert timeline.render_ascii() == "(empty timeline)"
        event = TimelineEvent(0, "x", "p", 1.0, 3.0)
        assert event.duration == 2.0


class TestPlannedDuration:
    """One duration model: dispatch, fault injector and timeline agree."""

    @staticmethod
    def record(method, group="actor", pool="main"):
        return ExecutionRecord(0, group, method, pool)

    def test_controller_table_and_fallback(self):
        controller = build_system(split=False).controller
        assert controller.planned_duration(self.record("generate_sequences")) == 6.0
        assert controller.planned_duration(self.record("update_actor")) == 3.0
        assert controller.planned_duration(self.record("mystery_method")) == 1.0

    def test_dispatch_injector_and_timeline_read_the_same_seam(self):
        from repro.faults import FaultInjector, FaultPlan

        system = run_iteration(split=False)
        controller = system.controller
        planned = sum(controller.planned_duration(r) for r in controller.trace)
        # fault-free dispatch advanced the clock by exactly the planned total
        assert controller.clock.now == planned
        # and the default replay charges every record the same durations
        replayed = replay(controller).events
        assert sum(e.duration for e in replayed) == planned
        # the injector inflates the same number by the slowest rank
        injector = FaultInjector(FaultPlan())
        controller.attach_fault_injector(injector)
        injector.straggle[0] = 2.5
        actor = system.groups["actor"]
        update = self.record("update_actor")
        assert injector.call_duration(actor, update) == 2.5 * 3.0
        controller.planned_duration = lambda record: 10.0
        assert injector.call_duration(actor, update) == 25.0
        assert {e.duration for e in replay(controller).events} == {10.0}



class TestOneDurationModel:
    """How long a call takes is decided in one module: the controller's
    default model is the only code that reads its table."""

    SRC = pathlib.Path(repro.__file__).parent

    def files_naming(self, pattern):
        return sorted(
            str(path.relative_to(self.SRC))
            for path in self.SRC.rglob("*.py")
            if re.search(pattern, path.read_text())
        )

    def test_only_the_controller_names_the_table_and_its_fallback(self):
        assert self.files_naming(r"\b(DEFAULT_DURATIONS|FALLBACK_DURATION)\b") == [
            "single_controller/controller.py"
        ]

    def test_no_wrapper_over_the_controllers_model(self):
        assert self.files_naming(r"\bplanned_durations\b") == []

    def test_every_registered_worker_method_is_priced(self):
        # a method off the table is charged the flat fallback: every
        # dispatchable method of a shipped worker has its own entry
        import repro.workers
        from repro.analysis import registered_methods
        from repro.single_controller.controller import DEFAULT_DURATIONS

        unpriced = [
            f"{name}.{method}"
            for name in repro.workers.__all__
            if isinstance(getattr(repro.workers, name), type)
            for method, _ in registered_methods(getattr(repro.workers, name))
            if method not in DEFAULT_DURATIONS
        ]
        assert unpriced == []
