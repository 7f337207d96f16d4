"""Tests for placement plans, the system builder and the shipped job spec."""

import json
import pathlib

import pytest

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data.dataset import SyntheticPreferenceTask
from repro.fleet import JobSpec
from repro.parallel.topology import GenGroupingMode
from repro.rlhf.core import AlgoType
from repro.runtime import (
    TINY_LM as CFG,
    ModelAssignment,
    PlacementPlan,
    SystemSpec,
    build_rlhf_system,
    shipped_placements,
)
from repro.runtime.builder import required_models

PAR = ParallelConfig(pp=1, tp=2, dp=1)
GEN = GenParallelConfig.derive(PAR, 1, 1)
PPO_MODELS = ["actor", "critic", "reference", "reward"]


class TestPlacementPlan:
    # §8.3's three canonical placements, each one grouping

    def test_colocate_constructor(self):
        plan = PlacementPlan.grouped({"shared": (PAR, PPO_MODELS)}, GEN)
        assert plan.pools == {"shared": 2}
        assert plan.total_gpus == 2
        assert plan.colocated_models("shared") == PPO_MODELS
        assert plan.assignments["actor"].gen_parallel is GEN
        assert plan.assignments["critic"].gen_parallel is None

    def test_standalone_constructor(self):
        plan = PlacementPlan.grouped(
            {f"pool-{m}": (PAR, [m]) for m in PPO_MODELS}, GEN
        )
        assert plan.total_gpus == 8
        assert len(plan.pools) == 4
        assert plan.assignments == {
            m: ModelAssignment(f"pool-{m}", PAR, GEN if m == "actor" else None)
            for m in PPO_MODELS
        }

    def test_split_constructor(self):
        plan = PlacementPlan.grouped(
            {
                "actor_side": (PAR, ["actor", "reference"]),
                "critic_side": (PAR, ["critic", "reward"]),
            },
            GEN,
        )
        assert plan.pools == {"actor_side": 2, "critic_side": 2}
        assert plan.pool_of("actor") == "actor_side"
        assert plan.pool_of("reward") == "critic_side"
        assert plan.assignments["reference"] == ModelAssignment("actor_side", PAR)

    def test_grouped_sizes_each_pool_by_its_strategy(self):
        wide = ParallelConfig(pp=1, tp=2, dp=2)
        plan = PlacementPlan.grouped(
            {"main": (wide, ["actor", "critic"]), "r": (ParallelConfig(), ["reward"])},
            GenParallelConfig.derive(wide, 1, 1),
        )
        assert plan.pools == {"main": 4, "r": 1}
        assert list(plan.assignments) == ["actor", "critic", "reward"]

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool"):
            PlacementPlan(
                pools={"a": 2},
                assignments={"actor": ModelAssignment("b", PAR, GEN)},
            )

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="GPUs"):
            PlacementPlan(
                pools={"a": 4},
                assignments={"actor": ModelAssignment("a", PAR, GEN)},
            )

    def test_inconsistent_gen_parallel_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ModelAssignment("a", PAR, GenParallelConfig(pp=1, tp=2, micro_dp=4))


class TestBuilder:
    def plan(self):
        return PlacementPlan.grouped({"shared": (PAR, PPO_MODELS)}, GEN)

    def test_required_models_per_algo(self):
        assert required_models(AlgoType.PPO) == ("actor", "critic", "reference", "reward")
        assert "critic" not in required_models(AlgoType.REMAX)
        assert "cost" in required_models(AlgoType.SAFE_RLHF)

    def test_builds_groups_and_trainer(self):
        system = build_rlhf_system(AlgoType.PPO, self.plan(), CFG)
        assert set(system.groups) == set(PPO_MODELS)
        assert system.group("actor").gen_topology is not None
        assert system.trainer.actor is system.groups["actor"]

    def test_missing_assignment_rejected(self):
        plan = PlacementPlan(
            pools={"a": 2},
            assignments={"actor": ModelAssignment("a", PAR, GEN)},
        )
        with pytest.raises(ValueError, match="lacks assignments"):
            build_rlhf_system(AlgoType.PPO, plan, CFG)

    def test_actor_needs_gen_parallel(self):
        plan = PlacementPlan(
            pools={"a": 2},
            assignments={
                m: ModelAssignment("a", PAR) for m in PPO_MODELS
            },
        )
        with pytest.raises(ValueError, match="gen_parallel"):
            build_rlhf_system(AlgoType.PPO, plan, CFG)

    def test_vanilla_gen_mode_supported(self):
        system = build_rlhf_system(
            AlgoType.PPO, self.plan(), CFG, gen_mode=GenGroupingMode.VANILLA
        )
        assert system.group("actor").gen_topology.mode is GenGroupingMode.VANILLA

    def test_reward_function_replaces_model(self):
        task = SyntheticPreferenceTask(vocab_size=16)
        plan = PlacementPlan(
            pools={"main": 2, "r": 1},
            assignments={
                "actor": ModelAssignment("main", PAR, GEN),
                "critic": ModelAssignment("main", PAR),
                "reference": ModelAssignment("main", PAR),
                "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
            },
        )
        system = build_rlhf_system(AlgoType.PPO, plan, CFG, reward_fn=task.reward)
        from repro.workers import RewardFunctionWorker

        assert isinstance(system.groups["reward"].workers[0], RewardFunctionWorker)

    def test_custom_cluster_spec(self):
        spec = ClusterSpec(n_machines=1, gpus_per_machine=4)
        system = build_rlhf_system(AlgoType.PPO, self.plan(), CFG, cluster_spec=spec)
        assert system.controller.cluster.n_gpus == 4

    def test_colocated_groups_share_devices(self):
        system = build_rlhf_system(AlgoType.PPO, self.plan(), CFG)
        actor_pool = system.group("actor").resource_pool
        critic_pool = system.group("critic").resource_pool
        assert actor_pool is critic_pool


# -- the shipped job: one definition ---------------------------------------------

#: Recorded at the commit that still had the hand-written builders (named by
#: the keys): state digest after ``trainer.train(dataset, 2, 8)`` and the two
#: ``score_mean``s.  "Same system" means the one definition reproduces each.
#: The digests were re-recorded when cached forwards moved to one attention
#: core at a canonical key width (generation log-probs moved by rounding);
#: the ``score_mean``s, which follow the sampled tokens, did not move.  All
#: seven were re-recorded when scoring and training forwards moved to the
#: same tiled stream (weights within 8.4e-14 of each array's largest entry);
#: one ``score_mean``, a reward model's, moved by rounding (1e-16).
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "shipped_systems.json").read_text()
)
ONE_NODE = ClusterSpec(n_machines=1, gpus_per_machine=4)
ONE_DEFINITION = {
    "cli.cmd_faults[2x4]": lambda: SystemSpec().build(
        cluster_spec=ClusterSpec(n_machines=2, gpus_per_machine=4)
    ),
    "perf.bench._build_tiny_ppo": lambda: SystemSpec().build(cluster_spec=ONE_NODE),
    "perf.bench._build_disaggregated_ppo": lambda: SystemSpec(
        disaggregated=True
    ).build(cluster_spec=ONE_NODE),
    "JobSpec[dp=1]": lambda: JobSpec(name="j").build(),
    "JobSpec[preferred_dp=2]": lambda: JobSpec(name="j", preferred_dp=2).build(),
    "JobSpec[grpo]": lambda: JobSpec(name="j", algo=AlgoType.GRPO).build(),
    "JobSpec[remax]": lambda: JobSpec(name="j", algo=AlgoType.REMAX).build(),
}


#: Recorded at the commit that still all-reduced gradients tensor by tensor
#: and re-merged every shard on every call: the controller's
#: ``TrafficMeter.snapshot()`` after ``trainer.train(dataset, 1, 8)`` of each
#: shipped job, as ``"group|op": bytes`` (the flat sync meters per tensor).
TRAFFIC = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "traffic_snapshots.json").read_text()
)


class TestSystemSpec:
    @pytest.mark.parametrize("name", sorted(TRAFFIC))
    def test_traffic_is_the_recorded_traffic(self, name):
        system = ONE_DEFINITION[name]()
        system.trainer.train(SystemSpec().dataset(), 1, 8)
        snapshot = system.controller.meter.snapshot()
        assert {f"{g}|{op}": b for (g, op), b in snapshot.items()} == TRAFFIC[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_reproduces_every_hand_written_builder(self, name):
        system = ONE_DEFINITION[name]()
        history = system.trainer.train(SystemSpec().dataset(), 2, 8)
        assert system.state_digest() == GOLDEN[name]["digest"]
        assert [h["score_mean"] for h in history] == GOLDEN[name]["score_mean"]

    def test_both_shipped_placements(self):
        colocated = SystemSpec(dp=2).plan
        assert colocated.pools == {"main": 4, "r": 1}
        assert colocated.colocated_models("main") == ["actor", "critic", "reference"]
        assert SystemSpec().function_rewards == ("reward",)
        split = SystemSpec(disaggregated=True)
        assert split.plan.pools == {"actor": 2, "scorer": 1}
        assert split.plan.colocated_models("scorer") == [
            "critic",
            "reference",
            "reward",
        ]
        assert split.function_rewards == ()
        assert shipped_placements()["tiny-ppo"] == SystemSpec().plan

    def test_a_second_train_call_continues_the_prompt_stream(self):
        """Batches are consumed in absolute iteration order: 2 + 1 iterations
        are the 3-iteration run, not batch 0 replayed (§9's dataloader IDs)."""
        once, twice = SystemSpec().build(), SystemSpec().build()
        once.trainer.train(SystemSpec().dataset(), 3, 8)
        twice.trainer.train(SystemSpec().dataset(), 2, 8)
        twice.trainer.train(SystemSpec().dataset(), 1, 8)
        assert twice.state_equal(once)
        assert twice.trainer.history == once.trainer.history

    def test_state_oracle_separates_runs(self):
        a, b = SystemSpec().build(), SystemSpec().build()
        assert a.state_equal(b) and a.state_digest() == b.state_digest()
        b.trainer.train(SystemSpec().dataset(), 1, 8)
        assert not a.state_equal(b) and a.state_digest() != b.state_digest()
