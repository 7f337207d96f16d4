"""Tests for the auto device-mapping algorithms (§6, Algorithms 1 and 2).

``tests/golden/mapping_results.json`` holds, for every case of the grid
below — {7B, 13B, 34B} x {PPO, ReMax, Safe-RLHF} x (1, 2 or 4 A100
machines, or four two-zone mixes) — the chosen mapping's ``describe()``,
each model's strategy and the iteration breakdown, plus the stdout of the
``repro map`` / ``repro map-hetero`` runs ``tests/test_cli.py`` makes.  It
was recorded with the two searches ``map_dataflow`` replaced (one per
homogeneous cluster, one over zones); ``"moved"`` names the cases the one
search changed, each with its cause and the recorded record.  Re-record
(only for a change that says why)::

    PYTHONPATH=src python -c "from tests.test_mapping import regen_golden; regen_golden()"
"""

import contextlib
import dataclasses
import io
import json
import pathlib

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.config import (
    GPU_SPECS,
    MODEL_SPECS,
    ClusterSpec,
    GpuSpec,
    ParallelConfig,
    RlhfWorkload,
)
from repro.mapping import (
    ClusterZone,
    allowed_allocations,
    auto_parallel,
    enum_alloc,
    map_dataflow,
    set_partitions,
)
from repro.mapping.auto_parallel import ModelRole, clear_cache, search_generation_strategy
from repro.mapping.device_mapping import get_min_alloc, persistent_bytes
from repro.mapping.placement_enum import bell_number
from repro.rlhf.core import AlgoType
from repro.runtime.builder import required_models

WL = RlhfWorkload()
SPEC7 = MODEL_SPECS["llama-7b"]
PPO = {m: SPEC7 for m in ("actor", "critic", "reference", "reward")}

A100 = GpuSpec()
#: An H800-class device: ~2.5x compute, ~1.6x memory bandwidth.
H800 = dataclasses.replace(
    A100, name="H800-80GB", peak_flops=790e12, hbm_bandwidth=3350e9
)


def zone(name, n_machines, gpu):
    return ClusterZone(name, ClusterSpec(n_machines=n_machines, gpu=gpu))


class TestSetPartitions:
    def test_ppo_has_15_placements(self):
        """§6: 'the PPO algorithm involves four models, resulting in 15
        possible placements (from the Bell partition problem)'."""
        parts = list(set_partitions(["actor", "critic", "reference", "reward"]))
        assert len(parts) == 15

    def test_safe_rlhf_has_52_placements(self):
        parts = list(set_partitions(list("abcde")))
        assert len(parts) == 52

    @given(n=st.integers(0, 6))
    def test_counts_are_bell_numbers(self, n):
        assert len(list(set_partitions(list(range(n))))) == bell_number(n)

    def test_each_partition_covers_all_models(self):
        models = ["a", "b", "c", "d"]
        for partition in set_partitions(models):
            flat = sorted(m for group in partition for m in group)
            assert flat == sorted(models)


class TestEnumAlloc:
    def test_allowed_sizes(self):
        assert allowed_allocations(32, 8) == [1, 2, 4, 8, 16, 24, 32]
        assert allowed_allocations(4, 8) == [1, 2, 4]

    def test_allocations_sum_to_total(self):
        for alloc in enum_alloc(16, [1, 1, 1], 8):
            assert sum(alloc) == 16
            assert all(a >= 1 for a in alloc)

    def test_minimums_respected(self):
        allocs = list(enum_alloc(16, [8, 2], 8))
        assert allocs
        for a in allocs:
            assert a[0] >= 8 and a[1] >= 2

    def test_infeasible_minimums_give_nothing(self):
        assert list(enum_alloc(8, [8, 8], 8)) == []

    def test_single_set_gets_everything(self):
        assert list(enum_alloc(16, [1], 8)) == [(16,)]


class TestAutoParallel:
    def setup_method(self):
        clear_cache()

    def test_finds_feasible_strategy_for_7b_on_8(self):
        choice = auto_parallel(
            SPEC7, ClusterSpec(n_machines=1), 8, WL, ModelRole.ACTOR
        )
        assert choice is not None
        assert choice.parallel.world_size == 8
        assert choice.gen_tp is not None

    def test_infeasible_returns_none(self):
        choice = auto_parallel(
            MODEL_SPECS["llama-70b"], ClusterSpec(n_machines=1), 2, WL,
            ModelRole.ACTOR,
        )
        assert choice is None

    def test_scorer_needs_less_mp_than_trainer(self):
        cluster = ClusterSpec(n_machines=1)
        scorer = auto_parallel(SPEC7, cluster, 8, WL, ModelRole.SCORER)
        trainer = auto_parallel(SPEC7, cluster, 8, WL, ModelRole.CRITIC)
        assert scorer is not None and trainer is not None
        assert (
            scorer.parallel.model_parallel_size
            <= trainer.parallel.model_parallel_size
        )

    def test_cache_hit_returns_same_object(self):
        cluster = ClusterSpec(n_machines=2)
        a = auto_parallel(SPEC7, cluster, 8, WL, ModelRole.SCORER)
        b = auto_parallel(SPEC7, cluster, 8, WL, ModelRole.SCORER)
        assert a is b

    def test_cache_is_keyed_on_the_whole_input(self):
        """A strategy searched for one device or workload shape is never
        handed to another: 13B training on four V100-32GB GPUs fits in no
        layout, whatever ran on A100-80GB before."""
        spec = MODEL_SPECS["llama-13b"]
        v100 = ClusterSpec(n_machines=1, gpu=GPU_SPECS["V100-32GB"])
        assert auto_parallel(spec, v100, 4, WL, ModelRole.ACTOR) is None
        clear_cache()
        a100 = auto_parallel(spec, ClusterSpec(n_machines=1), 4, WL, ModelRole.ACTOR)
        assert a100.parallel == ParallelConfig(pp=1, tp=4, dp=1)
        assert auto_parallel(spec, v100, 4, WL, ModelRole.ACTOR) is None

        # same batch and sequence length, another prompt/response split
        long_answers = dataclasses.replace(WL, prompt_length=256, response_length=1792)
        warm = auto_parallel(spec, ClusterSpec(n_machines=1), 4, long_answers, ModelRole.ACTOR)
        clear_cache()
        cold = auto_parallel(spec, ClusterSpec(n_machines=1), 4, long_answers, ModelRole.ACTOR)
        assert warm == cold != a100

    def test_generation_search_divides_training_mp(self):
        train = ParallelConfig(1, 8, 2)
        gen_tp, gen_pp, latency = search_generation_strategy(
            SPEC7, ClusterSpec(n_machines=2), train, WL
        )
        assert train.tp % gen_tp == 0
        assert train.pp % gen_pp == 0
        assert latency > 0


class TestGetMinAlloc:
    def test_single_7b_scorer_fits_on_one_gpu_worth(self):
        alloc = get_min_alloc(
            [("reference", SPEC7)], ClusterSpec(n_machines=2), 16
        )
        assert alloc == 1

    def test_trainable_needs_more(self):
        scorer = get_min_alloc([("reference", SPEC7)], ClusterSpec(n_machines=2), 16)
        trainer = get_min_alloc([("actor", SPEC7)], ClusterSpec(n_machines=2), 16)
        assert trainer > scorer

    def test_infeasible_returns_none(self):
        alloc = get_min_alloc(
            [("actor", MODEL_SPECS["llama-70b"])], ClusterSpec(n_machines=1), 8
        )
        assert alloc is None

    def test_persistent_bytes_roles(self):
        assert persistent_bytes(SPEC7, ModelRole.ACTOR) == 18 * SPEC7.n_params()
        assert persistent_bytes(SPEC7, ModelRole.SCORER) == 2 * SPEC7.n_params()


class TestMapDataflow:
    def setup_method(self):
        clear_cache()

    def test_small_cluster_prefers_colocation(self):
        """§8.3: 'In smaller clusters ... the colocate strategy ensures
        maximum GPU usage'."""
        specs = {m: SPEC7 for m in ("actor", "critic", "reference", "reward")}
        result = map_dataflow(
            AlgoType.PPO, specs, ClusterSpec(n_machines=1), WL
        )
        assert len(result.placement) == 1
        assert result.allocation["set0"] == 8

    def test_allocation_exhausts_cluster(self):
        specs = {m: SPEC7 for m in ("actor", "critic", "reference", "reward")}
        result = map_dataflow(AlgoType.PPO, specs, ClusterSpec(n_machines=2), WL)
        assert sum(result.allocation.values()) == 16

    def test_restricted_placement_search(self):
        specs = {m: SPEC7 for m in ("actor", "critic", "reference", "reward")}
        split = [["actor", "reference"], ["critic", "reward"]]
        result = map_dataflow(
            AlgoType.PPO, specs, ClusterSpec(n_machines=2), WL,
            placements=[split],
        )
        assert sorted(map(sorted, result.placement)) == sorted(map(sorted, split))

    def test_full_search_at_least_as_good_as_any_restriction(self):
        """§8.3: 'In all cases, our Algorithm 1 produces the best placement.'"""
        specs = {m: SPEC7 for m in ("actor", "critic", "reference", "reward")}
        cluster = ClusterSpec(n_machines=2)
        best = map_dataflow(AlgoType.PPO, specs, cluster, WL)
        colocate = map_dataflow(
            AlgoType.PPO, specs, cluster, WL,
            placements=[[["actor", "critic", "reference", "reward"]]],
        )
        assert best.cost <= colocate.cost + 1e-9

    def test_remax_dataflow_maps_without_critic(self):
        specs = {m: SPEC7 for m in ("actor", "reference", "reward")}
        result = map_dataflow(AlgoType.REMAX, specs, ClusterSpec(n_machines=1), WL)
        assert "critic" not in result.strategies

    def test_requires_actor(self):
        with pytest.raises(ValueError, match="actor"):
            map_dataflow(
                AlgoType.PPO, {"critic": SPEC7}, ClusterSpec(n_machines=1), WL
            )

    def test_infeasible_cluster_raises(self):
        specs = {m: MODEL_SPECS["llama-70b"] for m in ("actor", "critic", "reference", "reward")}
        with pytest.raises(RuntimeError, match="no feasible"):
            map_dataflow(AlgoType.PPO, specs, ClusterSpec(n_machines=1), WL)

    def test_describe_and_pool_lookup(self):
        specs = {m: SPEC7 for m in ("actor", "critic", "reference", "reward")}
        result = map_dataflow(AlgoType.PPO, specs, ClusterSpec(n_machines=1), WL)
        assert "cost=" in result.describe()
        assert result.pool_of("actor") == "set0"
        with pytest.raises(KeyError):
            result.pool_of("ghost")


class TestZoneEnumeration:
    """One search over zones of different devices (the §6 extension)."""

    def setup_method(self):
        clear_cache()

    def test_single_zone_matches_homogeneous_search(self):
        single = map_dataflow(AlgoType.PPO, PPO, [zone("a100", 1, A100)], WL)
        homo = map_dataflow(AlgoType.PPO, PPO, ClusterSpec(n_machines=1, gpu=A100), WL)
        assert single.cost == homo.cost
        assert single.breakdown == homo.breakdown
        assert single.strategies == homo.strategies
        assert (single.placement, single.allocation) == (homo.placement, homo.allocation)
        assert single.zone_of_set == ["a100"] and homo.zone_of_set == [""]
        assert single.describe() == homo.describe().replace("@8]", "@8:a100]")

    def test_requires_actor_and_zones(self):
        with pytest.raises(ValueError, match="actor"):
            map_dataflow(AlgoType.PPO, {"critic": SPEC7}, [zone("z", 1, A100)], WL)
        with pytest.raises(ValueError, match="zone"):
            map_dataflow(AlgoType.PPO, PPO, [], WL)

    def test_duplicate_zone_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            map_dataflow(AlgoType.PPO, PPO, [zone("z", 1, A100), zone("z", 1, H800)], WL)



class TestHeterogeneousChoices:
    def setup_method(self):
        clear_cache()

    def test_actor_lands_on_the_fast_zone(self):
        """Generation + actor training dominate (§2.3), so the mapper should
        give the actor the faster devices."""
        zones = [zone("a100", 1, A100), zone("h800", 1, H800)]
        result = map_dataflow(AlgoType.PPO, PPO, zones, WL)
        assert result.zone_of("actor") == "h800"

    def test_mixed_cluster_beats_slow_zone_alone(self):
        slow_only = map_dataflow(AlgoType.PPO, PPO, [zone("a100", 2, A100)], WL)
        mixed = map_dataflow(
            AlgoType.PPO, PPO, [zone("a100", 1, A100), zone("h800", 1, H800)], WL
        )
        assert mixed.cost < slow_only.cost

    def test_allocation_respects_zone_capacity(self):
        """The sets a zone hosts split its GPUs exactly; a zone may stay empty."""
        zones = [zone("a100", 1, A100), zone("h800", 1, H800)]
        result = map_dataflow(AlgoType.PPO, PPO, zones, WL)
        used = dict.fromkeys((z.name for z in zones), 0)
        for index, zone_name in enumerate(result.zone_of_set):
            used[zone_name] += result.allocation[f"set{index}"]
        assert all(used[z.name] in (0, z.n_gpus) for z in zones)

    def test_describe_mentions_zones(self):
        zones = [zone("a100", 1, A100), zone("h800", 1, H800)]
        result = map_dataflow(AlgoType.PPO, PPO, zones, WL)
        assert all(f":{name}" in result.describe() for name in result.zone_of_set)

    def test_infeasible_everywhere_raises(self):
        big = {m: MODEL_SPECS["llama-70b"] for m in PPO}
        with pytest.raises(RuntimeError, match="no feasible"):
            map_dataflow(AlgoType.PPO, big, [zone("tiny", 1, A100)], WL)


GOLDEN = pathlib.Path(__file__).parent / "golden" / "mapping_results.json"
GRID_MODELS = ("llama-7b", "llama-13b", "llama-34b")
GRID_ALGOS = ("ppo", "remax", "safe-rlhf")
#: GPUs of an A100 cluster, or zones as ``repro map-hetero --zone`` spells them
GRID_CLUSTERS = (
    "8", "16", "32",
    "a100:A100-80GB:1,h100:H100-80GB:1",
    "a100:A100-80GB:1,a40:A100-40GB:1",
    "a100:A100-80GB:1,v100:V100-32GB:1",
    "a40:A100-40GB:1,h100:H100-80GB:1",
)
GRID = [f"{a}|{m}|{c}" for a in GRID_ALGOS for m in GRID_MODELS for c in GRID_CLUSTERS]
CLI_RUNS = (
    "map --model llama-7b --machines 1",
    "map --model llama-7b --machines 1 --algo remax",
    "map-hetero --model llama-7b",
)


def mapping_record(case):
    """What the golden pins of one grid case's search."""
    algo, model, cluster = case.split("|")
    algo = AlgoType(algo)
    if ":" in cluster:
        cluster = [
            zone(name, int(machines), GPU_SPECS[gpu])
            for name, gpu, machines in (z.split(":") for z in cluster.split(","))
        ]
    else:
        cluster = ClusterSpec(n_machines=int(cluster) // 8)
    specs = {role: MODEL_SPECS[model] for role in required_models(algo)}
    try:
        result = map_dataflow(algo, specs, cluster, WL)
    except RuntimeError as exc:
        assert "no feasible" in str(exc), exc
        return {"infeasible": True}
    return {
        "describe": result.describe(),
        "models": {
            m: {"parallel": str(c.parallel), "gen_tp": c.gen_tp, "gen_pp": c.gen_pp}
            for m, c in result.strategies.items()
        },
        "breakdown": dataclasses.asdict(result.breakdown),
    }


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    return out.getvalue()


def regen_golden() -> None:
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    clear_cache()
    doc["cases"] = {case: mapping_record(case) for case in GRID}
    doc["cli"] = {argv: cli_stdout(argv) for argv in CLI_RUNS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class TestGoldenMappings:
    """Algorithm 1 held fixed.  The cache is not cleared between cases: a
    warm strategy cache must not move any result."""

    golden = json.loads(GOLDEN.read_text())

    def test_the_golden_covers_the_grid(self):
        assert sorted(self.golden["cases"]) == sorted(GRID)
        assert sorted(self.golden["cli"]) == sorted(CLI_RUNS)
        assert set(self.golden["moved"]) <= set(GRID)

    @pytest.mark.parametrize("case", GRID)
    def test_search_matches_golden(self, case):
        assert mapping_record(case) == self.golden["cases"][case]

    @pytest.mark.parametrize("argv", CLI_RUNS)
    def test_cli_matches_golden(self, argv):
        assert cli_stdout(argv) == self.golden["cli"][argv]
