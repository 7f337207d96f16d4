"""ShardingVerifier: static proofs of the resharding geometry (SH4xx).

Clean topologies across the full parallelism grid must verify with zero
findings (the zero-redundancy proof of §5.3); each seeded break — a
partition gap, double-ownership, a dropped or duplicated gather tile, an
overlapping collective group, a bad ZeRO degree — must produce exactly one
finding of its rule.
"""

import dataclasses
from fractions import Fraction

import pytest

from repro.analysis import (
    ShardingVerifier,
    sweep_difference_fraction,
    sweep_overlap_fraction,
)
from repro.comm import ProcessGroup, partition_problems
from repro.config import GenParallelConfig, ParallelConfig
from repro.hybrid_engine import plan_transition
from repro.parallel.fsdp import FsdpConfig
from repro.parallel.sharding import (
    ShardRange,
    WeightShard,
    generation_shard,
    peak_param_fraction,
    redundant_fraction,
    shard_overlap_fraction,
    training_shard,
)
from repro.parallel.topology import (
    GenGroupingMode,
    GenTopology,
    ParallelTopology,
)
from repro.parallel.zero import ZeroConfig, ZeroStage

# same shape classes the end-to-end grid test runs (tests/test_parallelism_grid.py)
GRID = [
    (1, 1, 1, 1, 1),
    (1, 2, 1, 1, 1),
    (1, 2, 1, 1, 2),
    (1, 1, 2, 1, 1),
    (2, 1, 1, 1, 1),
    (2, 1, 1, 2, 1),
    (1, 2, 2, 1, 1),
    (1, 2, 2, 1, 2),
    (2, 2, 1, 1, 1),
    (2, 2, 1, 1, 2),
    (2, 2, 1, 2, 2),
    (1, 4, 1, 1, 2),
    (4, 1, 1, 2, 1),
]
MODES = [GenGroupingMode.HYBRIDFLOW, GenGroupingMode.VANILLA]


def make_gen(pp, tp, dp, gen_pp, gen_tp, mode):
    par = ParallelConfig(pp=pp, tp=tp, dp=dp)
    topo = ParallelTopology(par)
    return GenTopology(topo, GenParallelConfig.derive(par, gen_pp, gen_tp), mode)


class TestCleanGrid:
    @pytest.mark.parametrize("pp,tp,dp,gen_pp,gen_tp", GRID)
    @pytest.mark.parametrize("mode", MODES)
    def test_grid_topology_and_transition_prove_clean(
        self, pp, tp, dp, gen_pp, gen_tp, mode
    ):
        gen = make_gen(pp, tp, dp, gen_pp, gen_tp, mode)
        verifier = ShardingVerifier()
        report = verifier.verify_topology(gen.train)
        verifier.verify_transition(gen, report=report)
        assert report.findings == [], "\n".join(report.summary_lines())
        assert report.checked["replicas"] == dp
        assert report.checked["ranks"] == pp * tp * dp

    @pytest.mark.parametrize("pp,tp,dp,gen_pp,gen_tp", GRID)
    def test_hybridflow_plans_are_zero_redundancy(
        self, pp, tp, dp, gen_pp, gen_tp
    ):
        gen = make_gen(pp, tp, dp, gen_pp, gen_tp, GenGroupingMode.HYBRIDFLOW)
        for rank in gen.train.global_ranks:
            assert redundant_fraction(gen, rank) == 0
        report = ShardingVerifier().verify_transition(gen)
        assert report.findings == []

    @pytest.mark.parametrize("pp,tp,dp,gen_pp,gen_tp", GRID)
    @pytest.mark.parametrize("mode", MODES)
    def test_sweep_agrees_with_closed_forms(
        self, pp, tp, dp, gen_pp, gen_tp, mode
    ):
        # the property the verifier's cross-check rests on: the boundary-
        # refinement sweep and the closed-form §5.3 fractions agree exactly
        gen = make_gen(pp, tp, dp, gen_pp, gen_tp, mode)
        for rank in gen.train.global_ranks:
            train_sh = training_shard(gen.train, rank)
            gen_sh = generation_shard(gen, rank)
            overlap = sweep_overlap_fraction(train_sh, gen_sh)
            redundant = sweep_difference_fraction(train_sh, gen_sh)
            assert overlap == shard_overlap_fraction(gen, rank)
            assert redundant == redundant_fraction(gen, rank)
            assert gen_sh.fraction + redundant == peak_param_fraction(gen, rank)


class TestSeededBreaks:
    def _topo(self):
        return ParallelTopology(ParallelConfig(pp=2, tp=2, dp=2))

    def test_gap_is_exactly_one_sh401(self):
        topo = self._topo()
        shards = {r: training_shard(topo, r) for r in topo.global_ranks}
        # shrink rank 0's tensor range: its replica now has a coverage gap
        s = shards[0]
        shards[0] = WeightShard(
            s.layers, ShardRange(s.tensor.start, s.tensor.stop / 2)
        )
        report = ShardingVerifier().verify_topology(topo, shards=shards)
        assert [f.rule for f in report.findings] == ["SH401"]
        assert "gap fraction 1/8" in report.findings[0].message

    def test_double_ownership_is_exactly_one_sh401(self):
        topo = self._topo()
        shards = {r: training_shard(topo, r) for r in topo.global_ranks}
        # rank 0 claims rank 1's tensor half too: double ownership, no gap
        s = shards[0]
        shards[0] = WeightShard(s.layers, ShardRange(Fraction(0), Fraction(1)))
        report = ShardingVerifier().verify_topology(topo, shards=shards)
        assert [f.rule for f in report.findings] == ["SH401"]
        assert "double-owned fraction 1/4" in report.findings[0].message

    def test_dropped_tile_is_exactly_one_sh402(self):
        gen = make_gen(2, 2, 1, 1, 2, GenGroupingMode.HYBRIDFLOW)
        plan = plan_transition(gen)
        rp = plan.by_rank[0]
        broken = dataclasses.replace(rp, tiles=rp.tiles[1:])
        plan = dataclasses.replace(plan, by_rank={**plan.by_rank, 0: broken})
        report = ShardingVerifier().verify_transition(gen, plan=plan)
        assert [f.rule for f in report.findings] == ["SH402"]
        assert "uncovered gap" in report.findings[0].message

    def test_duplicated_tile_is_exactly_one_sh403(self):
        gen = make_gen(2, 2, 1, 1, 2, GenGroupingMode.HYBRIDFLOW)
        plan = plan_transition(gen)
        rp = plan.by_rank[0]
        broken = dataclasses.replace(rp, tiles=rp.tiles + rp.tiles[:1])
        plan = dataclasses.replace(plan, by_rank={**plan.by_rank, 0: broken})
        report = ShardingVerifier().verify_transition(gen, plan=plan)
        assert [f.rule for f in report.findings] == ["SH403"]
        assert "redundant fraction" in report.findings[0].message

    def test_foreign_tile_is_sh402_provenance(self):
        gen = make_gen(2, 2, 1, 1, 2, GenGroupingMode.HYBRIDFLOW)
        plan = plan_transition(gen)
        rp = plan.by_rank[0]
        # replace a tile's source with a rank that does not own it
        tile = dataclasses.replace(rp.tiles[0], source_rank=3)
        broken = dataclasses.replace(rp, tiles=(tile,) + rp.tiles[1:])
        plan = dataclasses.replace(plan, by_rank={**plan.by_rank, 0: broken})
        report = ShardingVerifier().verify_transition(gen, plan=plan)
        rules = [f.rule for f in report.findings]
        assert rules == ["SH402"]
        assert "outside that rank's training shard" in report.findings[0].message

    def test_wrong_target_is_exactly_one_sh402(self):
        gen = make_gen(2, 2, 1, 1, 2, GenGroupingMode.HYBRIDFLOW)
        plan = plan_transition(gen)
        # rank 0 is told to build rank 1's generation shard, out of rank 1's
        # own (consistent) cover: only the target assertion can catch it
        broken = dataclasses.replace(plan.by_rank[1], rank=0)
        plan = dataclasses.replace(plan, by_rank={**plan.by_rank, 0: broken})
        report = ShardingVerifier().verify_transition(gen, plan=plan)
        assert [f.rule for f in report.findings] == ["SH402"]
        assert "not the rank's generation shard" in report.findings[0].message

    def test_overlapping_groups_are_exactly_one_sh404(self):
        groups = [
            ProcessGroup([0, 1], name="g0"),
            ProcessGroup([1, 2], name="g1"),
        ]
        report = ShardingVerifier().verify_group_family(
            "tp", groups, universe=[0, 1, 2, 3]
        )
        assert [f.rule for f in report.findings] == ["SH404"]
        msg = report.findings[0].message
        assert "rank 1" in msg and "[3]" in msg

    def test_partition_problems_reports_each_kind(self):
        groups = [ProcessGroup([0, 9], name="g0")]
        problems = partition_problems(groups, universe=[0, 1])
        assert any("9" in p for p in problems)  # outside the universe
        assert any("1" in p for p in problems)  # missing

    def test_bad_zero_degree_is_exactly_one_sh405(self):
        report = ShardingVerifier().verify_zero(
            ZeroConfig(ZeroStage.PARAMETERS, dp=4), n_params=1000, world_size=8
        )
        assert [f.rule for f in report.findings] == ["SH405"]
        assert "world size" in report.findings[0].message

    def test_zero_over_capacity_is_sh405(self):
        report = ShardingVerifier().verify_zero(
            ZeroConfig(ZeroStage.DDP, dp=1),
            n_params=10**9,
            world_size=1,
            capacity_bytes=10**9,  # 16 GB of state cannot fit 1 GB
        )
        assert [f.rule for f in report.findings] == ["SH405"]
        assert "capacity" in report.findings[0].message

    def test_clean_zero_and_fsdp_verify(self):
        verifier = ShardingVerifier()
        report = verifier.verify_zero(
            ZeroConfig(ZeroStage.PARAMETERS, dp=8),
            n_params=10**9,
            world_size=8,
            capacity_bytes=80 * 10**9,
        )
        verifier.verify_zero(
            FsdpConfig(dp=8, strategy="full").as_zero(),
            10**9,
            8,
            capacity_bytes=80 * 10**9,
            report=report,
        )
        assert report.findings == [], "\n".join(report.summary_lines())
        assert report.checked["zero_configs"] == 2
