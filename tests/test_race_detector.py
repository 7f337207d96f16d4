"""RaceDetector: vector-clock happens-before analysis (RC5xx).

A clean functional run must produce zero findings (program order, lineage
deps, and controller barriers cover every recorded access); a seeded
unordered conflicting write pair must be flagged.
"""

import json
import pathlib

import pytest

from repro.analysis import RaceDetector
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, SystemSpec, build_rlhf_system
from repro.single_controller import (
    SingleController,
    Worker,
    WorkerGroup,
    register,
)
from repro.single_controller.access_log import AccessEvent
from repro.single_controller.protocols import (
    ProtocolRequires,
    TransferProtocol,
    register_protocol,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "chrome_trace.json"


class _Record:
    """Minimal ExecutionRecord stand-in for hand-built traces."""

    def __init__(self, seq, pool, deps=()):
        self.seq = seq
        self.pool = pool
        self.deps = tuple(deps)
        self.group = pool
        self.method = f"m{seq}"


def _tiny_system():
    cfg = TinyLMConfig(
        n_layers=2,
        hidden_size=32,
        n_heads=4,
        ffn_hidden_size=48,
        vocab_size=16,
        max_seq_len=32,
    )
    task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
    par = ParallelConfig(pp=1, tp=2, dp=1)
    plan = PlacementPlan(
        pools={"main": 2, "r": 1},
        assignments={
            "actor": ModelAssignment("main", par, GenParallelConfig.derive(par, 1, 1)),
            "critic": ModelAssignment("main", par),
            "reference": ModelAssignment("main", par),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        cfg,
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        reward_fn=task.reward,
        max_new_tokens=5,
        lr=5e-3,
        seed=7,
    )


class TestCleanRuns:
    def test_functional_ppo_run_has_no_races(self):
        system = _tiny_system()
        dataset = PromptDataset(32, 4, 16, seed=1)
        system.trainer.train(dataset, 2, 8)
        report = RaceDetector().detect_system(system)
        assert report.findings == [], "\n".join(report.summary_lines())
        # the pass saw real work: dispatches, merge buffers, device memory
        assert report.checked["calls"] > 0
        assert report.checked["merge_checks"] > 0
        assert report.checked["resources"] > 0
        assert report.checked["vc_comparisons"] > 0

    def test_run_records_merge_accesses_not_ledger_writes(self):
        system = _tiny_system()
        dataset = PromptDataset(32, 4, 16, seed=1)
        system.trainer.train(dataset, 1, 8)
        resources = {e.resource for e in system.controller.access_log.events}
        assert any(r.startswith("merge[") for r in resources)
        # a device ledger and a gradient sync are each written on one
        # vector-clock thread, so the log keeps no record of them
        assert not any(r.startswith(("mem[", "gradsync[")) for r in resources)

    @pytest.mark.parametrize("algo, most", [(AlgoType.PPO, 15), (AlgoType.GRPO, 11)])
    def test_an_iteration_retains_a_bounded_access_log(self, algo, most):
        # only the dispatches' output merges (a write per rank that returned
        # an output, then the collect's read): nothing per ledger operation,
        # which took the count to 29 and 22
        spec = SystemSpec(algo=algo)
        system = spec.build()
        dataset = spec.dataset()
        system.trainer.train(dataset, 1, 8)
        before = len(system.controller.access_log)
        system.trainer.train(dataset, 1, 8)
        assert len(system.controller.access_log) - before <= most

    def test_checkpoint_roundtrip_stays_clean(self, tmp_path):
        system = _tiny_system()
        dataset = PromptDataset(32, 4, 16, seed=1)
        system.trainer.train(dataset, 1, 8)
        ckpt = str(tmp_path / "ckpt")
        system.controller.save_checkpoint(ckpt)
        system.controller.load_checkpoint(ckpt)
        events = system.controller.access_log.events
        assert any(e.resource == f"checkpoint:{ckpt}" for e in events)
        report = RaceDetector().detect_system(system)
        assert report.findings == [], "\n".join(report.summary_lines())
        # checkpoint accesses run in controller context -> barrier nodes
        assert report.checked["barriers"] >= 1

    def test_golden_chrome_trace_has_no_races(self):
        doc = json.loads(GOLDEN.read_text())
        report = RaceDetector().detect_chrome_trace(doc)
        assert report.findings == [], "\n".join(report.summary_lines())
        assert report.checked["calls"] > 0


class TestSeededRaces:
    def test_cross_pool_unordered_writes_are_rc501(self):
        trace = [_Record(0, "a"), _Record(1, "b")]
        events = [
            AccessEvent("write", "shared", 0, seq=0, after_seq=0),
            AccessEvent("write", "shared", 1, seq=1, after_seq=1),
        ]
        report = RaceDetector().detect(trace, events)
        assert [f.rule for f in report.findings] == ["RC501"]
        assert "shared" in report.findings[0].location

    def test_lineage_dep_orders_the_writes(self):
        trace = [_Record(0, "a"), _Record(1, "b", deps=[0])]
        events = [
            AccessEvent("write", "shared", 0, seq=0, after_seq=0),
            AccessEvent("write", "shared", 1, seq=1, after_seq=1),
        ]
        report = RaceDetector().detect(trace, events)
        assert report.findings == []

    def test_controller_barrier_orders_the_writes(self):
        trace = [_Record(0, "a"), _Record(1, "b")]
        events = [
            AccessEvent("write", "shared", 0, seq=0, after_seq=0),
            AccessEvent("write", "shared", 1, seq=1, after_seq=1),
            # controller-context access between the dispatches joins both pools
            AccessEvent("read", "other", -1, seq=None, after_seq=1),
        ]
        report = RaceDetector().detect(trace, events)
        assert report.findings == []

    def test_reads_alone_do_not_race(self):
        trace = [_Record(0, "a"), _Record(1, "b")]
        events = [
            AccessEvent("read", "shared", 0, seq=0, after_seq=0),
            AccessEvent("read", "shared", 1, seq=1, after_seq=1),
        ]
        report = RaceDetector().detect(trace, events)
        assert report.findings == []

    def test_dangling_access_is_rc503(self):
        trace = [_Record(0, "a")]
        events = [AccessEvent("write", "x", 0, seq=99, after_seq=0)]
        report = RaceDetector().detect(trace, events)
        assert [f.rule for f in report.findings] == ["RC503"]

    def test_cross_controller_deps_are_skipped_silently(self):
        # lineage from another controller's trace: seq 40 does not exist here
        trace = [_Record(0, "a"), _Record(1, "a", deps=[40])]
        report = RaceDetector().detect(trace, ())
        assert report.findings == []
        assert report.checked["skipped_deps"] == 1


class _UnorderedWorker(Worker):
    @register(protocol="test_completion_order")
    def produce(self):
        return self.ctx.global_rank


class TestMergeHazard:
    @pytest.fixture(autouse=True)
    def _protocol(self):
        # a custom protocol collecting in completion order — the
        # merge_outputs hazard §4.1 warns user protocols about
        register_protocol(
            TransferProtocol(
                "test_completion_order",
                lambda group, args, kwargs: [(args, kwargs)] * group.world_size,
                lambda group, outputs: outputs,
                requires=ProtocolRequires(deterministic_collect=False),
            )
        )

    def test_nondeterministic_collect_is_rc502(self):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(2, name="main")
        group = WorkerGroup(
            _UnorderedWorker, pool, controller=controller, name="g"
        )
        group.produce()
        report = RaceDetector().detect_system(system=controller)
        assert [f.rule for f in report.findings] == ["RC502"]
        finding = report.findings[0]
        assert finding.location == "merge[g.produce]"
        assert "deterministic merge order" in finding.message

    def test_deterministic_protocols_stay_clean(self):
        controller = SingleController(ClusterSpec(n_machines=1))
        pool = controller.create_pool(2, name="main")

        class OrderedWorker(Worker):
            @register(protocol="one_to_all")
            def produce(self):
                return self.ctx.global_rank

        group = WorkerGroup(
            OrderedWorker, pool, controller=controller, name="g"
        )
        group.produce()
        report = RaceDetector().detect_system(system=controller)
        assert report.findings == []
        assert report.checked["merge_checks"] >= 1
