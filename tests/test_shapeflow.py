"""SF7xx shape/dtype flow, checked by running each trainer's step through a
plan's real transfer protocols: clean shipped graphs, one-mutant-per-rule
witnesses, findings pinned against a golden, the minibatch split, a custom
protocol, the serving reassembly, and the runtime shape recorder
cross-validated against the probe's."""

import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.analysis import (
    SF_MUTATIONS,
    SF_RULES,
    ContractError,
    DataflowChecker,
    ShapeFlowChecker,
    ShapeRecorder,
    parse_contract,
    predict_system_outputs,
    shape_cross_validate,
    shape_seeded_mutants,
    shipped_graph_reports,
)
from repro.analysis import shapeflow
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data.batch import DataBatch, IndivisibleBatchError
from repro.data.dataset import PromptDataset, SyntheticPreferenceTask
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.graph import StandInGroup
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, SystemSpec, build_rlhf_system
from repro.single_controller import SingleController, Worker, WorkerGroup
from repro.single_controller.decorator import (
    register,
    registered_shape_contract,
    shape_contract,
)
from repro.single_controller.protocols import (
    TRANSFER_PROTOCOLS,
    ProtocolRequires,
    TransferProtocol,
    get_protocol,
    register_protocol,
)
from repro.workers import WORKER_CLASSES, ActorWorker
from repro.workers.actor import reassemble_responses

GOLDEN = pathlib.Path(__file__).parent / "golden" / "shapeflow_findings.json"

LM_CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)


def tiny_plan():
    par = ParallelConfig(pp=1, tp=2, dp=1)
    return PlacementPlan(
        pools={"main": 2, "r": 1},
        assignments={
            "actor": ModelAssignment(
                "main", par, GenParallelConfig.derive(par, 1, 1)
            ),
            "critic": ModelAssignment("main", par),
            "reference": ModelAssignment("main", par),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )


def build_tiny_system(**kwargs):
    par = ParallelConfig(pp=1, tp=2, dp=1)
    gen = GenParallelConfig.derive(par, 1, 1)
    plan = PlacementPlan(
        pools={"main": 2},
        assignments={
            m: ModelAssignment("main", par, gen if m == "actor" else None)
            for m in ("actor", "critic", "reference", "reward")
        },
    )
    return build_rlhf_system(
        AlgoType.PPO, plan, LM_CFG, max_new_tokens=8, lr=5e-3, **kwargs
    )


# ---------------------------------------------------------------------------
# contract parsing + decorator round-trip
# ---------------------------------------------------------------------------


class TestContracts:
    def test_parse_roundtrip(self):
        c = parse_contract(
            {
                "inputs": {"sequences": "B,L:int64"},
                "outputs": {"?response_mask": "B,R"},
                "returns": "batch",
            }
        )
        assert c.inputs[0].dtype == "int64"
        assert c.outputs[0].optional and c.outputs[0].dtype == "float64"

    def test_unknown_dtype_is_contract_error(self):
        with pytest.raises(ContractError):
            parse_contract({"inputs": {"x": "B:float16"}})

    def test_unknown_symbol_is_contract_error(self):
        with pytest.raises(ContractError):
            parse_contract({"inputs": {"x": "B,Q"}})

    def test_metrics_method_declares_no_outputs(self):
        with pytest.raises(ContractError):
            parse_contract({"outputs": {"x": "B"}, "returns": "metrics"})

    def test_decorator_attribute_survives_register(self):
        from repro.workers.actor import ActorWorker

        raw = registered_shape_contract(ActorWorker.generate_sequences)
        assert raw is not None
        contract = parse_contract(raw)
        names = [spec.name for spec in contract.outputs]
        assert "sequences" in names and "old_log_probs" in names

    def test_decorator_standalone(self):
        @shape_contract(inputs={"tokens": "B,T:int64"}, returns="metrics")
        def method(self, batch):
            return {}

        assert registered_shape_contract(method)["returns"] == "metrics"

    def test_all_shipped_contracts_parse(self):
        from repro.analysis import registered_methods
        from repro.workers import WORKER_CLASSES

        seen = 0
        for cls in set(WORKER_CLASSES.values()):
            for method_name, _proto in registered_methods(cls):
                raw = registered_shape_contract(getattr(cls, method_name))
                assert raw is not None, f"{cls.__name__}.{method_name}"
                parse_contract(raw)
                seen += 1
        assert seen >= 10


# ---------------------------------------------------------------------------
# the probe's stand-in groups vs real worker groups
# ---------------------------------------------------------------------------

# one topology per protocol satisfying its ProtocolRequires
PROTOCOL_TOPOLOGIES = {
    "one_to_all": (ParallelConfig(pp=1, tp=2, dp=2), None),
    "one_to_one": (ParallelConfig(pp=1, tp=1, dp=1), None),
    "3d_proto": (ParallelConfig(pp=1, tp=2, dp=2), None),
    "3d_all_micro_dp": (ParallelConfig(pp=1, tp=2, dp=2), (1, 1)),
    "3d_pp_only": (ParallelConfig(pp=2, tp=2, dp=1), None),
    "pp_as_dp": (ParallelConfig(pp=2, tp=1, dp=2), None),
    "dp_proto": (ParallelConfig(pp=1, tp=1, dp=4), None),
    "all_to_all": (ParallelConfig(pp=1, tp=2, dp=2), None),
}


class _Idle(Worker):
    """A worker with nothing to run: only its group's geometry matters."""


def _groups(name):
    """The probe's stand-in and a real WorkerGroup over one topology."""
    par, gen_spec = PROTOCOL_TOPOLOGIES[name]
    gen = GenParallelConfig.derive(par, *gen_spec) if gen_spec else None
    controller = SingleController(ClusterSpec(n_machines=1))
    real = WorkerGroup(
        _Idle, controller.create_pool(par.world_size), parallel_config=par,
        gen_config=gen, controller=controller, name="real",
    )
    return par, gen, StandInGroup(None, "probe", _Idle, par, gen), real


def _payload(batch):
    return DataBatch(
        {
            "x": np.arange(batch * 3, dtype=np.float64).reshape(batch, 3),
            "t": np.arange(batch, dtype=np.int64),
        },
        meta={"prompt_length": 2},
    )


def _same(a, b):
    if isinstance(a, DataBatch):
        return isinstance(b, DataBatch) and all(
            np.array_equal(a[k], b[k]) for k in a.keys()
        ) and set(a.keys()) == set(b.keys())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


class TestProtocolTransferFunctions:
    """The SF pass dispatches through :class:`StandInGroup`: a protocol must
    hand its ranks, and collect from them, exactly what it would over the
    real group of the same geometry."""

    def test_every_shipped_protocol_has_a_topology(self):
        # other test modules may register scratch protocols; only require
        # that every shipped protocol is covered here
        assert PROTOCOL_TOPOLOGIES.keys() <= TRANSFER_PROTOCOLS.keys()
        assert len(PROTOCOL_TOPOLOGIES) == 8

    @pytest.mark.parametrize("name", sorted(PROTOCOL_TOPOLOGIES))
    def test_prediction_matches_real_dispatch(self, name):
        par, gen, stand_in, real = _groups(name)
        proto = get_protocol(name)
        rng = np.random.default_rng(11)
        for _ in range(4):
            degree = proto.requires.split_degree(par, gen) or 1
            batch = degree * int(rng.integers(1, 5))
            if name == "all_to_all":
                arg = [_payload(batch) for _ in range(real.world_size)]
            else:
                arg = _payload(batch)
            seen = [proto.distribute(g, (arg,), {}) for g in (stand_in, real)]
            assert _same([c[0] for c in seen[0]], [c[0] for c in seen[1]])
            outputs = [args[0] for args, _kwargs in seen[0]]
            assert _same(
                proto.collect(stand_in, outputs), proto.collect(real, outputs)
            )

    def test_indivisible_batch_is_predicted_none(self):
        # no per-rank rows exist: the real protocol refuses the split, and
        # that refusal is what SF703 reports
        _par, _gen, stand_in, _real = _groups("dp_proto")
        with pytest.raises(IndivisibleBatchError) as refused:
            get_protocol("dp_proto").distribute(stand_in, (_payload(7),), {})
        assert (refused.value.size, refused.value.n_chunks) == (7, 4)


# ---------------------------------------------------------------------------
# shipped graphs + seeded mutants
# ---------------------------------------------------------------------------


class TestShippedGraphs:
    def test_all_shipped_graphs_are_clean(self):
        reports = shipped_graph_reports()
        names = [name for name, _ in reports]
        assert names == [
            "shapeflow[tiny-ppo]",
            "shapeflow[grpo]",
            "shapeflow[remax]",
            "shapeflow[safe-rlhf]",
            "shapeflow[serving-ppo]",
            "shapeflow[async-pipeline]",
        ]
        for name, report in reports:
            assert report.findings == [], f"{name}: {report.findings}"
            assert sum(report.checked.values()) > 0, name

    def test_each_mutant_witnesses_exactly_its_rule(self):
        mutants = shape_seeded_mutants()
        assert sorted(SF_MUTATIONS.values()) == sorted(
            rule for _checker, rule in mutants
        )
        assert set(SF_MUTATIONS.values()) == set(SF_RULES)
        for checker, expected in mutants:
            report = checker.check_shipped()
            rules = set(f.rule for f in report.findings)
            assert rules == {expected}, (
                f"mutant {checker.mutate!r} produced {sorted(rules)}, "
                f"expected exactly {{{expected}}}"
            )


# ---------------------------------------------------------------------------
# crafted misconfigurations
# ---------------------------------------------------------------------------


class TestCraftedMisconfigurations:
    def test_indivisible_batch_is_sf703(self):
        report = ShapeFlowChecker(global_batch_size=7).check_plan(
            AlgoType.PPO,
            tiny_plan(),
            function_rewards=("reward",),
            prompt_length=4,
            max_new_tokens=6,
            max_seq_len=32,
        )
        assert {f.rule for f in report.findings} == {"SF703"}

    def test_context_overflow_is_sf705(self):
        report = ShapeFlowChecker(global_batch_size=8).check_plan(
            AlgoType.PPO,
            tiny_plan(),
            function_rewards=("reward",),
            prompt_length=20,
            max_new_tokens=20,
            max_seq_len=32,
        )
        assert {f.rule for f in report.findings} == {"SF705"}

    def test_symbolic_batch_defers_divisibility(self):
        report = ShapeFlowChecker().check_plan(
            AlgoType.PPO,
            tiny_plan(),
            function_rewards=("reward",),
            prompt_length=4,
            max_new_tokens=6,
            max_seq_len=32,
        )
        assert report.findings == []
        assert report.checked.get("deferred_batch_splits", 0) > 0


# ---------------------------------------------------------------------------
# DF102 deferral for serving-backed actors (dataflow satellite)
# ---------------------------------------------------------------------------


class TestServingDeferral:
    def test_serving_actor_defers_df102_to_sf703(self):
        system = build_tiny_system(use_serving=True)
        report = DataflowChecker(global_batch_size=7).check_system(system)
        assert report.by_rule("DF102") == []
        assert report.checked.get("deferred_batch_splits", 0) > 0
        # the symbolic pass picks the divisibility violation up instead,
        # with the serving-specific pad-up hint
        sf = ShapeFlowChecker(global_batch_size=7).check_system(system)
        sf703 = sf.by_rule("SF703")
        assert sf703, [f.rule for f in sf.findings]
        assert any("pad" in f.hint for f in sf703)

    def test_plain_actor_still_gets_df102(self):
        system = build_tiny_system(use_serving=False)
        report = DataflowChecker(global_batch_size=7).check_system(system)
        assert [f.rule for f in report.by_rule("DF102")] == ["DF102"]


# ---------------------------------------------------------------------------
# runtime recorder cross-validation
# ---------------------------------------------------------------------------


class TestRuntimeCrossValidation:
    def test_real_run_matches_static_inference(self):
        system = build_tiny_system()
        recorder = ShapeRecorder()
        system.controller.shape_recorder = recorder
        dataset = PromptDataset(
            n_prompts=16, prompt_length=4, vocab_size=16, seed=1
        )
        system.trainer.train(dataset, 2, 8)
        predictions = predict_system_outputs(
            system, batch_size=8, prompt_length=4
        )
        assert predictions, "static inference produced no predictions"
        report = shape_cross_validate(recorder, predictions)
        assert report.findings == [], [f.message for f in report.findings]
        assert report.checked["recorded_samples"] > 0

    def test_recorder_skips_metrics_results(self):
        recorder = ShapeRecorder()
        recorder.record("actor", "update_actor", {"loss": 0.5})
        assert recorder.skipped == 1
        assert recorder.samples == {}

    def test_cross_validate_flags_shape_drift(self):
        recorder = ShapeRecorder()
        recorder.record(
            "actor",
            "generate_sequences",
            DataBatch(
                {"sequences": np.zeros((8, 9), dtype=np.int64)},
                meta={"prompt_length": 4},
            ),
        )
        predictions = {
            ("actor", "generate_sequences"): {"sequences": ((8, 12), "int64")}
        }
        report = shape_cross_validate(recorder, predictions)
        assert {f.rule for f in report.findings} == {"SF701"}

    def test_cross_validate_flags_dtype_family_drift(self):
        recorder = ShapeRecorder()
        recorder.record(
            "critic",
            "compute_values",
            DataBatch(
                {"values": np.zeros((4, 6), dtype=np.float64)},
                meta={"prompt_length": 4},
            ),
        )
        predictions = {
            ("critic", "compute_values"): {"values": ((4, 6), "int64")}
        }
        report = shape_cross_validate(recorder, predictions)
        assert {f.rule for f in report.findings} == {"SF704"}


# ---------------------------------------------------------------------------
# findings pinned against the golden
# ---------------------------------------------------------------------------


def _rows(report):
    return [[f.rule, f.severity, f.location, f.message, f.hint] for f in report.findings]


def grid_cases():
    """The PR 21 grid: algorithm x both shipped placements x batch x eos x
    serving x updates_per_epoch x recompute_log_probs."""
    for algo, split, batch, eos, serving, updates, recompute in itertools.product(
        AlgoType, (False, True), (None, 7, 8), (False, True), (False, True),
        (1, 2, 3), (False, True),
    ):
        key = (
            f"{algo.value}|{'split' if split else 'colocated'}|b={batch}|eos={eos}"
            f"|serving={serving}|u={updates}|rec={recompute}"
        )
        spec = SystemSpec(algo=algo, disaggregated=split)
        kwargs = dict(
            batch_size=batch,
            prompt_length=spec.prompt_length,
            max_new_tokens=spec.max_new_tokens,
            max_seq_len=spec.model_config.max_seq_len,
            eos_token_id=3 if eos else None,
            use_serving=serving,
            trainer_config=TrainerConfig(
                updates_per_epoch=updates, recompute_log_probs=recompute
            ),
        )
        yield key, algo, spec, kwargs


class TestFindingsMatchTheGolden:
    """(rule, severity, location, message, hint), byte for byte, on the
    shipped graphs under every mutant and on the grid's broken plans."""

    golden = json.loads(GOLDEN.read_text())

    def test_shipped_graphs_under_every_mutant(self):
        for mutate in [None, *sorted(SF_MUTATIONS)]:
            got = {name: _rows(r) for name, r in shipped_graph_reports(mutate=mutate)}
            assert got == self.golden["shipped"][mutate or "faithful"], mutate

    def test_grid(self):
        checker = ShapeFlowChecker()
        seen = set()
        for key, algo, spec, kwargs in grid_cases():
            report = checker.check_plan(algo, spec.plan, spec.function_rewards, **kwargs)
            assert _rows(report) == self.golden["grid"].get(key, []), key
            seen.add(key)
        assert len(seen) == 576 and set(self.golden["grid"]) <= seen


    @pytest.mark.parametrize(
        "prompt_length, max_new_tokens, flow, want",
        [(None, 6, "(B, 6+P)", "(B, 6)"), (4, None, "(B, 4+R)", "(B, R)"),
         (None, None, "(B, P+R)", "(B, R)")],
    )
    def test_unbound_sizes_are_named_back(self, prompt_length, max_new_tokens, flow, want):
        spec = SystemSpec()
        report = ShapeFlowChecker(mutate="widen_values").check_plan(
            AlgoType.PPO, spec.plan, spec.function_rewards,
            prompt_length=prompt_length, max_new_tokens=max_new_tokens,
        )
        assert [f.message for f in report.findings] == [
            f"critic.update_critic input 'values': flow has {flow}, contract wants {want}"
        ]


# ---------------------------------------------------------------------------
# the minibatch split: SF703 at the update calls learn() dispatches
# ---------------------------------------------------------------------------


class TestMinibatchSplit:
    SPEC = SystemSpec(tp=1, dp=4)
    CONFIG = TrainerConfig(updates_per_epoch=4)

    def test_each_update_call_reports_sf703_once(self):
        report = ShapeFlowChecker(global_batch_size=8).check_plan(
            AlgoType.PPO, self.SPEC.plan, function_rewards=("reward",),
            trainer_config=self.CONFIG,
        )
        assert [(f.rule, f.location, f.message) for f in report.findings] == [
            ("SF703", f"{role}.{method}@main",
             "batch dim 2 is not divisible by the 3d_proto split degree 4")
            for role, method in (("critic", "update_critic"), ("actor", "update_actor"))
        ]

    def test_the_real_step_raises_the_same_error(self):
        task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
        system = build_rlhf_system(
            AlgoType.PPO, self.SPEC.plan, LM_CFG, trainer_config=self.CONFIG,
            reward_fn=task.reward, max_new_tokens=4,
        )
        prompts = PromptDataset(n_prompts=8, prompt_length=4, vocab_size=16, seed=1)
        with pytest.raises(ValueError, match="batch size 2 not divisible into 4 chunks"):
            system.trainer.step(prompts.batch(0, 8))


# ---------------------------------------------------------------------------
# a user's transfer protocol is checked by running it
# ---------------------------------------------------------------------------


def _split_by_dp(group, args, kwargs):
    (batch,) = args
    chunks = batch.chunk(group.train_topology.config.dp)
    return [((chunks[group.coords(i).d],), dict(kwargs)) for i in range(group.world_size)]


class TestCustomProtocol:
    NAME = "split_by_dp_rank"

    def check(self, monkeypatch, collect):
        """SF over a dp=2 PPO plan whose actor generates under a protocol
        registered here — split by DP rank, collected by ``collect`` — with
        no edit to the checker."""
        monkeypatch.setitem(TRANSFER_PROTOCOLS, self.NAME, None)  # undone after
        register_protocol(TransferProtocol(
            self.NAME, _split_by_dp, collect,
            requires=ProtocolRequires(splits_batch_by="dp"),
        ))

        class SplitGenActor(ActorWorker):
            @register(protocol=self.NAME)
            @shape_contract(**registered_shape_contract(ActorWorker.generate_sequences))
            def generate_sequences(self, batch, **kwargs):
                return super().generate_sequences(batch, **kwargs)

        monkeypatch.setitem(WORKER_CLASSES, "actor", SplitGenActor)
        return ShapeFlowChecker(global_batch_size=8).check_plan(
            AlgoType.PPO, SystemSpec(tp=1, dp=2).plan, function_rewards=("reward",),
            max_new_tokens=6,
        )

    def test_dropped_rows_are_sf701_at_the_next_consumer(self, monkeypatch):
        report = self.check(monkeypatch, lambda group, outputs: outputs[0])
        first = report.findings[0]
        assert (first.rule, first.location) == ("SF701", "critic.compute_values@main")
        assert first.message == (
            "critic.compute_values input 'sequences': flow has (4, 10), "
            "contract wants (8, 10)"
        )
        assert {f.rule for f in report.findings} == {"SF701"}

    def test_a_restoring_collect_is_clean(self, monkeypatch):
        report = self.check(monkeypatch, lambda group, outputs: DataBatch.concat(outputs))
        assert report.findings == []
        assert report.checked["batch_splits"] > 0


# ---------------------------------------------------------------------------
# the serving checks run the worker's own reassembly
# ---------------------------------------------------------------------------


class _Done:
    def __init__(self, row, n):
        self.request_id, self.response = row, np.full(n, 5, dtype=np.int64)
        self.log_probs = -np.ones(n)


class TestServingReassembly:
    def test_ragged_completions_reassemble_to_fixed_width(self):
        prompts = np.ones((3, 2), dtype=np.int64)
        seqs, logp, mask = reassemble_responses(
            prompts, [_Done(0, 3), _Done(2, 1)], 4, 9, masked=True
        )
        assert seqs.dtype == np.int64 and seqs.shape == (3, 6)
        np.testing.assert_array_equal(seqs[0], [1, 1, 5, 5, 5, 9])
        np.testing.assert_array_equal(seqs[1], [1, 1, 9, 9, 9, 9])
        np.testing.assert_array_equal(mask.sum(axis=1), [3, 0, 1])
        assert logp[2, 0] == -1.0
        assert reassemble_responses(prompts, [], 4, None, masked=False)[2] is None

    def test_a_wider_reassembly_is_sf705(self, monkeypatch):
        def wider(prompts, done, max_new_tokens, pad, masked):
            return reassemble_responses(prompts, done, max_new_tokens + 1, pad, masked)

        monkeypatch.setattr(shapeflow, "reassemble_responses", wider)
        report = ShapeFlowChecker(global_batch_size=8).check_plan(
            AlgoType.PPO, tiny_plan(), function_rewards=("reward",),
            max_new_tokens=6, use_serving=True,
        )
        assert [(f.rule, f.location, f.message) for f in report.findings] == [(
            "SF705", "actor._serve_generate@main",
            "serving reassembles to fixed width 11 but the contract says "
            "sequences are (8, 10)",
        )]
