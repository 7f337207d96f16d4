"""SF7xx symbolic shape/dtype flow: clean shipped graphs, one-mutant-per-rule
witnesses, protocol transfer functions vs real dispatches, and the runtime
shape recorder cross-validated against the static inference."""

import numpy as np
import pytest

from repro.analysis import (
    SF_MUTATIONS,
    SF_RULES,
    ContractError,
    DataflowChecker,
    Dim,
    ProbeGroup,
    ShapeFlowChecker,
    ShapeRecorder,
    parse_contract,
    predict_protocol_shapes,
    predict_system_outputs,
    shape_cross_validate,
    shape_seeded_mutants,
    shipped_graph_reports,
)
from repro.config import GenParallelConfig, ParallelConfig
from repro.data.batch import DataBatch
from repro.data.dataset import PromptDataset
from repro.models.tinylm import TinyLMConfig
from repro.rlhf.core import AlgoType
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system
from repro.single_controller.decorator import (
    registered_shape_contract,
    shape_contract,
)
from repro.single_controller.protocols import TRANSFER_PROTOCOLS, get_protocol

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
# Dim algebra
# ---------------------------------------------------------------------------


class TestDim:
    def test_constants_fold(self):
        assert (Dim.const(2) + Dim.const(3)).const_value() == 5
        assert (Dim.const(2) * 3).const_value() == 6
        assert Dim.const(0).render() == "0"

    def test_symbolic_algebra(self):
        B = Dim.sym("B")
        assert (B + 2).render() == "2+B"
        assert (B * 4).over(2) == B * 2
        assert (B * Dim.sym("G")).render() == "B*G"

    def test_subst_and_const_value(self):
        B = Dim.sym("B")
        assert (B * 4 + 1).subst({"B": 3}) == 13
        assert (B * 4).subst({}) is None
        assert B.const_value() is None
        # a half-row chunk is not an integer under odd B
        assert Dim.const(7).over(2).const_value() is None

    def test_divisibility_is_tristate(self):
        B = Dim.sym("B")
        assert Dim.const(8).divisible_by(2) is True
        assert Dim.const(7).divisible_by(2) is False
        assert B.divisible_by(2) is None  # deferred, not refuted
        assert (B * 4).divisible_by(2) is True

    def test_immutable_and_hashable(self):
        B = Dim.sym("B")
        with pytest.raises(AttributeError):
            B.terms = ()
        assert hash(B + 1) == hash(Dim.const(1) + B)


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
# protocol transfer functions vs real split/collect
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


def _probe(name):
    par, gen_spec = PROTOCOL_TOPOLOGIES[name]
    gen = (
        GenParallelConfig.derive(par, *gen_spec)
        if gen_spec is not None
        else None
    )
    return par, gen, ProbeGroup(par, gen)


def _payload(batch):
    return DataBatch(
        {
            "x": np.arange(batch * 3, dtype=np.float64).reshape(batch, 3),
            "t": np.arange(batch, dtype=np.int64),
        },
        meta={"prompt_length": 2},
    )


class TestProtocolTransferFunctions:
    def test_every_shipped_protocol_has_a_topology(self):
        # other test modules may register scratch protocols; only require
        # that every shipped protocol is covered here
        assert PROTOCOL_TOPOLOGIES.keys() <= TRANSFER_PROTOCOLS.keys()
        assert len(PROTOCOL_TOPOLOGIES) == 8

    @pytest.mark.parametrize("name", sorted(PROTOCOL_TOPOLOGIES))
    def test_prediction_matches_real_dispatch(self, name):
        par, gen, group = _probe(name)
        proto = get_protocol(name)
        rng = np.random.default_rng(11)
        for _ in range(4):
            degree = proto.requires.split_degree(par, gen) or 1
            batch = degree * int(rng.integers(1, 5))
            pred = predict_protocol_shapes(
                name, par, gen_config=gen, batch_size=batch
            )
            if name == "all_to_all":
                arg = [_payload(batch) for _ in range(group.world_size)]
            else:
                arg = _payload(batch)
            calls = proto.distribute(group, (arg,), {})
            outputs = [args[0] for args, _kwargs in calls]
            collected = proto.collect(group, outputs)

            if pred["per_rank_rows"] is not None:
                assert all(
                    o.batch_size == pred["per_rank_rows"] for o in outputs
                )
            if pred["collect"] == "merge":
                assert isinstance(collected, DataBatch)
                assert collected.batch_size == pred["collected_rows"]
                # the central invariant: collect restores the full batch,
                # in order — symbolic shapes are protocol-invariant
                np.testing.assert_array_equal(
                    collected["x"], _payload(batch)["x"]
                )
                assert collected["t"].dtype == np.int64
            elif pred["collect"] == "list":
                assert isinstance(collected, list)
                assert len(collected) == pred["n_collected"]
            else:  # single
                assert isinstance(collected, DataBatch)
                assert collected.batch_size == pred["collected_rows"]

    def test_indivisible_batch_is_predicted_none(self):
        par, gen, _group = _probe("dp_proto")
        pred = predict_protocol_shapes("dp_proto", par, batch_size=7)
        assert pred["degree"] == 4
        assert pred["per_rank_rows"] is None


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
