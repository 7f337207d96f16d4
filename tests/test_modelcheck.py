"""MC6xx bounded model checker: exploration, reduction, the shipped suite of
harnesses over the real components, their conformance to real runs, the
golden of the findings, and the seeded mutation smoke of both the MC6xx and
the SF7xx families.

The checker (:mod:`repro.analysis.modelcheck`) explores every small-scope
schedule of the real pipeline, server and fleet scheduler, each driven by a
harness in :mod:`repro.analysis.protocols`.  Four properties keep the
arrangement honest and are each tested here:

* the moves of a real pipeline job and of a real ``drain`` are each a
  clean harness schedule that ends in the state the real run ends in;
* the intact shipped suite explores a five-figure state count with zero
  counterexamples (the CI gate), and its terminal schedules re-run clean;
* each seeded mutant — one real function replaced — yields exactly its
  expected MC or SF rule while the same run intact is clean, and an MC
  mutant's minimised counterexample re-runs into its rule under
  ``Harness.run_schedule``;
* ``tests/golden/mc_findings.json`` holds what the restatement models the
  harnesses replaced found; every rule they witnessed is witnessed again,
  and what moved is named with its cause.

Regenerate the golden's ``"now"`` entries with
``PYTHONPATH=src python tests/test_modelcheck.py`` and keep the causes.
"""

import json
import pathlib
import random
import types

import numpy as np
import pytest

from repro.analysis import SF_RULES, Mutant, seeded_mutants, witness_reports
from repro.analysis.modelcheck import (
    MC_RULES,
    Counterexample,
    ModelChecker,
    shipped_models,
)
from repro.analysis.protocols import Action, independent
from repro.analysis.protocols import fleet_harness, pipeline_harness, serving_harness
from repro.analysis.protocols.pipeline_harness import PipelineHarness
from repro.analysis.protocols.serving_harness import ServingHarness
from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig
from repro.data import PromptDataset
from repro.models.tinylm import TinyLMConfig
from repro.pipeline import AsyncPipelineDriver, PipelineConfig
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import RlhfTrainerBase, TrainerConfig
from repro.runtime import ModelAssignment, PlacementPlan, build_rlhf_system

GOLDEN = pathlib.Path(__file__).parent / "golden" / "mc_findings.json"

#: Every seeded witness (harness or Mutant) with its rule.
SEEDED = seeded_mutants()
#: The MC6xx ones: harnesses exploring a component with one function replaced.
MC_SEEDED = [(model, rule) for model, rule in SEEDED if rule in MC_RULES]

#: Rules a schedule's last state cannot witness: a stuck state (nothing is
#: enabled) and a livelock (a cycle of states) are properties of the search.
NOT_A_STATE = ("MC601", "MC602")


def rules_of(result):
    return [ce.rule for ce in result.counterexamples]


def terminal_schedule(model, rng=None):
    """Drive the harness to its end: the first move each time, or random."""
    state = model.initial_state()
    schedule = []
    while True:
        actions = model.enabled(state)
        if not actions:
            return schedule, state
        action = actions[0] if rng is None else rng.choice(actions)
        schedule.append(action.name)
        state = model.apply(state, action)
        assert len(schedule) < 1000, f"run of {model.name} diverged"


# ---------------------------------------------------------------------------
# Action independence (the partial-order reduction's soundness input)
# ---------------------------------------------------------------------------


class TestIndependence:
    def test_same_thread_never_independent(self):
        a = Action(name="x", thread="t", reads=("p",))
        b = Action(name="y", thread="t", reads=("q",))
        assert not independent(a, b)

    def test_disjoint_footprints_commute(self):
        a = Action(name="x", thread="t1", writes=("p",))
        b = Action(name="y", thread="t2", writes=("q",))
        assert independent(a, b)

    def test_write_read_conflict(self):
        a = Action(name="x", thread="t1", writes=("p",))
        b = Action(name="y", thread="t2", reads=("p",))
        assert not independent(a, b)

    def test_control_state_counts_as_footprint(self):
        a = Action(name="x", thread="t1", ctrl_writes=("ptr",))
        b = Action(name="y", thread="t2", ctrl_reads=("ptr",))
        assert not independent(a, b)

    def test_release_sync_ordering_is_a_dependency(self):
        a = Action(name="x", thread="t1", releases=("tok",))
        b = Action(name="y", thread="t2", syncs=("tok",))
        assert not independent(a, b)

    def test_steps_of_jobs_on_disjoint_gangs_commute(self):
        # footprints are what the real calls did: two tenants stepping on
        # their own devices touch nothing in common
        model = fleet_harness.FleetHarness(
            (fleet_harness.job("a", 1, (1, 1), 2), fleet_harness.job("b", 1, (1, 1), 2)),
            gpus=4,
        )
        root = model.initial_state()
        state = model.apply(root, model.action_named(root, "admit"))
        steps = [a for a in model.enabled(state) if a.name.startswith("step")]
        assert [a.name for a in steps] == ["step[a]", "step[b]"]
        assert independent(*steps)


# ---------------------------------------------------------------------------
# Checker mechanics
# ---------------------------------------------------------------------------


class TestCheckerCore:
    def test_intact_pipeline_is_clean(self):
        result = ModelChecker().check_model(PipelineHarness(n_iterations=4, window=1))
        assert result.ok
        assert not result.truncated
        assert result.states > 10
        assert result.transitions >= result.states - 1

    def test_reduction_finds_the_same_rules_cheaper(self):
        reduced = ModelChecker(reduce=True).check_model(fleet_harness.mutants()["MC608"])
        full = ModelChecker(reduce=False).check_model(fleet_harness.mutants()["MC608"])
        assert rules_of(reduced) == rules_of(full) == ["MC608"]
        assert reduced.transitions <= full.transitions

    def test_reduction_keeps_intact_models_clean(self):
        for model in (
            PipelineHarness(n_iterations=4, window=1),
            ServingHarness((((2,), 0), ((2,), 0), ((1,), 1)), slots=2, blocks=4),
        ):
            assert ModelChecker(reduce=False).check_model(model).ok

    def test_shrunk_counterexample_is_shorter_and_still_fails(self):
        make = lambda: pipeline_harness.mutants()["MC603"]  # noqa: E731
        raw = ModelChecker(shrink=False).check_model(make())
        shrunk = ModelChecker(shrink=True).check_model(make())
        (raw_ce,) = raw.counterexamples
        (ce,) = shrunk.counterexamples
        assert len(ce.schedule) <= len(raw_ce.schedule)
        final = make().run_schedule(list(ce.schedule))
        assert "MC603" in [rule for rule, _ in final.viol]
        # minimality in the prefix sense: no strict prefix already fails
        for cut in range(len(ce.schedule)):
            prefix = make().run_schedule(list(ce.schedule[:cut]))
            assert prefix.viol == ()

    def test_state_budget_sets_truncated(self):
        result = ModelChecker(max_states=100).check_model(
            PipelineHarness(n_iterations=12, window=4)
        )
        assert result.truncated
        assert result.states <= 101

    def test_run_schedule_rejects_disabled_steps(self):
        model = PipelineHarness(n_iterations=2, window=1)
        with pytest.raises(ValueError, match="not enabled"):
            model.run_schedule(["learn"])

    def test_counterexample_render(self):
        ce = Counterexample("MC603", "m", ("a", "b"), "model")
        assert ce.render() == "a -> b"

    def test_check_all_folds_findings_into_report(self):
        checker = ModelChecker()
        report = checker.check_all(
            [PipelineHarness(n_iterations=3, window=1), serving_harness.mutants()["MC609"]]
        )
        assert report.checked["mc_models"] == 2
        assert report.checked["mc_states"] > 0
        assert len(checker.last_results) == 2
        (finding,) = report.findings
        assert finding.rule == "MC609"
        assert finding.severity == "error"
        assert finding.location.startswith("model:drain-handoff")
        assert "[schedule:" in finding.message
        assert finding.hint == MC_RULES["MC609"][1]

    def test_runtime_imports_load_no_harness(self):
        # a harness imports its component: only the checker may load one
        import subprocess
        import sys

        code = (
            "import sys, repro.pipeline, repro.serving, repro.fleet, repro.analysis;"
            "sys.exit(any(m.endswith('_harness') for m in sys.modules))"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_no_replay_bridge_restates_the_protocols(self):
        # a counterexample is an MC finding, re-run with run_schedule: no
        # contract ledger restates MC603/MC604/MC607/MC609 for the dynamic
        # passes to re-flag
        import repro
        import repro.analysis.modelcheck as modelcheck

        src = pathlib.Path(repro.__file__).parent
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            for name in ("replay_schedule", "ReplayDevice", "tag_capacity"):
                assert name not in text, f"{path.relative_to(src)} names {name}"
        assert not hasattr(modelcheck, "cross_validate")

    def test_a_state_off_the_search_path_is_rebuilt_by_replay(self):
        model = PipelineHarness(n_iterations=3, window=1)
        state = model.run_schedule(["rollout", "rollout", "learn"])
        state.release()  # as if the search had moved on from it
        assert [a.name for a in model.enabled(state)] == ["rollout", "learn"]
        child = model.apply(state, model.action_named(state, "learn"))
        assert dict(child.key[0])["history"] == 2


# ---------------------------------------------------------------------------
# The shipped suite: coverage floor and clean bill of health
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shipped():
    checker = ModelChecker()
    report = checker.check_all(shipped_models())
    return report, checker.last_results


class TestShippedSuite:
    def test_every_shipped_model_is_clean_and_inside_budget(self, shipped):
        report, results = shipped
        assert report.findings == [], "\n".join(report.summary_lines())
        assert all(not r.truncated for r in results)
        assert report.checked["mc_states"] >= 10_000

    def test_intact_terminal_schedules_replay_clean(self):
        for model in shipped_models():
            for rng in (None, random.Random(1)):
                schedule, final = terminal_schedule(model, rng)
                assert model.is_terminal(final), (model.name, schedule)
                assert model.state_violations(final) == ()
                assert model.final_violations(final) == ()


# ---------------------------------------------------------------------------
# Conformance: a real run is a harness schedule, ending where the run ends
# ---------------------------------------------------------------------------

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)


def build_pipeline_system():
    """A W=1 PPO job on real numerics: actor at TP=2, the rest on one GPU."""
    actor_par = ParallelConfig(pp=1, tp=2, dp=1)
    scorer_par = ParallelConfig(pp=1, tp=1, dp=1)
    plan = PlacementPlan(
        pools={"actor": 2, "scorer": 1},
        assignments={
            "actor": ModelAssignment(
                "actor", actor_par, GenParallelConfig.derive(actor_par, 1, 1)
            ),
            "critic": ModelAssignment("scorer", scorer_par),
            "reference": ModelAssignment("scorer", scorer_par),
            "reward": ModelAssignment("scorer", scorer_par),
        },
    )
    system = build_rlhf_system(
        AlgoType.PPO,
        plan,
        CFG,
        cluster_spec=ClusterSpec(n_machines=1, gpus_per_machine=4),
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
    )
    AsyncPipelineDriver(system.trainer, PipelineConfig(staleness_window=1))
    return system


class TestRealImplementationConformance:
    """The harnesses stand in for what does not decide the protocol (the
    stages' numerics, the model's logits).  A real run's moves are a
    terminal, violation-free harness schedule that leaves the harness's
    objects in the state the run left the real ones."""

    def test_async_pipeline_driver_trace_is_a_model_behaviour(self, monkeypatch):
        moves = []
        advance = RlhfTrainerBase.advance

        def recorded(trainer, move, batches):
            moves.append(move)
            return advance(trainer, move, batches)

        monkeypatch.setattr(RlhfTrainerBase, "advance", recorded)
        system = build_pipeline_system()
        dataset = PromptDataset(n_prompts=64, prompt_length=4, vocab_size=16, seed=1)
        system.trainer.train(dataset, 3, 4)
        monkeypatch.undo()  # the harness's own moves go unrecorded
        assert moves[:3] == ["rollout", "rollout", "learn"]

        model = PipelineHarness(n_iterations=3, window=1)
        final = model.run_schedule(moves)  # raises if a move is not allowed
        assert model.is_terminal(final)
        assert model.state_violations(final) == ()
        assert model.final_violations(final) == ()
        job = types.SimpleNamespace(trainer=system.trainer, driver=system.trainer.pipeline)
        assert model.fingerprint(job) == model.fingerprint(final.world)

    def test_serving_drain_trace_is_a_model_behaviour(self):
        # four requests, one of them prioritised, on two slots and six
        # one-token KV blocks: more requests than slots, so slots are reused
        requests = (((3,), 0), ((1,), 0), ((2,), 1), ((2,), 0))
        model = ServingHarness(requests, slots=2, blocks=6)
        server = model.build().server
        for prompt, priority in requests:
            server.submit(np.array(prompt), max_new_tokens=prompt[-1], priority=priority)
        streamed = []
        n_steps = server.drain(on_finish=streamed.append).n_steps

        schedule = [f"submit[{i}]" for i in range(len(requests))]
        schedule += [f"step[{i}]" for i in range(n_steps)]
        final = model.run_schedule(schedule)  # raises if a move is not allowed
        assert model.is_terminal(final)
        assert model.state_violations(final) == ()
        assert model.final_violations(final) == ()
        # drain(on_finish=...) hands off what the harness's step-and-hand-off
        # does, in the same order, and leaves the server in the same state
        assert [c.request_id for c in streamed] == [
            c.request_id for c in final.world.delivered
        ]
        drained = types.SimpleNamespace(
            server=server, submitted=len(requests), delivered=streamed
        )
        assert model.fingerprint(drained) == model.fingerprint(final.world)


# ---------------------------------------------------------------------------
# The golden: what the restatement models found, and what moved
# ---------------------------------------------------------------------------


def current_findings(shipped_results):
    """The golden's shape, for the shipped suite and every mutant now."""
    models = {
        r.model: {
            "states": r.states,
            "transitions": r.transitions,
            "truncated": r.truncated,
            "findings": [{"rule": ce.rule, "schedule": list(ce.schedule)} for ce in r.counterexamples],
        }
        for r in shipped_results
    }
    mutants = {}
    for model, rule in MC_SEEDED:
        result = ModelChecker().check_model(model)
        ce = result.by_rule()[rule]
        mutants[rule] = {
            "model": model.name,
            "reported": rules_of(result),
            "schedule": list(ce.schedule),
        }
    return models, mutants


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def now(shipped):
    return current_findings(shipped[1])


class TestGolden:
    def test_every_rule_the_models_witnessed_is_witnessed_again(self, golden, now):
        _, mutants = now
        moved = {m["what"]: m for m in golden["moved"]}
        for recorded in golden["mutants"]:
            rule = recorded["rule"]
            if moved.get(f"mutant:{rule}", {}).get("now", True) is None:
                assert rule not in MC_RULES, f"{rule} retired but still catalogued"
                continue
            assert mutants[rule]["reported"] == [rule]

    def test_shipped_suite_matches_the_golden_apart_from_what_moved(self, golden, now):
        models, _ = now
        recorded = {m["name"]: {k: v for k, v in m.items() if k != "name"} for m in golden["models"]}
        moved = {m["what"]: m["now"] for m in golden["moved"] if m["what"].startswith("model:")}
        for name in set(recorded) | set(models):
            if f"model:{name}" in moved:
                assert models.get(name) == moved[f"model:{name}"], name
            else:
                assert models[name] == recorded[name], name

    def test_mutants_match_the_golden_apart_from_what_moved(self, golden, now):
        _, mutants = now
        moved = {m["what"]: m["now"] for m in golden["moved"] if m["what"].startswith("mutant:")}
        retired = {m["what"][len("field:"):] for m in golden["moved"] if m["what"].startswith("field:")}
        kept = lambda entry: entry and {k: v for k, v in entry.items() if k not in retired}  # noqa: E731
        recorded = {m["rule"]: m for m in golden["mutants"]}
        for rule in set(recorded) | set(mutants):
            if f"mutant:{rule}" in moved:
                assert mutants.get(rule) == kept(moved[f"mutant:{rule}"]), rule
            else:
                assert mutants[rule] == kept(recorded[rule]), rule

    def test_every_move_names_its_cause(self, golden):
        assert all(m["cause"] for m in golden["moved"])


# ---------------------------------------------------------------------------
# Seeded mutation smoke: one replaced function -> exactly one MC rule
# ---------------------------------------------------------------------------


class TestMutationSmoke:
    @pytest.mark.parametrize(
        "witness,expected",
        [pytest.param(w, r, id=f"{r}:{w.name}") for w, r in SEEDED],
    )
    def test_seeded_mutant_reports_exactly_its_rule(self, witness, expected):
        intact, seeded = witness_reports(witness)
        assert intact.findings == [], "\n".join(intact.summary_lines())
        assert {f.rule for f in seeded.findings} == {expected}, seeded.summary_lines()

    @pytest.mark.parametrize("rule", ["SF701", "SF706"])
    def test_an_sf_witness_reports_its_rule_in_a_fresh_interpreter(self, rule):
        # seeded first, with nothing derived before it: the pass may lean on
        # no graph left over from an unpatched run
        import subprocess
        import sys

        code = (
            "from repro.analysis import ShapeFlowChecker\n"
            "from repro.analysis.shapeflow import mutants\n"
            f"with mutants()[{rule!r}].applied():\n"
            "    report = ShapeFlowChecker().check_shipped()\n"
            "print(sorted({f.rule for f in report.findings}))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert run.stdout.strip() == f"['{rule}']", run.stderr

    def test_every_mc_rule_has_a_mutant_witness(self):
        assert {rule for _, rule in MC_SEEDED} == set(MC_RULES)

    def test_every_sf_rule_has_a_mutant_witness(self):
        assert {rule for _, rule in SEEDED if rule in SF_RULES} == set(SF_RULES)
        assert len(SEEDED) == len(MC_RULES) + len(SF_RULES)

    def test_the_drain_is_held_to_the_schedulers_own_accounting(self):
        # a finished request that keeps its decode slot: the server's own
        # check_invariants fails on the step that finishes it
        from repro.serving.scheduler import ContinuousBatchScheduler

        def vacate_keeping_the_slot(self, req):
            self.kv.release(req.request_id)
            req.slot = None

        model = ServingHarness(
            (((2,), 0), ((2,), 0), ((1,), 1)), slots=2, blocks=4,
            mutant=Mutant(ContinuousBatchScheduler, "_vacate", vacate_keeping_the_slot),
        )
        (ce,) = ModelChecker().check_model(model).counterexamples
        assert ce.rule == "MC607" and "slot" in ce.message

    def test_a_mutant_patches_one_real_function_and_puts_it_back(self):
        for witness, _ in SEEDED:
            mutant = witness if isinstance(witness, Mutant) else witness.mutant
            original = mutant.owner.__dict__[mutant.attribute]
            assert callable(original)  # a real function of the shipped code
            if mutant is witness:
                with mutant.applied():
                    assert getattr(mutant.owner, mutant.attribute) is mutant.replacement
            else:
                ModelChecker().check_model(witness)
                assert witness.name.endswith(f"!{mutant.name}")
            assert mutant.owner.__dict__[mutant.attribute] is original

    @pytest.mark.parametrize(
        "model,expected",
        [pytest.param(m, r, id=f"{r}:{m.name}") for m, r in MC_SEEDED if r not in NOT_A_STATE],
    )
    def test_counterexample_reruns_into_its_rule(self, model, expected):
        """The minimised schedule reproduces the violation on fresh objects:
        ``run_schedule`` is how a counterexample is debugged."""
        ce = ModelChecker().check_model(model).by_rule()[expected]
        final = model.run_schedule(list(ce.schedule))
        witnessed = [rule for rule, _ in final.viol]
        witnessed += [r for r, _ in model.final_violations(final)]
        assert expected in witnessed


if __name__ == "__main__":
    checker = ModelChecker()
    checker.check_all(shipped_models())
    models, mutants = current_findings(checker.last_results)
    print(json.dumps({"models": models, "mutants": mutants}, indent=1))
