"""Tests for ``repro.analysis``: dataflow checker, trace auditor, repo lint.

Each misconfiguration path must produce exactly one precise finding, and a
clean run of the repo's own example configuration must produce zero.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    ERROR,
    WARNING,
    AnalysisReport,
    DataflowChecker,
    Finding,
    RepoLint,
    TraceAuditor,
    registered_methods,
)
from repro.cluster import SimDevice
from repro.config import (
    GPU_SPECS,
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
    RlhfWorkload,
)
from repro.observability.spans import Span
from repro.rlhf.core import AlgoType
from repro.runtime import ModelAssignment, PlacementPlan
from tests.oracles import double_frees_reference, ledger_streams

A100 = GPU_SPECS["A100-80GB"]


def make_device(rank=0):
    return SimDevice(global_rank=rank, machine=0, spec=A100)


def tiny_plan(reward_parallel=ParallelConfig(1, 1, 1), reward_pool_size=1):
    par = ParallelConfig(pp=1, tp=2, dp=1)
    return PlacementPlan(
        pools={"main": 2, "r": reward_pool_size},
        assignments={
            "actor": ModelAssignment(
                "main", par, GenParallelConfig.derive(par, 1, 1)
            ),
            "critic": ModelAssignment("main", par),
            "reference": ModelAssignment("main", par),
            "reward": ModelAssignment("r", reward_parallel),
        },
    )


# ---------------------------------------------------------------------------
# AnalysisReport
# ---------------------------------------------------------------------------


class TestAnalysisReport:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Finding("DF101", "fatal", "m", "loc")

    def test_ok_and_strict(self):
        report = AnalysisReport("t")
        assert report.ok() and report.ok(strict=True)
        report.add("TA201", WARNING, "w", "loc")
        assert report.ok() and not report.ok(strict=True)
        report.add("TA201", ERROR, "e", "loc")
        assert not report.ok()

    def test_merge_accumulates(self):
        a, b = AnalysisReport("a"), AnalysisReport("b")
        a.note_checked("files", 2)
        b.note_checked("files", 3)
        b.add("RL301", ERROR, "m", "loc")
        a.merge(b)
        assert a.checked["files"] == 5
        assert len(a.by_rule("RL301")) == 1

    def test_to_dict_is_json_serializable(self):
        report = AnalysisReport("t")
        report.note_checked("devices", int(np.int64(3)))
        report.add("TA203", ERROR, "leak", "device 0", hint="free it")
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["n_errors"] == 1
        assert doc["findings"][0]["rule"] == "TA203"
        assert doc["checked"]["devices"] == 3

    def test_summary_lines_include_findings(self):
        report = AnalysisReport("t")
        report.add("SF703", ERROR, "not divisible", "actor", hint="pad it")
        lines = report.summary_lines()
        assert "1 error(s)" in lines[0]
        assert "SF703" in lines[1] and "pad it" in lines[1]


# ---------------------------------------------------------------------------
# DataflowChecker
# ---------------------------------------------------------------------------


class TestDataflowChecker:
    def test_clean_tiny_plan_has_zero_findings(self):
        report = DataflowChecker().check_plan(
            AlgoType.PPO, tiny_plan(), function_rewards=("reward",)
        )
        assert report.findings == []
        assert report.checked["methods"] > 0  # it actually looked

    @pytest.mark.parametrize("rule", ["SF701", "SF706"])
    def test_a_contract_at_odds_with_the_step_leaves_the_plan_checkable(self, rule):
        # a worker whose contract the advantage step cannot run on (SF701) or
        # that declares none (SF706): the plan and its DF findings are the
        # intact run's, in a fresh interpreter with the witness applied first
        import subprocess
        import sys

        code = (
            "from repro.analysis import DataflowChecker\n"
            "from repro.analysis.shapeflow import mutants\n"
            "from repro.runtime import SystemSpec, shipped_placements\n"
            "def run():\n"
            "    spec = SystemSpec()\n"
            "    plan = shipped_placements()['tiny-ppo']\n"
            "    report = DataflowChecker().check_plan(spec.algo, plan, spec.function_rewards)\n"
            "    return spec.plan, report.findings, report.checked\n"
            f"with mutants()[{rule!r}].applied():\n"
            "    seeded = run()\n"
            "print(seeded == run())\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert run.stdout.strip() == "True", run.stderr

    def test_protocol_topology_mismatch_is_one_df101(self):
        # a function reward (one_to_one methods) on a 2-rank group
        report = DataflowChecker().check_plan(
            AlgoType.PPO,
            tiny_plan(
                reward_parallel=ParallelConfig(1, 1, 2), reward_pool_size=2
            ),
            function_rewards=("reward",),
        )
        assert len(report.errors) == 1
        finding = report.errors[0]
        assert finding.rule == "DF101"
        assert "single-rank" in finding.message
        assert "reward" in finding.location

    def test_over_capacity_placement_is_one_df104(self):
        par = ParallelConfig(pp=1, tp=8, dp=1)
        plan = PlacementPlan(
            pools={"all": 8},
            assignments={
                "actor": ModelAssignment(
                    "all", par, GenParallelConfig.derive(par, 1, 8)
                ),
                "critic": ModelAssignment("all", par),
                "reference": ModelAssignment("all", par),
                "reward": ModelAssignment("all", par),
            },
        )
        checker = DataflowChecker(
            model_specs={
                role: MODEL_SPECS["llama-70b"]
                for role in ("actor", "critic", "reference", "reward")
            },
            workload=RlhfWorkload(),
            cluster_spec=ClusterSpec(n_machines=1),
        )
        report = checker.check_plan(AlgoType.PPO, plan)
        df104 = report.by_rule("DF104")
        assert len(df104) == 1
        assert df104[0].severity == ERROR
        assert "pool 'all'" in df104[0].message

    def test_fitting_placement_has_no_df104(self):
        report = DataflowChecker(
            model_specs={"actor": MODEL_SPECS["llama-7b"]},
            cluster_spec=ClusterSpec(n_machines=2),
        ).check_plan(
            AlgoType.PPO,
            tiny_plan(),
            function_rewards=("reward",),
        )
        assert report.by_rule("DF104") == []
        assert report.checked.get("pools_projected", 0) == 1

    def test_missing_role_is_df105(self):
        plan = tiny_plan()
        del plan.assignments["critic"]
        report = DataflowChecker().check_plan(
            AlgoType.PPO, plan, function_rewards=("reward",)
        )
        df105 = report.by_rule("DF105")
        assert len(df105) == 1 and "critic" in df105[0].message

    def test_actor_without_gen_config_is_df105(self):
        plan = tiny_plan()
        plan.assignments["actor"] = ModelAssignment(
            "main", ParallelConfig(1, 2, 1)
        )
        report = DataflowChecker().check_plan(
            AlgoType.PPO, plan, function_rewards=("reward",)
        )
        df105 = report.by_rule("DF105")
        assert len(df105) == 1 and "gen_parallel" in df105[0].message

    def test_family_counts_wildcards_the_rule(self):
        report = AnalysisReport("t")
        report.add("DF101", ERROR, "m", "loc")
        report.add("DF103", ERROR, "m", "loc")
        report.add("RC501", ERROR, "m", "loc")
        assert report.family_counts() == {"DF1xx": 2, "RC5xx": 1}

    def test_registered_methods_reads_the_decorator(self):
        from repro.single_controller import Worker, register

        class Probe(Worker):
            @register(protocol="one_to_all")
            def visible(self):
                return None

            @register(protocol="dp_proto")
            def _hidden(self):
                return None

            def plain(self):
                return None

        assert registered_methods(Probe) == [("visible", "one_to_all")]


def variant_plan(roles):
    """A placement plan assigning exactly ``roles`` (tiny shapes)."""
    par = ParallelConfig(pp=1, tp=2, dp=1)
    assignments = {}
    for role in roles:
        if role == "actor":
            assignments[role] = ModelAssignment(
                "main", par, GenParallelConfig.derive(par, 1, 1)
            )
        elif role in ("reward", "cost"):
            assignments[role] = ModelAssignment("r", ParallelConfig(1, 1, 1))
        else:
            assignments[role] = ModelAssignment("main", par)
    return PlacementPlan(pools={"main": 2, "r": 1}, assignments=assignments)


class TestDataflowVariants:
    """check_plan across the Figure 1 dataflow variants (DF105/DF106/DF107)."""

    def test_remax_clean_plan(self):
        report = DataflowChecker().check_plan(
            AlgoType.REMAX,
            variant_plan(("actor", "reference", "reward")),
            function_rewards=("reward",),
        )
        assert report.findings == []

    def test_remax_missing_reference_is_df105(self):
        report = DataflowChecker().check_plan(
            AlgoType.REMAX,
            variant_plan(("actor", "reward")),
            function_rewards=("reward",),
        )
        df105 = report.by_rule("DF105")
        assert len(df105) == 1 and "reference" in df105[0].message

    def test_remax_with_critic_is_df106_warning(self):
        report = DataflowChecker().check_plan(
            AlgoType.REMAX,
            variant_plan(("actor", "critic", "reference", "reward")),
            function_rewards=("reward",),
        )
        df106 = report.by_rule("DF106")
        assert len(df106) == 1
        assert df106[0].severity == WARNING
        assert "critic" in df106[0].message
        assert report.ok() and not report.ok(strict=True)

    def test_grpo_group_size_one_is_df107(self):
        report = DataflowChecker().check_plan(
            AlgoType.GRPO,
            variant_plan(("actor", "reference", "reward")),
            function_rewards=("reward",),
            group_size=1,
        )
        df107 = report.by_rule("DF107")
        assert len(df107) == 1 and df107[0].severity == ERROR
        assert "group_size=1" in df107[0].message

    def test_df107_reads_the_trainers_min_group_size(self):
        from repro.rlhf.trainers import GRPOTrainer

        class TripletTrainer(GRPOTrainer):
            min_group_size = 3

        report = DataflowChecker().check_plan(
            TripletTrainer,
            variant_plan(("actor", "reference", "reward")),
            function_rewards=("reward",),
            group_size=2,
        )
        (finding,) = report.by_rule("DF107")
        assert (finding.message, finding.hint) == TripletTrainer.group_size_problem(2)
        assert "at least 3" in finding.message

    def test_grpo_default_group_size_is_clean(self):
        # group_size=None inherits TrainerConfig's default (4)
        report = DataflowChecker().check_plan(
            AlgoType.GRPO,
            variant_plan(("actor", "reference", "reward")),
            function_rewards=("reward",),
        )
        assert report.findings == []
        assert report.checked["grpo_group_size"] == 1

    def test_safe_rlhf_missing_cost_is_df105(self):
        report = DataflowChecker().check_plan(
            AlgoType.SAFE_RLHF,
            variant_plan(("actor", "critic", "reference", "reward")),
            function_rewards=("reward",),
        )
        df105 = report.by_rule("DF105")
        assert len(df105) == 1 and "cost" in df105[0].message

    def test_safe_rlhf_clean_plan(self):
        report = DataflowChecker().check_plan(
            AlgoType.SAFE_RLHF,
            variant_plan(("actor", "critic", "reference", "reward", "cost")),
            function_rewards=("reward", "cost"),
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# TraceAuditor
# ---------------------------------------------------------------------------


class _FakeTimeline:
    """The three methods the auditor reads, with controllable busy time."""

    def __init__(self, busy=5.0):
        self._busy = busy

    def pools(self):
        return ["main"]

    def events_on(self, pool):
        return []

    def busy_time(self, pool):
        return self._busy


class TestTraceAuditor:
    def test_leaked_tag_is_one_ta203(self):
        device = make_device()
        device.memory.alloc("actor/kv_cache", 128)
        report = TraceAuditor().audit(devices=[device])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "TA203"
        assert "actor/kv_cache" in report.findings[0].message

    def test_persistent_tags_are_not_leaks(self):
        device = make_device()
        device.memory.alloc("actor/params", 128)
        device.memory.alloc("actor/grads", 128)
        device.memory.alloc("actor/optim", 128)
        assert TraceAuditor().audit(devices=[device]).findings == []

    def test_double_free_is_one_ta204(self):
        device = make_device()
        device.memory.alloc("actor/kv_cache", 128)
        device.memory.free_tag("actor/kv_cache")
        device.memory.free_tag("actor/kv_cache")
        report = TraceAuditor().audit(devices=[device])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "TA204"

    def test_free_of_never_allocated_tag_is_benign(self):
        # the actor frees kv_cache on every rank of the group, including
        # ranks that never led a generation replica — not a double free
        device = make_device()
        device.memory.free_tag("actor/kv_cache")
        device.memory.free_tag("actor/kv_cache")
        assert TraceAuditor().audit(devices=[device]).findings == []

    def test_alloc_free_alloc_free_is_clean(self):
        device = make_device()
        for _ in range(2):
            device.memory.alloc("actor/kv_cache", 64)
            device.memory.free_tag("actor/kv_cache")
        assert TraceAuditor().audit(devices=[device]).findings == []

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(
            st.sampled_from(("alloc", "free", "resize", "clear")),
            st.sampled_from("abc"[:n]),
            st.integers(0, 2),  # zero-byte allocs and resizes included
        ),
        max_size=14,
    )))
    def test_double_frees_are_the_stream_rule_at_the_free(self, ops):
        with pytest.MonkeyPatch.context() as mp:
            streams = ledger_streams(mp)
            device = make_device()
            memory = device.memory
            for op, tag, nbytes in ops:
                if op in ("alloc", "resize"):
                    getattr(memory, op)(tag, nbytes)
                elif op == "free":
                    memory.free_tag(tag)
                else:
                    memory.clear()
        stream = streams[memory]
        # the stream rule read ``ever_allocated`` after the run; the ledger
        # decides at the free, so only tags allocated before it count
        at_the_free = [
            tag
            for i, tag in double_frees_reference(stream, memory.ever_allocated)
            if any(
                op in ("alloc", "resize") and t == tag and n > 0
                for op, t, n, _ in stream[:i]
            )
        ]
        assert memory.double_frees == at_the_free
        report = TraceAuditor().audit(devices=[device])
        assert [f.rule for f in report.findings].count("TA204") == len(at_the_free)

    def test_a_tag_allocated_after_its_second_free_was_not_double_freed(self):
        # the one reading that moved: the stream rule saw the later alloc in
        # ``ever_allocated`` and called the second free a double free
        with pytest.MonkeyPatch.context() as mp:
            streams = ledger_streams(mp)
            memory = make_device().memory
            memory.free_tag("actor/kv_cache")
            memory.free_tag("actor/kv_cache")
            memory.alloc("actor/kv_cache", 8)
            memory.free_tag("actor/kv_cache")
        assert double_frees_reference(streams[memory], memory.ever_allocated) == [
            (1, "actor/kv_cache")
        ]
        assert memory.double_frees == []

    def test_span_escape_is_one_ta202(self):
        parent = Span(1, "iter", "iteration", start=0.0, end=10.0)
        child = Span(
            2, "gen", "dispatch", start=5.0, end=12.0, parent_id=1
        )
        report = TraceAuditor().audit(spans=[parent, child])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "TA202"
        assert "escapes" in report.findings[0].message

    def test_nested_spans_are_clean(self):
        parent = Span(1, "iter", "iteration", start=0.0, end=10.0)
        child = Span(
            2, "gen", "dispatch", start=2.0, end=8.0, parent_id=1
        )
        assert TraceAuditor().audit(spans=[parent, child]).findings == []

    def test_busy_accounting_mismatch_is_ta206_warning(self):
        device = make_device()
        device.occupy(4.0)
        report = TraceAuditor().audit(
            timeline=_FakeTimeline(busy=5.0),
            devices=[device],
            device_pools={0: "main"},
        )
        assert [f.rule for f in report.findings] == ["TA206"]
        assert report.findings[0].severity == WARNING

    def test_busy_accounting_match_is_clean(self):
        device = make_device()
        device.occupy(5.0)
        report = TraceAuditor().audit(
            timeline=_FakeTimeline(busy=5.0),
            devices=[device],
            device_pools={0: "main"},
        )
        assert report.findings == []
        assert report.checked["busy_accounted_devices"] == 1

    def test_chrome_trace_overlap_is_ta201(self):
        from repro.observability.export import _US, TIMELINE_PID

        doc = {
            "traceEvents": [
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": TIMELINE_PID,
                    "tid": 0,
                    "args": {"name": "pool main"},
                },
                {
                    "ph": "X",
                    "pid": TIMELINE_PID,
                    "tid": 0,
                    "name": "a",
                    "ts": 0,
                    "dur": int(2 * _US),
                },
                {
                    "ph": "X",
                    "pid": TIMELINE_PID,
                    "tid": 0,
                    "name": "b",
                    "ts": int(1 * _US),
                    "dur": int(2 * _US),
                },
            ]
        }
        report = TraceAuditor().audit_chrome_trace(doc)
        assert len(report.findings) == 1
        assert report.findings[0].rule == "TA201"
        assert "pool main" in report.findings[0].location

    def test_golden_trace_audits_clean(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "chrome_trace.json"
        doc = json.loads(golden.read_text())
        report = TraceAuditor().audit_chrome_trace(doc)
        assert report.findings == []
        assert report.checked["tracks"] >= 1
        assert report.checked["spans"] >= 1


# ---------------------------------------------------------------------------
# RepoLint
# ---------------------------------------------------------------------------


def lint(source, filename="mod.py", rules=None):
    linter = RepoLint(rules) if rules is not None else RepoLint()
    return linter.lint_source(source, filename, AnalysisReport("lint"))


class TestRepoLint:
    def test_unseeded_numpy_rng_is_rl301(self):
        report = lint("import numpy as np\nnp.random.seed(0)\n")
        assert [f.rule for f in report.findings] == ["RL301"]
        assert "mod.py:2" in report.findings[0].location

    def test_seeded_generator_is_clean(self):
        report = lint(
            "import numpy as np\nrng = np.random.default_rng(7)\n"
            "x = rng.integers(0, 4)\n"
        )
        assert report.findings == []

    def test_stdlib_random_is_rl301(self):
        report = lint("import random\nx = random.random()\n")
        assert [f.rule for f in report.findings] == ["RL301"]

    def test_seeded_random_instance_is_clean(self):
        report = lint("import random\nrng = random.Random(3)\n")
        assert report.findings == []

    def test_conftest_exempt_from_rl301(self):
        report = lint(
            "import numpy as np\nnp.random.seed(0)\n", filename="conftest.py"
        )
        assert report.findings == []

    def test_wall_clock_is_rl302(self):
        report = lint("import time\nt = time.time()\n")
        assert [f.rule for f in report.findings] == ["RL302"]

    def test_wall_clock_through_alias_is_rl302(self):
        report = lint("import time as clock\nt = clock.perf_counter()\n")
        assert [f.rule for f in report.findings] == ["RL302"]

    def test_float_equality_is_rl303_warning(self):
        report = lint("def f(x):\n    return x == 1.5\n")
        assert [f.rule for f in report.findings] == ["RL303"]
        assert report.findings[0].severity == WARNING

    def test_int_equality_is_clean(self):
        assert lint("def f(x):\n    return x == 1\n").findings == []

    def test_raw_json_dump_is_rl304(self):
        report = lint("import json\ns = json.dumps({})\n")
        assert [f.rule for f in report.findings] == ["RL304"]

    def test_json_alias_is_tracked(self):
        report = lint("import json as json_mod\ns = json_mod.dumps({})\n")
        assert [f.rule for f in report.findings] == ["RL304"]

    def test_json_with_serialization_import_is_clean(self):
        report = lint(
            "import json\nfrom repro.serialization import json_safe\n"
            "s = json.dumps(json_safe({}, 'x'))\n"
        )
        assert report.findings == []

    def test_global_statement_is_rl305(self):
        report = lint("X = 0\ndef f():\n    global X\n    X = 1\n")
        assert [f.rule for f in report.findings] == ["RL305"]

    def test_worker_mutating_module_state_is_rl305(self):
        source = (
            "CACHE = {}\n"
            "class FooWorker:\n"
            "    def m(self):\n"
            "        CACHE.update(a=1)\n"
        )
        report = lint(source)
        assert [f.rule for f in report.findings] == ["RL305"]

    def test_worker_subscript_write_is_rl305(self):
        source = (
            "CACHE = {}\n"
            "class FooWorker:\n"
            "    def m(self):\n"
            "        CACHE['k'] = 1\n"
        )
        assert [f.rule for f in lint(source).findings] == ["RL305"]

    def test_non_worker_class_may_mutate(self):
        source = (
            "CACHE = {}\n"
            "class Registry:\n"
            "    def m(self):\n"
            "        CACHE.update(a=1)\n"
        )
        assert lint(source).findings == []

    def test_suppression_comment_silences_the_rule(self):
        report = lint(
            "import numpy as np\n"
            "np.random.seed(0)  # repro-lint: ignore[RL301]\n"
        )
        assert report.findings == []
        assert report.checked["suppressed"] == 1

    def test_suppression_of_other_rule_does_not_apply(self):
        report = lint(
            "import numpy as np\n"
            "np.random.seed(0)  # repro-lint: ignore[RL302]\n"
        )
        # RL301 still fires, and RL306 flags the suppression as stale
        # (nothing on the line triggers RL302).
        assert [f.rule for f in report.findings] == ["RL301", "RL306"]

    def test_bare_suppression_silences_everything(self):
        report = lint(
            "import time\nt = time.time()  # repro-lint: ignore\n"
        )
        assert report.findings == []

    def test_unused_suppression_is_exactly_one_rl306(self):
        report = lint("x = 1  # repro-lint: ignore[RL303]\n")
        rl306 = report.by_rule("RL306")
        assert [f.rule for f in report.findings] == ["RL306"]
        assert rl306[0].severity == WARNING
        assert rl306[0].location == "mod.py:1"
        assert "RL303" in rl306[0].message

    def test_hotpath_zeros_without_dtype_is_rl308(self):
        report = lint(
            "import numpy as np\nx = np.zeros((4, 4))\n",
            filename="src/repro/models/x.py",
        )
        assert [f.rule for f in report.findings] == ["RL308"]
        assert report.findings[0].severity == WARNING

    def test_hotpath_asarray_without_dtype_is_rl308(self):
        report = lint(
            "import numpy as np\ndef f(x):\n    return np.asarray(x)\n",
            filename="src/repro/serving/x.py",
        )
        assert [f.rule for f in report.findings] == ["RL308"]

    def test_hotpath_with_dtype_kwarg_is_clean(self):
        report = lint(
            "import numpy as np\nx = np.zeros((4,), dtype=np.float64)\n",
            filename="src/repro/models/x.py",
        )
        assert report.findings == []

    def test_hotpath_with_dtype_positional_is_clean(self):
        report = lint(
            "import numpy as np\ndef f(x):\n"
            "    return np.asarray(x, np.int64)\n",
            filename="src/repro/rlhf/advantage.py",
        )
        assert report.findings == []

    def test_non_hotpath_module_exempt_from_rl308(self):
        report = lint(
            "import numpy as np\nx = np.empty((2,))\n",
            filename="src/repro/observability/x.py",
        )
        assert report.findings == []

    def test_rl308_suppression_works(self):
        report = lint(
            "import numpy as np\n"
            "x = np.zeros(3)  # repro-lint: ignore[RL308]\n",
            filename="src/repro/models/x.py",
        )
        assert report.findings == []
        assert report.checked["suppressed"] == 1

    def test_unused_bare_suppression_is_rl306(self):
        report = lint("x = 1  # repro-lint: ignore\n")
        assert [f.rule for f in report.findings] == ["RL306"]

    def test_used_suppression_is_not_rl306(self):
        report = lint(
            "import numpy as np\n"
            "np.random.seed(0)  # repro-lint: ignore[RL301]\n"
        )
        assert report.findings == []

    def test_partial_rule_run_cannot_call_suppressions_unused(self):
        # with only RL302 active, an ignore[RL301] line may still be load-
        # bearing under the full catalog — no RL306
        report = lint(
            "import numpy as np\n"
            "np.random.seed(0)  # repro-lint: ignore[RL301]\n",
            rules=["RL302", "RL306"],
        )
        assert report.findings == []

    def test_marker_inside_a_string_is_not_a_suppression(self):
        report = lint("hint = \"# repro-lint: ignore\"\n")
        assert report.findings == []

    def test_syntax_error_is_rl300(self):
        report = lint("def f(:\n")
        assert [f.rule for f in report.findings] == ["RL300"]
        assert report.findings[0].severity == ERROR

    def test_rule_subset_filters(self):
        report = lint(
            "import numpy as np\nnp.random.seed(0)\n", rules=["RL302"]
        )
        assert report.findings == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rules"):
            RepoLint(rules=["RL999"])

    # -- RL307: schedule-order nondeterminism in scheduling code ----------

    SCOPED = "src/repro/pipeline/driver.py"

    def test_set_literal_iteration_in_schedule_path_is_rl307(self):
        report = lint("for x in {1, 2}:\n    pass\n", filename=self.SCOPED)
        assert [f.rule for f in report.findings] == ["RL307"]
        assert report.findings[0].severity == WARNING
        assert "sorted(" in report.findings[0].hint

    def test_dict_values_iteration_in_schedule_path_is_rl307(self):
        report = lint(
            "d = {}\nfor v in d.values():\n    pass\n",
            filename="src/repro/single_controller/controller.py",
        )
        assert [f.rule for f in report.findings] == ["RL307"]

    def test_set_call_comprehension_is_rl307(self):
        report = lint(
            "xs = [1]\nys = [y for y in set(xs)]\n",
            filename="src/repro/fleet/scheduler.py",
        )
        assert [f.rule for f in report.findings] == ["RL307"]

    def test_sorted_set_iteration_is_clean(self):
        report = lint(
            "for x in sorted({1, 2}):\n    pass\n", filename=self.SCOPED
        )
        assert report.findings == []

    def test_values_call_with_arguments_is_not_a_dict_view(self):
        report = lint(
            "class Q:\n"
            "    def values(self, k):\n"
            "        return [k]\n"
            "def f(q):\n"
            "    for v in q.values(1):\n"
            "        pass\n",
            filename=self.SCOPED,
        )
        assert report.findings == []

    def test_set_iteration_outside_schedule_paths_is_clean(self):
        report = lint("for x in {1, 2}:\n    pass\n")
        assert report.findings == []

    def test_rl307_suppression_comment_works(self):
        report = lint(
            "for x in {1, 2}:  # repro-lint: ignore[RL307]\n    pass\n",
            filename=self.SCOPED,
        )
        assert report.findings == []
        assert report.checked["suppressed"] == 1

    # -- RL309: optional-observability branches ---------------------------

    def test_tracer_or_metrics_none_test_is_rl309(self):
        source = (
            "def f(self, controller, metrics):\n"
            "    if self.tracer is None:\n"
            "        return\n"
            "    if metrics is not None:\n"
            "        metrics.counter('x').inc()\n"
            "    if controller is None:\n"
            "        return\n"
        )
        report = lint(source, filename=self.SCOPED)
        assert [f.rule for f in report.findings] == ["RL309", "RL309"]
        assert report.findings[0].severity == ERROR
        assert "NULL_TRACER" in report.findings[0].hint
        # the observability package itself may test for None; so may tests
        for exempt in ("src/repro/observability/spans.py", "tests/test_x.py"):
            assert lint(source, filename=exempt).findings == []

    # -- RL310: per-algorithm tables outside repro/rlhf --------------------

    def test_dict_keyed_by_algotype_members_is_rl310(self):
        source = (
            "from repro.rlhf.core import AlgoType\n"
            "ROLES = {AlgoType.PPO: ('actor', 'critic'), AlgoType.GRPO: ('actor',)}\n"
            "ONE = {AlgoType.PPO: 1, 'other': 2}\n"
        )
        report = lint(source, filename="src/repro/perf/iteration.py")
        assert [f.rule for f in report.findings] == ["RL310"]
        assert report.findings[0].location.endswith(":2")
        assert "dataflow_of" in report.findings[0].hint
        # the registry lives beside the trainers; tests keep reference pins
        for exempt in ("src/repro/rlhf/trainers.py", "tests/test_trainers.py"):
            assert lint(source, filename=exempt).findings == []

    def test_repo_source_tree_is_clean(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        report = RepoLint().lint_paths([str(src)])
        assert report.ok(strict=True), "\n".join(report.summary_lines())


# ---------------------------------------------------------------------------
# End-to-end over a real (tiny) system
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_system():
    from repro.data import PromptDataset, SyntheticPreferenceTask
    from repro.models.tinylm import TinyLMConfig
    from repro.rlhf.trainers import TrainerConfig
    from repro.runtime import build_rlhf_system

    cfg = TinyLMConfig(
        n_layers=2,
        hidden_size=32,
        n_heads=4,
        ffn_hidden_size=48,
        vocab_size=16,
        max_seq_len=32,
    )
    task = SyntheticPreferenceTask(vocab_size=16, target_token=7)
    system = build_rlhf_system(
        AlgoType.PPO,
        tiny_plan(),
        cfg,
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        reward_fn=task.reward,
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
    )
    dataset = PromptDataset(n_prompts=32, prompt_length=4, vocab_size=16, seed=1)
    system.trainer.train(dataset, 2, 8)
    return system


class TestEndToEnd:
    def test_clean_system_passes_dataflow_check(self, tiny_system):
        report = DataflowChecker().check_system(tiny_system)
        assert report.findings == [], "\n".join(report.summary_lines())

    def test_clean_run_passes_trace_audit(self, tiny_system):
        report = TraceAuditor().audit_system(tiny_system)
        assert report.findings == [], "\n".join(report.summary_lines())
        assert report.checked["devices"] == 3
        assert report.checked["busy_accounted_devices"] == 3

    def test_audit_embeds_in_system_report(self, tiny_system):
        from repro.runtime.report import system_report_dict

        audit = TraceAuditor().audit_system(tiny_system)
        doc = system_report_dict(tiny_system, analysis=audit)
        json.dumps(doc)  # sanitized end to end
        assert doc["analysis"]["n_errors"] == 0
        assert doc["analysis"]["checked"]["devices"] == 3

    def test_model_check_embeds_in_system_report(self, tiny_system):
        from repro.analysis.modelcheck import ModelChecker
        from repro.analysis.protocols.pipeline_harness import PipelineHarness
        from repro.runtime.report import system_report_dict

        checker = ModelChecker()
        checker.check_all([PipelineHarness(n_iterations=3, window=1)])
        doc = system_report_dict(
            tiny_system, model_check=checker.last_results
        )
        json.dumps(doc)  # sanitized end to end
        mc = doc["model_check"]
        assert mc["ok"] is True
        assert mc["states_total"] > 0
        (entry,) = mc["models"]
        assert entry["model"].startswith("async-pipeline")
        assert entry["counterexamples"] == []

    def test_cli_check_gate_passes_strict(self, capsys):
        from repro.cli import main

        assert main(["check", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "repro check passed" in out
