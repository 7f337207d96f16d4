"""Tests for the pinned perf-trajectory bench harness (``repro.perf.bench``).

The full 4-workload record is expensive, so it runs once per module
(session-scoped fixture) and every structural/self-compare assertion reads
from it; comparison-policy tests use small synthetic records instead.
"""

import copy

import pytest

from repro.fleet.report import compare_fleet_records
from repro.perf.bench import (
    SCHEMA,
    SUITE,
    WORKLOADS,
    compare_records,
    run_bench,
    summary_lines,
)


@pytest.fixture(scope="module")
def record():
    return run_bench()


# -- the real record ---------------------------------------------------------------


class TestRunBench:
    def test_record_structure(self, record):
        assert record["suite"] == SUITE
        assert record["schema"] == SCHEMA
        assert set(record["workloads"]) == set(WORKLOADS)
        assert len(record["workloads"]) >= 4
        for workload in record["workloads"].values():
            assert workload["pins"]
            for metric in workload["metrics"].values():
                assert metric["kind"] in {"exact", "min", "info"}
                if metric["kind"] == "min":
                    assert metric["value"] >= metric["floor"]

    def test_self_compare_is_clean(self, record):
        assert compare_records(record, record) == []

    def test_src_lines_cover_every_package(self, record):
        import pathlib

        import repro

        sizes = record["workloads"]["src_lines"]["metrics"]
        root = pathlib.Path(repro.__file__).parent
        tops = {
            p.stem for p in root.iterdir() if p.is_dir() or p.suffix == ".py"
        }
        assert set(sizes) - {"total"} == tops - {"__pycache__"}
        assert all(m["kind"] == "info" for m in sizes.values())
        assert sizes["total"]["value"] == sum(
            m["value"] for name, m in sizes.items() if name != "total"
        )

    def test_structure_derived_exact_values(self, record):
        # These are schedule/topology facts, not timings — they must land on
        # the same values on any host (they are the committed baseline).
        drain = record["workloads"]["serving_drain"]["metrics"]
        assert drain["n_steps"]["value"] == 33
        assert drain["total_tokens"]["value"] == 111
        # one forward per step plus one per step that admits (a whole prompt
        # is a different feed length): 76 when cohorts were per KV length
        assert drain["forwards"] == {"kind": "exact", "value": 40}
        ppo = record["workloads"]["ppo_iteration"]["metrics"]
        assert ppo["dispatch_calls"]["value"] == 7
        # one node per fused TinyLM primitive (12 a forward on this 2-layer
        # model) plus the generic ops of the losses; BENCH_perf.json pins
        # the exact count, this only says which regime it is in
        assert ppo["autograd_nodes"]["kind"] == "exact"
        assert 0 < ppo["autograd_nodes"]["value"] < 1000
        assert ppo["train_peak_bytes"]["kind"] == "info"
        # EOS-ragged rows: only their real tokens enter the forwards (decode
        # feeds are real either way), and the responses did stop early
        grpo = record["workloads"]["grpo_eos_iteration"]["metrics"]
        assert grpo["forward_tokens"]["kind"] == "exact"
        padded = grpo["padded_forward_tokens"]["value"]
        assert 0 < grpo["forward_tokens"]["value"] < padded
        pins = record["workloads"]["grpo_eos_iteration"]["pins"]
        rows = pins["batch_size"] * pins["group_size"]
        assert 0 < grpo["response_tokens"]["value"] < rows * pins["max_new_tokens"]
        transition = record["workloads"]["train_gen_transition"]["metrics"]
        assert transition["plan_cache_hits"]["value"] == 1
        assert transition["plan_cache_misses"]["value"] == 1

    def test_subset_run_and_unknown_name(self):
        rec = run_bench(["sequential_generate"])
        assert list(rec["workloads"]) == ["sequential_generate"]
        with pytest.raises(ValueError, match="unknown workload"):
            run_bench(["nope"])

    def test_summary_lines_cover_every_metric(self, record):
        text = "\n".join(summary_lines(record))
        for name, workload in record["workloads"].items():
            assert f"{name}:" in text
            for mname in workload["metrics"]:
                assert mname in text


# -- comparison policy on synthetic records ----------------------------------------


def _synthetic():
    return {
        "schema": SCHEMA,
        "suite": SUITE,
        "workloads": {
            "w": {
                "pins": {"batch": 8},
                "metrics": {
                    "tokens": {"kind": "exact", "value": 128},
                    "speedup": {"kind": "min", "value": 2.0, "floor": 1.2},
                    "rate": {"kind": "info", "value": 1000.0},
                },
            }
        },
    }


class TestCompareRecords:
    def test_identical_records_pass(self):
        assert compare_records(_synthetic(), _synthetic()) == []

    def test_exact_drift_fails(self):
        cur = _synthetic()
        cur["workloads"]["w"]["metrics"]["tokens"]["value"] = 127
        problems = compare_records(cur, _synthetic())
        assert any("tokens" in p for p in problems)

    def test_info_never_compared(self):
        cur = _synthetic()
        cur["workloads"]["w"]["metrics"]["rate"]["value"] = 1.0
        assert compare_records(cur, _synthetic()) == []

    def test_min_floor_violation_fails_without_baseline_help(self):
        cur = _synthetic()
        cur["workloads"]["w"]["metrics"]["speedup"]["value"] = 1.0
        problems = compare_records(cur, _synthetic())
        assert any("below its pinned floor" in p for p in problems)

    def test_floor_change_requires_rebaseline(self):
        cur = _synthetic()
        cur["workloads"]["w"]["metrics"]["speedup"]["floor"] = 1.5
        problems = compare_records(cur, _synthetic())
        assert any("floor changed" in p for p in problems)

    def test_pin_drift_asks_for_rebaseline(self):
        cur = _synthetic()
        cur["workloads"]["w"]["pins"]["batch"] = 16
        problems = compare_records(cur, _synthetic())
        assert len(problems) == 1
        assert "re-baseline" in problems[0]

    def test_missing_workload_fails(self):
        cur = copy.deepcopy(_synthetic())
        del cur["workloads"]["w"]
        problems = compare_records(cur, _synthetic())
        assert any("in baseline but not in this run" in p for p in problems)

    def test_new_workload_asks_for_rebaseline(self):
        cur = _synthetic()
        cur["workloads"]["extra"] = copy.deepcopy(cur["workloads"]["w"])
        problems = compare_records(cur, _synthetic())
        assert any("not in baseline" in p for p in problems)

    def test_kind_change_requires_rebaseline(self):
        cur = _synthetic()
        cur["workloads"]["w"]["metrics"]["tokens"]["kind"] = "info"
        problems = compare_records(cur, _synthetic())
        assert any("kind changed" in p for p in problems)

    def test_suite_mismatch_short_circuits(self):
        cur = _synthetic()
        cur["suite"] = "other"
        problems = compare_records(cur, _synthetic())
        assert len(problems) == 1
        assert "identity mismatch" in problems[0]


class TestCompareFleetRecords:
    @staticmethod
    def _fleet():
        return {
            "benchmark": "fleet_chaos",
            "jobs": 3,
            "cluster_gpus": 16,
            "devices_killed": 8,
            "all_completed": True,
            "ok": True,
            "goodput_mean": 0.8,
            "analysis_findings": {},
        }

    def test_clean_run_passes(self):
        assert compare_fleet_records(self._fleet(), self._fleet()) == []

    def test_shape_drift_fails(self):
        cur = self._fleet()
        cur["jobs"] = 4
        problems = compare_fleet_records(cur, self._fleet())
        assert any("jobs" in p for p in problems)

    def test_incomplete_run_fails(self):
        cur = self._fleet()
        cur["all_completed"] = False
        problems = compare_fleet_records(cur, self._fleet())
        assert any("all_completed" in p for p in problems)

    def test_zero_goodput_fails(self):
        cur = self._fleet()
        cur["goodput_mean"] = 0.0
        problems = compare_fleet_records(cur, self._fleet())
        assert any("goodput_mean" in p for p in problems)

    def test_analysis_findings_fail(self):
        cur = self._fleet()
        cur["analysis_findings"] = {"races": ["RC501"]}
        problems = compare_fleet_records(cur, self._fleet())
        assert any("analysis gate" in p for p in problems)
