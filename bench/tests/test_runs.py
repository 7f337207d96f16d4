"""The command end to end: the contract line, exact repeats, and no program."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from bench import metrics

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXACT = [name for name, _unit, _better in metrics.COUNTS] + [
    "trace.unresolved_targets"
]


def run(out_dir, *args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--out", str(out_dir), *args],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["grpo_serve_ragged", "safe_many_rank_small"])
def test_two_traced_runs_give_identical_counts_and_digests(tmp_path, workload):
    records = []
    for label in ("a", "b"):
        line = run(tmp_path / label, "--workload", workload, "--trace", "1",
                   "--steps", "3", "--seed", "5")
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert [(n, m["unit"]) for n, m in line["metrics"].items()] == [
            (n, u) for n, u, _ in metrics.per_layer()
        ]
        with open(tmp_path / label / f"{workload}.trace1.json") as fh:
            records.append(json.load(fh))
        with open(tmp_path / label / f"{workload}.trace.json") as fh:
            trace = json.load(fh)
        assert {s["step"] for s in trace["spans"]} == {0, 1, 2}
        assert all(s["parent"] < i for i, s in enumerate(trace["spans"]))
    a, b = records
    assert a["steps"] == 3 and a["n_steps"] == 3
    assert a["digest"] == b["digest"]
    assert a["policy_losses"] == b["policy_losses"]
    assert {k: a["metrics"][k] for k in EXACT} == {k: b["metrics"][k] for k in EXACT}
    calls = {k: v for k, v in a["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: b["metrics"][k] for k in calls}
    assert a["metrics"]["trace.unresolved_targets"] == 0


def test_untraced_line_has_the_end_to_end_metrics(tmp_path):
    line = run(tmp_path, "--workload", "safe_many_rank_small", "--trace", "0",
               "--steps", "3")
    assert [(n, m["unit"]) for n, m in line["metrics"].items()] == [
        (n, u) for n, u, _, _ in metrics.END_TO_END
    ]
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ppo_train_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
