"""Ablation: the continuous-batching control of §8.1.

The paper enforces equal response lengths "as the baseline systems may not
incorporate continuous-batching optimization during generation, for a fair
comparison".  This ablation quantifies what that control neutralised: with
skewed real-world response lengths, a continuous-batching engine (vLLM/Orca
style) beats wave-static scheduling by a large factor, and the two coincide
exactly when lengths are pinned equal.

The continuous column is the real ``RolloutServer`` and its
``ContinuousBatchScheduler``, drained over the ``LengthPlan`` stand-in model;
the static column is the wave schedule.  Both price every decode step with
the cost model of :mod:`repro.perf.generation`, so the comparison isolates
scheduling.  ``tests/golden/orca_schedules.json`` holds what the analytic
Orca twin these columns replace computed; the prices replay it bit for bit.
"""

import json
import pathlib

import numpy as np

from benchmarks.common import emit, format_table
from repro.config import MODEL_SPECS, ClusterSpec
from repro.perf.generation import _decode_step_time
from repro.serving import sample_response_lengths, serve_length_plan

SPEC = MODEL_SPECS["llama-7b"]
CLUSTER = ClusterSpec(n_machines=1)
CAPACITY = 32
N_REQUESTS = 128
PROMPT_LENGTH = 1024
GOLDEN = pathlib.Path(__file__).parent.parent / "tests" / "golden" / "orca_schedules.json"


def _step_time(active: int, context_len: float) -> float:
    return _decode_step_time(SPEC, CLUSTER, 1, 1, active, context_len, use_kv_cache=True)


def serve_static(lengths, capacity):
    """``(total_time, n_steps, slot_utilisation)`` of wave scheduling: a
    wave of ``capacity`` requests runs until its longest member finishes;
    freed slots idle until the next wave."""
    lengths = np.asarray(lengths)
    total_time = 0.0
    n_steps = 0
    occupied_steps = 0.0
    for start in range(0, len(lengths), capacity):
        wave = lengths[start : start + capacity]
        for step in range(int(wave.max())):
            # static batching keeps padded slots in the batch: cost scales
            # with the wave size, not the live count
            total_time += _step_time(len(wave), PROMPT_LENGTH + step)
            occupied_steps += int((wave > step).sum())
            n_steps += 1
    return total_time, n_steps, occupied_steps / (n_steps * capacity)


def serve_continuous(lengths, capacity):
    """``(total_time, n_steps, slot_utilisation)`` of the engine's drain:
    each step is priced at its live requests and their mean progress."""
    report = serve_length_plan(lengths, capacity)
    assert report.n_preemptions == 0
    active = [0] * report.n_steps
    progress = [0] * report.n_steps
    for r in report.completed:
        start = int(r.first_token_time) - 1  # one step per simulated second
        for p in range(r.response_length):
            active[start + p] += 1
            progress[start + p] += p
    total_time = 0.0
    for n, done in zip(active, progress):
        total_time += _step_time(n, PROMPT_LENGTH + done / n)
    return total_time, report.n_steps, report.slot_utilisation


def workloads():
    rng = np.random.default_rng(0)
    return {
        "equal lengths (the paper's control)": np.full(N_REQUESTS, 128),
        "geometric, mean 64 / max 512": sample_response_lengths(
            N_REQUESTS, 64, 512, rng
        ),
        "geometric, mean 128 / max 1024": sample_response_lengths(
            N_REQUESTS, 128, 1024, rng
        ),
    }


def run_ablation():
    rows = []
    for name, lengths in workloads().items():
        static, _, _ = serve_static(lengths, CAPACITY)
        continuous, _, utilisation = serve_continuous(lengths, CAPACITY)
        rows.append(
            [
                name,
                static,
                continuous,
                f"{static / continuous:.2f}x",
                f"{utilisation * 100:.0f}%",
            ]
        )
    return rows


def test_ablation_continuous_batching(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit(
        "ablation_continuous_batching",
        format_table(
            [
                "response lengths",
                "static (s)",
                "continuous (s)",
                "speedup",
                "cont. utilisation",
            ],
            rows,
            f"Continuous batching ablation ({SPEC.name}, capacity {CAPACITY})",
        ),
    )
    equal_speedup = float(rows[0][3].rstrip("x"))
    skewed_speedups = [float(r[3].rstrip("x")) for r in rows[1:]]
    assert abs(equal_speedup - 1.0) < 0.05  # control removes the effect
    assert all(s > 1.3 for s in skewed_speedups)


def test_prices_replay_the_recorded_twin():
    golden = json.loads(GOLDEN.read_text())
    assert (golden["model"], golden["prompt_length"]) == (SPEC.name, PROMPT_LENGTH)
    for name, lengths in workloads().items():
        assert golden["ablation"][name]["lengths"] == lengths.tolist()
    for entry in [*golden["ablation"].values(), *golden["grid"]]:
        lengths, capacity = entry["lengths"], entry["capacity"]
        for column, serve in (("static", serve_static), ("continuous", serve_continuous)):
            recorded = entry[column]
            assert serve(lengths, capacity) == (
                recorded["total_time"],
                recorded["n_steps"],
                recorded["slot_utilisation"],
            ), (column, lengths, capacity)
