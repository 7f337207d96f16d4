"""Rollout serving: continuous batching, paged KV, priorities, and SLOs.

The generation stage of §2.3 is a *serving* workload: many requests with
wildly different response lengths sharing a fixed set of decode slots and a
fixed KV budget.  The paper's evaluation pins response lengths equal
because "the baseline systems may not incorporate continuous-batching
optimization"; `repro.serving` is that optimisation made functional.

Part 1 runs a workload of skewed response lengths, all queued at once, and
shows the engine's iteration-level schedule beating static wave batching on
the same responses.

Part 2 serves a bursty Poisson stream with three priority classes under a
deliberately tight KV-block budget: requests are preempted and recomputed,
the block ledger never overflows, and the report shows TTFT/TPOT/latency
percentiles plus SLO attainment.

Part 3 drops the engine into a full RLHF system: the actor generates
through the `RolloutServer` (``use_serving=True``), EOS-terminated with a
``response_mask`` the losses respect — and greedy output stays bit-exact
with the sequential sampler.

Run:  python examples/rollout_serving.py
"""

import dataclasses

import numpy as np

from repro.config import GenParallelConfig, ParallelConfig
from repro.data import PromptDataset
from repro.models.tinylm import TinyLM
from repro.rlhf import AlgoType
from repro.runtime import TINY_LM, PlacementPlan, build_rlhf_system
from repro.serving import (
    RolloutServer,
    ServingConfig,
    sample_response_lengths,
    static_wave_steps,
)

CFG = dataclasses.replace(TINY_LM, max_seq_len=48)


def part1_matched_workload():
    print("=" * 72)
    print("Part 1: skewed lengths — continuous vs static batching")
    print("=" * 72)
    model = TinyLM(CFG, seed=0)
    rng = np.random.default_rng(0)
    lengths = sample_response_lengths(24, 8, 32, rng)
    server = RolloutServer(
        model, ServingConfig(max_slots=6, block_size=8, greedy=True)
    )
    for length in lengths:
        server.submit(
            rng.integers(0, CFG.vocab_size, size=4),
            max_new_tokens=int(length),
        )
    report = server.drain()
    for line in report.summary_lines():
        print(f"  {line}")
    static_steps = static_wave_steps(lengths, 6)
    print(f"  static wave batching : {static_steps} steps "
          f"({static_steps / report.n_steps:.2f}x the engine)")
    assert report.n_steps < static_steps


def part2_bursty_slo_stream():
    print()
    print("=" * 72)
    print("Part 2: bursty prioritised stream, tight KV budget, SLOs")
    print("=" * 72)
    model = TinyLM(CFG, seed=0)
    rng = np.random.default_rng(7)
    config = ServingConfig(
        max_slots=4,
        block_size=4,
        n_blocks=14,  # tight: forces preempt-and-recompute
        eos_token_id=0,
        slo_ttft=0.25,
        slo_latency=0.60,
        seed=7,
    )
    server = RolloutServer(model, config)
    arrival = 0.0
    for _ in range(24):
        arrival += float(rng.exponential(2.0)) * config.step_time
        server.submit(
            rng.integers(0, CFG.vocab_size, size=6),
            max_new_tokens=24,
            priority=int(rng.integers(0, 3)),
            arrival_time=arrival,
        )
        server.scheduler.check_invariants()
    report = server.drain()
    for line in report.summary_lines():
        print(f"  {line}")
    by_priority = {}
    for r in report.completed:
        by_priority.setdefault(r.priority, []).append(r.latency)
    print("  mean latency by priority class:")
    for prio in sorted(by_priority, reverse=True):
        lat = by_priority[prio]
        print(f"    priority {prio}: {np.mean(lat):.4f}s over {len(lat)} req")


def part3_serving_backed_actor():
    print()
    print("=" * 72)
    print("Part 3: the serving engine inside the RLHF pipeline")
    print("=" * 72)
    par = ParallelConfig(pp=1, tp=2, dp=1)
    plan = PlacementPlan.grouped(
        {"main": (par, ["actor", "critic", "reference", "reward"])},
        GenParallelConfig.derive(par, 1, 1),
    )

    def build(use_serving):
        return build_rlhf_system(
            AlgoType.PPO,
            plan,
            TINY_LM,
            max_new_tokens=8,
            lr=5e-3,
            eos_token_id=0,
            use_serving=use_serving,
        )

    dataset = PromptDataset(n_prompts=64, prompt_length=4, vocab_size=16, seed=1)
    prompts = dataset.batch(0, 8)
    served = build(True).groups["actor"].generate_sequences(
        prompts, do_sample=False
    ).get()
    plain = build(False).groups["actor"].generate_sequences(
        prompts, do_sample=False
    ).get()
    mask = served["response_mask"].astype(bool)
    assert np.array_equal(served["response_mask"], plain["response_mask"])
    assert np.array_equal(
        served["sequences"][:, 4:][mask], plain["sequences"][:, 4:][mask]
    )
    lengths = served["response_mask"].sum(axis=1).astype(int)
    print("  greedy serving output is bit-exact with the sequential sampler")
    print(f"  EOS-terminated response lengths: {lengths.tolist()}")

    system = build(True)
    history = system.trainer.train(dataset, 2, 8)
    print("  2 PPO iterations through the serving path, score_mean:",
          [round(h["score_mean"], 3) for h in history])
    tokens = system.controller.metrics.total("repro_serving_tokens_total")
    spans = system.controller.tracer.counts_by_category().get("serving", 0)
    print(f"  observability: {int(tokens)} served tokens, {spans} serving spans")


def main() -> None:
    part1_matched_workload()
    part2_bursty_slo_stream()
    part3_serving_backed_actor()


if __name__ == "__main__":
    main()
