"""Tests for the continuous-batching rollout serving engine.

Covers the paged block manager's budget accounting, the scheduler's
priority/aging/preemption policies, the engine's bit-exactness against the
sequential sampler, and its schedule of planned response lengths against the
Orca reference in ``tests/oracles.py`` and the recorded
``tests/golden/orca_schedules.json``.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.device import SimDevice
from repro.config import GpuSpec
from repro.models.sampler import generate
from repro.models.tinylm import KVStore, TinyLM, TinyLMConfig
from repro.observability.metrics import MetricsRegistry
from repro.serving import (
    BlockExhausted,
    PagedKVCache,
    RolloutServer,
    ServingConfig,
    ServingReport,
    kv_bytes_per_token,
    sample_response_lengths,
    serve_length_plan,
    static_wave_steps,
)
from tests.oracles import orca_trace_reference

ORCA_GOLDEN = pathlib.Path(__file__).parent / "golden" / "orca_schedules.json"

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=16,
    n_heads=2,
    ffn_hidden_size=24,
    vocab_size=13,
    max_seq_len=48,
)


@pytest.fixture
def model():
    return TinyLM(CFG, seed=4)


def make_server(model, **overrides):
    defaults = dict(max_slots=4, block_size=4, greedy=True)
    defaults.update(overrides)
    return RolloutServer(model, ServingConfig(**defaults))


def submit_all(server, prompts, budgets, **kwargs):
    for row, budget in zip(prompts, budgets):
        server.submit(row, max_new_tokens=int(budget), **kwargs)


def drain_with_invariants(server, max_steps=10_000):
    """Drain while asserting the block accounting after every step."""
    while server.pending:
        server.step()
        server.scheduler.check_invariants()
        if server._steps > max_steps:
            raise RuntimeError("did not drain")
    return server.report()


class TestPagedKVCache:
    def test_blocks_needed_rounds_up(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8)
        assert kv.blocks_needed(1) == 1
        assert kv.blocks_needed(4) == 1
        assert kv.blocks_needed(5) == 2
        assert kv.blocks_needed(0) == 0

    def test_reserve_release_roundtrip(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8)
        kv.reserve(0, 6)
        assert kv.blocks_in_use == 2
        assert len(kv.block_table(0)) == 2
        kv.reserve(0, 7)  # same block count: no new allocation
        assert kv.blocks_in_use == 2
        kv.reserve(0, 9)
        assert kv.blocks_in_use == 3
        kv.release(0)
        assert kv.blocks_in_use == 0
        assert kv.block_table(0) == []

    def test_exhaustion_raises_with_counts(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=2)
        kv.reserve(0, 8)
        with pytest.raises(BlockExhausted) as exc:
            kv.reserve(1, 4)
        assert exc.value.free == 0
        assert exc.value.total == 2

    def test_bytes_accounting_tracks_blocks(self):
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8)
        per_block = kv_bytes_per_token(CFG) * 4
        kv.reserve(0, 5)
        assert kv.bytes_in_use() == 2 * per_block
        kv.reserve(1, 3)
        assert kv.peak_bytes_in_use() == 3 * per_block
        kv.release(0)
        kv.release(1)
        assert kv.bytes_in_use() == 0
        assert kv.peak_bytes_in_use() == 3 * per_block

    def test_device_ledger_charged_and_freed(self):
        device = SimDevice(0, 0, GpuSpec())
        kv = PagedKVCache(CFG, block_size=4, n_blocks=8, device=device)
        kv.reserve(0, 8)
        assert device.memory.bytes_for("serving/kv_blocks") == kv.bytes_in_use()
        kv.release(0)
        assert device.memory.bytes_for("serving/kv_blocks") == 0


class TestStreamedHandoff:
    """drain(on_finish=...) hands each response off the moment it finishes."""

    def test_on_finish_fires_once_per_request_in_finish_order(self, model):
        server = make_server(model, max_slots=2)
        rng = np.random.default_rng(5)
        budgets = [2, 5, 3]
        for budget in budgets:
            server.submit(
                rng.integers(0, CFG.vocab_size, size=4),
                max_new_tokens=budget,
            )
        streamed = []
        report = server.drain(on_finish=streamed.append)
        assert len(streamed) == len(budgets)
        assert sorted(r.request_id for r in streamed) == [0, 1, 2]
        # the callback sees responses as they finish, not in submit order
        times = [r.finish_time for r in streamed]
        assert times == sorted(times)
        # and the same objects land in the final report
        assert {id(r) for r in streamed} == {id(r) for r in report.completed}

    def test_drain_without_callback_unchanged(self, model):
        server = make_server(model, max_slots=2)
        rng = np.random.default_rng(5)
        for _ in range(3):
            server.submit(
                rng.integers(0, CFG.vocab_size, size=4), max_new_tokens=2
            )
        report = server.drain()
        assert len(report.completed) == 3

    def test_max_steps_bounds_this_drain_not_the_servers_lifetime(self, model):
        server = make_server(model, max_slots=2)
        prompt = np.arange(4) % CFG.vocab_size
        for _ in range(2):
            server.submit(prompt, max_new_tokens=8)
        assert server.drain().n_steps == 8
        # a reused server: 8 lifetime steps behind it, 8 more needed
        server.submit(prompt, max_new_tokens=8)
        assert server.drain(max_steps=10).n_steps == 16
        # the bound still bites within one drain
        server.submit(prompt, max_new_tokens=8)
        with pytest.raises(RuntimeError, match="did not drain within 3 steps"):
            server.drain(max_steps=3)

    def test_max_steps_is_the_number_of_steps_taken(self, model):
        # budgets 2 and 5 on two slots: exactly 5 steps drain both
        def loaded():
            server = make_server(model, max_slots=2)
            for budget in (2, 5):
                server.submit(np.arange(4) % CFG.vocab_size, max_new_tokens=budget)
            return server

        assert loaded().drain(max_steps=5).n_steps == 5
        server = loaded()
        with pytest.raises(
            RuntimeError, match=r"within 4 steps \(1 requests pending\)"
        ):
            server.drain(max_steps=4)
        # the bound was tested before stepping: 4 steps taken, not 5
        assert server.report().n_steps == 4
        assert server.drain(max_steps=1).n_steps == 5


class TestScheduling:
    def test_priority_order_of_admission(self, model):
        server = make_server(model, max_slots=1)
        rng = np.random.default_rng(0)
        prompts = rng.integers(0, CFG.vocab_size, size=(3, 4))
        server.submit(prompts[0], max_new_tokens=2, priority=0)
        server.submit(prompts[1], max_new_tokens=2, priority=5)
        server.submit(prompts[2], max_new_tokens=2, priority=1)
        report = server.drain()
        finish = {r.request_id: r.finish_time for r in report.completed}
        assert finish[1] < finish[2] < finish[0]

    @staticmethod
    def _streaming_workload(server):
        """One low-priority request at t=0 plus a stream of high-priority
        arrivals timed so a fresh one is always waiting (1 slot, 2 steps
        per request)."""
        rng = np.random.default_rng(1)
        low = server.submit(
            rng.integers(0, CFG.vocab_size, size=4),
            max_new_tokens=2,
            priority=0,
            arrival_time=0.0,
        )
        step = server.config.step_time
        for i in range(20):
            server.submit(
                rng.integers(0, CFG.vocab_size, size=4),
                max_new_tokens=2,
                priority=10,
                arrival_time=2 * i * step,
            )
        return low

    def test_aging_prevents_starvation(self, model):
        # Aging raises the waiting request's effective priority without
        # bound, so it must overtake the stream of fresh priority-10
        # arrivals instead of finishing last.
        server = make_server(model, max_slots=1, aging=1.0, step_time=1.0)
        low = self._streaming_workload(server)
        report = server.drain()
        order = [r.request_id for r in sorted(
            report.completed, key=lambda r: r.finish_time
        )]
        assert order.index(low) < len(order) - 5

    def test_no_aging_starves_low_priority(self, model):
        # Control: aging disabled, the same stream starves the low request
        # until every high-priority arrival has been served.
        server = make_server(model, max_slots=1, aging=0.0, step_time=1.0)
        low = self._streaming_workload(server)
        report = server.drain()
        order = [r.request_id for r in sorted(
            report.completed, key=lambda r: r.finish_time
        )]
        assert order[-1] == low

    def test_arrivals_respected(self, model):
        server = make_server(model, max_slots=4, step_time=1.0)
        rng = np.random.default_rng(2)
        server.submit(
            rng.integers(0, CFG.vocab_size, size=4), 2, arrival_time=0.0
        )
        late = server.submit(
            rng.integers(0, CFG.vocab_size, size=4), 2, arrival_time=5.0
        )
        report = server.drain()
        by_id = {r.request_id: r for r in report.completed}
        assert by_id[late].first_token_time > 5.0

    def test_submit_rejects_oversized_and_unschedulable(self, model):
        server = make_server(model, n_blocks=2, block_size=4)
        prompt = np.zeros(4, dtype=int)
        with pytest.raises(ValueError):
            server.submit(prompt, max_new_tokens=CFG.max_seq_len)
        with pytest.raises(ValueError):
            # 4 + 8 tokens needs 3 blocks; the pool only ever has 2
            server.submit(prompt, max_new_tokens=8)
        with pytest.raises(ValueError):
            server.submit(np.zeros((2, 4), dtype=int), max_new_tokens=2)
        with pytest.raises(ValueError):
            server.submit(prompt, max_new_tokens=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_slots", 0),
            ("block_size", 0),
            ("n_blocks", 0),
            ("n_blocks", -1),
            ("step_time", 0.0),
            ("step_time", -1.0),
            ("slo_ttft", 0.0),
            ("slo_ttft", -1.0),
            ("slo_latency", 0.0),
            ("slo_latency", -1.0),
            ("aging", -1.0),
        ],
    )
    def test_config_rejects_what_no_server_could_run(self, field, value):
        # block_size=0 used to be a ZeroDivisionError deep in the server,
        # max_slots=0 surfaced as "n_blocks must be >= 1", and a non-positive
        # SLO ran and reported 0% attainment
        with pytest.raises(ValueError, match=field):
            ServingConfig(**{field: value})

    @pytest.mark.parametrize("temperature", [0.0, -0.5])
    def test_config_rejects_a_temperature_it_cannot_sample_at(self, temperature):
        # it used to pass, and the first step prefilled, then raised in
        # decode_step: the request stayed RUNNING, K/V cached, nothing emitted
        with pytest.raises(ValueError, match="temperature"):
            ServingConfig(temperature=temperature)
        ServingConfig(temperature=temperature, greedy=True)  # never samples


class TestBlockBudget:
    def test_blocks_never_exceed_budget_under_pressure(self, model):
        server = make_server(model, max_slots=4, n_blocks=9, block_size=4)
        rng = np.random.default_rng(3)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        submit_all(server, prompts, [10] * 8)
        peaks = []
        while server.pending:
            server.step()
            server.scheduler.check_invariants()
            peaks.append(server.kv.blocks_in_use)
        assert max(peaks) <= 9
        report = server.report()
        assert report.n_preemptions > 0
        assert report.peak_kv_blocks <= 9
        assert server.kv.blocks_in_use == 0

    def test_preemption_frees_cache_and_ledger(self, model):
        device = SimDevice(0, 0, GpuSpec())
        server = RolloutServer(
            model,
            ServingConfig(max_slots=4, n_blocks=9, block_size=4, greedy=True),
            device=device,
        )
        rng = np.random.default_rng(3)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        submit_all(server, prompts, [10] * 8)
        saw_preempted_free = False
        while server.pending:
            server.step()
            tag = device.memory.bytes_for("serving/kv_blocks")
            assert tag == server.kv.bytes_in_use()
            for req in server.scheduler.waiting:
                if req.n_preemptions:
                    assert req.slot is None and req.kv_len == 0
                    saw_preempted_free = True
        assert saw_preempted_free
        assert device.memory.bytes_for("serving/kv_blocks") == 0


class TestBitExactness:
    def test_greedy_matches_sequential_generate(self, model):
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, CFG.vocab_size, size=(6, 5))
        sequential = generate(model, prompts, max_new_tokens=7, greedy=True)
        server = make_server(model, max_slots=3)
        submit_all(server, prompts, [7] * 6)
        report = server.drain()
        for r in report.completed:
            np.testing.assert_array_equal(
                r.response, sequential.responses[r.request_id]
            )
            np.testing.assert_allclose(
                r.log_probs,
                sequential.response_log_probs[r.request_id],
                rtol=0,
                atol=0,
            )

    def test_greedy_exact_across_preemption(self, model):
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        sequential = generate(model, prompts, max_new_tokens=10, greedy=True)
        server = make_server(model, max_slots=4, n_blocks=9, block_size=4)
        submit_all(server, prompts, [10] * 8)
        report = drain_with_invariants(server)
        assert report.n_preemptions > 0
        for r in report.completed:
            np.testing.assert_array_equal(
                r.response, sequential.responses[r.request_id]
            )

    def test_greedy_eos_matches_sequential_generate(self, model):
        rng = np.random.default_rng(6)
        prompts = rng.integers(0, CFG.vocab_size, size=(6, 5))
        sequential = generate(
            model, prompts, max_new_tokens=9, greedy=True, eos_token_id=2
        )
        server = make_server(model, max_slots=3, eos_token_id=2)
        submit_all(server, prompts, [9] * 6)
        report = server.drain()
        for r in report.completed:
            n = r.response_length
            assert n == int(sequential.response_mask[r.request_id].sum())
            np.testing.assert_array_equal(
                r.response, sequential.responses[r.request_id][:n]
            )

    def test_sampled_decoding_invariant_under_preemption(self, model):
        # Per-request rngs consume one draw per emitted token, so evicting
        # and recomputing a sequence must not change what it samples.
        rng = np.random.default_rng(7)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        roomy = make_server(model, max_slots=4, greedy=False, seed=11)
        tight = make_server(
            model, max_slots=4, greedy=False, seed=11, n_blocks=9, block_size=4
        )
        submit_all(roomy, prompts, [10] * 8)
        submit_all(tight, prompts, [10] * 8)
        r_roomy = roomy.drain()
        r_tight = drain_with_invariants(tight)
        assert r_roomy.n_preemptions == 0
        assert r_tight.n_preemptions > 0
        for a, b in zip(r_roomy.completed, r_tight.completed):
            assert a.request_id == b.request_id
            np.testing.assert_array_equal(
                a.response, b.response
            )


def engine_trace(report):
    """Per-step ``(n_active, mean_progress)`` of a drained length plan, read
    off each request's stamps (one step per simulated second)."""
    active = [0] * report.n_steps
    progress = [0] * report.n_steps
    for r in report.completed:
        start = int(r.first_token_time) - 1
        for p in range(r.response_length):
            active[start + p] += 1
            progress[start + p] += p
    return [(n, done / n) for n, done in zip(active, progress)]


class TestAnalyticCrossCheck:
    """The engine against the Orca schedule of ``tests/oracles.py`` and the
    schedules the analytic twin it replaced recorded."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 64), min_size=1, max_size=24),
        capacity=st.integers(1, 8),
    )
    # the paper's control, equal lengths: both disciplines coincide
    @example(lengths=[32] * 16, capacity=8)
    # one long straggler holds a whole static wave
    @example(lengths=[4] * 15 + [256], capacity=8)
    @example(lengths=[3, 7, 1, 12, 5], capacity=2)
    @example(lengths=[4, 4], capacity=1)
    @example(lengths=[9, 5, 4, 11, 3, 5, 8, 9, 8, 10], capacity=4)
    @example(
        lengths=[22, 33, 1, 1, 18, 52, 22, 24, 89, 128, 104, 1, 72, 3, 34, 27,
                 100, 12, 10, 48, 2, 5, 33, 25, 55, 14, 15, 59, 55, 11, 7, 39],
        capacity=16,
    )
    def test_drain_is_the_orca_reference(self, lengths, capacity):
        report = serve_length_plan(lengths, capacity)
        assert report.n_preemptions == 0
        assert report.finish_reasons() == {"eos": len(lengths)}
        assert [r.response_length for r in report.completed] == lengths
        reference = orca_trace_reference(lengths, capacity)
        assert engine_trace(report) == reference
        assert report.n_steps == len(reference)
        occupied = sum(n for n, _ in reference)
        assert report.slot_utilisation == occupied / (len(reference) * capacity)
        assert report.total_tokens == sum(lengths) == occupied
        static = static_wave_steps(lengths, capacity)
        assert max(lengths) <= report.n_steps <= static
        if capacity == 1:
            assert report.n_steps == sum(lengths)
        if len(set(lengths)) == 1:
            waves = -(-len(lengths) // capacity)
            assert report.n_steps == static == waves * lengths[0]

    def test_step_accounting_matches_analytic_model(self, model):
        # Matched workload on a TinyLM: all requests at t=0, fixed budgets,
        # no preemption.  The engine must replay the Orca schedule exactly.
        rng = np.random.default_rng(8)
        lengths = [int(n) for n in rng.integers(2, 12, size=10)]
        prompts = rng.integers(0, CFG.vocab_size, size=(10, 4))
        server = make_server(model, max_slots=4, step_time=1.0)
        submit_all(server, prompts, lengths)
        report = server.drain()
        assert report.finish_reasons() == {"length": len(lengths)}
        reference = orca_trace_reference(lengths, 4)
        assert engine_trace(report) == reference
        occupied = sum(n for n, _ in reference)
        assert report.slot_utilisation == occupied / (len(reference) * 4)
        assert report.total_tokens == sum(lengths)
        # a different slot count is a different schedule: the check must bite
        assert engine_trace(report) != orca_trace_reference(lengths, 3)

    def test_drain_replays_the_recorded_schedules(self):
        golden = json.loads(ORCA_GOLDEN.read_text())
        for entry in [*golden["ablation"].values(), *golden["grid"]]:
            lengths, capacity = entry["lengths"], entry["capacity"]
            report = serve_length_plan(lengths, capacity)
            recorded = entry["continuous"]
            assert (report.n_steps, report.slot_utilisation) == (
                recorded["n_steps"],
                recorded["slot_utilisation"],
            )
            assert static_wave_steps(lengths, capacity) == entry["static"]["n_steps"]

    def test_fewer_steps_than_static_batching(self, model):
        # With EOS sampling, response lengths vary and continuous batching
        # must beat the wave schedule on the same realised lengths.
        rng = np.random.default_rng(9)
        prompts = rng.integers(0, CFG.vocab_size, size=(12, 4))
        server = make_server(
            model, max_slots=4, greedy=False, eos_token_id=2, seed=3
        )
        submit_all(server, prompts, [12] * 12)
        report = server.drain()
        assert "eos" in report.finish_reasons()
        realised = [r.response_length for r in report.completed]
        assert len(set(realised)) > 1  # the workload is actually variable
        assert report.n_steps < static_wave_steps(realised, 4)
        # and a TinyLM's drain is the Orca schedule of what it realised
        reference = orca_trace_reference(realised, 4)
        assert report.n_steps == len(reference)
        occupied = sum(n for n, _ in reference)
        assert report.slot_utilisation == occupied / (len(reference) * 4)

    def test_static_wave_steps(self):
        # each wave of 2 runs as long as its longest member: 9 + 7 + 5
        assert static_wave_steps([3, 9, 2, 7, 5, 1], 2) == 21


class TestSampleResponseLengths:
    def test_lengths_within_bounds(self):
        lengths = sample_response_lengths(100, 64, 256, np.random.default_rng(0))
        assert lengths.min() >= 1 and lengths.max() <= 256

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_response_lengths(0, 64, 256, rng)
        with pytest.raises(ValueError):
            sample_response_lengths(10, 64, 32, rng)


class TestLatencyAndSlo:
    def test_latency_stats_and_slo_attainment(self, model):
        server = make_server(
            model,
            max_slots=2,
            step_time=1.0,
            slo_ttft=2.5,
            slo_latency=6.0,
        )
        rng = np.random.default_rng(10)
        prompts = rng.integers(0, CFG.vocab_size, size=(4, 4))
        submit_all(server, prompts, [4] * 4)
        report = server.drain()
        # slots=2: requests 0/1 start at step 1, requests 2/3 at step 5
        by_id = {r.request_id: r for r in report.completed}
        assert by_id[0].ttft == pytest.approx(1.0)
        assert by_id[0].latency == pytest.approx(4.0)
        assert by_id[0].tpot == pytest.approx(1.0)
        assert by_id[2].ttft == pytest.approx(5.0)
        assert by_id[2].latency == pytest.approx(8.0)
        # 0 and 1 meet both SLOs; 2 and 3 miss both
        assert report.slo_attainment() == pytest.approx(0.5)
        assert report.mean_ttft() == pytest.approx(3.0)
        assert report.p95_latency() > report.mean_latency()

    def test_no_slo_configured_returns_none(self, model):
        server = make_server(model)
        server.submit(np.zeros(4, dtype=int), max_new_tokens=2)
        report = server.drain()
        assert report.slo_attainment() is None
        assert report.to_dict()["n_requests"] == 1
        assert any("slot utilisation" in line for line in report.summary_lines())


class TestServerConfig:
    def test_requires_lm_head(self):
        import dataclasses

        scalar = TinyLM(
            dataclasses.replace(CFG, output_head="scalar"), seed=0
        )
        with pytest.raises(ValueError):
            RolloutServer(scalar, ServingConfig())

    def test_rejects_eos_outside_vocab(self, model):
        with pytest.raises(ValueError):
            RolloutServer(model, ServingConfig(eos_token_id=CFG.vocab_size))

    def test_n_blocks_derived_from_device_memory(self, model):
        bytes_per_block = kv_bytes_per_token(CFG) * 16
        small = GpuSpec(memory_bytes=10 * bytes_per_block)
        device = SimDevice(0, 0, small)
        server = RolloutServer(
            model,
            ServingConfig(max_slots=8, block_size=16, memory_fraction=1.0),
            device=device,
        )
        assert server.kv.n_blocks == 10
        # without a device: capped at max_slots full-length sequences
        roomy = RolloutServer(
            model, ServingConfig(max_slots=2, block_size=16)
        )
        assert roomy.kv.n_blocks == 2 * -(-CFG.max_seq_len // 16)


class TestWorkerIntegration:
    """The serving-backed actor path inside a full RLHF system."""

    @staticmethod
    def _build(**kwargs):
        from repro.config import GenParallelConfig, ParallelConfig
        from repro.rlhf.core import AlgoType
        from repro.runtime import build_rlhf_system
        from repro.runtime.placement import ModelAssignment, PlacementPlan

        cfg = TinyLMConfig(
            n_layers=2,
            hidden_size=32,
            n_heads=4,
            ffn_hidden_size=48,
            vocab_size=16,
            max_seq_len=32,
        )
        par = ParallelConfig(pp=1, tp=2, dp=1)
        gen = GenParallelConfig.derive(par, 1, 1)
        models = ("actor", "critic", "reference", "reward")
        plan = PlacementPlan(
            pools={"main": 2},
            assignments={
                m: ModelAssignment(
                    "main", par, gen if m == "actor" else None
                )
                for m in models
            },
        )
        return build_rlhf_system(
            AlgoType.PPO, plan, cfg, max_new_tokens=8, lr=5e-3, **kwargs
        )

    def test_serving_actor_bit_exact_with_sequential(self):
        from repro.data.dataset import PromptDataset

        prompts = PromptDataset(
            n_prompts=16, prompt_length=4, vocab_size=16, seed=1
        ).batch(0, 8)
        served = self._build(use_serving=True)
        plain = self._build(use_serving=False)
        a = served.groups["actor"].generate_sequences(
            prompts, do_sample=False
        ).get()
        b = plain.groups["actor"].generate_sequences(
            prompts, do_sample=False
        ).get()
        np.testing.assert_array_equal(a["sequences"], b["sequences"])
        np.testing.assert_array_equal(a["old_log_probs"], b["old_log_probs"])

    def test_serving_ppo_trains_with_eos_masks(self):
        from repro.data.dataset import PromptDataset

        system = self._build(eos_token_id=0, use_serving=True)
        dataset = PromptDataset(
            n_prompts=32, prompt_length=4, vocab_size=16, seed=1
        )
        history = system.trainer.train(dataset, 1, 8)
        assert all(
            np.isfinite(v)
            for h in history
            for v in h.values()
            if isinstance(v, float)
        )
        # serving spans and metrics landed in the controller's registry
        assert system.controller.metrics.total(
            "repro_serving_tokens_total"
        ) > 0
        assert (
            system.controller.tracer.counts_by_category().get("serving", 0)
            > 0
        )


class TestPreemptionInvariant:
    """A reservation evicts only runners ranked after the requester."""

    def test_worst_ranked_requester_yields(self, model):
        # A (priority 1) and B (priority 0) both hold 2 blocks of 4 with 8
        # positions cached; one block is free.  In the step where both
        # need a third, A is served first and takes it, so B — the
        # worst-ranked runner — finds the pool empty with A already queued
        # for this step's forward.  B must yield; evicting A would decode
        # it without a slot and, as A finishes in this very step, crash
        # ``scheduler.finish``.
        server = make_server(model, max_slots=2, block_size=4, n_blocks=5)
        rng = np.random.default_rng(0)
        prompts = rng.integers(0, CFG.vocab_size, size=(2, 4))
        a = server.submit(prompts[0], max_new_tokens=6, priority=1)
        b = server.submit(prompts[1], max_new_tokens=8, priority=0)
        for _ in range(5):
            assert server.step() == []
            server.scheduler.check_invariants()
        assert server.kv.blocks_free == 1 and server.report().n_preemptions == 0
        finished = server.step()
        server.scheduler.check_invariants()
        assert [r.request_id for r in finished] == [a]
        (waiting,) = server.scheduler.waiting
        assert waiting.request_id == b
        assert waiting.slot is None and waiting.kv_len == 0
        report = drain_with_invariants(server)
        assert report.n_preemptions == 1
        sequential = generate(
            model, prompts, max_new_tokens=8, greedy=True
        )
        for r in report.completed:
            np.testing.assert_array_equal(
                r.response,
                sequential.responses[r.request_id][: r.response_length],
            )

    def test_preemption_counter_is_per_registry_not_per_server(self, model):
        # two servers, one registry: the counter is the sum of both, and
        # report() (a read) never moves it
        metrics = MetricsRegistry()
        rng = np.random.default_rng(3)
        prompts = rng.integers(0, CFG.vocab_size, size=(8, 6))
        expected = 0
        for _ in range(2):
            server = RolloutServer(
                model,
                ServingConfig(
                    max_slots=4, n_blocks=9, block_size=4, greedy=True
                ),
                metrics=metrics,
            )
            submit_all(server, prompts, [10] * 8)
            report = server.drain()
            assert report.n_preemptions > 0
            expected += report.n_preemptions
            server.report()
            assert (
                metrics.total("repro_serving_preemptions_total") == expected
            )


class TestForwardAccounting:
    def test_one_forward_per_step_whatever_the_kv_lengths(self, model):
        # budgets differ, so slots refill at different steps and the runners
        # of a step hold different KV lengths; only a step that also admits
        # (a whole prompt is another feed length) takes a second forward
        metrics = MetricsRegistry()
        server = RolloutServer(
            model,
            ServingConfig(max_slots=2, block_size=4, greedy=True),
            metrics=metrics,
        )
        submit_all(server, np.arange(12).reshape(3, 4) % CFG.vocab_size, [2, 5, 4])
        report = server.drain()
        assert (report.n_steps, report.n_forwards) == (6, 7)
        assert metrics.total("repro_serving_forwards_total") == 7
        assert report.to_dict()["n_forwards"] == 7
        assert "model forwards       : 7" in report.summary_lines()


@st.composite
def serving_runs(draw):
    """A whole serving run: requests, engine shape, a pool tight enough to
    preempt (the longest request just fits, plus 0-4 spare blocks)."""
    n = draw(st.integers(1, 8))

    def per_request(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    prompt_lengths, budgets = per_request(1, 7), per_request(1, 10)
    block_size = draw(st.sampled_from([2, 4]))
    longest = max(p + b for p, b in zip(prompt_lengths, budgets))
    return dict(
        prompt_lengths=prompt_lengths,
        budgets=budgets,
        priorities=per_request(0, 2),
        seed=draw(st.integers(0, 2**16)),
        config=dict(
            max_slots=draw(st.integers(1, 4)),
            block_size=block_size,
            n_blocks=-(-longest // block_size) + draw(st.integers(0, 4)),
            greedy=draw(st.booleans()),
            temperature=draw(st.sampled_from([0.7, 1.0, 1.5])),
            eos_token_id=draw(st.sampled_from([None, 2])),
        ),
    )


@st.composite
def grouped_runs(draw):
    """A ``serving_runs`` draw whose requests come in groups sharing one
    prompt (GRPO's samples per prompt), in submission order or shuffled."""
    n_prompts, size = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    order = draw(st.permutations(list(range(n_prompts * size))))
    groups = [i // size for i in order]
    prompt_lengths = draw(st.lists(st.integers(1, 9), min_size=n_prompts, max_size=n_prompts))
    budgets = draw(st.lists(st.integers(1, 8), min_size=len(groups), max_size=len(groups)))
    block_size = draw(st.sampled_from([2, 4]))
    longest = max(prompt_lengths[g] + b for g, b in zip(groups, budgets))
    return dict(
        prompt_lengths=prompt_lengths,
        groups=groups,
        budgets=budgets,
        priorities=draw(st.lists(st.integers(0, 1), min_size=len(groups), max_size=len(groups))),
        seed=draw(st.integers(0, 2**16)),
        config=dict(
            max_slots=draw(st.integers(1, 6)),
            block_size=block_size,
            n_blocks=-(-longest // block_size) + draw(st.integers(0, 6)),
            greedy=draw(st.booleans()),
            temperature=draw(st.sampled_from([0.7, 1.0])),
            eos_token_id=draw(st.sampled_from([None, 2])),
        ),
    )


def serve_checked(run, after_step=lambda server: None):
    """Run a ``serving_runs`` draw to completion — block/slot invariants and
    "one forward per distinct feed length" asserted every step, ``after_step``
    called between steps — then hold every request against ``generate`` on
    that request alone.  Returns the report."""
    model = TinyLM(CFG, seed=4)
    seed, config = run["seed"], run["config"]
    server = RolloutServer(model, ServingConfig(seed=seed, **config))
    rng = np.random.default_rng(seed)
    prompts = [
        rng.integers(0, CFG.vocab_size, size=n) for n in run["prompt_lengths"]
    ]
    # request i asks for prompt groups[i]: equal prompts, as a GRPO group's
    prompts = [prompts[g] for g in run.get("groups", range(len(prompts)))]
    for prompt, budget, priority in zip(
        prompts, run["budgets"], run["priorities"]
    ):
        server.submit(prompt, max_new_tokens=budget, priority=priority)

    feeds = []
    forward = model.forward

    def recording_forward(ids, cache=None, pos_offset=0):
        feeds.append(ids.shape[1])
        return forward(ids, cache=cache, pos_offset=pos_offset)

    model.forward = recording_forward
    n_forwards = 0
    while server.pending:
        feeds.clear()
        server.step()
        server.scheduler.check_invariants()
        # one forward per distinct number of tokens fed, whatever the rows'
        # KV lengths: every one-token decode shares a forward
        assert len(feeds) == len(set(feeds))
        n_forwards += len(feeds)
        assert server._steps < 1000
        after_step(server)
    model.forward = forward

    report = server.report()
    assert report.n_forwards == n_forwards
    assert len(report.completed) == len(prompts)
    for done in report.completed:
        alone = generate(
            model,
            prompts[done.request_id][None, :],
            max_new_tokens=run["budgets"][done.request_id],
            temperature=config["temperature"],
            greedy=config["greedy"],
            rng=np.random.default_rng((seed, done.request_id)),
            eos_token_id=config["eos_token_id"],
        )
        n = done.response_length
        assert n == alone.response_lengths[0]
        np.testing.assert_array_equal(done.response, alone.responses[0, :n])
        np.testing.assert_allclose(
            done.log_probs,
            alone.response_log_probs[0, :n],
            rtol=0,
            atol=1e-12 if done.n_preemptions else 0,
        )
    return report


def poison_unowned_kv(server):
    """NaN every store position no live row owns: free slots whole, held
    slots from the holder's cached length on."""
    owned = {req.slot: req.kv_len for req in server.scheduler.running}
    for buffers in (server.store.keys, server.store.values):
        for buffer in buffers:
            for slot in range(buffer.shape[0]):
                buffer[slot, owned.get(slot, 0) :] = np.nan


class TestEqualsBatchOneGenerate:
    """The engine against its oracle: ``generate`` on each request alone."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(run=serving_runs())
    def test_every_request_matches_generate_alone(self, run):
        # Cohorting, slot refill, priorities and preempt-and-recompute are
        # all invisible to output: the tokens of every request, sampled as
        # well as greedy, equal a batch-1 ``generate`` driven by that
        # request's own rng stream.  So do its log-probs, bit for bit —
        # except after a recompute, whose one prefill over ``prompt +
        # generated`` is the same sum in a different order (last-ulp).
        serve_checked(run)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(run=serving_runs())
    def test_stale_slots_cannot_leak(self, run):
        # The store is written in place and never cleared: what a finished
        # or preempted request left in its slot, and whatever lies past a
        # row's cached length, must be unreadable.  One NaN read would
        # reach a logit.
        serve_checked(run, after_step=poison_unowned_kv)

    def test_stale_slots_cannot_leak_under_preemption_and_reuse(self):
        run = dict(
            prompt_lengths=[6, 3, 7, 2, 5, 4, 6, 3, 1, 5],
            budgets=[10, 4, 8, 10, 3, 9, 6, 10, 7, 5],
            priorities=[0, 1, 0, 2, 0, 1, 0, 0, 2, 1],
            seed=11,
            config=dict(
                max_slots=4, block_size=4, n_blocks=7, greedy=False,
                temperature=1.0, eos_token_id=None,
            ),
        )
        report = serve_checked(run, after_step=poison_unowned_kv)
        assert report.n_preemptions > 0
        assert len(report.completed) > run["config"]["max_slots"]  # slots reused
        assert report.n_forwards < 2 * report.n_steps


class TestHeldSlotsAreTheLowest:
    """Each step first moves its runners into slots ``0..n-1`` (their
    cached K/V with them) and admits into the next ones, so after
    ``schedule()`` the held slots are ``range(len(running))``, and a cohort
    of decoders, or of admissions, binds the store as views."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(run=st.one_of(serving_runs(), grouped_runs()))
    def test_held_slots_are_range_of_runners(self, run):
        seed = run["seed"]
        server = RolloutServer(TinyLM(CFG, seed=4), ServingConfig(seed=seed, **run["config"]))
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, CFG.vocab_size, size=n) for n in run["prompt_lengths"]]
        for g, budget in zip(run.get("groups", range(len(prompts))), run["budgets"]):
            server.submit(prompts[g], max_new_tokens=budget)
        schedule, forward = server.scheduler.schedule, server._forward_cohort
        recomputing = []

        def checked(now):
            admitted = schedule(now)
            held = sorted(req.slot for req in server.scheduler.running)
            assert held == list(range(len(held)))
            recomputing[:] = [req for req in admitted if not req.fresh]
            return admitted

        def prefills_first(cohort, sources):
            # a cohort's admissions that prefill sit below the ones reusing
            # a group-mate's prefill, and (no recompute admitted between
            # them) hold one run of slots
            fresh = sorted(req.slot for req in cohort if req.fresh)
            prefills = sorted(
                req.slot for req in cohort if req.fresh and req.request_id not in sources
            )
            assert prefills == fresh[: len(prefills)]
            if prefills and not recomputing:
                assert prefills == list(range(prefills[0], prefills[0] + len(prefills)))
            return forward(cohort, sources)

        server.scheduler.schedule = checked
        server._forward_cohort = prefills_first
        drain_with_invariants(server)

    def test_two_groups_admitted_together_bind_views_only(self, model):
        # two GRPO groups in one step: the second group's leader used to sit
        # past the first group's reusers, and the prefill gathered its rows
        server = make_server(model, max_slots=8, n_blocks=64)
        prompts = np.random.default_rng(6).integers(0, CFG.vocab_size, size=(2, 4))
        rows = np.repeat(prompts, 4, axis=0)
        submit_all(server, rows, [5, 3, 6, 4, 2, 5, 3, 4])
        at, binds = KVStore.at, []

        def bound(store, *args, **kwargs):
            view = at(store, *args, **kwargs)
            binds.append(view.run is not None)
            return view

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KVStore, "at", bound)
            report = drain_with_invariants(server)
        assert report.prefix_hits == 6 and report.n_preemptions == 0
        assert binds and all(binds)
        for done in report.completed:
            alone = generate(model, rows[done.request_id][None],
                             max_new_tokens=done.response_length, greedy=True)
            np.testing.assert_array_equal(done.response, alone.responses[0])

    def test_a_drain_without_preemption_gathers_nothing(self, model):
        # budgets differ, so runners finish at different steps and leave
        # holes; admissions and decoders each bind one run of slots
        server = make_server(model, max_slots=4, n_blocks=64)
        prompts = np.random.default_rng(5).integers(0, CFG.vocab_size, size=(10, 4))
        budgets = [3, 9, 5, 2, 7, 4, 8, 6, 3, 5]
        submit_all(server, prompts, budgets)
        at, binds = KVStore.at, []

        def bound(store, *args, **kwargs):
            view = at(store, *args, **kwargs)
            binds.append(view.run is not None)
            return view

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KVStore, "at", bound)
            report = drain_with_invariants(server)
        assert report.n_preemptions == 0 and len(binds) == report.n_forwards
        assert all(binds)
        for done in report.completed:  # moved runners decode as if never moved
            alone = generate(model, prompts[done.request_id][None],
                             max_new_tokens=budgets[done.request_id], greedy=True)
            np.testing.assert_array_equal(done.response, alone.responses[0])


class TestGroupedPromptIsPrefilledOnce:
    """Requests sharing a prompt (a GRPO group) prefill it once: a fresh
    admission whose prompt another runner prefills in the same step, or
    holds from its own prompt prefill, copies that K/V and samples from the
    same logits, and shares the prompt's full KV blocks.  Output stays the
    oracle's: ``generate`` on each request alone, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(run=grouped_runs())
    def test_every_request_matches_generate_alone(self, run):
        serve_checked(run, after_step=poison_unowned_kv)

    def test_group_prefills_once_and_shares_its_blocks(self, model):
        prompts = np.random.default_rng(2).integers(0, CFG.vocab_size, size=(2, 8))
        reports = {}
        for name, rows in (("grouped", np.repeat(prompts, 4, axis=0)),
                           ("distinct", np.random.default_rng(3).integers(
                               0, CFG.vocab_size, size=(8, 8)))):
            server = make_server(model, max_slots=8, block_size=4)
            submit_all(server, rows, [6] * 8)
            reports[name] = drain_with_invariants(server)
        grouped, distinct = reports["grouped"], reports["distinct"]
        # two prompts, prefilled once each: six admissions reuse one
        assert (grouped.prefix_hits, grouped.reused_prompt_tokens) == (6, 48)
        assert (distinct.prefix_hits, distinct.reused_prompt_tokens) == (0, 0)
        assert grouped.n_steps == distinct.n_steps == 6
        # a 2-block prompt held once per group: 8 x 2 blocks become 2 x 2
        assert distinct.peak_kv_blocks - grouped.peak_kv_blocks == 12
        assert "6 admissions (48 prompt tokens not prefilled)" in "\n".join(
            grouped.summary_lines()
        )

    def test_a_late_group_member_reuses_a_resident_prompt(self, model):
        # one slot frees at a time: members 2 and 3 are admitted while
        # member 1 decodes, and copy its prompt K/V instead of prefilling
        prompt = np.arange(6) % CFG.vocab_size
        metrics = MetricsRegistry()
        server = RolloutServer(
            model, ServingConfig(max_slots=2, block_size=4, greedy=True),
            metrics=metrics,
        )
        for budget in (3, 8, 2, 4):
            server.submit(prompt, max_new_tokens=budget)
        report = drain_with_invariants(server)
        assert report.prefix_hits == 3
        # the one prefill shares step 0 with nothing; every later step is
        # one decode forward, admissions included
        assert report.n_forwards == report.n_steps
        assert metrics.total("repro_serving_prefix_hits_total") == 3
        alone = generate(model, prompt[None, :], max_new_tokens=8, greedy=True)
        for done in report.completed:
            n = done.response_length
            np.testing.assert_array_equal(done.response, alone.responses[0, :n])
            assert np.array_equal(done.log_probs, alone.response_log_probs[0, :n])

    def test_a_recomputed_prompt_is_not_reused(self, model):
        # a preempted runner rebuilds its K/V by one prefill over prompt +
        # generated: the same sum in another order, so a later request of
        # its prompt prefills for itself
        prompt = np.arange(6) % CFG.vocab_size
        server = make_server(model, max_slots=4, n_blocks=9, block_size=4)
        submit_all(server, np.repeat(prompt[None, :], 8, axis=0), [10] * 8)
        recomputed = 0
        while server.pending:
            server.step()
            server.scheduler.check_invariants()
            for req in server.scheduler.running:
                if req.kv_len:  # a holder is exactly a never-recomputed runner
                    assert (req.prompt_logits is None) == (req.recomputed_tokens > 0)
                    recomputed += req.recomputed_tokens > 0
        report = server.report()
        assert report.n_preemptions > 0 and recomputed > 0
        sequential = generate(model, prompt[None, :], max_new_tokens=10, greedy=True)
        for done in report.completed:
            np.testing.assert_array_equal(done.response, sequential.responses[0])


def _empty_report():
    return ServingReport(
        completed=[],
        n_steps=0,
        n_forwards=0,
        total_tokens=0,
        slot_utilisation=0.0,
        n_preemptions=0,
        recomputed_tokens=0,
        kv_blocks_total=8,
        peak_kv_blocks=0,
        peak_kv_bytes=0,
    )


class TestEmptyReportAggregates:
    def test_percentile_of_empty_samples_is_none(self):
        report = _empty_report()
        assert report._percentile([], 95) is None
        assert report.mean_ttft() is None
        assert report.p95_ttft() is None
        assert report.mean_tpot() is None
        assert report.mean_latency() is None
        assert report.p95_latency() is None
        assert report.slo_attainment() is None

    def test_summary_renders_missing_stats_as_na(self):
        text = "\n".join(_empty_report().summary_lines())
        assert "n/a" in text
        assert "0.0000" not in text.split("TTFT")[1].splitlines()[0]
        # a missing aggregate has no unit
        assert "n/a s" not in text
        assert "TPOT mean            : n/a" in text.splitlines()
        assert "TTFT mean / p95      : n/a / n/a" in text.splitlines()
