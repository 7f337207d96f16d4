"""Continuous (Orca) against static wave batching, on the rollout server.

Each workload drains planned response lengths through the real engine
(``repro.serving.serve_length_plan``) and compares its schedule with the
static waves of the same lengths and with the Orca reference in
``tests/oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    ServingConfig,
    sample_response_lengths,
    serve_length_plan,
    static_wave_steps,
)
from tests.oracles import orca_trace_reference


def static_utilisation(lengths, capacity):
    steps = static_wave_steps(lengths, capacity)
    return sum(lengths) / (steps * capacity)


def static_row_steps(lengths, capacity):
    """Rows static waves decode: a wave keeps its padded slots in the batch
    until its longest member finishes.  The engine decodes only its live
    requests, one row per token (``report.total_tokens``)."""
    waves = [lengths[i : i + capacity] for i in range(0, len(lengths), capacity)]
    return sum(len(wave) * max(wave) for wave in waves)


class TestServing:
    def test_equal_lengths_make_disciplines_equal(self):
        """With the paper's fairness control (all lengths equal) the two
        disciplines coincide — which is why §8.1 could enforce it."""
        lengths = [32] * 16
        report = serve_length_plan(lengths, 8)
        assert report.n_steps == static_wave_steps(lengths, 8) == 64
        assert report.slot_utilisation == static_utilisation(lengths, 8) == 1.0

    def test_skewed_lengths_favour_continuous(self):
        lengths = [4] * 15 + [256]
        report = serve_length_plan(lengths, 8)
        # the straggler sets both makespans; static waves pad 7 slots
        # through it, the engine decodes it alone
        assert report.n_steps == static_wave_steps(lengths, 8) == 260
        assert report.total_tokens == 316 < static_row_steps(lengths, 8) == 2080
        assert report.slot_utilisation >= static_utilisation(lengths, 8)

    def test_all_requests_complete(self):
        lengths = [3, 7, 1, 12, 5]
        report = serve_length_plan(lengths, 2)
        assert report.finish_reasons() == {"eos": len(lengths)}
        assert [r.response_length for r in report.completed] == lengths
        # steps must cover the total generated tokens at >= 1 token/step
        assert report.n_steps >= max(lengths)
        assert report.n_steps <= sum(lengths)
        assert report.n_steps == len(orca_trace_reference(lengths, 2))

    def test_capacity_one_serialises(self):
        report = serve_length_plan([4, 4], 1)
        assert report.n_steps == 8
        assert report.slot_utilisation == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(max_slots=0)
        with pytest.raises(ValueError):
            serve_length_plan([3], 0)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 50),
        capacity=st.sampled_from([4, 8, 16]),
    )
    def test_continuous_never_slower_property(self, seed, capacity):
        rng = np.random.default_rng(seed)
        lengths = [int(n) for n in sample_response_lengths(32, 32, 128, rng)]
        report = serve_length_plan(lengths, capacity)
        assert report.n_preemptions == 0
        assert report.n_steps <= static_wave_steps(lengths, capacity)
        assert report.total_tokens <= static_row_steps(lengths, capacity)
        assert report.slot_utilisation >= static_utilisation(lengths, capacity)
