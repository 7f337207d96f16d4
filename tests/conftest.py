"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as bench/run.py runs: with more,
# OpenBLAS splits a large GEMM's rows between its threads at rows / threads
# on some kernels (Haswell), not at whole tiles, and a row's bits then depend
# on the matrix it sits in (docs/PERF.md, "One forward layout").
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_key, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.config import ClusterSpec, GenParallelConfig, ParallelConfig  # noqa: E402
from repro.models.tinylm import TinyLMConfig  # noqa: E402


@pytest.fixture
def tiny_lm_config() -> TinyLMConfig:
    return TinyLMConfig(
        n_layers=2,
        hidden_size=32,
        n_heads=4,
        ffn_hidden_size=48,
        vocab_size=32,
        max_seq_len=32,
    )


@pytest.fixture
def tiny_scalar_config(tiny_lm_config) -> TinyLMConfig:
    import dataclasses

    return dataclasses.replace(tiny_lm_config, output_head="scalar")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_cluster_spec() -> ClusterSpec:
    return ClusterSpec(n_machines=1, gpus_per_machine=8)


def make_plan(parallel: ParallelConfig, gen: GenParallelConfig):
    """A colocated placement plan for the standard PPO model set."""
    from repro.runtime.placement import PlacementPlan

    models = ["actor", "critic", "reference", "reward"]
    return PlacementPlan.grouped({"shared": (parallel, models)}, gen)


def build_small_ppo(
    tiny_lm_config,
    parallel=ParallelConfig(pp=1, tp=2, dp=2),
    gen_tp=1,
    gen_pp=1,
    reward_fn=None,
    **kwargs,
):
    """A ready 4-GPU PPO system on the tiny model."""
    from repro.rlhf.core import AlgoType
    from repro.runtime import build_rlhf_system
    from repro.runtime.placement import ModelAssignment, PlacementPlan

    gen = GenParallelConfig.derive(parallel, gen_pp, gen_tp)
    if reward_fn is None:
        plan = make_plan(parallel, gen)
    else:
        # non-NN reward functions run on a single rank (one_to_one protocol)
        plan = PlacementPlan(
            pools={"main": parallel.world_size, "reward_pool": 1},
            assignments={
                "actor": ModelAssignment("main", parallel, gen),
                "critic": ModelAssignment("main", parallel),
                "reference": ModelAssignment("main", parallel),
                "reward": ModelAssignment(
                    "reward_pool", ParallelConfig(pp=1, tp=1, dp=1)
                ),
            },
        )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        tiny_lm_config,
        reward_fn=reward_fn,
        max_new_tokens=kwargs.pop("max_new_tokens", 6),
        **kwargs,
    )
