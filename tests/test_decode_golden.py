"""Generated tokens pinned across changes to the decode arithmetic.

``tests/golden/decode_tokens.json`` holds the sequences, response masks and
generation log-probs of ``repro bench``'s ``sequential_generate`` and
``serving_drain`` configs and of each ``bench/`` workload's first rollout at
seed 0.  It was recorded before the cached forward moved to one attention
core at a canonical key width (docs/PERF.md, "one attention core per decode
forward"): that move may change log-probs by rounding only, so tokens and
masks must match exactly and log-probs to 1e-12 relative.  Re-record (only
for a change that says why)::

    PYTHONPATH=src python -c "from tests.test_decode_golden import regen_golden; regen_golden()"
"""

import json
import pathlib

import numpy as np
import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "decode_tokens.json"
BENCH_PERF = pathlib.Path(__file__).parent.parent / "BENCH_perf.json"
LOGP_RTOL = 1e-12


def _pins(name):
    return json.loads(BENCH_PERF.read_text())["workloads"][name]["pins"]


def sequential_generate():
    from repro.models.sampler import generate
    from repro.perf.bench import _model_and_prompts

    pins = _pins("sequential_generate")
    model, prompts = _model_and_prompts(pins, pins["batch"])
    out = generate(
        model,
        prompts,
        max_new_tokens=pins["max_new_tokens"],
        rng=np.random.default_rng(pins["seed"]),
    )
    return {"sequences": out.sequences, "log_probs": out.response_log_probs}


def serving_drain():
    from repro.perf.bench import _model_and_prompts
    from repro.serving import RolloutServer, ServingConfig

    pins = _pins("serving_drain")
    model, prompts = _model_and_prompts(pins, pins["n_requests"])
    budgets = np.random.default_rng(pins["seed"]).integers(
        pins["min_new_tokens"], pins["max_new_tokens"] + 1, size=pins["n_requests"]
    )
    server = RolloutServer(
        model, ServingConfig(max_slots=pins["max_slots"], seed=pins["seed"])
    )
    for prompt, budget in zip(prompts, budgets):
        server.submit(prompt, max_new_tokens=int(budget))
    done = server.drain().completed
    return {
        "responses": [r.response for r in done],
        "log_probs": [r.log_probs for r in done],
    }


def first_rollout(name):
    """A ``bench/`` workload's first-iteration ``generate_sequences`` output
    at seed 0, from a freshly built system."""
    from bench.workloads import BY_NAME, Job

    workload = BY_NAME[name]
    job = Job(workload, seed=0)
    gen = job.trainer.rollout(job.dataset.batch(0, workload.batch_size))
    out = {"sequences": gen["sequences"], "log_probs": gen["old_log_probs"]}
    if "response_mask" in gen.tensors:
        out["response_mask"] = gen["response_mask"]
    return out


SOURCES = {
    "sequential_generate": sequential_generate,
    "serving_drain": serving_drain,
    **{
        f"bench/{name}": (lambda name=name: first_rollout(name))
        for name in (
            "ppo_train_heavy",
            "grpo_serve_ragged",
            "safe_many_rank_small",
            "async_ppo_w1",
        )
    },
}


def _listed(value):
    if isinstance(value, list):
        return [np.asarray(v).tolist() for v in value]
    return np.asarray(value).tolist()


def regen_golden() -> None:
    doc = {
        name: {key: _listed(v) for key, v in source().items()}
        for name, source in SOURCES.items()
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_decode_matches_golden(golden, name):
    expected, got = golden[name], SOURCES[name]()
    assert sorted(expected) == sorted(got)
    for key, recorded in expected.items():
        rows = got[key] if isinstance(got[key], list) else list(got[key])
        assert len(rows) == len(recorded), key
        for i, (row, want) in enumerate(zip(rows, recorded)):
            row, want = np.asarray(row), np.asarray(want, dtype=row.dtype)
            if key == "log_probs":
                bound = LOGP_RTOL * np.abs(want)
                assert np.all(np.abs(row - want) <= bound), f"{name} row {i}"
            else:
                # a flipped token names its draw: source, row and position
                flips = np.flatnonzero(row != want).tolist()
                assert not flips, f"{name} {key} row {i} differs at {flips}"
