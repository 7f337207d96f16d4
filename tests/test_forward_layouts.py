"""Scoring and training forwards pinned across the move to one forward layout.

``tests/golden/forward_layouts.json`` holds, for every layout a scoring or
training forward takes — dense rows, EOS-ragged rows, a GRPO group's shared
prompt, a tail from the prompt on, and streams of one to three tokens — at
hidden 16 and hidden 64, both heads: the forward's output (log-probs or
values) and the norm of each parameter's gradient of ``<output, probe>``.
It was recorded with the layout each of those had before every uncached
forward ran the cached path's tiled stream (docs/PERF.md, "One forward
layout"), through the ``lengths`` / ``prefix`` / ``read_from`` keywords
that :class:`~repro.models.tinylm.Layout` replaced.  That move may change
values by rounding only: outputs must agree to ``RTOL`` of each case's
largest output, gradient norms to ``RTOL`` relative, and every position a
layout does not compute must still read 0.  Re-record (only for a change
that says why)::

    PYTHONPATH=src python -c "from tests.test_forward_layouts import regen_golden; regen_golden()"
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.models.tinylm import TinyLM, TinyLMConfig

GOLDEN = pathlib.Path(__file__).parent / "golden" / "forward_layouts.json"
RTOL = 1e-12

CONFIGS = {
    "h16": TinyLMConfig(
        n_layers=2, hidden_size=16, n_heads=2, ffn_hidden_size=24,
        vocab_size=16, max_seq_len=40,
    ),
    "h64": TinyLMConfig(
        n_layers=2, hidden_size=64, n_heads=4, ffn_hidden_size=128,
        vocab_size=64, max_seq_len=64,
    ),
}


def _rows(name, vocab):
    """``(ids, lengths, prompt_length)`` of the layout called ``name``."""
    rng = np.random.default_rng(LAYOUTS.index(name))
    b, t, p = 6, 20, 8
    ids = rng.integers(0, vocab, size=(b, t))
    if name == "dense":
        return ids, None, 0
    if name == "ragged":
        return ids, rng.integers(2, t + 1, size=b), 0
    if name == "grpo":  # two groups of three rows share their prompt
        ids[:, :p] = np.repeat(ids[[0, 3], :p], 3, axis=0)
        return ids, rng.integers(p + 1, t + 1, size=b), p
    if name == "tail":  # every row returns its response only
        return ids, None, p
    # streams of one to three tokens
    tiny = {
        "tiny_1": (rng.integers(0, vocab, size=(1, 2)), None, 0),
        "tiny_2": (rng.integers(0, vocab, size=(1, 3)), None, 0),
        "tiny_3": (rng.integers(0, vocab, size=(2, 3)), np.array([2, 3]), 0),
        "tiny_tail": (rng.integers(0, vocab, size=(2, 4)), None, 3),
    }
    return tiny[name]


LAYOUTS = ("dense", "ragged", "grpo", "tail", "tiny_1", "tiny_2", "tiny_3", "tiny_tail")
CASES = [f"{c}/{head}/{layout}" for c in CONFIGS for head in ("lm", "scalar") for layout in LAYOUTS]


def run(case, call):
    """Output and gradient norms of ``case``; ``call(model, ids, lengths,
    prompt_length)`` runs the forward."""
    config, head, layout = case.split("/")
    cfg = CONFIGS[config]
    model = TinyLM(dataclasses.replace(cfg, output_head=head), seed=CASES.index(case))
    ids, lengths, prompt = _rows(layout, cfg.vocab_size)
    out = call(model, ids, lengths, prompt)
    lm = head == "lm"
    full = np.full(len(ids), ids.shape[1]) if lengths is None else lengths
    first = max(prompt - 1, 0)
    real = np.arange(first, first + out.shape[1]) < (full - lm)[:, None]
    probe = np.random.default_rng(7).normal(size=out.shape) * real
    model.zero_grad()
    (out * probe).sum().backward()
    norms = {
        name: float(np.linalg.norm(p.grad)) if p.grad is not None else 0.0
        for name, p in model.params.items()
    }
    return out.data, real, norms


def layout_call(model, ids, lengths, prompt):
    from repro.models.tinylm import Layout

    layout = Layout(lengths, prompt)
    if model.config.output_head == "lm":
        return model.token_log_probs(ids, layout)
    return model.values(ids, layout)


def regen_golden() -> None:
    doc = {}
    for case in CASES:
        out, _real, norms = run(case, layout_call)
        doc[case] = {"out": out.tolist(), "grad_norms": norms}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_forward_matches_golden(golden, case):
    out, real, norms = run(case, layout_call)
    want = np.asarray(golden[case]["out"])
    assert out.shape == want.shape
    assert not out[~real].any() and not want[~real].any()
    scale = np.abs(want).max()
    assert np.abs(out - want).max() <= RTOL * scale, case
    for name, norm in golden[case]["grad_norms"].items():
        assert abs(norms[name] - norm) <= RTOL * norm, (case, name)
