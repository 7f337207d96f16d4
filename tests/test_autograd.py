"""Gradient checks: every primitive against its op-by-op oracle and central
differences, HIPS autograd's ``check_grads`` discipline.

``REGISTRY`` names every differentiable primitive the program exports — the
fused functions of ``repro.models.autograd``, ``Tensor``'s own operators and
the public RLHF losses (one tape node each) — with a strategy for its inputs
and its op-by-op spelling from ``tests/oracles.py``.  One derandomised
property grades every entry; a public primitive missing from the registry,
or a public name nothing under ``src/repro`` calls, fails the tests below
it.  The rest of the file pins the tape's own rules and grades the oracle's
generic ops, which the property trusts.
"""

import dataclasses
import inspect
import pathlib
import re
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import autograd as ag
from repro.models.autograd import Tensor, no_grad
from repro.rlhf import losses as L
from tests import oracles as O
from tests.oracles import OpTensor

ROOT = pathlib.Path(__file__).resolve().parents[1]


def finite_diff(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


# -- the registry ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Primitive:
    """How to draw inputs for a primitive, call it, and spell it op by op.

    ``draw(data, rng)`` returns ``(arrays, consts)``: the differentiable
    inputs and the keyword constants.  ``oracle`` takes the same arguments
    as ``fused`` with every array an ``OpTensor``; ``None`` marks one of
    ``Tensor``'s own operators, which are their own op-by-op spelling.
    ``exact``: gradients must equal the oracle's bit for bit, else agree to
    ``GRAD_RTOL`` of the oracle's largest entry (at least 1).
    """

    draw: Callable
    fused: Callable
    oracle: Optional[Callable]
    exact: bool = False


#: fused VJPs sum in another order than the op-by-op tape (closed-form
#: softmax/RMSNorm backward, one GEMM over batch * seq); inputs are O(1),
#: so a gradient that cancels to near zero (RMSNorm over one feature) is
#: held to unit scale
GRAD_RTOL = 2e-15


def _ints(data, lo, hi):
    return data.draw(st.integers(lo, hi))


def _responses(data, rng):
    """``(batch, T)`` log-probs and a ragged response mask (or none)."""
    b, t = _ints(data, 1, 8), _ints(data, 1, 23)
    log_probs = rng.normal(-1.0, 0.5, size=(b, t))
    mask = None
    if data.draw(st.booleans()):
        lengths = rng.integers(0, t + 1, size=b)
        mask = (np.arange(t) < lengths[:, None]).astype(np.float64)
    return log_probs, mask


def _draw_policy(data, rng, weighted=True):
    log_probs, mask = _responses(data, rng)
    consts = {
        "old_log_probs": log_probs + rng.normal(scale=0.3, size=log_probs.shape),
        "advantages": rng.normal(size=log_probs.shape),
        "clip_ratio": data.draw(st.sampled_from([0.1, 0.2])),
        "response_mask": mask,
    }
    if weighted and data.draw(st.booleans()):
        consts["importance_weights"] = rng.uniform(0.5, 2.0, size=log_probs.shape)
    return [log_probs], consts


def _draw_value(data, rng):
    values, mask = _responses(data, rng)
    return [values], {
        "old_values": values + rng.normal(scale=0.3, size=values.shape),
        "returns": rng.normal(size=values.shape),
        "clip_range": data.draw(st.sampled_from([0.1, 0.2])),
        "response_mask": mask,
    }


def _draw_kl(data, rng):
    log_probs, mask = _responses(data, rng)
    return [log_probs], {
        "ref_log_probs": log_probs + rng.normal(scale=0.5, size=log_probs.shape),
        "kind": data.draw(st.sampled_from(["k1", "k3"])),
        "response_mask": mask,
    }


def _draw_grpo(data, rng):
    arrays, consts = _draw_policy(data, rng)
    ref = arrays[0] + rng.normal(scale=0.5, size=arrays[0].shape)
    return arrays, dict(consts, ref_log_probs=ref, kl_coef=0.04)


def _draw_safe(data, rng):
    arrays, consts = _draw_policy(data, rng, weighted=False)
    return arrays, {
        "old_log_probs": consts["old_log_probs"],
        "reward_advantages": consts["advantages"],
        "cost_advantages": rng.normal(size=arrays[0].shape),
        "lagrange_multiplier": data.draw(st.sampled_from([0.0, 0.5, 2.0])),
        "clip_ratio": consts["clip_ratio"],
        "response_mask": consts["response_mask"],
    }


def _draw_embed(data, rng):
    b, t, vocab, h = (_ints(data, 1, n) for n in (3, 4, 6, 4))
    per_row = data.draw(st.booleans())
    offset = rng.integers(0, 3, size=(b, 1)) if per_row else int(rng.integers(0, 3))
    ids = rng.integers(0, vocab, size=(b, t))  # repeated ids: rows sum
    tables = [rng.normal(size=(vocab, h)), rng.normal(size=(t + 3, h))]
    return tables, {"token_ids": ids, "positions": np.broadcast_to(offset + np.arange(t), (b, t))}


def _draw_mlp(data, rng):
    b, t, h = _ints(data, 1, 3), _ints(data, 1, 4), _ints(data, 1, 3)
    f = h + _ints(data, 0, 3)
    arrays = [rng.normal(size=(b, t, h))]
    arrays += [rng.normal(scale=0.5, size=s) for s in [(h, f), (h, f), (f, h)]]
    if data.draw(st.booleans()):
        arrays.append(rng.normal(size=(b, t, h)))  # the residual
    return arrays, {}


def _draw_attention(data, rng):
    stream, n = _draw_stream(data, rng, last_layer=data.draw(st.booleans()))
    heads = _ints(data, 1, 2)
    h = heads * _ints(data, 1, 3)
    arrays = [rng.normal(size=(n, h))]
    arrays += [rng.normal(scale=0.5, size=(h, h)) for _ in range(4)]
    if data.draw(st.booleans()):
        arrays.append(rng.normal(size=(n, h)))  # the residual
    return arrays, {"n_heads": heads, "stream": stream}


def _draw_rms_norm(data, rng):
    h = _ints(data, 2, 6)  # over one feature it is sign(x) * w: a zero VJP
    return [rng.normal(size=(2, _ints(data, 1, 3), h)), rng.normal(size=h)], {
        "eps": 1e-5
    }


def _draw_logits(data, rng):
    rows, vocab = (2, _ints(data, 1, 4)), _ints(data, 1, 6)
    return [rng.normal(scale=3.0, size=rows + (vocab,))], {
        "index": rng.integers(0, vocab, size=rows)
    }


def _draw_stream(data, rng, last_layer=True):
    """A forward's layout — ragged rows, shared prefixes, a last layer from
    ``read_from`` on — as its first layers run it or as its last layer does
    (``last_layer``), and the length of its first layers' stream, which a
    last layer reads keys and values from."""
    b, t = _ints(data, 1, 3), _ints(data, 1, 5)
    # each row reads the first positions of a row at or before it (itself:
    # nothing shared)
    leaders = np.array([rng.integers(0, i + 1) for i in range(b)])
    leaders = leaders[leaders]  # a leader leads itself
    lengths = rng.integers(1, t + 1, size=b) if data.draw(st.booleans()) else None
    longest = t if lengths is None else lengths.max()
    stream = ag.Stream(
        (b, t), lengths, leaders, _ints(data, 0, t), read_from=_ints(data, 0, longest - 1)
    )
    return (stream.tail if last_layer else stream), len(stream.index)


def _draw_unpack(data, rng):
    stream, _ = _draw_stream(data, rng)
    features = data.draw(st.sampled_from([(), (_ints(data, 1, 3),)]))
    return [rng.normal(size=(len(stream.index),) + features)], {"stream": stream}


def _draw_linear(data, rng):
    grid = data.draw(st.sampled_from([(_ints(data, 1, 6),), (_ints(data, 1, 3), _ints(data, 1, 4))]))
    return [rng.normal(size=grid + (4,)), rng.normal(size=(4, _ints(data, 1, 5)))], {}


def _gathered(flat, src, at, shape):
    """A ``(rows, depth, ...)`` ``shape`` block whose positions ``at`` (flat
    over its first two axes) read the rows ``src`` of ``flat`` and are 0
    elsewhere: an index then a ``where``."""
    slot = np.zeros(shape[0] * shape[1], dtype=np.int64)
    real = np.zeros(shape[0] * shape[1], dtype=bool)
    slot[at], real[at] = src, True
    picked = flat[slot]
    real = real.reshape((-1,) + (1,) * (flat.ndim - 1))
    return O.where(real, picked, OpTensor(np.zeros(picked.shape))).reshape(*shape)


def _unpack_reference(x, stream):
    """Each grid position picks its stream token — a follower's shared one
    its leader's — then ``where`` zeroes the positions the stream does not
    return."""
    out = stream.out
    return _gathered(x, out.src, out.at, stream.shape + x.shape[1:])


def _attention_reference(x, wq, wk, wv, wo, residual, n_heads, stream):
    """``ag.attention`` op by op: blocks gathered from the stream, one
    masked softmax and context over every row, the context gathered back
    onto the stream."""
    rows, height, width = stream.rows, stream.mask.shape[2], stream.width
    h = x.shape[-1]
    hd = h // n_heads
    xr = x if stream.reads is None else x[stream.reads]

    def split_heads(flat, src, at, depth):
        block = _gathered(flat, src, at, (rows, depth, h))
        return block.reshape(rows, depth, n_heads, hd).transpose(0, 2, 1, 3)

    q = split_heads(xr @ wq, np.arange(len(stream.slots)), stream.slots, height)
    k, v = (split_heads(x @ w, stream.keys.src, stream.keys.at, width) for w in (wk, wv))
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(hd))
    scores = scores + Tensor(stream.mask)
    ctx = (O.softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(rows * height, h)
    out = ctx[stream.gather] @ wo
    if residual is None:
        return out
    return out + (residual if stream.reads is None else residual[stream.reads])


def _draw_matrix(data, rng):
    return rng.normal(size=(_ints(data, 1, 4), _ints(data, 1, 5)))


def _draw_binary(data, rng):
    a = _draw_matrix(data, rng)
    shape = data.draw(st.sampled_from([a.shape, a.shape[1:], (1, a.shape[1]), ()]))
    return [a, rng.normal(size=shape)], {}


def _draw_reduction(data, rng):
    return [_draw_matrix(data, rng)], {
        "axis": data.draw(st.sampled_from([None, 0, 1, -1])),
        "keepdims": data.draw(st.booleans()),
    }


def _draw_index(data, rng):
    a = _draw_matrix(data, rng)
    index = data.draw(
        st.sampled_from(
            [
                (slice(None), slice(0, 1)),
                (slice(1, None), -1),
                0,
                rng.integers(0, a.shape[0], size=5),  # repeats: rows sum
            ]
        )
    )
    return [a], {"index": index}


def _residual(fused):
    """A block primitive with its optional trailing ``residual`` input."""

    def call(x, *weights_and_residual, n_weights, **consts):
        weights = weights_and_residual[:n_weights]
        rest = weights_and_residual[n_weights:]
        return fused(x, *weights, rest[0] if rest else None, **consts)

    return call


def _attention(x, wq, wk, wv, wo, residual, n_heads, stream):
    return ag.attention(x, wq, wk, wv, wo, n_heads, stream, residual=residual)


def _mlp_reference(x, w_gate, w_up, w_down, residual):
    out = O.mlp_reference(x, w_gate, w_up, w_down)
    return out if residual is None else out + residual


def _first(loss_fn):
    return lambda *args, **kw: loss_fn(*args, **kw)[0]


REGISTRY = {
    # -- repro.models.autograd ---------------------------------------------------
    "embed": Primitive(_draw_embed, ag.embed, O.embed_reference),
    "rms_norm": Primitive(_draw_rms_norm, ag.rms_norm, O.rms_norm_reference),
    "linear": Primitive(_draw_linear, ag.linear, lambda x, w: x @ w),
    "attention": Primitive(
        _draw_attention,
        lambda *a, **kw: _residual(_attention)(*a, n_weights=4, **kw),
        lambda *a, **kw: _residual(_attention_reference)(*a, n_weights=4, **kw),
    ),
    "swiglu_mlp": Primitive(
        _draw_mlp,
        lambda *a: _residual(ag.swiglu_mlp)(*a, n_weights=3),
        lambda *a: _residual(_mlp_reference)(*a, n_weights=3),
    ),
    "log_softmax_gather": Primitive(
        _draw_logits,
        ag.log_softmax_gather,
        lambda logits, index: O.gather_last(O.log_softmax(logits), index),
    ),
    "unpack": Primitive(_draw_unpack, ag.unpack, _unpack_reference, True),
    # -- Tensor's operators ------------------------------------------------------
    "Tensor.__add__": Primitive(_draw_binary, lambda a, b: a + b, None),
    "Tensor.__mul__": Primitive(_draw_binary, lambda a, b: a * b, None),
    "Tensor.__neg__": Primitive(
        lambda data, rng: ([_draw_matrix(data, rng)], {}), lambda a: -a, None
    ),
    "Tensor.sum": Primitive(_draw_reduction, lambda a, **kw: a.sum(**kw), None),
    "Tensor.mean": Primitive(_draw_reduction, lambda a, **kw: a.mean(**kw), None),
    "Tensor.reshape": Primitive(
        lambda data, rng: ([_draw_matrix(data, rng)], {}),
        lambda a: a.reshape(a.shape[1], a.shape[0]),
        None,
    ),
    "Tensor.__getitem__": Primitive(_draw_index, lambda a, index: a[index], None),
    # -- repro.rlhf.losses: each token loss is one tape node ---------------------
    "ppo_policy_loss": Primitive(
        _draw_policy, _first(L.ppo_policy_loss), O.ppo_policy_loss_reference, True
    ),
    "value_loss": Primitive(
        _draw_value, _first(L.value_loss), O.value_loss_reference, True
    ),
    "kl_penalty": Primitive(_draw_kl, L.kl_penalty, O.kl_penalty_reference, True),
    "grpo_policy_loss": Primitive(
        _draw_grpo, _first(L.grpo_policy_loss), O.grpo_policy_loss_reference, True
    ),
    "safe_rlhf_policy_loss": Primitive(
        _draw_safe,
        _first(L.safe_rlhf_policy_loss),
        O.safe_rlhf_policy_loss_reference,
        True,
    ),
    "pretrain_loss": Primitive(
        lambda data, rng: ([_responses(data, rng)[0]], {}), L.pretrain_loss, None
    ),
    "preference_loss": Primitive(
        lambda data, rng: (list(rng.normal(size=(2, _ints(data, 1, 8)))), {}),
        L.preference_loss,
        O.preference_loss_reference,
        True,
    ),
}


def _run(build, arrays, consts, probe, wrap=lambda t: t):
    """Forward through ``build`` and backward from ``<out, probe>`` (a 0-d
    loss from itself); the output and the input gradients."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*map(wrap, leaves), **consts)
    (out if out.data.ndim == 0 else (out * Tensor(probe)).sum()).backward()
    return out.data, [leaf.grad for leaf in leaves]


def check_primitive(name, arrays, consts, seed=0):
    """Grade ``REGISTRY[name]`` at one input: forward bit-equal to the
    oracle's, VJP equal to the oracle's (bitwise when ``exact``, else to
    ``GRAD_RTOL``) and to central differences."""
    entry = REGISTRY[name]
    with no_grad():
        shape = entry.fused(*map(Tensor, arrays), **consts).shape
    probe = np.random.default_rng(seed).normal(size=shape)
    out, grads = _run(entry.fused, arrays, consts, probe)

    if entry.oracle is not None:
        expected, oracle_grads = _run(entry.oracle, arrays, consts, probe, O.lift)
        assert out.tobytes() == expected.tobytes()  # forward: bit for bit
        for got, want in zip(grads, oracle_grads):
            if entry.exact:
                assert got.tobytes() == want.tobytes()
            else:
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= GRAD_RTOL * scale

    for i, array in enumerate(arrays):

        def f(value, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(value)
            result = entry.fused(*args, **consts).data
            return float(result if result.ndim == 0 else (result * probe).sum())

        expected = finite_diff(f, array.copy())
        np.testing.assert_allclose(grads[i], expected, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("name", sorted(REGISTRY))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_vjp_matches_oracle_and_central_differences(name, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    arrays, consts = REGISTRY[name].draw(data, rng)
    check_primitive(name, arrays, consts, seed=data.draw(st.integers(0, 99)))


# -- the registry is the public surface, and the public surface is used ------------

#: callable public names that build no tape node
NOT_PRIMITIVES = {
    "no_grad", "hold_scratch", "key_width", "Tensor.backward", "Tensor.item", "Tensor.zero_grad"
}
#: ``Tensor``'s operators are called by syntax, so no search finds their
#: callers; each is listed with one
OPERATOR_CALLERS = {
    "__add__": "ActorWorker.update_actor (policy loss + ptx_coef * ptx)",
    "__mul__": "the same (ptx_coef * ptx), grpo_policy_loss (kl_coef * kl)",
    "__neg__": "pretrain_loss",
    "__getitem__": "TinyLM.sequence_reward, ActorWorker.update_actor",
}


def _defined_in(module):
    return {
        name: f
        for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__
        and not name.startswith("_")
    }


def _tensor_methods():
    """``Tensor``'s methods under their own names (``__radd__`` is ``__add__``)."""
    return {
        name for name, f in vars(Tensor).items()
        if inspect.isfunction(f) and f.__name__ == name and name not in ("__init__", "__repr__")
        and (not name.startswith("_") or name.endswith("__"))
    }


def _src_text(exclude=()):
    return "\n".join(
        path.read_text()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if path.name not in exclude
    )


def test_registry_covers_every_public_primitive():
    public = set(_defined_in(ag))
    public |= {f"Tensor.{name}" for name in _tensor_methods()}
    public |= {
        name for name, f in _defined_in(L).items()
        if "Tensor" in str(inspect.signature(f).return_annotation)
    }
    assert public - NOT_PRIMITIVES == set(REGISTRY)


def test_no_public_autograd_name_or_tensor_method_without_a_caller():
    src = _src_text(exclude=("autograd.py",))
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "bench").rglob("*.py")))
    for name in [n for n in vars(ag) if not n.startswith("_")]:
        obj = getattr(ag, name)
        if getattr(obj, "__module__", None) == ag.__name__:
            assert re.search(rf"\b{name}\b", src), name
    operators = {n for n in _tensor_methods() if n.startswith("__")}
    assert operators == set(OPERATOR_CALLERS)
    for name, attr in vars(Tensor).items():
        if name.startswith("_") or not (
            inspect.isfunction(attr) or isinstance(attr, property)
        ):
            continue
        assert re.search(rf"\.{name}\b", src) or re.search(rf"\.{name}\b", bench), name


# -- the tape's own rules ------------------------------------------------------------


def test_broadcast_gradients_fold_back():
    bias = Tensor(np.zeros(4), requires_grad=True)
    x = Tensor(np.ones((3, 4)))
    (x + bias).sum().backward()
    np.testing.assert_allclose(bias.grad, [3.0, 3.0, 3.0, 3.0])


def test_scalar_broadcast():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    (2.0 * x + 1.0).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * np.ones((2, 2)))


def test_ndarray_left_operand_defers_to_tensor():
    x = Tensor(np.ones(3), requires_grad=True)
    out = np.array([1.0, 2.0, 3.0]) + x
    assert isinstance(out, Tensor)
    out = np.array([2.0, 2.0, 2.0]) * x
    assert isinstance(out, Tensor)
    out.sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


def test_gradient_accumulates_across_uses():
    x = Tensor(np.ones(2), requires_grad=True)
    (x + x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad
    with pytest.raises(RuntimeError):
        y.backward()


def test_backward_requires_scalar_or_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError, match="scalar"):
        (x * 2).backward()
    (x * 2).backward(np.ones(3))
    np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


def test_deep_graph_no_recursion_error():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(3000):
        y = y + 1.0
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [1.0])


# -- the oracle's generic ops, against central differences ---------------------------


def check_gradient(op, shape=(3, 4), seed=0, positive=False):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    x = OpTensor(data.copy(), requires_grad=True)
    out = op(x)
    loss = out.sum() if out.size > 1 else out
    loss.backward()

    def f(arr):
        return float(op(OpTensor(arr)).sum().item())

    expected = finite_diff(f, data.copy())
    np.testing.assert_allclose(x.grad, expected, rtol=1e-5, atol=1e-7)


UNARY_OPS = {
    "exp": lambda x: x.exp(),
    "log": lambda x: x.log(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "silu": lambda x: x.silu(),
    "relu": lambda x: x.relu(),
    "sqrt": lambda x: x.sqrt(),
    "abs": lambda x: x.abs(),
    "neg": lambda x: -x,
    "square": lambda x: x**2,
    "clip": lambda x: x.clip(-0.5, 0.5),
    "mean": lambda x: x.mean(),
    "sum_axis": lambda x: x.sum(axis=1),
    "reshape": lambda x: x.reshape(12),
    "transpose": lambda x: x.transpose(1, 0),
    "softmax": lambda x: O.softmax(x),
    "log_softmax": lambda x: O.log_softmax(x),
    "getitem": lambda x: x[1:, :2],
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_gradients(name):
    positive = name in ("log", "sqrt")
    check_gradient(UNARY_OPS[name], positive=positive)


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a_data = rng.normal(size=(3, 4))
    b_data = rng.normal(size=(4, 5))
    a = OpTensor(a_data.copy(), requires_grad=True)
    b = OpTensor(b_data.copy(), requires_grad=True)
    (a @ b).sum().backward()
    fd_a = finite_diff(lambda arr: float((OpTensor(arr) @ b_data).sum().item()), a_data.copy())
    fd_b = finite_diff(lambda arr: float((OpTensor(a_data) @ arr).sum().item()), b_data.copy())
    np.testing.assert_allclose(a.grad, fd_a, rtol=1e-6)
    np.testing.assert_allclose(b.grad, fd_b, rtol=1e-6)


def test_batched_matmul_gradients():
    rng = np.random.default_rng(2)
    a = OpTensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = OpTensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    (a @ b).sum().backward()
    assert a.grad.shape == (2, 3, 4)
    assert b.grad.shape == (2, 4, 5)
    np.testing.assert_allclose(a.grad, np.ones((2, 3, 5)) @ np.swapaxes(b.data, -1, -2))


def test_division_gradients():
    rng = np.random.default_rng(3)
    a_data = rng.normal(size=(3,)) + 3.0
    b_data = rng.normal(size=(3,)) + 3.0
    a = OpTensor(a_data.copy(), requires_grad=True)
    b = OpTensor(b_data.copy(), requires_grad=True)
    (a / b).sum().backward()
    np.testing.assert_allclose(a.grad, 1.0 / b_data)
    np.testing.assert_allclose(b.grad, -a_data / b_data**2)


def test_maximum_routes_gradient_to_winner():
    a = OpTensor(np.array([1.0, 5.0]), requires_grad=True)
    b = OpTensor(np.array([3.0, 2.0]), requires_grad=True)
    a.maximum(b).sum().backward()
    np.testing.assert_allclose(a.grad, [0.0, 1.0])
    np.testing.assert_allclose(b.grad, [1.0, 0.0])


def test_where_routes_gradient():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    cond = np.array([True, False, True])
    O.where(cond, a, b).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
    np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


def test_concatenate_and_stack_gradients():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    out = O.concatenate([a, b], axis=0)
    (out * Tensor(np.arange(10.0).reshape(5, 2))).sum().backward()
    np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
    np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])

    c = Tensor(np.ones(3), requires_grad=True)
    d = Tensor(np.ones(3), requires_grad=True)
    O.stack([c, d])[1].sum().backward()
    np.testing.assert_allclose(c.grad, [0, 0, 0])
    np.testing.assert_allclose(d.grad, [1, 1, 1])


def test_embedding_accumulates_duplicate_indices():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    ids = np.array([[1, 1, 3]])
    O.embedding(table, ids).sum().backward()
    np.testing.assert_allclose(table.grad[1], [2.0, 2.0])
    np.testing.assert_allclose(table.grad[3], [1.0, 1.0])
    np.testing.assert_allclose(table.grad[0], [0.0, 0.0])


def test_gather_last_gradient():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    idx = np.array([2, 0])
    O.gather_last(x, idx).sum().backward()
    expected = np.zeros((2, 3))
    expected[0, 2] = 1.0
    expected[1, 0] = 1.0
    np.testing.assert_allclose(x.grad, expected)


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(2, 6),
    seed=st.integers(0, 100),
)
def test_softmax_rows_sum_to_one_and_logsoftmax_consistent(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(rows, cols)) * 5)
    sm = O.softmax(x).data
    np.testing.assert_allclose(sm.sum(axis=-1), np.ones(rows), rtol=1e-12)
    np.testing.assert_allclose(np.log(sm), O.log_softmax(x).data, atol=1e-9)
