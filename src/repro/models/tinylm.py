"""TinyLM: a decoder-only transformer LM with exact gradients and a KV store.

Plays the roles of the paper's Llama actors/critics/reference/reward models at
miniature scale.  Architecture mirrors Llama: RMSNorm, SwiGLU MLP, causal
multi-head attention; positions use a learned embedding (RoPE adds nothing at
this scale).  The output head is either a vocabulary projection (``"lm"``,
for actor/reference) or a scalar head (``"scalar"``, for critic/reward/cost —
§2.1: "with the language modeling head replaced by a scalar output head").
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.models import autograd as ag
from repro.models.autograd import MAX_KEY_WIDTH, Tensor, _scratch, key_width


@dataclasses.dataclass(frozen=True)
class TinyLMConfig:
    """Concrete architecture of a TinyLM instance."""

    n_layers: int = 2
    hidden_size: int = 32
    n_heads: int = 4
    ffn_hidden_size: int = 64
    vocab_size: int = 64
    max_seq_len: int = 64
    output_head: str = "lm"  # "lm" or "scalar"
    rms_eps: float = 1e-5

    def __post_init__(self) -> None:
        if self.hidden_size % self.n_heads:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"n_heads {self.n_heads}"
            )
        if self.output_head not in ("lm", "scalar"):
            raise ValueError(f"unknown output head {self.output_head!r}")
        # every forward runs its attention at a canonical key width
        width = key_width(self.max_seq_len)
        if width > MAX_KEY_WIDTH:
            raise ValueError(
                f"max_seq_len {self.max_seq_len} needs key width {width}, past "
                f"{MAX_KEY_WIDTH}"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads


class Layout(NamedTuple):
    """What a scoring or training forward computes: row ``i``'s first
    ``lengths[i]`` tokens (all when ``None``), a prompt rows share (a GRPO
    group's) once, in the first of them; and what it returns: each row's
    positions from ``prompt_length - 1`` on, 0 past its real tokens."""

    lengths: Optional[np.ndarray] = None
    prompt_length: int = 0


def _leaders(token_ids: np.ndarray, prefix: int) -> Optional[np.ndarray]:
    """Row ``i``'s leader: the first row whose first ``prefix`` ids are row
    ``i``'s; ``None`` when no two rows share them."""
    if prefix < 1 or len(token_ids) < 2:
        return None
    first: Dict[bytes, int] = {}
    leaders = [
        first.setdefault(row.tobytes(), i)
        for i, row in enumerate(token_ids[:, :prefix])
    ]
    return None if len(first) == len(leaders) else np.array(leaders)


#: Recent small layouts: the forwards of one batch, or of one shape, repeat theirs.
_STREAMS: Dict[Tuple[Any, ...], ag.Stream] = {}


def _stream(token_ids: np.ndarray, lengths: Optional[np.ndarray], shared: int, read_from: int) -> ag.Stream:
    leaders = _leaders(token_ids, shared)
    key = (token_ids.shape, shared, read_from) + tuple(
        None if a is None else a.tobytes() for a in (lengths, leaders)
    )
    if key not in _STREAMS:
        stream = ag.Stream(token_ids.shape, lengths, leaders, shared, read_from)
        if stream.mask.size + stream.tail.mask.size > 1 << 15:
            return stream
        if len(_STREAMS) >= 16:
            del _STREAMS[next(iter(_STREAMS))]
        _STREAMS[key] = stream
    return _STREAMS[key]


class KVStore:
    """Slot-resident keys/values for incremental generation.

    Per layer one preallocated ``(n_slots, key_width(capacity), hidden)`` K
    and V buffer, written in place at each row's cached length, heads side
    by side (the row stride keys have in a plain forward).  How long each
    slot's prefix is stays with the caller (``pos_offset``); whether it may
    exist is the block manager's business (:class:`repro.serving.PagedKVCache`).
    A forward's new tokens are laid out as any forward's
    (:class:`~repro.models.autograd.Stream`), and a position at or past a
    row's length reads as an exact zero whatever the buffer holds, so a
    freed slot needs no clearing.
    """

    def __init__(
        self, config: TinyLMConfig, n_slots: int, capacity: Optional[int] = None
    ) -> None:
        self.capacity = capacity or config.max_seq_len
        shape = (2 * config.n_layers, n_slots, key_width(self.capacity), config.hidden_size)
        self._buffers = np.zeros(shape, dtype=np.float64)  # per layer K, then V
        self._flat = self._buffers.reshape(shape[0], -1, shape[3])
        self.keys, self.values = list(self._buffers[::2]), list(self._buffers[1::2])
        #: Slot of each forward row; ``None``: row ``i`` lives in slot ``i``.
        self.slots: Optional[np.ndarray] = None

    def rows(self, slots: Sequence[int]) -> "KVStore":
        """The same buffers for forwards whose row ``i`` is ``slots[i]``."""
        view = copy.copy(self)
        view.slots = np.asarray(slots, dtype=np.intp)
        return view

    def at(self, token_ids: np.ndarray, pos_offset: Union[int, np.ndarray]) -> "KVStore":
        """Bound to a forward of ``token_ids`` ``(rows, t)`` behind ``pos_offset``
        cached positions per row: ``stream`` is its layout."""
        rows, t = token_ids.shape
        offsets = np.zeros(rows, dtype=np.int64) + pos_offset
        end = int(offsets.max()) + t
        if end > self.capacity:
            raise ValueError(f"position {end} is past KV capacity {self.capacity}")
        view = copy.copy(self)
        view.stream = ag.Stream((rows, t), cached=offsets)
        slots = np.arange(rows) if self.slots is None else self.slots
        base = slots * self._buffers.shape[2]
        keys, ends = np.arange(view.stream.width), offsets + t
        view.writes = (base[:, None] + offsets[:, None] + np.arange(t)).ravel()
        view.reads = base[:, None] + keys
        # what lies past each row's end reads as zeros, in every layer
        self._flat[:, view.reads[keys >= ends[:, None]]] = 0.0
        # rows whose slots are one run read views of the store
        run = self.slots is None or (slots == slots[0] + np.arange(rows)).all()
        view.run = (slice(slots[0], slots[0] + rows), slice(len(keys))) if run else None
        return view

    def copy_prefix(self, source: int, slot: int, length: int) -> None:
        """Slot ``slot`` takes slot ``source``'s first ``length`` positions."""
        self._buffers[:, slot, :length] = self._buffers[:, source, :length]

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Cache the new tokens' projections ``k``/``v`` (the bound forward's
        stream) behind what each row holds; return every row's keys and
        values, ``(2, rows, width, hidden)``: a view of the store when the
        rows' slots are one run, else gathered scratch."""
        layers = slice(2 * layer, 2 * layer + 2)
        for flat, new in zip(self._flat[layers], (k, v)):
            flat[self.writes] = new[: len(self.writes)]
        if self.run is not None:
            return self._buffers[(layers, *self.run)]
        out = _scratch(2, *self.reads.shape, self._flat.shape[2])
        # every index is in range: ``clip`` fills ``out`` unbuffered
        return np.take(self._flat[layers], self.reads, axis=1, out=out, mode="clip")


class TinyLM:
    """The model: a parameter dict plus forward/generation methods."""

    def __init__(
        self,
        config: TinyLMConfig,
        params: Optional[Dict[str, Tensor]] = None,
        seed: int = 0,
    ) -> None:
        self.config = config
        if params is None:
            params = self._init_params(config, seed)
        self.params = params

    # -- parameter management ---------------------------------------------------

    @staticmethod
    def _init_params(config: TinyLMConfig, seed: int) -> Dict[str, Tensor]:
        rng = np.random.default_rng(seed)
        h, f, v = config.hidden_size, config.ffn_hidden_size, config.vocab_size

        def init(shape: Tuple[int, ...], scale: Optional[float] = None) -> Tensor:
            if scale is None:
                scale = 1.0 / np.sqrt(shape[0])
            return Tensor(
                rng.normal(0.0, scale, size=shape), requires_grad=True
            )

        params: Dict[str, Tensor] = {
            "embed.weight": init((v, h), scale=0.02),
            "pos_embed.weight": init((config.max_seq_len, h), scale=0.02),
            "final_norm.weight": Tensor(np.ones(h), requires_grad=True),
        }
        for i in range(config.n_layers):
            prefix = f"layers.{i}"
            params[f"{prefix}.attn_norm.weight"] = Tensor(
                np.ones(h), requires_grad=True
            )
            params[f"{prefix}.attn.wq"] = init((h, h))
            params[f"{prefix}.attn.wk"] = init((h, h))
            params[f"{prefix}.attn.wv"] = init((h, h))
            params[f"{prefix}.attn.wo"] = init((h, h))
            params[f"{prefix}.mlp_norm.weight"] = Tensor(
                np.ones(h), requires_grad=True
            )
            params[f"{prefix}.mlp.w_gate"] = init((h, f))
            params[f"{prefix}.mlp.w_up"] = init((h, f))
            params[f"{prefix}.mlp.w_down"] = init((f, h))
        if config.output_head == "lm":
            params["lm_head.weight"] = init((h, v))
        else:
            params["value_head.weight"] = init((h, 1))
        return params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def param_bytes(self) -> int:
        return sum(p.data.nbytes for p in self.params.values())

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(state)
        extra = set(state) - set(self.params)
        if missing or extra:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        for name, arr in state.items():
            if self.params[name].data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: model "
                    f"{self.params[name].data.shape} vs state {arr.shape}"
                )
            self.params[name].data = np.asarray(arr, dtype=np.float64).copy()

    def clone(self) -> "TinyLM":
        """Deep-copy the model (used to spawn the frozen reference policy)."""
        clone = TinyLM(self.config, params={}, seed=0)
        clone.params = {
            name: Tensor(p.data.copy(), requires_grad=True)
            for name, p in self.params.items()
        }
        return clone

    # -- forward ------------------------------------------------------------------

    def forward(
        self,
        token_ids: np.ndarray,
        cache: Optional[KVStore] = None,
        pos_offset: Union[int, np.ndarray] = 0,
        layout: Optional[Layout] = None,
    ) -> Tensor:
        """Logits ``(batch, seq - r, vocab)`` or values ``(batch, seq - r)``
        of each row's positions from ``r = layout.prompt_length - 1`` on
        (from 0 without a ``layout``).

        ``pos_offset`` is the position of each row's first token — one int,
        or a ``(batch,)`` array when rows have cached different lengths.
        ``cache`` is inference-only: passing one while a graph would be
        built raises.  Every forward has one layout
        (:class:`~repro.models.autograd.Stream`), so a row's outputs are the
        row alone, bit for bit, whatever rows share the forward.
        """
        x, tail = self._trunk(token_ids, cache, pos_offset, layout)
        lm = self.config.output_head == "lm"
        head = self.params["lm_head.weight" if lm else "value_head.weight"]
        out = ag.unpack(ag.linear(x, head), tail)
        return out if lm else out[:, :, 0]

    __call__ = forward

    def _trunk(
        self,
        token_ids: np.ndarray,
        cache: Optional[KVStore],
        pos_offset: Union[int, np.ndarray],
        layout: Optional[Layout],
        shift: int = 0,
    ) -> Tuple[Tensor, ag.Stream]:
        """The final-normed hidden stream of the tokens a forward returns,
        and their layout (``Stream.tail``).  ``shift``: the rows are a
        ``layout``'s less their last token (the LM trunk of log-probs)."""
        cfg, p = self.config, self.params
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got {token_ids.shape}")
        offsets = np.zeros(len(token_ids), dtype=np.int64) + pos_offset
        length = int(offsets.max(initial=0)) + token_ids.shape[1]
        if length > cfg.max_seq_len:
            raise ValueError(
                f"sequence length {length} exceeds max_seq_len {cfg.max_seq_len}"
            )
        if cache is not None:
            if layout is not None:
                raise ValueError("a layout lays out whole rows: no cache")
            cache = cache.at(token_ids, pos_offset)
            stream = cache.stream
        else:
            lengths, prompt = layout or Layout()
            if lengths is not None:
                lengths = np.asarray(lengths, dtype=np.int64) - shift
            stream = _stream(token_ids, lengths, max(prompt - shift, 0), max(prompt - 1, 0))
        row, position = np.divmod(stream.index, token_ids.shape[1])
        ids = token_ids.ravel()[stream.index]
        x = ag.embed(p["embed.weight"], p["pos_embed.weight"], ids, position + offsets[row])
        for layer in range(cfg.n_layers):
            pre = f"layers.{layer}"
            if layer == cfg.n_layers - 1:
                stream = stream.tail
            normed = ag.rms_norm(x, p[f"{pre}.attn_norm.weight"], cfg.rms_eps)
            x = ag.attention(
                normed,
                p[f"{pre}.attn.wq"],
                p[f"{pre}.attn.wk"],
                p[f"{pre}.attn.wv"],
                p[f"{pre}.attn.wo"],
                cfg.n_heads,
                stream,
                residual=x,
                cache=cache,
                layer=layer,
            )
            normed = ag.rms_norm(x, p[f"{pre}.mlp_norm.weight"], cfg.rms_eps)
            x = ag.swiglu_mlp(
                normed,
                p[f"{pre}.mlp.w_gate"],
                p[f"{pre}.mlp.w_up"],
                p[f"{pre}.mlp.w_down"],
                residual=x,
            )
        return ag.rms_norm(x, p["final_norm.weight"], cfg.rms_eps), stream

    # -- LM conveniences -------------------------------------------------------------

    def token_log_probs(
        self, token_ids: np.ndarray, layout: Optional[Layout] = None
    ) -> Tensor:
        """``out[:, i] = log p(token[r+i+1] | token[:r+i+1])``, ``(batch, seq
        - 1 - r)``, ``r = layout.prompt_length - 1`` (0 without a
        ``layout``): a response's log-probs.  Only real tokens' predictions
        are computed (the rest read 0); rows that share their prompt compute
        the predictions inside it once, each its own first past it."""
        if self.config.output_head != "lm":
            raise RuntimeError("token_log_probs requires an LM head")
        token_ids = np.asarray(token_ids, dtype=np.int64)
        x, tail = self._trunk(token_ids[:, :-1], None, 0, layout, shift=1)
        logits = ag.linear(x, self.params["lm_head.weight"])
        logp = ag.log_softmax_gather(logits, token_ids[:, 1:].ravel()[tail.index])
        return ag.unpack(logp, tail)

    def values(self, token_ids: np.ndarray, layout: Optional[Layout] = None) -> Tensor:
        """Scalar head output per position ``(batch, seq - r)``, ``layout``
        as in :meth:`forward`."""
        if self.config.output_head != "scalar":
            raise RuntimeError("values() requires a scalar head")
        return self.forward(token_ids, layout=layout)

    def sequence_reward(self, token_ids: np.ndarray) -> Tensor:
        """Sample-level score: the scalar head at each row's final position
        ``(batch,)``, the only one the last layer computes."""
        seq = np.shape(token_ids)[1]
        return self.values(token_ids, Layout(prompt_length=seq))[:, 0]
