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
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.models import autograd as ag
from repro.models.autograd import Tensor, _scratch


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

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads


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


#: Widest canonical key width: past it numpy's pairwise sum splits a row.
MAX_KEY_WIDTH = 128
#: Rows of a BLAS micro-tile, which a cached forward's stream fills whole.
TILE_ROWS = 4


def key_width(length: int) -> int:
    """The key width of rows ending by ``length``: a multiple of 8, >= 16."""
    return max(16, -(-length // 8) * 8)


class KVStore:
    """Slot-resident keys/values for incremental generation.

    Per layer one preallocated ``(n_slots, key_width(capacity), hidden)`` K
    and V buffer, written in place at each row's cached length, heads side
    by side (the row stride keys have in a plain forward).  How long each
    slot's prefix is stays with the caller (``pos_offset``); whether it may
    exist is the block manager's business (:class:`repro.serving.PagedKVCache`).
    One attention core serves every row of a forward (:meth:`at`) at the
    :func:`key_width` of its longest row, and a position at or past a row's
    length reads as an exact zero whatever the buffer holds, so a freed slot
    needs no clearing.  A row's bits depend neither on that width (up to
    :data:`MAX_KEY_WIDTH`) nor on the rows beside it: the new tokens run as
    one 2-D stream of whole :data:`TILE_ROWS` tiles (a lone row would be a
    GEMV, a part-filled tile rounds some output widths by another path).
    """

    def __init__(
        self, config: TinyLMConfig, n_slots: int, capacity: Optional[int] = None
    ) -> None:
        self.capacity = capacity or config.max_seq_len
        width = key_width(self.capacity)
        if width > MAX_KEY_WIDTH:
            raise ValueError(f"KV capacity {self.capacity} needs key width {width}")
        shape = (2 * config.n_layers, n_slots, width, config.hidden_size)
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
        cached positions per row: ``stream`` picks the new tokens, the first
        repeated to whole tiles, and ``mask`` is the core's causal mask."""
        rows, t = token_ids.shape
        offsets = np.zeros(rows, dtype=np.int64) + pos_offset
        end = int(offsets.max()) + t
        if end > self.capacity:
            raise ValueError(f"position {end} is past KV capacity {self.capacity}")
        view = copy.copy(self)
        slots = np.arange(rows) if self.slots is None else self.slots
        base = slots * self._buffers.shape[2]
        keys, queries = np.arange(key_width(end)), offsets[:, None] + np.arange(t)
        masked = keys > queries[:, :, None]  # past each query: past the end for the last
        view.writes, view.reads = (base[:, None] + queries).ravel(), base[:, None] + keys
        # what lies past each row's end reads as zeros, in every layer
        self._flat[:, view.reads[masked[:, -1]]] = 0.0
        # rows whose slots are one run read views of the store
        run = self.slots is None or (slots == slots[0] + np.arange(rows)).all()
        view.run = (slice(slots[0], slots[0] + rows), slice(len(keys))) if run else None
        view.grid, view.mask = (rows, t), np.where(masked[:, None], -1e9, 0.0)
        view.stream = np.arange(-(-rows * t // TILE_ROWS) * TILE_ROWS) % (rows * t)
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
        lengths: Optional[np.ndarray] = None,
        prefix: int = 0,
        read_from: int = 0,
    ) -> Tensor:
        """Logits ``(batch, seq - read_from, vocab)`` or values ``(batch, seq
        - read_from)``: the positions from ``read_from`` on.

        ``pos_offset`` is the position of each row's first token — one int,
        or a ``(batch,)`` array when rows have cached different lengths.
        ``cache`` is inference-only: passing one while a graph would be
        built (grad mode on, parameters requiring grad) raises.  A cached
        forward runs its new tokens as one 2-D stream and its attention as
        one core over every row (:class:`KVStore`).
        ``lengths``: row ``i`` has ``lengths[i]`` real tokens and only those
        are computed (:class:`~repro.models.autograd.Packing`); the output
        is 0 at every later position.  ``prefix``: rows whose first
        ``prefix`` tokens are equal (a GRPO group's prompt) compute them
        once, in the first such row; the others' outputs there are its.
        The last layer runs its queries, MLP and head only at the positions
        returned (``Packing.tail``); every one is the full forward's bit for
        bit.
        """
        x, tail = self._trunk(
            token_ids, cache, pos_offset, lengths, prefix, read_from
        )
        lm = self.config.output_head == "lm"
        head = self.params["lm_head.weight" if lm else "value_head.weight"]
        # the scalar head is a matrix-vector product: it runs on the whole grid
        out = ag.unpack(ag.linear(x, head), tail) if lm else ag.linear(x, head, tail)
        if cache is not None:  # the stream's own tokens back on their grid
            out = Tensor(out.data[: np.size(token_ids)].reshape(*np.shape(token_ids), -1))
        return _narrowed(out, tail, read_from) if lm else out[:, read_from:, 0]

    __call__ = forward

    def _trunk(
        self,
        token_ids: np.ndarray,
        cache: Optional[KVStore],
        pos_offset: Union[int, np.ndarray],
        lengths: Optional[np.ndarray],
        prefix: int = 0,
        read_from: int = 0,
    ) -> Tuple[Tensor, ag.Packing]:
        """The final-normed hidden stream of the tokens a forward returns,
        and their layout (``Packing.tail``)."""
        cfg, p = self.config, self.params
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got {token_ids.shape}")
        first = pos_offset.max() if isinstance(pos_offset, np.ndarray) else pos_offset
        length = first + token_ids.shape[1]
        if length > cfg.max_seq_len:
            raise ValueError(
                f"sequence length {length} exceeds max_seq_len {cfg.max_seq_len}"
            )
        packs = lengths is not None or prefix or read_from
        if packs and (cache is not None or first):
            raise ValueError(
                "lengths, prefix and read_from pack whole rows: no cache, "
                "no pos_offset"
            )
        packing = ag.Packing(
            token_ids.shape,
            lengths,
            _leaders(token_ids, prefix),
            prefix,
            offset_queries=cfg.head_dim % 4 == 0,
            read_from=read_from,
        )
        x = ag.embed(
            p["embed.weight"], p["pos_embed.weight"], token_ids, pos_offset, packing
        )
        if cache is not None:  # inference only: no graph to keep
            cache = cache.at(token_ids, pos_offset)
            x = Tensor(x.data.reshape(-1, cfg.hidden_size)[cache.stream])
        for layer in range(cfg.n_layers):
            pre = f"layers.{layer}"
            if layer == cfg.n_layers - 1:
                packing = packing.tail
            normed = ag.rms_norm(x, p[f"{pre}.attn_norm.weight"], cfg.rms_eps)
            x = ag.attention(
                normed,
                p[f"{pre}.attn.wq"],
                p[f"{pre}.attn.wk"],
                p[f"{pre}.attn.wv"],
                p[f"{pre}.attn.wo"],
                cfg.n_heads,
                cache=cache,
                layer=layer,
                residual=x,
                packing=packing,
            )
            normed = ag.rms_norm(x, p[f"{pre}.mlp_norm.weight"], cfg.rms_eps)
            x = ag.swiglu_mlp(
                normed,
                p[f"{pre}.mlp.w_gate"],
                p[f"{pre}.mlp.w_up"],
                p[f"{pre}.mlp.w_down"],
                residual=x,
            )
        return ag.rms_norm(x, p["final_norm.weight"], cfg.rms_eps), packing

    # -- LM conveniences -------------------------------------------------------------

    def token_log_probs(
        self,
        token_ids: np.ndarray,
        lengths: Optional[np.ndarray] = None,
        prefix: int = 0,
        read_from: int = 0,
    ) -> Tensor:
        """Log-prob of each next token from prediction ``read_from`` on: out
        ``(batch, seq - 1 - read_from)``.

        ``out[:, i] = log p(token[r+i+1] | token[:r+i+1])``, ``r =
        read_from`` (a response's log-probs: ``r = prompt_len - 1``).  With
        ``lengths`` (real tokens per row of ``token_ids``) only the ``lengths - 1``
        predictions of real tokens are computed; the rest of ``out`` is 0.
        With ``prefix`` (the prompt length), rows that share their first
        ``prefix`` tokens compute the predictions inside it once; each still
        predicts its own first token past it.
        """
        if self.config.output_head != "lm":
            raise RuntimeError("token_log_probs requires an LM head")
        token_ids = np.asarray(token_ids, dtype=np.int64)
        x, packing = self._trunk(
            token_ids[:, :-1],
            None,
            0,
            None if lengths is None else lengths - 1,
            max(prefix - 1, 0),
            read_from,
        )
        logits = ag.linear(x, self.params["lm_head.weight"])
        logp = ag.log_softmax_gather(logits, packing.pack(token_ids[:, 1:]))
        return _narrowed(ag.unpack(logp, packing), packing, read_from)

    def values(
        self,
        token_ids: np.ndarray,
        lengths: Optional[np.ndarray] = None,
        prefix: int = 0,
        read_from: int = 0,
    ) -> Tensor:
        """Scalar head output per position from ``read_from`` on ``(batch,
        seq - read_from)``; with ``lengths``, at the real positions only (0
        elsewhere); ``prefix`` as in :meth:`forward`."""
        if self.config.output_head != "scalar":
            raise RuntimeError("values() requires a scalar head")
        return self.forward(
            token_ids, lengths=lengths, prefix=prefix, read_from=read_from
        )

    def sequence_reward(self, token_ids: np.ndarray) -> Tensor:
        """Sample-level score: scalar head at the final position ``(batch,)``
        (the last two positions are computed: one query would be a GEMV)."""
        last_two = max(np.shape(token_ids)[1] - 2, 0)
        values = self.values(token_ids, read_from=last_two)
        return values[:, -1]


def _narrowed(out: Tensor, tail: ag.Packing, read_from: int) -> Tensor:
    """``out``'s positions from ``read_from`` on: all of it when the forward
    computed those only, else (under two tokens would remain) the slice."""
    return out if tail.read_from == read_from else out[:, read_from:]
