"""TinyLM: a decoder-only transformer LM with exact gradients and a KV cache.

Plays the roles of the paper's Llama actors/critics/reference/reward models at
miniature scale.  Architecture mirrors Llama: RMSNorm, SwiGLU MLP, causal
multi-head attention; positions use a learned embedding (RoPE adds nothing at
this scale).  The output head is either a vocabulary projection (``"lm"``,
for actor/reference) or a scalar head (``"scalar"``, for critic/reward/cost —
§2.1: "with the language modeling head replaced by a scalar output head").
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import ModelSpec
from repro.models import autograd as ag
from repro.models.autograd import Tensor


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

    @classmethod
    def from_spec(cls, spec: ModelSpec, output_head: str = "lm") -> "TinyLMConfig":
        return cls(
            n_layers=spec.n_layers,
            hidden_size=spec.hidden_size,
            n_heads=spec.n_heads,
            ffn_hidden_size=spec.ffn_hidden_size,
            vocab_size=spec.vocab_size,
            max_seq_len=spec.max_seq_len,
            output_head=output_head,
        )


class KVCache:
    """Per-layer cached keys/values for incremental generation.

    Arrays have shape ``(batch, n_heads, seq, head_dim)`` and grow along the
    sequence axis as tokens are appended — the same layout vLLM pages manage
    on real hardware.
    """

    def __init__(self, n_layers: int) -> None:
        self.keys: List[Optional[np.ndarray]] = [None] * n_layers
        self.values: List[Optional[np.ndarray]] = [None] * n_layers

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if self.keys[layer] is None:
            self.keys[layer] = k
            self.values[layer] = v
        else:
            self.keys[layer] = np.concatenate([self.keys[layer], k], axis=2)
            self.values[layer] = np.concatenate([self.values[layer], v], axis=2)
        return self.keys[layer], self.values[layer]

    @property
    def seq_len(self) -> int:
        return 0 if self.keys[0] is None else self.keys[0].shape[2]

    def trim(self, seq_len: int) -> None:
        """Drop cached entries beyond position ``seq_len`` in every layer.

        Copies the kept prefix so the tail's memory is actually released
        (a plain slice would keep the full buffer alive through its base).
        Used by preempt-and-recompute serving to roll a sequence back.
        """
        if seq_len < 0:
            raise ValueError(f"seq_len must be >= 0, got {seq_len}")
        if seq_len == 0:
            self.free()
            return
        for layer, (k, v) in enumerate(zip(self.keys, self.values)):
            if k is not None and k.shape[2] > seq_len:
                self.keys[layer] = k[:, :, :seq_len].copy()
                self.values[layer] = v[:, :, :seq_len].copy()

    def free(self) -> None:
        """Release every cached tensor (sequence finished or was preempted)."""
        for layer in range(len(self.keys)):
            self.keys[layer] = None
            self.values[layer] = None

    def nbytes_by_layer(self) -> List[int]:
        """Per-layer K+V byte totals — the granularity a block manager meters."""
        return [
            (k.nbytes + v.nbytes) if k is not None else 0
            for k, v in zip(self.keys, self.values)
        ]

    def nbytes(self) -> int:
        return sum(self.nbytes_by_layer())


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

    def named_parameters(self) -> Dict[str, Tensor]:
        return self.params

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
        cache: Optional[KVCache] = None,
        pos_offset: int = 0,
    ) -> Tensor:
        """Logits ``(batch, seq, vocab)`` or values ``(batch, seq)``.

        ``cache`` is inference-only: passing one while a graph would be
        built (grad mode on, parameters requiring grad) raises.
        """
        cfg, p = self.config, self.params
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got {token_ids.shape}")
        t = token_ids.shape[1]
        if pos_offset + t > cfg.max_seq_len:
            raise ValueError(
                f"sequence length {pos_offset + t} exceeds max_seq_len "
                f"{cfg.max_seq_len}"
            )
        x = ag.embed(p["embed.weight"], p["pos_embed.weight"], token_ids, pos_offset)
        for layer in range(cfg.n_layers):
            pre = f"layers.{layer}"
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
                pos_offset=pos_offset,
                residual=x,
            )
            normed = ag.rms_norm(x, p[f"{pre}.mlp_norm.weight"], cfg.rms_eps)
            x = ag.swiglu_mlp(
                normed,
                p[f"{pre}.mlp.w_gate"],
                p[f"{pre}.mlp.w_up"],
                p[f"{pre}.mlp.w_down"],
                residual=x,
            )
        x = ag.rms_norm(x, p["final_norm.weight"], cfg.rms_eps)
        if cfg.output_head == "lm":
            return ag.linear(x, p["lm_head.weight"])
        return ag.linear(x, p["value_head.weight"]).reshape(*token_ids.shape)

    __call__ = forward

    # -- LM conveniences -------------------------------------------------------------

    def token_log_probs(self, token_ids: np.ndarray) -> Tensor:
        """Log-prob of each next token: out ``(batch, seq-1)``.

        ``out[:, i] = log p(token[i+1] | token[:i+1])``.
        """
        if self.config.output_head != "lm":
            raise RuntimeError("token_log_probs requires an LM head")
        token_ids = np.asarray(token_ids, dtype=np.int64)
        logits = self.forward(token_ids[:, :-1])
        return ag.log_softmax_gather(logits, token_ids[:, 1:])

    def values(self, token_ids: np.ndarray) -> Tensor:
        """Scalar head output per position ``(batch, seq)``."""
        if self.config.output_head != "scalar":
            raise RuntimeError("values() requires a scalar head")
        return self.forward(token_ids)

    def sequence_reward(self, token_ids: np.ndarray) -> Tensor:
        """Sample-level score: scalar head at the final position ``(batch,)``."""
        values = self.values(token_ids)
        return values[:, -1]
