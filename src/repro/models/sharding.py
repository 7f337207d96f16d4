"""Tensor/pipeline sharding of TinyLM parameters.

Maps every TinyLM parameter to a Megatron-style partition spec:

* **TP axis**: Q/K/V and MLP gate/up projections are column-parallel (split on
  the output axis); attention-output and MLP down projections are row-parallel
  (split on the input axis); embeddings and the LM head split on the vocab
  axis; norms and the scalar value head are replicated.
* **PP stage**: layers are assigned to contiguous pipeline stages; the token
  and position embeddings live on the first stage, the final norm and output
  head on the last stage.

``merge_tp_shards`` is the one function that concatenates TP pieces: the
HybridEngine merges the tiles of a generation shard with it and
``gather_full_params`` is it over every ``(pp, tp)`` coordinate.
``shard_params``/``gather_full_params`` are exact inverses, which the
HybridEngine tests rely on for the bit-exact resharding check.  Extraction
returns views of the state it slices (a worker copies once, when it stores
its shard); gathers write into ``out`` arrays when given, so a replica lead
re-merges into its resident weights without allocating.
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

_LAYER_RE = re.compile(r"^layers\.(\d+)\.")

#: Parameter-name suffix -> TP split axis (None = replicated on the TP group).
_TP_AXES: List[Tuple[str, Optional[int]]] = [
    # order matters: longer, more specific suffixes first
    ("pos_embed.weight", None),
    ("embed.weight", 0),
    (".attn.wq", 1),
    (".attn.wk", 1),
    (".attn.wv", 1),
    (".attn.wo", 0),
    (".mlp.w_gate", 1),
    (".mlp.w_up", 1),
    (".mlp.w_down", 0),
    ("norm.weight", None),
    ("lm_head.weight", 1),
    ("value_head.weight", None),
]


@functools.lru_cache(maxsize=None)
def param_partition(name: str) -> Optional[int]:
    """TP split axis for parameter ``name`` (None when replicated)."""
    for suffix, axis in _TP_AXES:
        if name.endswith(suffix):
            return axis
    raise KeyError(f"no partition spec for parameter {name!r}")


def layer_of(name: str) -> Optional[int]:
    """Transformer layer index a parameter belongs to, or None for non-layer."""
    match = _LAYER_RE.match(name)
    return int(match.group(1)) if match else None


def stage_layers(n_layers: int, pp_size: int, pp_rank: int) -> range:
    """Layers owned by pipeline stage ``pp_rank`` (contiguous blocks)."""
    if n_layers % pp_size:
        raise ValueError(
            f"{n_layers} layers not divisible into {pp_size} pipeline stages"
        )
    per = n_layers // pp_size
    return range(pp_rank * per, (pp_rank + 1) * per)


@functools.lru_cache(maxsize=None)
def pp_stage_of(name: str, n_layers: int, pp_size: int) -> int:
    """Pipeline stage that owns parameter ``name``."""
    layer = layer_of(name)
    if layer is None:
        if name.startswith(("embed.", "pos_embed.")):
            return 0
        return pp_size - 1  # final norm and output heads
    return layer // (n_layers // pp_size)


def _tp_slice(arr: np.ndarray, axis: int, rank: int, size: int) -> np.ndarray:
    if arr.shape[axis] % size:
        raise ValueError(
            f"axis {axis} length {arr.shape[axis]} not divisible by TP size {size}"
        )
    per = arr.shape[axis] // size
    index = [slice(None)] * arr.ndim
    index[axis] = slice(rank * per, (rank + 1) * per)
    return arr[tuple(index)]


def shard_params(
    state: Mapping[str, np.ndarray],
    tp_rank: int,
    tp_size: int,
    pp_rank: int = 0,
    pp_size: int = 1,
    n_layers: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Rank ``(pp_rank, tp_rank)``'s shard of a full state dict, as views."""
    if not 0 <= tp_rank < tp_size:
        raise ValueError(f"tp_rank {tp_rank} out of range for tp={tp_size}")
    if not 0 <= pp_rank < pp_size:
        raise ValueError(f"pp_rank {pp_rank} out of range for pp={pp_size}")
    if pp_size > 1 and n_layers is None:
        raise ValueError("n_layers is required when pp_size > 1")
    shard: Dict[str, np.ndarray] = {}
    for name, arr in state.items():
        if pp_size > 1 and pp_stage_of(name, n_layers, pp_size) != pp_rank:
            continue
        axis = param_partition(name)
        arr = np.asarray(arr, dtype=np.float64)
        if axis is None or tp_size == 1:
            shard[name] = arr
        else:
            shard[name] = _tp_slice(arr, axis, tp_rank, tp_size)
    return shard


def gather_full_params(
    shards: Mapping[Tuple[int, int], Mapping[str, np.ndarray]],
    tp_size: int,
    pp_size: int = 1,
    out: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Reassemble the full state from per-``(pp_rank, tp_rank)`` shards
    (into ``out``'s arrays when given)."""
    expected = {(p, t) for p in range(pp_size) for t in range(tp_size)}
    if set(shards) != expected:
        raise ValueError(
            f"need shards for all (pp, tp) ranks {sorted(expected)}, "
            f"got {sorted(shards)}"
        )
    return merge_tp_shards([shards[coord] for coord in sorted(expected)], out)


def shard_nbytes(shard: Mapping[str, np.ndarray]) -> int:
    return sum(np.asarray(a, dtype=np.float64).nbytes for a in shard.values())


def flat_shard_params(
    state: Mapping[str, np.ndarray],
    rank: int,
    n_shards: int,
) -> Dict[str, np.ndarray]:
    """FSDP/ZeRO-3 style sharding: each param flattened and split ``n`` ways.

    Uneven tails are zero-padded on the last rank (as FSDP pads flat
    parameters), with the original size recorded by ``gather_flat_shards``
    through the parameter's true shape.  Unpadded pieces are views.
    """
    if not 0 <= rank < n_shards:
        raise ValueError(f"rank {rank} out of range for {n_shards} shards")
    shard: Dict[str, np.ndarray] = {}
    for name, arr in state.items():
        flat = np.asarray(arr, dtype=np.float64).reshape(-1)
        per = -(-flat.size // n_shards)  # ceil division
        piece = flat[rank * per : (rank + 1) * per]
        if piece.size < per:
            piece = np.concatenate(
                [piece, np.zeros(per - piece.size, dtype=np.float64)]
            )
        shard[name] = piece
    return shard


def gather_flat_shards(
    pieces: List[Mapping[str, np.ndarray]],
    shapes: Mapping[str, Tuple[int, ...]],
    out: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Inverse of :func:`flat_shard_params`; ``shapes`` gives true shapes
    (the result is written into ``out``'s arrays when given)."""
    if not pieces:
        raise ValueError("no shards to gather")
    full: Dict[str, np.ndarray] = {} if out is None else out
    for name, shape in shapes.items():
        if name not in full:
            full[name] = np.empty(shape, dtype=np.float64)
        dest = full[name].reshape(-1)  # a view: the arrays are contiguous
        start = 0
        for piece in pieces:
            part = np.asarray(piece[name], dtype=np.float64).reshape(-1)
            part = part[: dest.size - start]  # the last rank's padding drops
            dest[start : start + part.size] = part
            start += part.size
    return full


def merge_tp_shards(
    pieces: Sequence[Mapping[str, np.ndarray]],
    out: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Merge the shards that tile a wider shard, given in ``(pp, tp)`` order.

    The one place TP pieces are concatenated: the HybridEngine builds every
    generation shard with it and :func:`gather_full_params` the full model.
    Pieces of one PP stage carry the same parameter names — a replicated
    parameter is taken from the first, a partitioned one concatenated on its
    TP axis in the order given; pieces of different stages carry disjoint
    names.  Anything in between is a shard that lost parameters.  With
    ``out`` the merge is written into its arrays (one per name, of the
    merged shape) and ``out`` is returned.
    """
    if not pieces:
        raise ValueError("no shards to merge")
    stages: List[set] = []
    parts: Dict[str, List[np.ndarray]] = {}
    for piece in pieces:
        names = set(piece)
        if names not in stages:
            if any(names & stage for stage in stages):
                raise ValueError("TP shards disagree on parameter names")
            stages.append(names)
        for name, arr in piece.items():
            parts.setdefault(name, []).append(np.asarray(arr, dtype=np.float64))
    merged: Dict[str, np.ndarray] = {} if out is None else out
    for name, arrs in parts.items():
        axis = param_partition(name)
        if axis is None:
            arrs, axis = arrs[:1], 0
        merged[name] = np.concatenate(arrs, axis=axis, out=merged.get(name))
    return merged
