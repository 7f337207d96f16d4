"""Functional collectives over numpy arrays for simulated ranks.

Because every simulated rank lives in one Python process, a collective is a
pure function from the per-rank inputs (ordered by *group rank*) to the
per-rank outputs.  Each collective records the per-rank communication volume
a ring implementation of the same operation would move, so the functional and
analytical layers agree on traffic accounting.

All functions copy their outputs, or write them into per-rank buffers the
caller hands in (``all_reduce(..., out=)``): ranks never alias each other's
buffers, matching real device semantics (and making accidental sharing a
test failure rather than a silent miracle).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.comm.groups import ProcessGroup, ring_all_gather_bytes


def _require_group_sized(inputs: Sequence[Any], group: ProcessGroup, op: str) -> None:
    if len(inputs) != group.size:
        raise ValueError(
            f"{op}: expected {group.size} per-rank inputs for group "
            f"{group.name!r}, got {len(inputs)}"
        )


def all_gather(shards: Sequence[np.ndarray], group: ProcessGroup, axis: int = 0) -> List[np.ndarray]:
    """All ranks receive the concatenation of every rank's shard.

    Ring all-gather moves ``(n-1)/n * total`` bytes per rank.
    """
    _require_group_sized(shards, group, "all_gather")
    gathered = np.concatenate([np.asarray(s) for s in shards], axis=axis)
    per_rank = ring_all_gather_bytes(gathered.nbytes, group.size)
    group.record_traffic("all_gather", per_rank)
    return [gathered.copy() for _ in range(group.size)]


def all_gather_object(objs: Sequence[Any], group: ProcessGroup) -> List[List[Any]]:
    """Object all-gather: every rank receives the list of all ranks' objects."""
    _require_group_sized(objs, group, "all_gather_object")
    group.record_traffic("all_gather_object", 0)
    return [list(objs) for _ in range(group.size)]


#: The elementwise combine of each ``all_reduce`` op (a mean sums, then divides).
_REDUCE_UFUNCS = {"sum": np.add, "mean": np.add, "max": np.maximum, "min": np.minimum}


def all_reduce(
    tensors: Sequence[np.ndarray],
    group: ProcessGroup,
    op: str = "sum",
    out: Optional[Sequence[np.ndarray]] = None,
    buckets: Sequence[int] = (),
) -> List[np.ndarray]:
    """All ranks receive the elementwise reduction of all inputs.

    Ring all-reduce moves ``2*(n-1)/n * M`` bytes per rank, metered per
    bucket: ``buckets`` are the element counts of the pieces the inputs lay
    end to end (a flat gradient buffer's tensors, so one call meters what a
    call per tensor would); by default the input is one bucket.  ``out``
    are the ranks' receive buffers, written in place and returned — a rank's
    own input is one, as in NCCL's in-place mode — and nothing else is
    allocated; without it every rank receives a fresh array.  Elements are
    reduced rank after rank, as ``np.stack(tensors).sum(axis=0)`` does.
    """
    _require_group_sized(tensors, group, "all_reduce")
    arrays = [np.asarray(t) for t in tensors]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"all_reduce: mismatched shapes {shapes}")
    if op not in _REDUCE_UFUNCS:
        raise ValueError(f"unsupported all_reduce op {op!r}")
    ufunc = _REDUCE_UFUNCS[op]
    if out is None:
        result = arrays[0].copy()
    else:
        result = out[0]
        if result is not arrays[0]:
            result[...] = arrays[0]
    for a in arrays[1:]:
        ufunc(result, a, out=result)
    if op == "mean":
        result /= group.size
    itemsize = result.itemsize
    per_rank = sum(
        2 * (group.size - 1) * n * itemsize // group.size
        for n in (buckets or (result.size,))
    )
    group.record_traffic("all_reduce", per_rank)
    if out is None:
        return [result] + [result.copy() for _ in range(group.size - 1)]
    for o in out[1:]:
        o[...] = result
    return list(out)


def reduce_scatter(
    tensors: Sequence[np.ndarray],
    group: ProcessGroup,
    axis: int = 0,
) -> List[np.ndarray]:
    """Reduce all inputs, then scatter equal chunks along ``axis``.

    Moves ``(n-1)/n * M`` bytes per rank.
    """
    _require_group_sized(tensors, group, "reduce_scatter")
    arrays = [np.asarray(t) for t in tensors]
    total = np.sum(np.stack(arrays), axis=0)
    if total.shape[axis] % group.size:
        raise ValueError(
            f"reduce_scatter: axis {axis} length {total.shape[axis]} not divisible "
            f"by group size {group.size}"
        )
    chunks = np.split(total, group.size, axis=axis)
    per_rank = ring_all_gather_bytes(total.nbytes, group.size)
    group.record_traffic("reduce_scatter", per_rank)
    return [c.copy() for c in chunks]


def broadcast(
    value: np.ndarray,
    group: ProcessGroup,
    root_group_rank: int = 0,
) -> List[np.ndarray]:
    """Every rank receives the root's tensor."""
    if not 0 <= root_group_rank < group.size:
        raise ValueError(f"broadcast root {root_group_rank} out of range")
    arr = np.asarray(value)
    per_rank = arr.nbytes if group.size > 1 else 0
    group.record_traffic("broadcast", per_rank)
    return [arr.copy() for _ in range(group.size)]


def scatter(
    chunks: Sequence[np.ndarray],
    group: ProcessGroup,
) -> List[np.ndarray]:
    """Rank ``i`` receives ``chunks[i]`` (root-side split already done)."""
    _require_group_sized(chunks, group, "scatter")
    arrays = [np.asarray(c) for c in chunks]
    per_rank = (
        sum(a.nbytes for a in arrays) // group.size if group.size > 1 else 0
    )
    group.record_traffic("scatter", per_rank)
    return [a.copy() for a in arrays]


def gather(
    tensors: Sequence[np.ndarray],
    group: ProcessGroup,
    root_group_rank: int = 0,
) -> List[np.ndarray]:
    """The root receives every rank's tensor (as a list); others receive []."""
    _require_group_sized(tensors, group, "gather")
    arrays = [np.asarray(t).copy() for t in tensors]
    per_rank = (
        sum(a.nbytes for a in arrays) // group.size if group.size > 1 else 0
    )
    group.record_traffic("gather", per_rank)
    out: List[Any] = [[] for _ in range(group.size)]
    out[root_group_rank] = arrays
    return out


def all_to_all(
    send: Sequence[Sequence[np.ndarray]],
    group: ProcessGroup,
) -> List[List[np.ndarray]]:
    """``send[i][j]`` goes from group rank ``i`` to group rank ``j``."""
    _require_group_sized(send, group, "all_to_all")
    for i, row in enumerate(send):
        if len(row) != group.size:
            raise ValueError(
                f"all_to_all: rank {i} supplied {len(row)} chunks, "
                f"expected {group.size}"
            )
    nbytes = sum(np.asarray(x).nbytes for row in send for x in row)
    per_rank = nbytes // group.size if group.size > 1 else 0
    group.record_traffic("all_to_all", per_rank)
    return [
        [np.asarray(send[src][dst]).copy() for src in range(group.size)]
        for dst in range(group.size)
    ]


def apply_per_rank(
    fn: Callable[[int, Any], Any],
    inputs: Sequence[Any],
    group: ProcessGroup,
) -> List[Any]:
    """Run ``fn(group_rank, input)`` on every rank — SPMD helper for tests."""
    _require_group_sized(inputs, group, "apply_per_rank")
    return [fn(i, x) for i, x in enumerate(inputs)]
