"""A minimal reverse-mode autograd engine over numpy arrays.

This is the compute substrate standing in for PyTorch: a tape of exact
gradients where every differentiable computation is a primitive, one tape
node with a hand-written VJP, the way the engines it stands in for
(Megatron-LM, vLLM) are fused kernels.  The transformer LM is the fused
primitives at the end of this module — embedding, RMSNorm, causal
attention, SwiGLU MLP, head matmul, log-softmax-gather, and the ``unpack``
that lays a forward's stream of tokens back on its grid (``Stream``, the one
layout of every forward) — and each RLHF loss is one more
(``repro.rlhf.losses``).
``Tensor`` holds parameters and gradients and runs ``backward()``; its few
operators (``+``, ``*``, unary ``-``, ``sum``/``mean``, ``reshape``,
indexing) are what the callers glue primitives with.  The op-by-op algebra
the primitives replaced is the test oracle (``tests/oracles.py``).

Shapes follow numpy broadcasting; ``_unbroadcast`` folds gradient axes back
to the parameter shape, so biases and scalars work naturally.

Tape rules: gradients accumulate in place into the ``.grad`` of leaves only;
an interior node's ``.grad`` and closure are dropped once it has run, so a
graph backpropagates once; a VJP that freshly allocated an array hands it to
``_accumulate(..., owned=True)`` and it is adopted, not copied.
"""

from __future__ import annotations

import contextlib
import copy
import math
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (generation / inference passes)."""
    # the grad-mode flag is interpreter-global by design, like
    # torch.no_grad; restored in the finally below so it cannot leak
    global _GRAD_ENABLED  # repro-lint: ignore[RL305]
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast from ``shape``."""
    if grad.shape == shape:
        return grad
    # sum leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum axes that were size-1 in the original
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad if grad.shape == shape else grad.reshape(shape)


def _basic_index(index) -> bool:
    """True for int/slice/``...``/``None`` indices: no element is hit twice."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))
        for i in items
    )


def _released(g: np.ndarray) -> None:
    """Stands in for the VJP of a node ``backward()`` has already run."""
    raise RuntimeError(
        "this graph has already been backpropagated: its saved arrays were "
        "released, run the forward pass again"
    )


class Tensor:
    """A numpy array node on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    # make ``ndarray <op> Tensor`` defer to the Tensor's reflected operator
    # instead of numpy broadcasting over the Tensor object
    __array_ufunc__ = None

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _wrap(x: ArrayLike) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Optional[Callable[[np.ndarray], None]],
    ) -> "Tensor":
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (in place once it exists).

        ``owned=True`` hands over an array the caller freshly allocated and
        will not touch again; a borrowed or shared one is copied first.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
            owned = grad.base is None  # a fresh reduction, not a reshaped view
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return self._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g, owned=True)

        return self._from_op(-self.data, (self,), backward)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(g * self.data, owned=True)

        return self._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    # -- reductions -------------------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g, dtype=np.float64)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._from_op(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape ops ----------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        orig_shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    np.asarray(g, dtype=np.float64).reshape(orig_shape)
                )

        return self._from_op(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if _basic_index(index):
                    full[index] = g
                else:
                    np.add.at(full, index, g)
                self._accumulate(full, owned=True)

        return self._from_op(out_data, (self,), backward)

    # -- graph execution ------------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this node, once.

        Gradients land on leaves only.  Each interior node's ``.grad`` and
        VJP closure (with the arrays it saved) are dropped as soon as that
        node has run, so a VJP may overwrite the gradient it is given or hand
        it on as ``owned``, and a second pass through the graph raises.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor with no graph")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without a gradient needs a scalar, got shape "
                    f"{self.data.shape}"
                )
            grad = np.ones_like(self.data)

        # iterative topological sort to avoid recursion limits on deep graphs
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                _released(grad)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf: its .grad is the result
            g, node.grad = node.grad, None
            if g is not None:
                node._backward(g)
            node._backward, node._parents = _released, ()

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"


# -- fused primitives -------------------------------------------------------------
#
# The pieces of a transformer block, one tape node each.  Forward arithmetic is
# the op-by-op composition's, ufunc for ufunc (``tests/oracles.py`` keeps that
# composition as the oracle), but computed in place.  A row's result must not
# depend on the batch it rides in: token-wise layers run over a 2-D stream of
# whole BLAS tiles, attention over blocks of whole tiles (``Stream``).
# Without a graph (``no_grad``, or no input requiring grad) nothing is saved
# and no closure is built.  A VJP reads only what it closed over, overwrites
# those arrays and the gradient it is given as scratch, takes weight
# gradients as one GEMM over the stream's tokens, and hands results on as owned.

#: Free lists of block-internal scratch buffers, flat, by size.  glibc hands
#: freed heap top above ~2 MB back to the kernel, so a block's temporaries
#: were unmapped when a graph died and faulted in again by the next update
#: (docs/PERF.md has the counts with and without); recycling keeps the pages.
#: A buffer big enough to fault holds the power of two at or above the
#: element count asked for, and every shape gets a view of one: the token
#: counts of ragged batches, new with every batch, reuse the last batch's
#: buffers instead of adding sizes.  Only arrays that never leave a primitive
#: go through here, and the table keeps at most ``_RECYCLE_MAX_BYTES``, less
#: the scratch of graphs kept past the call that built them
#: (:func:`hold_scratch`); past that a buffer given back is freed.
_FREE: Dict[int, List[np.ndarray]] = {}
_RECYCLE_MIN_SIZE = 1 << 13  # float64 elements: 64 KiB
_RECYCLE_MAX_BYTES = 16 << 20
#: Bytes of flat buffers :func:`_scratch` lent and :func:`_recycle` has not
#: taken back.  A graph dropped without a backward never gives its buffers
#: back, so only differences of it mean anything.
_LENT = 0
#: Scratch bytes held by kept graphs, by the object keeping each; an entry
#: leaves with its owner.
_HELD: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()


def _scratch(*shape: int) -> np.ndarray:
    """An uninitialised float64 array; from ``_RECYCLE_MIN_SIZE`` elements, a
    view of a flat buffer, recycled when one of its size is held."""
    # the pool's books are interpreter-global by design, as its free lists
    global _LENT  # repro-lint: ignore[RL305]
    n = math.prod(shape)
    if n < _RECYCLE_MIN_SIZE:  # exact: rounded up, they tripled faults
        return np.empty(shape, dtype=np.float64)
    size = 1 << (n - 1).bit_length()
    free = _FREE.get(size)
    flat = free.pop() if free else np.empty(size, dtype=np.float64)
    _LENT += flat.nbytes
    return flat[:n].reshape(shape)


def _recycle(*arrays: np.ndarray) -> None:
    """Take :func:`_scratch` arrays (or views of them) back once nothing
    will read them again."""
    global _LENT  # repro-lint: ignore[RL305]
    held = None
    for a in arrays:
        flat = a.base  # a lent buffer is flat; a view of anything else is not
        if flat is None or flat.ndim > 1 or flat.size < _RECYCLE_MIN_SIZE:
            continue
        _LENT -= flat.nbytes
        if held is None:
            held = sum(_HELD.values()) if _HELD else 0
            held += 8 * sum(size * len(free) for size, free in _FREE.items())
        if held + flat.nbytes <= _RECYCLE_MAX_BYTES:
            _FREE.setdefault(flat.size, []).append(flat)
            held += flat.nbytes


def hold_scratch(owner: Any, forward: Callable[[], Tensor]) -> Tensor:
    """Run ``forward``, whose graph ``owner`` keeps past the call that built
    it, and charge the scratch buffers that graph saved against
    ``_RECYCLE_MAX_BYTES`` for as long as ``owner`` lives: the free lists
    then do not refill on top of a graph that will give its buffers back."""
    lent = _LENT
    out = forward()
    _HELD[owner] = _LENT - lent
    return out


def _tracked(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


#: Rows of a BLAS micro-tile: a GEMM row keeps its bits wherever it sits in a
#: matrix of whole tiles, not in a lone row or a part-filled tile
#: (docs/PERF.md, "One forward layout").
TILE_ROWS = 4
#: Widest key width: past it numpy's pairwise sum splits a softmax row at a
#: point that moves with the width.
MAX_KEY_WIDTH = 128


def key_width(length: int) -> int:
    """The key width of rows ending by ``length``: a multiple of 8, >= 16."""
    return max(16, -(-length // 8) * 8)


def _tiled(n: int) -> int:
    return -(-n // TILE_ROWS) * TILE_ROWS


def _spans(start: np.ndarray, stop: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, position)`` of positions ``start[i] <= p < stop[i]``, row after row."""
    n = np.maximum(stop - start, 0)
    row = np.repeat(np.arange(len(n)), n)
    return row, np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - start, n)


def _put(block: np.ndarray, at: np.ndarray, run: Optional[int], values: np.ndarray) -> None:
    """``values`` into a block's flat positions ``at`` (``run``: each row's first ``run``)."""
    if run is None:
        block.reshape(-1, *block.shape[2:])[at] = values
    else:
        block[:, :run] = values.reshape(len(block), run, *block.shape[2:])


def _take(block: np.ndarray, at: np.ndarray, run: Optional[int]) -> np.ndarray:
    """The values at the positions ``at`` of a block, as :func:`_put` writes."""
    if run is None:
        return block.reshape(-1, *block.shape[2:])[at]
    return block[:, :run].reshape(-1, *block.shape[2:])


class _Fold:
    """Positions ``at`` of a block (as :func:`_put` takes them) that read
    the tokens ``src`` of a stream, which may repeat: :meth:`folded` sums a
    gradient at ``at`` back into those tokens in a fixed order — one
    ``reduceat`` when a token is read more than once."""

    __slots__ = ("src", "at", "run", "_sorted")

    def __init__(self, src: np.ndarray, at: np.ndarray, run: Optional[int] = None) -> None:
        self.src, self.at, self.run = src, at, run
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def folded(self, values: np.ndarray) -> Tuple[Union[slice, np.ndarray], np.ndarray]:
        """The tokens read, and each one's ``values`` at ``at`` summed."""
        if self.run is not None:  # every token once, in order
            return slice(0, len(self.src)), _take(values, self.at, self.run)
        if self._sorted is None:  # once, at the first backward
            order = np.argsort(self.src, kind="stable")
            src = self.src[order]
            self._sorted = src, self.at[order], np.flatnonzero(np.diff(src, prepend=-1))
        src, at, starts = self._sorted
        picked = _take(values, at, None)
        if len(starts) == len(src):  # each token once
            return src, picked
        return src[starts], np.add.reduceat(picked, starts)


class Stream:
    """The layout of one forward over a ``(rows, seq)`` grid of tokens.

    Its tokens run as one 2-D stream, row after row, padded to whole
    :data:`TILE_ROWS` tiles by repeating its first tokens (``index``: each
    one's grid position ``row * seq + p``; the first ``n`` are real).  Row
    ``i`` computes positions ``skip[i]`` to ``lengths[i]``; below
    ``skip[i]`` (a GRPO group's prompt) it reads its leader's keys and
    values.  Each layer runs **one** attention core over every row: keys
    and values in a ``(rows, width, hidden)`` block at the :func:`key_width`
    of the longest row, zero past each row's end; queries in a ``(rows,
    height, hidden)`` block whose row ``i`` starts at its first own (in the
    last layer, returned) position, ``height`` the most queries a row has in
    whole tiles; ``mask`` hides the keys past each query.  So a row's bits
    depend neither on ``width`` (up to :data:`MAX_KEY_WIDTH`) nor on the
    rows beside it.

    ``tail`` is the last layer: keys and values at every token, the rest at
    the tokens the forward returns — each row's from ``read_from`` on
    (``reads``, an index of the stream) — which ``out`` lays on the
    ``shape`` grid (:func:`unpack`), a follower's prompt positions reading
    its leader's.  With ``cached`` (each row's cached positions,
    :meth:`KVStore.at <repro.models.tinylm.KVStore.at>`) the grid is a
    cached forward's new tokens, queried at ``cached[i] + j`` in a block of
    height ``seq``, and keys and values come from the store.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        lengths: Optional[np.ndarray] = None,
        leaders: Optional[np.ndarray] = None,
        shared: int = 0,
        read_from: int = 0,
        cached: Optional[np.ndarray] = None,
    ) -> None:
        batch, seq = shape
        lengths = np.zeros(batch, dtype=np.int64) + np.minimum(
            seq if lengths is None else np.asarray(lengths, dtype=np.int64), seq)
        skip = np.zeros(batch, dtype=np.int64)
        if leaders is not None:
            follows = leaders != np.arange(batch)
            skip[follows] = np.minimum(np.minimum(lengths, lengths[leaders]), shared)[follows]
        row, pos = _spans(skip, lengths)
        own = lengths - skip
        # row ``i``'s own position ``p`` is stream token ``base[i] + p``
        base = np.cumsum(own) - own - skip
        offset = np.zeros(batch, dtype=np.int64) if cached is None else cached
        self.rows, self.width = batch, key_width(int((lengths + offset).max()))
        self.reads: Optional[np.ndarray] = None  # every token
        self.keys: Optional[_Fold] = None  # the cache's, when cached
        if cached is None:
            src, at = np.arange(len(row)), row * self.width + pos
            if skip.any():  # followers read their leader's prompt keys
                lead_row, lead_pos = _spans(np.zeros(batch, dtype=np.int64), skip)
                src = np.concatenate([src, base[leaders[lead_row]] + lead_pos])
                at = np.concatenate([at, lead_row * self.width + lead_pos])
            uniform = not skip.any() and (lengths == lengths[0]).all()
            self.keys = _Fold(src, at, int(lengths[0]) if uniform else None)
        self._queries(seq, row, pos, skip, offset, seq if cached is not None else None)
        self.tail = self
        first = np.maximum(skip, read_from)
        if read_from:
            self.tail = tail = copy.copy(self)
            row, pos = _spans(first, lengths)
            tail.reads = (base[row] + pos)[self._pad(len(row))]
            tail._queries(seq, row, pos, first, offset)
        # the output: the returned tokens, a follower's prompt its leader's
        out_seq = seq - read_from
        src, at = np.arange(len(row)), row * out_seq + pos - read_from
        if (skip > read_from).any():
            returned = np.maximum(lengths - first, 0)
            ret_base = np.cumsum(returned) - returned - first
            lead_row, lead_pos = _spans(np.full(batch, read_from), np.maximum(skip, read_from))
            src = np.concatenate([src, ret_base[leaders[lead_row]] + lead_pos])
            at = np.concatenate([at, lead_row * out_seq + lead_pos - read_from])
        self.tail.shape = (batch, out_seq)
        self.tail.out = _Fold(src, at)

    @staticmethod
    def _pad(n: int) -> np.ndarray:  # ``n`` tokens in whole tiles: the first repeat
        return np.arange(_tiled(n)) % max(n, 1)

    def _queries(self, seq, row, pos, start, offset, height=None) -> None:
        """Query tokens ``(row, pos)`` in stream order, row ``i``'s block
        from position ``start[i]`` on, at key position ``offset[i] + pos``."""
        pad = self._pad(len(row))
        self.n, self.index = len(row), (row * seq + pos)[pad]
        counts = np.bincount(row, minlength=len(start))
        if height is None:
            height = _tiled(int(counts.max(initial=0)))
        #: block slot (``row * height + j``) of each real query token, and
        #: of each stream token; ``run``: every row has ``run`` queries
        self.slots = row * height + pos - start[row]
        self.gather = self.slots[pad]
        self.run = int(counts[0]) if len(counts) and (counts == counts[0]).all() else None
        queries = (start + offset)[:, None] + np.arange(height)
        if (queries[0] == queries).all():  # every row's block starts alike
            queries = queries[:1]
        #: ``(rows or 1, 1, height, width)``: -1e9 at the keys past each query
        self.mask = np.where(np.arange(self.width) > queries[:, None, :, None], -1e9, 0.0)


def embed(
    tok_table: Tensor,
    pos_table: Tensor,
    token_ids: np.ndarray,
    positions: np.ndarray,
) -> Tensor:
    """Token plus learned-position embedding of int64 ids at ``positions``
    (an int array of their shape)."""
    out = tok_table.data[token_ids]
    out += pos_table.data[positions]
    if not _tracked(tok_table, pos_table):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        g = g.reshape(-1, g.shape[-1])
        for table, index in ((tok_table, token_ids), (pos_table, positions)):
            if table.requires_grad:
                # each row's sum in token order, as ``np.add.at`` adds
                order = np.argsort(index, axis=None, kind="stable")
                index = index.reshape(-1)[order]
                starts = np.flatnonzero(np.concatenate(([True], index[1:] != index[:-1])))
                full = np.zeros_like(table.data)
                if len(index):
                    full[index[starts]] = np.add.reduceat(g[order], starts)
                table._accumulate(full, owned=True)

    return Tensor._from_op(out, (tok_table, pos_table), backward)


def unpack(x: Tensor, stream: Stream) -> Tensor:
    """A forward's returned tokens ``(n, ...)`` on its ``stream.shape`` grid,
    0 where it returns none; a follower's shared positions read its leader's."""
    fold, shape = stream.out, stream.shape + x.shape[1:]
    if len(fold.src) == stream.n == math.prod(stream.shape):  # each position, in order
        out = x.data[: stream.n].reshape(shape)
    else:
        out = np.zeros(shape, dtype=np.float64)
        out.reshape(-1, *x.shape[1:])[fold.at] = x.data[fold.src]
    if not _tracked(x):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        grad = np.zeros(x.shape, dtype=np.float64)
        tokens, summed = fold.folded(g)
        grad[tokens] = summed
        x._accumulate(grad, owned=True)

    return Tensor._from_op(out, (x,), backward)


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """``x * (mean(x**2, -1) + eps) ** -0.5 * weight`` over the last axis."""
    xd = x.data
    out = xd * xd
    rstd = (out.sum(axis=-1, keepdims=True) * (1.0 / xd.shape[-1]) + eps) ** -0.5
    np.multiply(xd, rstd, out=out)
    out *= weight.data
    if not _tracked(x, weight):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        h = xd.shape[-1]
        xhat = xd * rstd
        if weight.requires_grad:
            dw = np.einsum("nh,nh->h", g.reshape(-1, h), xhat.reshape(-1, h))
            weight._accumulate(dw, owned=True)
        if x.requires_grad:
            # dx = rstd * (dxhat - xhat * mean(dxhat * xhat)), dxhat = g * w
            g *= weight.data
            xhat *= np.einsum("...h,...h->...", g, xhat)[..., None] / h
            g -= xhat
            g *= rstd
            x._accumulate(g, owned=True)

    return Tensor._from_op(out, (x, weight), backward)


def linear(x: Tensor, weight: Tensor) -> Tensor:
    """``x @ weight`` for ``(..., in)`` activations and an ``(in, out)`` weight."""
    xd = x.data
    out = xd @ weight.data
    if not _tracked(x, weight):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(-1, g.shape[-1])
        if weight.requires_grad:
            weight._accumulate(xd.reshape(-1, xd.shape[-1]).T @ g2, owned=True)
        if x.requires_grad:
            x._accumulate((g2 @ weight.data.T).reshape(xd.shape), owned=True)

    return Tensor._from_op(out, (x, weight), backward)


def attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    n_heads: int,
    stream: Stream,
    residual: Optional[Tensor] = None,
    cache=None,
    layer: int = 0,
) -> Tensor:
    """Causal multi-head self-attention of the 2-D stream ``x`` laid out by
    ``stream`` (one masked softmax and context over every row), plus
    ``residual``; keys and values at every token, the rest at the tokens the
    layer returns.  With ``cache`` (inference only), its ``extend`` caches
    the new tokens' keys and values and hands back every row's."""
    parents = (x, wq, wk, wv, wo) + (() if residual is None else (residual,))
    tracked = _tracked(*parents)
    if tracked and cache is not None:
        raise RuntimeError(
            "a KV cache is inference-only: cached keys/values carry no "
            "gradient to wk/wv; run the forward under no_grad()"
        )
    xd = x.data
    h = xd.shape[-1]
    hd = h // n_heads
    scale = 1.0 / np.sqrt(hd)
    rows, height, width = stream.rows, stream.mask.shape[2], stream.width
    reads = slice(None) if stream.reads is None else stream.reads
    slots, n = stream.slots, len(stream.slots)  # n: the real query tokens
    full = stream.run == height  # every slot a query, in stream order: views

    def heads(block: np.ndarray) -> np.ndarray:
        return block.reshape(len(block), -1, n_heads, hd).transpose(0, 2, 1, 3)

    def projected(src: np.ndarray, w: Tensor) -> np.ndarray:
        return np.matmul(src, w.data, out=_scratch(*src.shape))

    def blocked(flat: np.ndarray, tiling: bool = False) -> np.ndarray:
        """The query block of the stream ``flat``; ``tiling``: a tiling
        token's row sums into its first token's slot."""
        if full and (len(flat) == n or not tiling):
            return flat[:n].reshape(rows, height, h)
        block = _scratch(rows, height, h)
        block[:, stream.run or 0 :] = 0.0
        _put(block, slots, stream.run, flat[:n])
        if tiling:
            np.add.at(block.reshape(-1, h), stream.gather[n:], flat[n:])
        _recycle(flat)
        return block

    xr = xd[reads]
    q = heads(blocked(projected(xr, wq)))
    if cache is not None:
        new = [projected(xd, w) for w in (wk, wv)]
        kv = cache.extend(layer, *new)
        _recycle(*new)
    else:
        keys = stream.keys
        kv = _scratch(2, rows, width, h)
        kv[:, :, keys.run or 0 :] = 0.0
        for block, w in zip(kv, (wk, wv)):
            proj = projected(xd, w)
            _put(block, keys.at, keys.run, proj[: len(keys.src)] if keys.run else proj[keys.src])
            _recycle(proj)
    k, v = heads(kv[0]), heads(kv[1])
    att = np.matmul(q, k.swapaxes(-1, -2), out=_scratch(rows, n_heads, height, width))
    att *= scale
    att += stream.mask
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    # each head's context in its columns of the block: BLAS writes a GEMM
    # at any output row stride alike
    ctx_block = _scratch(rows, height, h)
    np.matmul(att, v, out=heads(ctx_block))
    # a tiling token repeats its first: its context is that token's
    ctx = ctx_block.reshape(-1, h)
    if not full or len(xr) > n:
        ctx = _scratch(*xr.shape)
        ctx[:n] = _take(ctx_block, slots, stream.run)
        ctx[n:] = ctx_block.reshape(-1, h)[stream.gather[n:]]
        _recycle(ctx_block)
    out = ctx @ wo.data
    if residual is not None:
        out += residual.data[reads]
    if not tracked:
        _recycle(ctx, att, kv, q)
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        if wo.requires_grad:
            wo._accumulate(ctx.T @ g, owned=True)
        dctx = heads(blocked(g @ wo.data.T, tiling=True))
        # each head's gradient in its columns of a ``(rows, depth, hidden)`` block
        dq, dk, dv = (_scratch(rows, depth, h) for depth in (height, width, width))
        np.matmul(att.swapaxes(-1, -2), dctx, out=heads(dv))
        datt = np.matmul(dctx, v.swapaxes(-1, -2), out=_scratch(*att.shape))
        # softmax VJP (masked entries have att == 0), then the score scaling
        datt -= np.einsum("...k,...k->...", datt, att)[..., None]
        datt *= att
        datt *= scale
        np.matmul(datt, k, out=heads(dq))
        np.matmul(datt.swapaxes(-1, -2), q, out=heads(dk))
        _recycle(att, kv, q, dctx)
        at_queries = slice(0, n) if stream.reads is None else stream.reads[:n]
        terms = [(wq, xr[:n], _take(dq, slots, stream.run), at_queries)]
        for w, d in ((wk, dk), (wv, dv)):
            # a key position's gradient sums into the stream token it read
            tokens, d = stream.keys.folded(d)
            terms.append((w, xd[tokens], d, tokens))
        _recycle(datt, dq, dk, dv)
        dx = np.zeros(xd.shape, dtype=np.float64)
        for w, src, d, at in terms:
            if w.requires_grad:
                w._accumulate(src.T @ d, owned=True)
            if x.requires_grad:
                dx[at] += d @ w.data.T
        if x.requires_grad:
            x._accumulate(dx, owned=True)
        _recycle(ctx)
        if residual is not None and residual.requires_grad:
            if stream.reads is not None:
                g, returned = np.zeros(xd.shape, dtype=np.float64), g
                g[at_queries] = returned[:n]
                if len(returned) > n:  # the tiling tokens
                    np.add.at(g, stream.reads[n:], returned[n:])
            residual._accumulate(g, owned=True)

    return Tensor._from_op(out, parents, backward)


def swiglu_mlp(
    x: Tensor,
    w_gate: Tensor,
    w_up: Tensor,
    w_down: Tensor,
    residual: Optional[Tensor] = None,
) -> Tensor:
    """``(silu(x @ w_gate) * (x @ w_up)) @ w_down``, plus ``residual`` if given."""
    xd = x.data
    wide = xd.shape[:-1] + w_gate.data.shape[1:]
    z = np.matmul(xd, w_gate.data, out=_scratch(*wide))
    up = np.matmul(xd, w_up.data, out=_scratch(*wide))
    sig = np.negative(z, out=_scratch(*wide))
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)

    def activation() -> np.ndarray:  # the same bits at every call
        act = np.multiply(z, sig, out=_scratch(*wide))
        act *= up
        return act

    act = activation()
    out = act @ w_down.data
    _recycle(act)  # a backward computes it again
    if residual is not None:
        out += residual.data
    parents = (x, w_gate, w_up, w_down) + (() if residual is None else (residual,))
    if not _tracked(*parents):
        _recycle(z, up, sig)
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        h, f = xd.shape[-1], z.shape[-1]
        g2, x2 = g.reshape(-1, h), xd.reshape(-1, h)
        if w_down.requires_grad:
            act = activation()
            w_down._accumulate(act.reshape(-1, f).T @ g2, owned=True)
            _recycle(act)
        z2, sig2, up2 = (a.reshape(-1, f) for a in (z, sig, up))
        dz = g2 @ w_down.data.T  # d(act) for now
        dup = np.multiply(z2, sig2, out=_scratch(*z2.shape))
        dup *= dz  # d(up) = d(act) * silu(z)
        # d silu(z) = sig * (1 + z * (1 - sig)), built over the saved z
        z2 *= 1.0 - sig2
        z2 += 1.0
        z2 *= sig2
        dz *= up2
        dz *= z2
        if w_up.requires_grad:
            w_up._accumulate(x2.T @ dup, owned=True)
        if w_gate.requires_grad:
            w_gate._accumulate(x2.T @ dz, owned=True)
        if x.requires_grad:
            dx = dup @ w_up.data.T
            dx += dz @ w_gate.data.T
            x._accumulate(dx.reshape(xd.shape), owned=True)
        _recycle(z, up, sig, dup)
        if residual is not None and residual.requires_grad:
            residual._accumulate(g, owned=True)

    return Tensor._from_op(out, parents, backward)


def log_softmax_gather(logits: Tensor, index: np.ndarray) -> Tensor:
    """``log_softmax(logits, -1)`` picked at ``index`` along the last axis.

    ``index`` has the shape of ``logits`` minus the last axis: per-token
    log-probabilities without materialising the full log-softmax.
    """
    picks = np.expand_dims(np.asarray(index, dtype=np.int64), -1)
    e = logits.data - logits.data.max(axis=-1, keepdims=True)
    out = np.take_along_axis(e, picks, axis=-1)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    out -= np.log(total)
    out = out.squeeze(-1)
    if not _tracked(logits):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        # d out / d logits = onehot(index) - softmax, built over the saved exp
        g = np.expand_dims(g, -1)
        dlogits = np.divide(e, total, out=e)
        dlogits *= -g
        np.put_along_axis(
            dlogits, picks, np.take_along_axis(dlogits, picks, axis=-1) + g, axis=-1
        )
        logits._accumulate(dlogits, owned=True)

    return Tensor._from_op(out, (logits,), backward)
