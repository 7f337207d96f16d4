"""A minimal reverse-mode autograd engine over numpy arrays.

This is the compute substrate standing in for PyTorch: a tape of exact
gradients where every differentiable computation is a primitive, one tape
node with a hand-written VJP, the way the engines it stands in for
(Megatron-LM, vLLM) are fused kernels.  The transformer LM is the fused
primitives at the end of this module — embedding, RMSNorm, causal
attention, SwiGLU MLP, head matmul, log-softmax-gather, and the ``unpack``
that lays a packed stream of ragged rows' real tokens back on its grid
(``Packing``) — and each RLHF loss is one more (``repro.rlhf.losses``).
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
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
# depend on the batch it rides in: dense projections stay 3-D matmuls, and a
# packed stream's 2-D GEMMs compute each row as they do (``Packing``).
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
    for a in arrays:
        flat = a.base  # a lent buffer is flat; a view of anything else is not
        if flat is None or flat.ndim > 1 or flat.size < _RECYCLE_MIN_SIZE:
            continue
        _LENT -= flat.nbytes
        held = sum(_HELD.values()) if _HELD else 0
        held += 8 * sum(size * len(free) for size, free in _FREE.items())
        if held + flat.nbytes <= _RECYCLE_MAX_BYTES:
            _FREE.setdefault(flat.size, []).append(flat)


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


class Rows:
    """Rows of one forward whose attention core runs together.

    ``take`` reads their ``(rows, width, ...)`` block out of the forward's
    stream and ``put`` writes one back.  On a ``(batch, seq, ...)`` grid the
    rows are an index of its first axis (a slice reads a view).  In a packed
    stream, stream token ``src[j]`` sits at ``(row, position) = at[j]`` of
    the block, whose other positions read 0.  The first ``own`` of those
    tokens are the rows' own; the rest are a prompt prefix another row of
    the forward computes (``Packing``), read as keys and values only —
    ``add_shared`` sums their gradient into the tokens read.  Queries, and
    what the core writes back, are the own tokens, in a block of positions
    ``offset`` to ``width`` (``take``/``put`` with ``queries=True``).  They
    are read from, and written to, the stream of the tokens the call
    returns: the own tokens, unless ``queries`` (``(src, at)`` into that
    stream) names fewer (a last layer's, ``Packing.tail``).
    """

    __slots__ = ("rows", "width", "offset", "keys", "own", "queries", "shared")

    def __init__(
        self, rows, width=0, src=None, at=None, own=None, offset=0, queries=None
    ) -> None:
        self.rows, self.width, self.offset = rows, width, offset
        self.keys = self.own = (src, at)
        self.shared: Optional[_Fold] = None
        if own is not None and own < len(src):
            self.own = (src[:own], (at[0][:own], at[1][:own]))
            self.shared = _Fold(src[own:], (at[0][own:], at[1][own:]))
        src, at = self.own if queries is None else queries
        self.queries = (src, at if src is None else (at[0], at[1] - offset))

    def take(self, stream: np.ndarray, queries: bool = False) -> np.ndarray:
        if self.keys[0] is None:
            return stream[self.rows]
        src, at = self.queries if queries else self.keys
        width = self.width - self.offset if queries else self.width
        block = _scratch(len(self.rows), width, *stream.shape[1:])
        block.fill(0.0)
        block[at] = stream[src]
        return block

    def put(self, stream: np.ndarray, block: np.ndarray, queries: bool = True) -> None:
        if self.keys[0] is None:
            stream[self.rows] = block
        else:
            src, at = self.queries if queries else self.own
            stream[src] = block[at]

    def add_shared(self, stream: np.ndarray, block: np.ndarray) -> None:
        """Sum a key block's shared positions into the stream tokens they
        read (several rows may read one)."""
        if self.shared is not None:
            self.shared.into(stream, block)


class _Fold:
    """Positions ``at`` that read tokens ``src`` (``src`` may repeat):
    ``into`` sums values at ``at`` back into those tokens, in a fixed
    order, one ``reduceat`` per call."""

    __slots__ = ("src", "at", "starts", "targets")

    def __init__(self, src: np.ndarray, at) -> None:
        order = np.argsort(src, kind="stable")
        self.src = src[order]
        self.starts = np.flatnonzero(
            np.concatenate(([True], self.src[1:] != self.src[:-1]))
        )
        self.targets = self.src[self.starts]
        self.at = tuple(a[order] for a in at) if isinstance(at, tuple) else at[order]

    def into(self, out: np.ndarray, values: np.ndarray) -> None:
        out[self.targets] += np.add.reduceat(values[self.at], self.starts)


class _Shared(NamedTuple):
    """Grid positions ``at`` (``row * seq + position``, in grid order) that
    read stream tokens ``src``."""

    src: np.ndarray
    at: np.ndarray


_EVERY_ROW = (Rows(slice(None)),)


class Packing:
    """Which positions of a ``(batch, seq)`` grid one forward computes.

    Without ``lengths``, or when every row is full, the forward is dense:
    its stream is the grid itself, ``(batch, seq, ...)``, and attention
    runs once over all rows, on views.  Otherwise row ``i`` computes its
    first ``lengths[i]`` positions only.  The token-wise layers run once
    over the packed stream of those tokens, row after row
    (``(n_tokens, ...)``), and attention runs once per group of rows that
    share a key width: the length rounded up to a multiple of 8 and at
    least 16, or ``seq`` once that would pass ``seq - seq % 8``.  At such a
    width a row's softmax sum and ``att @ v`` associate as they do over the
    whole grid (numpy's pairwise sum and the BLAS k-loop unroll by 8, and
    the masked keys are exact zeros; at width 8 BLAS takes another path for
    some head dims), so every computed position is bit-identical to the
    dense forward's wherever BLAS computes a GEMM row the same at any place
    in the matrix — for layer widths that are multiples of 8, as every
    shipped config's are (docs/PERF.md, "padding-free forwards").  A
    forward of fewer than two real tokens runs dense.

    With ``leaders``, a row whose first ``prefix`` tokens equal those of
    row ``leaders[i]`` (a GRPO group's prompt) does not compute them: its
    attention reads the leader's keys and values there, ``unpack`` copies
    the leader's outputs there, and their gradients sum into the leader's
    tokens.  A prefix position's result does not depend on the key width it
    ran at (the rule above), so every position is still the dense
    forward's bit for bit; gradients agree to rounding.  With
    ``offset_queries`` such rows' attention core also starts its queries
    past the prefix; that moves each query row up the score and context
    GEMMs, which keeps its bits only for head dims ≡ 0 or 4 (mod 8) and at
    least two queries (one is a GEMV), so the caller says whether it may.

    With ``read_from``, the forward returns each row's positions from
    ``read_from`` on only (a response's), and ``tail`` is the layout of its
    last layer: keys and values at every token as above, queries and
    everything after the attention core only at the returned tokens
    (``reads``).  On a dense grid whose queries may start past 0 that is the
    view ``[:, read_from:]``; otherwise the stream packs, and each row's
    queries start at its first returned position where the rule above
    allows, else at 0 with the positions before it zeros never written
    back.  Token-wise rows keep their bits at any place in a GEMM, so every
    returned position is the full forward's bit for bit.  Under two
    returned tokens (a GEMV) there is no tail: ``tail.read_from`` is 0.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        lengths: Optional[np.ndarray] = None,
        leaders: Optional[np.ndarray] = None,
        prefix: int = 0,
        offset_queries: bool = False,
        read_from: int = 0,
    ):
        self.shape = shape
        batch, seq = shape
        #: Grid position (``row * seq + position``) of each stream token;
        #: ``None`` when dense.
        self.index: Optional[np.ndarray] = None
        self.groups = _EVERY_ROW
        #: The grid positions rows read from their leader's stream tokens;
        #: ``None`` when no row does.
        self.shared: Optional[_Shared] = None
        #: The first position the layout returns, and which tokens of the
        #: stream those are: ``...`` (all of them), a view of the grid or an
        #: index of the stream.
        self.read_from, self.reads = 0, Ellipsis
        #: The layout of the forward's last layer (see the class docstring).
        self.tail = self
        # every row of a dense grid may query from ``read_from``: the tail
        # is a view of the grid
        view = read_from > 0 and offset_queries and seq - read_from >= 2
        if lengths is None and leaders is None and (view or not read_from):
            if view:
                self._view_tail(read_from)
            return
        lengths = np.minimum(
            np.full(batch, seq, dtype=np.int64)
            if lengths is None
            else np.asarray(lengths, dtype=np.int64),
            seq,
        )
        skip = np.zeros(batch, dtype=np.int64)
        if leaders is not None:
            follows = leaders != np.arange(batch)
            reach = np.minimum(np.minimum(lengths, lengths[leaders]), prefix)
            skip[follows] = reach[follows]
        own = lengths - skip
        # one token would make every GEMM a matrix-vector product
        if own.sum() < 2:
            return
        # each row's first own position at or past ``read_from``
        first = np.maximum(skip, read_from)
        returned = np.maximum(lengths - first, 0)
        narrow = read_from > 0 and returned.sum() >= 2
        if lengths.min() >= seq and not skip.any() and (view or not narrow):
            if view:
                self._view_tail(read_from)
            return
        grid = np.arange(seq)
        self.index = np.flatnonzero(
            (grid >= skip[:, None]) & (grid < lengths[:, None])
        )
        self.positions = self.index % seq
        # row ``r``'s own position ``p`` is stream token ``base[r] + p``
        base = np.cumsum(own) - own - skip
        widths = np.maximum(-(-lengths // 8) * 8, 16)
        widths[widths > seq - seq % 8] = seq
        widths[lengths == 0] = 0

        def grouped(starts, live, returns=None) -> List[Rows]:
            """Rows by key width and query offset (a row's first query,
            where ``offset_queries`` allows, else 0); a ``returns`` base
            numbers the queries in the stream of returned tokens."""
            offsets = np.where(offset_queries & (widths - starts >= 2), starts, 0)
            groups = []
            for width in np.unique(widths[live]).tolist():
                for offset in np.unique(offsets[live & (widths == width)]).tolist():
                    rows = np.flatnonzero(
                        live & (widths == width) & (offsets == offset)
                    )
                    src, at = _runs(skip[rows], lengths[rows], base[rows])
                    own_tokens = len(src)
                    if skip[rows].any():
                        start = np.zeros(len(rows), dtype=np.int64)
                        shared_src, shared_at = _runs(
                            start, skip[rows], base[leaders[rows]]
                        )
                        src = np.concatenate([src, shared_src])
                        at = tuple(np.concatenate(pair) for pair in zip(at, shared_at))
                    queries = None
                    if returns is not None:
                        queries = _runs(starts[rows], lengths[rows], returns[rows])
                    groups.append(
                        Rows(rows, width, src, at, own_tokens, offset, queries)
                    )
            return groups

        self.groups = grouped(skip, widths > 0)
        if skip.any():
            start = np.zeros(batch, dtype=np.int64)
            src, (row, pos) = _runs(start, skip, base[leaders])
            self.shared = _Shared(src, row * seq + pos)
        if not narrow:
            return
        # the last layer: row ``r``'s returned position ``p`` is token
        # ``returns[r] + p`` of the stream it returns
        self.tail = tail = copy.copy(self)
        tail.read_from, tail.tail = read_from, tail
        returns = np.cumsum(returned) - returned - first
        _, (row, pos) = _runs(first, first + returned, returns)
        tail.reads = base[row] + pos
        tail.index, tail.positions = row * seq + pos, pos
        tail.groups = grouped(first, returned > 0, returns)
        tail.shared = None
        if (skip > read_from).any():
            # a follower's shared positions the tail returns are its
            # leader's returned tokens
            src, (row, pos) = _runs(np.minimum(skip, read_from), skip, returns[leaders])
            tail.shared = _Shared(src, row * seq + pos)

    def _view_tail(self, read_from: int) -> None:
        self.tail = tail = copy.copy(self)
        tail.read_from, tail.tail = read_from, tail
        tail.reads = (slice(None), slice(read_from, None))
        tail.groups = (Rows(slice(None), offset=read_from),)

    def pack(self, grid: np.ndarray) -> np.ndarray:
        """The stream of a ``(batch, seq, ...)`` array."""
        if self.index is None:
            return grid[self.reads]
        return grid.reshape(-1, *grid.shape[2:])[self.index]

    def merge(
        self, blocks: Sequence[np.ndarray], shape: Tuple[int, ...], keys: bool = False
    ) -> np.ndarray:
        """The stream of one query block per group (``keys``: one key block,
        whose shared prefix positions sum into the tokens they read), as a
        ``shape`` array.  A tail's rows that return nothing wrote no key
        block: their keys' gradient is 0."""
        if self.index is None:
            return blocks[0].reshape(shape)
        new = np.zeros if keys and self.read_from else np.empty
        stream = new((shape[0],) + blocks[0].shape[2:], dtype=np.float64)
        for rows, block in zip(self.groups, blocks):
            rows.put(stream, block, queries=not keys)
        if keys:
            for rows, block in zip(self.groups, blocks):
                rows.add_shared(stream, block)
        return stream.reshape(shape)


def _runs(
    start: np.ndarray, stop: np.ndarray, base: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Positions ``start[i] <= p < stop[i]`` of row ``i``, row after row: the
    stream token ``base[i] + p`` of each, and its ``(i, p)``."""
    n = stop - start
    row = np.repeat(np.arange(len(n)), n)
    pos = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - start, n)
    return base[row] + pos, (row, pos)


def embed(
    tok_table: Tensor,
    pos_table: Tensor,
    token_ids: np.ndarray,
    pos_offset: Union[int, np.ndarray] = 0,
    packing: Optional[Packing] = None,
) -> Tensor:
    """Token plus learned-position embedding of ``(batch, seq)`` int64 ids;
    row ``i`` starts at position ``pos_offset`` (``pos_offset[i]`` of an
    array).  A ragged ``packing`` embeds its stream, from position 0."""
    t = token_ids.shape[1]
    if packing is not None and packing.index is not None:
        rows = packing.positions
        token_ids = packing.pack(token_ids)
    elif isinstance(pos_offset, np.ndarray):
        rows = pos_offset[:, None] + np.arange(t)
    else:
        rows = slice(pos_offset, pos_offset + t)
    out = tok_table.data[token_ids]
    out += pos_table.data[rows]
    if not _tracked(tok_table, pos_table):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        if tok_table.requires_grad:
            full = np.zeros_like(tok_table.data)
            np.add.at(full, token_ids, g)
            tok_table._accumulate(full, owned=True)
        if pos_table.requires_grad:
            full = np.zeros_like(pos_table.data)
            if isinstance(rows, slice):
                full[rows] = g.sum(axis=0)
            else:
                np.add.at(full, rows, g)
            pos_table._accumulate(full, owned=True)

    return Tensor._from_op(out, (tok_table, pos_table), backward)


_ArrayFn = Callable[[np.ndarray], np.ndarray]


def _grid(packing: Packing, start: int) -> Optional[Tuple[_ArrayFn, _ArrayFn]]:
    """How ``packing``'s stream lies on its grid's positions from ``start``
    on: ``(lay, pick)`` — the stream's data laid there (0 where it skips, a
    row's shared prefix its leader's tokens), and a gradient on those
    positions picked back onto the stream (shared ones summed into the
    tokens they read).  ``None`` when the stream is that grid."""
    batch, seq = packing.shape
    if packing.index is None:
        lead = packing.read_from - start
        if not lead:
            return None

        def lay(x: np.ndarray) -> np.ndarray:
            out = np.zeros((batch, seq - start) + x.shape[2:], dtype=np.float64)
            out[:, lead:] = x
            return out

        return lay, lambda g: g[:, lead:]

    def placed(flat: np.ndarray) -> np.ndarray:
        # ``row * seq + p`` on the grid narrowed to positions from ``start``
        return flat - (flat // seq + 1) * start if start else flat

    index, shared = placed(packing.index), packing.shared
    shared_at = None if shared is None else placed(shared.at)

    def lay(x: np.ndarray) -> np.ndarray:
        out = np.zeros((batch * (seq - start),) + x.shape[1:], dtype=np.float64)
        out[index] = x
        if shared is not None:
            out[shared_at] = x[shared.src]
        return out.reshape((batch, seq - start) + x.shape[1:])

    def pick(g: np.ndarray) -> np.ndarray:
        flat = g.reshape(-1, *g.shape[2:])
        grad = flat[index]
        if shared is not None:
            # in grid order, after each token's own position (a leader's row
            # comes first): the sums of the op-by-op gather's VJP
            np.add.at(grad, shared.src, flat[shared_at])
        return grad

    return lay, pick


def unpack(x: Tensor, packing: Packing) -> Tensor:
    """A packed stream ``(n_tokens, ...)`` laid back on its grid's positions
    from ``packing.read_from`` on, 0 at every position it skips; a row's
    shared prefix reads its leader's tokens.  A dense stream is the grid."""
    grid = _grid(packing, packing.read_from)
    if grid is None:
        return x
    lay, pick = grid
    out = lay(x.data)
    if not _tracked(x):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        grad = pick(g)
        x._accumulate(grad, owned=grad.base is None)

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


def linear(x: Tensor, weight: Tensor, packing: Optional[Packing] = None) -> Tensor:
    """``x @ weight`` for ``(..., in)`` activations and an ``(in, out)`` weight.

    With ``packing``, ``x`` is its stream, laid on the whole ``(batch, seq)``
    grid first: a matrix-vector product (the scalar head) rounds a row by
    its place in the matrix, and there every row sits where the full
    forward has it."""
    grid = None if packing is None else _grid(packing, 0)
    xd = x.data if grid is None else grid[0](x.data)
    out = xd @ weight.data
    if not _tracked(x, weight):
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(-1, g.shape[-1])
        if weight.requires_grad:
            x2 = xd.reshape(-1, xd.shape[-1])
            weight._accumulate(x2.T @ g2, owned=True)
        if x.requires_grad:
            dx = (g2 @ weight.data.T).reshape(xd.shape)
            if grid is not None:
                dx = grid[1](dx)
            x._accumulate(dx, owned=dx.base is None)

    return Tensor._from_op(out, (x, weight), backward)


def attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    n_heads: int,
    cache=None,
    layer: int = 0,
    pos_offset: int = 0,
    residual: Optional[Tensor] = None,
    packing: Optional[Packing] = None,
) -> Tensor:
    """Causal multi-head self-attention of ``x``: a ``(batch, seq, hidden)``
    grid, or the packed ``(n_tokens, hidden)`` stream of a ragged ``packing``.

    Projections, masked softmax, context and output projection, plus
    ``residual`` when given.  Everything per token runs once over the
    stream; scores, softmax and context run once per group of rows, which
    reads its queries, keys and values out of the stream as a ``(rows,
    width, hidden)`` block.  Keys start at position 0; query ``i`` of a
    group sits at position ``offset + i`` and attends to keys at or before
    it.  Without ``cache`` the groups are ``packing``'s (one group of every
    row when dense), at offset ``pos_offset``.  With ``cache`` (a
    ``KVStore`` bound by ``KVStore.at``; inference only) ``x`` is the 2-D
    stream of a forward's new tokens, ``cache.extend(layer, k, v)`` caches
    their K/V and hands back every row's at one width, and one group of
    every row runs under ``cache.mask``.

    A ``packing.tail`` layout returns only its tokens at or past
    ``read_from`` (its ``reads``): keys and values are projected at every
    token, queries, the output projection and ``residual`` at the returned
    ones only; the core's query block still starts where ``Packing``
    allows, and only returned positions are written back.
    """
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

    def heads(block: np.ndarray) -> np.ndarray:
        return block.reshape(len(block), -1, n_heads, hd).transpose(0, 2, 1, 3)

    layout = packing or Packing(xd.shape[:2])
    xr = xd[layout.reads]  # the tokens this call returns
    projs = [
        np.matmul(src, w.data, out=_scratch(*src.shape))
        for src, w in ((xr, wq), (xd, wk), (xd, wv))
    ]
    queries, grid, n = projs[0], xr.shape[:-1], len(xr)
    if cache is not None:
        grid, n = cache.grid, math.prod(cache.grid)
        queries = queries[:n].reshape(*grid, h)
        groups = [(_EVERY_ROW[0], *cache.extend(layer, projs[1], projs[2]), None)]
    else:
        groups = [
            (rows, rows.take(projs[1]), rows.take(projs[2]), pos_offset + rows.offset)
            for rows in layout.groups
        ]
    ctx = _scratch(*xr.shape)
    ctx_heads = ctx[:n].reshape(*grid, n_heads, hd)
    saved = []
    for rows, k, v, offset in groups:
        # a row queries only the positions it computes; a shared prefix is
        # keys and values read from the row that computes it
        q, k, v = heads(rows.take(queries, queries=True)), heads(k), heads(v)
        t = q.shape[2]
        att = np.matmul(q, k.swapaxes(-1, -2), out=_scratch(*q.shape[:3], k.shape[2]))
        att *= scale
        if cache is not None:
            att += cache.mask
        elif t > 1:  # a lone query is the newest position: nothing to mask
            masked = np.arange(k.shape[2])[None, :] > offset + np.arange(t)[:, None]
            att += np.where(masked, -1e9, 0.0)
        att -= att.max(axis=-1, keepdims=True)
        np.exp(att, out=att)
        att /= att.sum(axis=-1, keepdims=True)
        per_head = np.matmul(att, v, out=_scratch(*q.shape))
        rows.put(ctx_heads, per_head.transpose(0, 2, 1, 3))
        if tracked:
            saved.append((rows, att, q, k, v))
            _recycle(per_head)
        else:
            _recycle(per_head, att, *_gathered(rows, q, k, v))
    if cache is not None:  # the stream's tiling tokens repeat its first
        ctx[n:] = ctx[: len(ctx) - n]
        _recycle(groups[0][1])  # keys and values share one buffer
    if layout.index is not None:
        _recycle(*projs)  # the core read, and backward reads, the blocks
        projs = []
    out = ctx @ wo.data
    if residual is not None:
        out += residual.data[layout.reads]
    if not tracked:
        _recycle(ctx, *projs)
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(-1, h)
        if wo.requires_grad:
            wo._accumulate(ctx.reshape(-1, h).T @ g2, owned=True)
        dctx = (g2 @ wo.data.T).reshape(xr.shape)
        dprojs = ([], [], [])  # per group, the blocks of dq, dk, dv
        for rows, att, q, k, v in saved:
            dctx_rows = heads(rows.take(dctx, queries=True))
            dv = att.swapaxes(-1, -2) @ dctx_rows
            datt = dctx_rows @ v.swapaxes(-1, -2)
            # softmax VJP (masked entries have att == 0), then the score scaling
            datt -= np.einsum("...k,...k->...", datt, att)[..., None]
            datt *= att
            datt *= scale
            for blocks, d in zip(dprojs, (datt @ k, datt.swapaxes(-1, -2) @ q, dv)):
                blocks.append(d.transpose(0, 2, 1, 3))
            _recycle(att, *_gathered(rows, q, k, v, dctx_rows))
        dx = np.zeros(xd.shape, dtype=np.float64)
        for w, blocks, src in zip((wq, wk, wv), dprojs, (xr, xd, xd)):
            src2 = src.reshape(-1, h)
            d2 = layout.merge(blocks, src2.shape, keys=w is not wq)
            if w.requires_grad:
                w._accumulate(src2.T @ d2, owned=True)
            if x.requires_grad:
                rows = layout.reads if w is wq else Ellipsis
                dx[rows] += (d2 @ w.data.T).reshape(src.shape)
        if x.requires_grad:
            x._accumulate(dx, owned=True)
        _recycle(ctx, *projs)
        if residual is not None and residual.requires_grad:
            if layout.reads is not Ellipsis:
                g, full = np.zeros(xd.shape, dtype=np.float64), g
                g[layout.reads] = full
            residual._accumulate(g, owned=True)

    return Tensor._from_op(out, parents, backward)


def _gathered(rows: Rows, *blocks: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Those of ``rows.take``'s blocks that are scratch: all of them when it
    gathered, none when it read views of the stream."""
    return () if rows.keys[0] is None else blocks


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
    act = np.multiply(z, sig, out=_scratch(*wide))
    act *= up
    out = act @ w_down.data
    if residual is not None:
        out += residual.data
    parents = (x, w_gate, w_up, w_down) + (() if residual is None else (residual,))
    if not _tracked(*parents):
        _recycle(z, up, sig, act)
        return Tensor._from_op(out, (), None)

    def backward(g: np.ndarray) -> None:
        h, f = xd.shape[-1], z.shape[-1]
        g2, x2 = g.reshape(-1, h), xd.reshape(-1, h)
        z2, sig2, up2, act2 = (a.reshape(-1, f) for a in (z, sig, up, act))
        if w_down.requires_grad:
            w_down._accumulate(act2.T @ g2, owned=True)
        dz = g2 @ w_down.data.T  # d(act) for now
        np.multiply(z2, sig2, out=act2)
        act2 *= dz  # d(up) = d(act) * silu(z)
        # d silu(z) = sig * (1 + z * (1 - sig)), built over the saved z
        z2 *= 1.0 - sig2
        z2 += 1.0
        z2 *= sig2
        dz *= up2
        dz *= z2
        if w_up.requires_grad:
            w_up._accumulate(x2.T @ act2, owned=True)
        if w_gate.requires_grad:
            w_gate._accumulate(x2.T @ dz, owned=True)
        if x.requires_grad:
            dx = act2 @ w_up.data.T
            dx += dz @ w_gate.data.T
            x._accumulate(dx.reshape(xd.shape), owned=True)
        _recycle(z, up, sig, act)
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
