"""The ``@register`` decorator binding worker methods to transfer protocols.

§4.1: "We unify this data transfer implementation by associating each
operation in each model class with a transfer protocol, using @register."

The decorator only annotates; dispatch happens in
:class:`~repro.single_controller.worker_group.WorkerGroup`, keeping the
worker's computation code free of any data-resharding logic — the decoupling
the hybrid programming model is about.  ``@shape_contract`` annotates the
columns a method consumes and produces; :func:`parse_contract` is the one
reader of that vocabulary, shared by the dataflow probe
(:mod:`repro.rlhf.graph`) and the SF7xx pass that runs it.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Optional, Tuple

PROTOCOL_ATTR = "_transfer_protocol"
BLOCKING_ATTR = "_transfer_blocking"
SHAPE_CONTRACT_ATTR = "_shape_contract"

_SYMBOLS = ("B", "P", "R", "L", "T", "G")
_DTYPES = ("int64", "float64", "float32", "bool")


def register(
    protocol: str = "one_to_all",
    blocking: bool = True,
) -> Callable[[Callable], Callable]:
    """Mark a worker method as a remote-callable with a transfer protocol.

    Args:
        protocol: Name of a registered transfer protocol (Table 3), e.g.
            ``"3d_proto"`` or ``"one_to_all"``.
        blocking: When False, :class:`WorkerGroup` returns an *unresolved*
            :class:`DataFuture` whose computation is deferred until ``get()``
            — the asynchronous-execution hook of §4.1.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return fn(*args, **kwargs)

        setattr(wrapper, PROTOCOL_ATTR, protocol)
        setattr(wrapper, BLOCKING_ATTR, blocking)
        return wrapper

    return decorate


def shape_contract(
    inputs: Optional[dict] = None,
    outputs: Optional[dict] = None,
    returns: str = "batch",
) -> Callable[[Callable], Callable]:
    """Declare the array shapes, in symbols, a worker method consumes/produces.

    Specs map column name to ``"dims[:dtype]"`` — dims are comma-separated
    symbols (``B`` batch, ``P`` prompt, ``R`` response, ``L = P+R``, ``T``
    pretrain tokens, ``G`` group size) or int literals; dtype defaults to
    ``float64``.  A ``?`` name prefix marks the column optional (e.g.
    ``"?response_mask": "B,R"`` flows only when eos is configured).

    The contract is *declarative only*: nothing is checked at call time.
    The dataflow probe shapes its stand-in outputs by it, the SF7xx pass
    (:mod:`repro.analysis.shapeflow`) checks each call's columns against
    it, and the runtime :class:`ShapeRecorder` witnesses it against real
    batches.  Stack *below* ``@register`` — its ``functools.wraps`` copies
    the attribute onto the dispatch wrapper.

    Args:
        inputs: Columns the method reads from its ``DataBatch`` argument.
        outputs: Columns of the returned batch (``returns="batch"``).
        returns: ``"batch"`` for DataBatch-returning methods, ``"metrics"``
            for plain metric dicts (which declare no output columns).
    """

    def decorate(fn: Callable) -> Callable:
        setattr(
            fn,
            SHAPE_CONTRACT_ATTR,
            {
                "inputs": dict(inputs or {}),
                "outputs": dict(outputs or {}),
                "returns": returns,
            },
        )
        return fn

    return decorate


def registered_protocol(method: Callable) -> Optional[str]:
    """The protocol name a method was registered with, or None."""
    return getattr(method, PROTOCOL_ATTR, None)


def registered_blocking(method: Callable) -> bool:
    return getattr(method, BLOCKING_ATTR, True)


def registered_shape_contract(method: Callable) -> Optional[dict]:
    """The raw @shape_contract payload of a method, or None."""
    return getattr(method, SHAPE_CONTRACT_ATTR, None)


class ContractError(ValueError):
    """A @shape_contract that cannot be interpreted (SF706)."""


@dataclasses.dataclass(frozen=True)
class ColumnSpec:
    """One column in a contract: name, dim tokens, dtype."""

    name: str
    tokens: Tuple[str, ...]
    dtype: str
    optional: bool = False

    def shape(self, sizes: dict) -> Tuple[int, ...]:
        """The concrete shape under ``symbol -> size`` bindings."""
        return tuple(int(t) if t.isdigit() else sizes[t] for t in self.tokens)


@dataclasses.dataclass(frozen=True)
class Contract:
    inputs: Tuple[ColumnSpec, ...]
    outputs: Tuple[ColumnSpec, ...]
    returns: str  # "batch" | "metrics"


def parse_spec(name: str, spec: Any) -> ColumnSpec:
    """One ``"dims[:dtype]"`` column spec (a ``?`` name prefix: optional)."""
    optional, name = name.startswith("?"), name.removeprefix("?")
    if not name:
        raise ContractError("empty column name")
    if not isinstance(spec, str) or not spec.strip():
        raise ContractError(f"column {name!r}: spec must be a string")
    dims_part, colon, dtype = spec.partition(":")
    dtype = dtype.strip() if colon else "float64"
    if dtype not in _DTYPES:
        raise ContractError(f"column {name!r}: unknown dtype {dtype!r}")
    tokens = tuple(t.strip() for t in dims_part.split(",") if t.strip())
    if not tokens:
        raise ContractError(f"column {name!r}: empty dims")
    for token in tokens:
        if not (token.isdigit() or token in _SYMBOLS):
            raise ContractError(
                f"column {name!r}: unknown dim symbol {token!r} "
                f"(known: {', '.join(_SYMBOLS)})"
            )
    return ColumnSpec(name=name, tokens=tokens, dtype=dtype, optional=optional)


def parse_contract(raw: Any) -> Contract:
    """Validate a raw ``@shape_contract`` payload into a :class:`Contract`."""
    if not isinstance(raw, dict):
        raise ContractError("contract payload must be a dict")
    returns = raw.get("returns", "batch")
    if returns not in ("batch", "metrics"):
        raise ContractError(f"returns must be 'batch' or 'metrics', got {returns!r}")
    inputs = tuple(parse_spec(n, s) for n, s in (raw.get("inputs") or {}).items())
    outputs = tuple(parse_spec(n, s) for n, s in (raw.get("outputs") or {}).items())
    if returns == "metrics" and outputs:
        raise ContractError("a metrics method declares no output columns")
    return Contract(inputs=inputs, outputs=outputs, returns=returns)
