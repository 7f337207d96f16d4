"""Transfer protocols: how data is resharded between models (§4.1, Table 3).

Each protocol is a ``distribute`` function (split/broadcast a call's inputs
across the destination group's ranks according to its parallelism) and a
``collect`` function (pick and merge the source group's per-rank outputs).
Data resharding between two models is the composition of the source's
``collect`` with the destination's ``distribute`` — exactly Figure 5(b).

Implemented protocols (the paper ships 8, Table 3 details 6):

=================  ==========================================================
``one_to_all``     broadcast inputs to all ranks; collect a list of outputs.
``one_to_one``     single-rank groups (e.g. a non-NN reward function, §9).
``3d_proto``       split by training DP rank, broadcast within each model-
                   parallel group; collect from the ``p = -1, t = 0`` rank of
                   each DP group.
``3d_all_micro_dp``split by the generation micro-DP rank (HybridEngine);
                   collect from the first rank of each micro-DP group.
``3d_pp_only``     broadcast; collect from the ``t = 0, d = 0`` rank of each
                   pipeline stage (weight-name inspection).
``pp_as_dp``       treat PP x DP as data-parallel for inference fan-out.
``dp_proto``       split across DP ranks; collect a concat from all ranks.
``all_to_all``     caller supplies per-rank inputs; collect all outputs.
=================  ==========================================================

Users can extend the set with :func:`register_protocol` (the paper: "A user
can further extend the transfer protocols through implementing customized
collect and distribute functions").
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.batch import DataBatch
from repro.single_controller.future import DataFuture

Call = Tuple[tuple, dict]


@dataclasses.dataclass(frozen=True)
class ProtocolRequires:
    """Declarative group-shape constraints of one transfer protocol.

    Two layers consume the same descriptor so they can never drift: the
    dispatch gate (:class:`~repro.single_controller.worker_group.RemoteMethod`
    refuses to bind a method to an incompatible group) and the static
    :class:`~repro.analysis.DataflowChecker` (which reports the identical
    incompatibility before any dispatch happens).
    """

    #: The group must contain exactly one rank (``one_to_one``).
    single_rank: bool = False
    #: The group's topology must be pure data parallelism (``dp_proto``).
    pure_dp: bool = False
    #: Distribute/collect need a generation topology (``3d_all_micro_dp``);
    #: checked at distribute time, not bind time, because the HybridEngine
    #: may install the topology after the group is constructed.
    needs_gen_topology: bool = False
    #: Degenerate (not wrong) without model-parallel axes (``3d_proto``).
    wants_model_parallel: bool = False
    #: Degenerate without a pipeline dimension (``3d_pp_only``).
    wants_pipeline: bool = False
    #: Which parallel degree batch arguments are chunked into: ``"dp"``,
    #: ``"gen_dp"`` (training DP x micro-DP), or ``"pp_dp"``.
    splits_batch_by: Optional[str] = None
    #: The collect function visits contributing ranks in a deterministic
    #: order.  All shipped protocols do (they walk ranks in group order); a
    #: custom protocol collecting in e.g. completion order must set this
    #: False, which the RC5xx race detector reports as the
    #: ``merge_outputs`` nondeterministic-merge hazard.
    deterministic_collect: bool = True

    def split_degree(self, parallel: Any, gen_config: Any = None) -> Optional[int]:
        """Number of chunks a batch argument is split into, if any."""
        if self.splits_batch_by == "dp":
            return parallel.dp
        if self.splits_batch_by == "gen_dp":
            micro_dp = gen_config.micro_dp if gen_config is not None else 1
            return parallel.dp * micro_dp
        if self.splits_batch_by == "pp_dp":
            return parallel.pp * parallel.dp
        return None

    def problems(
        self, world_size: int, parallel: Any, has_gen_topology: bool
    ) -> List[Tuple[str, str, str]]:
        """All constraint violations as ``(kind, severity, message)`` tuples."""
        out: List[Tuple[str, str, str]] = []
        if self.single_rank and world_size != 1:
            out.append(
                (
                    "single_rank",
                    "error",
                    f"requires a single-rank group, got {world_size}",
                )
            )
        if self.pure_dp and parallel.dp != world_size:
            out.append(
                (
                    "pure_dp",
                    "error",
                    f"expects a pure-DP group, got dp={parallel.dp} over "
                    f"{world_size} ranks",
                )
            )
        if self.needs_gen_topology and not has_gen_topology:
            out.append(
                (
                    "gen_topology",
                    "error",
                    "requires a generation topology (HybridEngine)",
                )
            )
        if self.wants_model_parallel and parallel.model_parallel_size == 1:
            out.append(
                (
                    "model_parallel",
                    "warning",
                    "splits by DP but the group has no model-parallel axes "
                    "(pp*tp == 1); dp_proto expresses this more directly",
                )
            )
        if self.wants_pipeline and parallel.pp == 1:
            out.append(
                (
                    "pipeline",
                    "warning",
                    "collects one output per pipeline stage but the group "
                    "has pp=1",
                )
            )
        return out


def merge_outputs(outputs: Sequence[Any]) -> Any:
    """Merge per-rank outputs of the collect ranks into one value.

    DataBatch outputs concatenate along the batch axis; dict outputs merge
    with numeric values averaged (training metrics); a single output passes
    through; anything else returns the list as-is.
    """
    if not outputs:
        return None
    if len(outputs) == 1:
        return outputs[0]
    if all(isinstance(o, DataBatch) for o in outputs):
        return DataBatch.concat(list(outputs))
    if all(isinstance(o, dict) for o in outputs):
        # merge over the union of keys in first-seen order: a key reported by
        # only some ranks (e.g. a lead-rank-only metric) must not be dropped
        keys: List[str] = []
        seen = set()
        for o in outputs:
            for key in o:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        merged: Dict[str, Any] = {}
        for key in keys:
            values = [o[key] for o in outputs if key in o]
            if all(isinstance(v, (int, float, np.floating, np.integer)) for v in values):
                merged[key] = float(np.mean(values))
            else:
                merged[key] = values
        return merged
    if all(o is None for o in outputs):
        return None
    return list(outputs)


class TransferProtocol:
    """A (distribute, collect) pair keyed by name, plus shape requirements."""

    def __init__(
        self,
        name: str,
        distribute: Callable[[Any, tuple, dict], List[Call]],
        collect: Callable[[Any, List[Any]], Any],
        requires: Optional[ProtocolRequires] = None,
    ) -> None:
        self.name = name
        self._distribute = distribute
        self._collect = collect
        self.requires = requires if requires is not None else ProtocolRequires()

    def check_group(self, group: Any) -> None:
        """Raise ``ValueError`` when a group violates a hard requirement.

        The dispatch gate: :class:`RemoteMethod` calls this at bind time and
        ``distribute`` repeats it, so a protocol/topology mismatch fails
        before any rank executes.  The ``gen_topology`` requirement is
        deferred to the distribute functions (a ``RuntimeError`` there)
        because ``set_gen_topology`` may legitimately run after binding.
        """
        problems = self.requires.problems(
            group.world_size,
            group.train_topology.config,
            group.gen_topology is not None,
        )
        for kind, severity, message in problems:
            if severity == "error" and kind != "gen_topology":
                raise ValueError(f"{self.name} {message}")

    def validate_shape(
        self, world_size: int, parallel: Any, has_gen_topology: bool
    ) -> List[Tuple[str, str, str]]:
        """Non-raising requirement check for the static DataflowChecker."""
        return self.requires.problems(world_size, parallel, has_gen_topology)

    def distribute(self, group: Any, args: tuple, kwargs: dict) -> List[Call]:
        self.check_group(group)
        args = tuple(DataFuture.unwrap(a) for a in args)
        kwargs = {k: DataFuture.unwrap(v) for k, v in kwargs.items()}
        return self._distribute(group, args, kwargs)

    def collect(self, group: Any, outputs: List[Any]) -> Any:
        return self._collect(group, outputs)

    def __repr__(self) -> str:
        return f"TransferProtocol({self.name!r})"


def _split_call(
    group: Any,
    args: tuple,
    kwargs: dict,
    n_chunks: int,
    chunk_of_worker: Callable[[int], int],
) -> List[Call]:
    """Split every DataBatch argument into ``n_chunks``; broadcast the rest."""
    split_args: List[Any] = []
    for a in args:
        split_args.append(a.chunk(n_chunks) if isinstance(a, DataBatch) else a)
    split_kwargs: Dict[str, Any] = {}
    for k, v in kwargs.items():
        split_kwargs[k] = v.chunk(n_chunks) if isinstance(v, DataBatch) else v

    calls: List[Call] = []
    for i in range(group.world_size):
        c = chunk_of_worker(i)
        wargs = tuple(a[c] if isinstance(a, list) else a for a in split_args)
        wkwargs = {
            k: (v[c] if isinstance(v, list) else v) for k, v in split_kwargs.items()
        }
        calls.append((wargs, wkwargs))
    return calls


def _broadcast_call(group: Any, args: tuple, kwargs: dict) -> List[Call]:
    return [(args, dict(kwargs)) for _ in range(group.world_size)]


# -- one_to_all ---------------------------------------------------------------


def _one_to_all_collect(group: Any, outputs: List[Any]) -> Any:
    return list(outputs)


# -- one_to_one ---------------------------------------------------------------


def _one_to_one_distribute(group: Any, args: tuple, kwargs: dict) -> List[Call]:
    # single-rank requirement enforced declaratively via ProtocolRequires
    return [(args, dict(kwargs))]


def _one_to_one_collect(group: Any, outputs: List[Any]) -> Any:
    return outputs[0]


# -- 3d_proto -------------------------------------------------------------------


def _3d_distribute(group: Any, args: tuple, kwargs: dict) -> List[Call]:
    dp = group.train_topology.config.dp
    return _split_call(group, args, kwargs, dp, lambda i: group.coords(i).d)


def _3d_collect(group: Any, outputs: List[Any]) -> Any:
    topo = group.train_topology
    cfg = topo.config
    picked = [
        outputs[i]
        for i in range(group.world_size)
        if group.coords(i).p == cfg.pp - 1 and group.coords(i).t == 0
    ]
    return merge_outputs(picked)


# -- 3d_all_micro_dp -----------------------------------------------------------


def _micro_dp_distribute(group: Any, args: tuple, kwargs: dict) -> List[Call]:
    gen = group.gen_topology
    if gen is None:
        raise RuntimeError(
            "3d_all_micro_dp requires a generation topology (HybridEngine)"
        )
    n = gen.effective_dp
    return _split_call(
        group,
        args,
        kwargs,
        n,
        lambda i: gen.dp_rank_for_generation(group.global_rank_of(i)),
    )


def _micro_dp_collect(group: Any, outputs: List[Any]) -> Any:
    gen = group.gen_topology
    if gen is None:
        raise RuntimeError(
            "3d_all_micro_dp requires a generation topology (HybridEngine)"
        )
    # one representative per generation replica — its (p_g=0, t_g=0) rank —
    # ordered by generation DP rank so concatenation restores batch order
    chosen: Dict[int, int] = {}
    for i in range(group.world_size):
        g = group.global_rank_of(i)
        c = gen.coords(g)
        if c.pg == 0 and c.tg == 0:
            chosen[gen.dp_rank_for_generation(g)] = i
    picked = [outputs[chosen[r]] for r in sorted(chosen)]
    return merge_outputs(picked)


# -- 3d_pp_only -------------------------------------------------------------------


def _pp_only_collect(group: Any, outputs: List[Any]) -> Any:
    picked = [
        outputs[i]
        for i in range(group.world_size)
        if group.coords(i).t == 0 and group.coords(i).d == 0
    ]
    return picked if len(picked) > 1 else merge_outputs(picked)


# -- pp_as_dp ---------------------------------------------------------------------


def _pp_as_dp_distribute(group: Any, args: tuple, kwargs: dict) -> List[Call]:
    cfg = group.train_topology.config
    n = cfg.pp * cfg.dp

    def chunk_of(i: int) -> int:
        c = group.coords(i)
        return c.d * cfg.pp + c.p

    return _split_call(group, args, kwargs, n, chunk_of)


def _pp_as_dp_collect(group: Any, outputs: List[Any]) -> Any:
    cfg = group.train_topology.config
    order: Dict[int, int] = {}
    for i in range(group.world_size):
        c = group.coords(i)
        if c.t == 0:
            order[c.d * cfg.pp + c.p] = i
    picked = [outputs[order[r]] for r in sorted(order)]
    return merge_outputs(picked)


# -- dp_proto -----------------------------------------------------------------------


def _dp_distribute(group: Any, args: tuple, kwargs: dict) -> List[Call]:
    # pure-DP requirement enforced declaratively via ProtocolRequires
    dp = group.train_topology.config.dp
    return _split_call(group, args, kwargs, dp, lambda i: group.coords(i).d)


def _dp_collect(group: Any, outputs: List[Any]) -> Any:
    return merge_outputs(list(outputs))


# -- all_to_all ------------------------------------------------------------------------


def _all_to_all_distribute(group: Any, args: tuple, kwargs: dict) -> List[Call]:
    n = group.world_size
    for a in args:
        if isinstance(a, (list, tuple)) and len(a) != n:
            raise ValueError(
                f"all_to_all expects per-rank lists of length {n}, got {len(a)}"
            )
    calls: List[Call] = []
    for i in range(n):
        wargs = tuple(a[i] if isinstance(a, (list, tuple)) else a for a in args)
        wkwargs = {
            k: (v[i] if isinstance(v, (list, tuple)) else v)
            for k, v in kwargs.items()
        }
        calls.append((wargs, wkwargs))
    return calls


TRANSFER_PROTOCOLS: Dict[str, TransferProtocol] = {}


def register_protocol(protocol: TransferProtocol) -> TransferProtocol:
    """Add a protocol to the global registry (overwrites same-name entries)."""
    TRANSFER_PROTOCOLS[protocol.name] = protocol
    return protocol


def get_protocol(name: str) -> TransferProtocol:
    try:
        return TRANSFER_PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown transfer protocol {name!r}; known: "
            f"{sorted(TRANSFER_PROTOCOLS)}"
        ) from None


register_protocol(
    TransferProtocol("one_to_all", _broadcast_call, _one_to_all_collect)
)
register_protocol(
    TransferProtocol(
        "one_to_one",
        _one_to_one_distribute,
        _one_to_one_collect,
        requires=ProtocolRequires(single_rank=True),
    )
)
register_protocol(
    TransferProtocol(
        "3d_proto",
        _3d_distribute,
        _3d_collect,
        requires=ProtocolRequires(
            wants_model_parallel=True, splits_batch_by="dp"
        ),
    )
)
register_protocol(
    TransferProtocol(
        "3d_all_micro_dp",
        _micro_dp_distribute,
        _micro_dp_collect,
        requires=ProtocolRequires(
            needs_gen_topology=True, splits_batch_by="gen_dp"
        ),
    )
)
register_protocol(
    TransferProtocol(
        "3d_pp_only",
        _broadcast_call,
        _pp_only_collect,
        requires=ProtocolRequires(wants_pipeline=True),
    )
)
register_protocol(
    TransferProtocol(
        "pp_as_dp",
        _pp_as_dp_distribute,
        _pp_as_dp_collect,
        requires=ProtocolRequires(splits_batch_by="pp_dp"),
    )
)
register_protocol(
    TransferProtocol(
        "dp_proto",
        _dp_distribute,
        _dp_collect,
        requires=ProtocolRequires(pure_dp=True, splits_batch_by="dp"),
    )
)
register_protocol(
    TransferProtocol("all_to_all", _all_to_all_distribute, _one_to_all_collect)
)
