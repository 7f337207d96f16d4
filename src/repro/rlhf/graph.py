"""An algorithm's dataflow graph, derived by running its trainer (§4, Figure 6).

:func:`dataflow_of` runs a trainer's own ``step`` against stand-in worker
groups whose ``@register``-ed methods return zero-filled batches shaped by
their ``@shape_contract``, lineage stamped as ``RemoteMethod._execute`` stamps
it.  No model is built; what comes back is the DAG the controller would record
plus what the run *showed*: each call's Figure-1 stage and columns, and what
the controller-side advantage step read and wrote.  The builder, the
iteration-time model and the DF/SF checkers read this one object, so an
algorithm is written once — in its trainer.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.data.batch import LINEAGE_KEY, DataBatch
from repro.rlhf.trainers import TrainerConfig, trainer_class
from repro.single_controller.decorator import (
    registered_protocol,
    registered_shape_contract,
)
from repro.single_controller.future import DataFuture
from repro.single_controller.worker_group import RemoteMethod

GENERATION, PREPARATION, TRAINING = "generation", "preparation", "training"

#: Probe sizes of the contract symbols: distinct, so the shape of a column
#: the controller builds names its symbols back (``B`` is always axis 0).
_SIZES = {"P": 3, "R": 5, "L": 8, "T": 7}
_ROWS = 8


class UncontractedCallError(TypeError):
    """A trainer dispatched a method that is not ``@register``-ed with a
    ``@shape_contract``: nothing can stand in for (or verify) it."""


@dataclasses.dataclass(frozen=True)
class DataflowNode:
    """One remote call as ``ExecutionRecord`` has it, plus what was observed:
    its stage, the batch rows and columns it was handed, the columns it made."""

    seq: int
    role: str
    method: str
    deps: Tuple[int, ...]
    stage: str
    rows: int
    consumed: Tuple[str, ...]
    produced: Tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class ControllerStep:
    """The controller-side advantage step, run just before call ``before``:
    the columns it read, and the ``(column, "dims:dtype")`` it handed on that
    no call in ``deps`` produced."""

    before: int
    deps: Tuple[int, ...]
    rows: int
    reads: Tuple[str, ...]
    writes: Tuple[Tuple[str, str], ...]


@dataclasses.dataclass(frozen=True)
class DataflowGraph:
    """One iteration of algorithm ``name`` on a ``rows``-prompt batch;
    ``roles`` are the model roles it calls, in ``WORKER_CLASSES`` order."""

    name: str
    roles: Tuple[str, ...]
    nodes: Tuple[DataflowNode, ...]
    controller: Tuple[ControllerStep, ...]
    rows: int = _ROWS

    def calls(self, stage: str) -> Dict[str, int]:
        """``role -> number of calls`` in one Figure-1 stage, in role order."""
        staged = [node.role for node in self.nodes if node.stage == stage]
        return {r: staged.count(r) for r in self.roles if r in staged}


class _ReadSpy(DataBatch):
    """A batch that remembers which columns were read from it."""

    def __init__(self, batch: DataBatch) -> None:
        self.reads: List[str] = []
        super().__init__(batch.tensors, meta=batch.meta)

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.reads:
            self.reads.append(name)
        return super().__getitem__(name)


class _ProbeGroup:
    """Stand-in for one role's ``WorkerGroup``: any attribute is a method."""

    def __init__(self, role: str, call: Any) -> None:
        self._role, self._call = role, call

    def __getattr__(self, method: str) -> Any:
        return functools.partial(self._call, self._role, method)


def _zeros(spec: str, sizes: Dict[str, int]) -> np.ndarray:
    dims, _, dtype = spec.partition(":")
    shape = [int(t) if t.isdigit() else sizes[t] for t in dims.split(",")]
    return np.zeros(shape, dtype=dtype or "float64")


def dataflow_of(algo: Any, config: Any = None, **trainer_kwargs: Any) -> DataflowGraph:
    """The DAG one ``step`` of ``algo`` dispatches under ``config``.

    ``algo`` is an :class:`AlgoType` member or a trainer class;
    ``trainer_kwargs`` are that trainer's own constructor arguments
    (Safe-RLHF's ``pretrain_dataset``).  Raises
    :class:`UncontractedCallError` naming a call no contract covers.
    Memoised: equal arguments return the same object.
    """
    config = config or TrainerConfig()
    fields = tuple(vars(config).items())
    kwargs = tuple(sorted(trainer_kwargs.items()))
    return _derive(trainer_class(algo), type(config), fields, kwargs)


@functools.lru_cache(maxsize=256)
def _derive(trainer_cls, config_cls, fields, trainer_kwargs) -> DataflowGraph:
    from repro.workers import WORKER_CLASSES  # they import repro.rlhf.losses

    config = config_cls(**dict(fields))
    sizes = dict(_SIZES, G=config.group_size)
    symbols = {size: symbol for symbol, size in _SIZES.items()}
    nodes: List[DataflowNode] = []
    steps: List[ControllerStep] = []

    def call(role: str, method: str, batch: DataBatch, **kwargs: Any) -> DataFuture:
        fn = getattr(WORKER_CLASSES[role], method, None)
        contract = registered_shape_contract(fn) if registered_protocol(fn) else None
        if contract is None:
            raise UncontractedCallError(
                f"{trainer_cls.__name__}.step dispatches {role}.{method}, which "
                f"{WORKER_CLASSES[role].__name__} does not @register with a "
                "@shape_contract"
            )
        made = {
            name: _zeros(spec, dict(sizes, B=len(batch)))
            for name, spec in contract["outputs"].items()
            if not name.startswith("?")
        }
        deps, _nbytes = RemoteMethod._inputs((batch,), kwargs)
        seq = len(nodes)
        metrics = contract["returns"] == "metrics"
        # Figure 1: a call returning metrics is an optimizer/loss step; of
        # the rest, the sources (fed by the prompt batch alone) generate
        stage = TRAINING if metrics else PREPARATION if deps else GENERATION
        handed = tuple(batch.keys())
        nodes.append(
            DataflowNode(
                seq, role, method, deps, stage, len(batch), handed, tuple(made)
            )
        )
        meta = {"prompt_length": sizes["P"], LINEAGE_KEY: (seq,)}
        result = {} if metrics else DataBatch(made, meta=meta)
        return DataFuture(result, producer=role, method=method, record_seq=seq)

    groups = {role: _ProbeGroup(role, call) for role in WORKER_CLASSES}
    trainer = trainer_cls(**groups, config=config, **dict(trainer_kwargs))
    advantages = trainer._advantages

    def observed(batch: DataBatch) -> DataBatch:
        spy = _ReadSpy(batch)
        out = advantages(spy)
        deps = tuple(batch.meta.get(LINEAGE_KEY, ()))
        made = {column for seq in deps for column in nodes[seq].produced}
        writes = tuple(
            (name, ",".join(["B", *(str(symbols.get(n, n)) for n in a.shape[1:])])
             + f":{a.dtype}")
            for name, a in out.tensors.items()
            if name not in made
        )
        reads = tuple(spy.reads)
        steps.append(ControllerStep(len(nodes), deps, len(batch), reads, writes))
        return out

    trainer._advantages = observed
    prompts = np.zeros((_ROWS, sizes["P"]), dtype=np.int64)
    trainer.step(DataBatch({"prompts": prompts}))
    called = [node.role for node in nodes]
    roles = tuple(role for role in WORKER_CLASSES if role in called)
    return DataflowGraph(trainer.algo.value, roles, tuple(nodes), tuple(steps))
