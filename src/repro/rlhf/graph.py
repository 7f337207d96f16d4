"""An algorithm's dataflow graph, derived by running its trainer (§4, Figure 6).

A :class:`Probe` runs a trainer's own ``step`` against stand-in worker groups
whose ``@register``-ed methods return zero-filled batches shaped by their
``@shape_contract``, lineage stamped as ``RemoteMethod._execute`` stamps it.
No model is built.  :func:`dataflow_of` is its placement-free case: the DAG
the controller would record plus what the run *showed* — each call's
Figure-1 stage and columns, what the controller-side advantage step read and
wrote.  The builder, the iteration-time model and the DF checker read this
one object, so an algorithm is written once — in its trainer.  Given a
plan's geometry per role, every call runs through its method's real
``distribute``/``collect`` instead, each rank answering for its own chunk:
that run is the SF7xx pass (:mod:`repro.analysis.shapeflow`).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data.batch import LINEAGE_KEY, DataBatch
from repro.parallel.topology import GenTopology, ParallelTopology
from repro.rlhf.trainers import TrainerConfig, trainer_class
from repro.single_controller.decorator import (
    Contract,
    ContractError,
    parse_contract,
    registered_protocol,
    registered_shape_contract,
)
from repro.single_controller.future import DataFuture
from repro.single_controller.protocols import get_protocol
from repro.single_controller.worker_group import RemoteMethod

GENERATION, PREPARATION, TRAINING = "generation", "preparation", "training"

#: Probe sizes of the contract symbols: distinct, so the shape of a column
#: the controller builds names its symbols back (``B`` is always axis 0).
_SIZES = {"P": 3, "R": 5, "L": 8, "T": 7}
_ROWS = 8
_NAMES = {size: symbol for symbol, size in _SIZES.items()}


class UncontractedCallError(TypeError):
    """A trainer's step failed after a call that is not ``@register``-ed
    with a sound ``@shape_contract``, which the probe could only hand on."""


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


class StandInGroup:
    """Stand-in for one role's ``WorkerGroup``: any method name dispatches
    through the probe, as a ``WorkerGroup`` resolves remote methods.  A
    plan's ``parallel``/``gen_config`` give it the geometry its transfer
    protocols read — world size, ``ParallelTopology``, ``GenTopology``;
    without ``parallel`` it is placement-free and answers each call once."""

    def __init__(self, probe, name, worker_cls, parallel=None, gen_config=None) -> None:
        self.probe, self.name, self.worker_cls = probe, name, worker_cls
        self.world_size = parallel.world_size if parallel is not None else 1
        self.train_topology = ParallelTopology(parallel) if parallel is not None else None
        self.gen_topology = (
            GenTopology(self.train_topology, gen_config) if gen_config is not None else None
        )

    def coords(self, index: int):
        return self.train_topology.coords(index)

    def global_rank_of(self, index: int) -> int:
        return index

    def __getattr__(self, method: str) -> Any:
        if method.startswith("_"):
            raise AttributeError(method)
        return functools.partial(self.probe.dispatch, self.name, method)


class Probe:
    """One ``step`` of a trainer against stand-in groups, recording every
    call.  ``placement``: role → ``(worker_cls, parallel, gen_config)`` of
    its :class:`StandInGroup` (other roles are placement-free); ``sizes``
    binds every contract symbol but ``B`` (the rows a call is handed) and
    ``G``.  A call with no sound contract, and an advantage step that cannot
    run on contract-shaped columns, hand their batch on and taint the run.
    Subclasses check it in :meth:`contract`, :meth:`execute` and
    :meth:`advantages`."""

    def __init__(self, trainer_cls, config, sizes, placement=None) -> None:
        from repro.workers import WORKER_CLASSES  # they import repro.rlhf.losses

        self.trainer_cls, self.config = trainer_cls, config
        self.sizes = dict(sizes, G=config.group_size)
        self.groups = {
            role: StandInGroup(self, role, *(placement or {}).get(role, (cls,)))
            for role, cls in WORKER_CLASSES.items()
        }
        self.nodes: List[DataflowNode] = []
        self.steps: List[ControllerStep] = []
        #: ``(role, method, error)`` per call handed on (``None``: no contract)
        self.unchecked: List[Tuple[str, str, Optional[ContractError]]] = []
        self.tainted = False

    def run(self, rows: int, **trainer_kwargs: Any) -> None:
        """One ``step`` on ``rows`` prompts; ``trainer_kwargs`` are the
        trainer's own constructor arguments (Safe-RLHF's pretrain set)."""
        trainer = self.trainer_cls(**self.groups, config=self.config, **trainer_kwargs)
        real = trainer._advantages
        trainer._advantages = lambda batch: self.advantages(real, batch)
        prompts = np.zeros((rows, self.sizes["P"]), dtype=np.int64)
        trainer.step(DataBatch({"prompts": prompts}))

    def contract(self, role: str, method: str) -> Optional[Contract]:
        """The call's contract (``None``: the call passes its batch on)."""
        fn = getattr(self.groups[role].worker_cls, method, None)
        raw = registered_shape_contract(fn) if registered_protocol(fn) else None
        try:
            return parse_contract(raw)
        except ContractError as exc:
            self.unchecked.append((role, method, None if raw is None else exc))
            self.tainted = True
            return None

    def dispatch(self, role: str, method: str, batch: DataBatch, **kwargs: Any) -> DataFuture:
        contract = self.contract(role, method)
        deps, _nbytes = RemoteMethod._inputs((batch,), kwargs)
        seq = len(self.nodes)
        metrics = contract is not None and contract.returns == "metrics"
        # Figure 1: a call returning metrics is an optimizer/loss step; of
        # the rest, the sources (fed by the prompt batch alone) generate
        stage = TRAINING if metrics else PREPARATION if deps else GENERATION
        made = tuple(s.name for s in contract.outputs if not s.optional) if contract else ()
        node = DataflowNode(seq, role, method, deps, stage, len(batch), tuple(batch.keys()), made)
        self.nodes.append(node)
        if contract is None:
            result = DataBatch(batch.tensors, meta=batch.meta)
        else:
            result = self.execute(node, contract, batch, kwargs)
        if isinstance(result, DataBatch):
            result.meta[LINEAGE_KEY] = (seq,)
        return DataFuture(result, producer=role, method=method, record_seq=seq)

    def execute(self, node: DataflowNode, contract: Contract, batch: DataBatch, kwargs: dict):
        """The call's collected result: each rank of the role's stand-in
        answers its own chunk under the method's real protocol."""
        group = self.groups[node.role]
        name = registered_protocol(getattr(group.worker_cls, node.method))
        if group.train_topology is None:
            return self.answer(contract, batch)
        protocol = get_protocol(name)
        calls = protocol.distribute(group, (batch,), kwargs)
        return protocol.collect(group, [self.answer(contract, a[0]) for a, _ in calls])

    def answer(self, contract: Contract, batch: DataBatch) -> Any:
        """One rank's reply to ``batch``: zeros shaped by the contract."""
        if contract.returns == "metrics":
            return {}
        sizes = dict(self.sizes, B=len(batch))
        made = {
            spec.name: np.zeros(spec.shape(sizes), dtype=spec.dtype)
            for spec in contract.outputs
            if not spec.optional
        }
        return DataBatch(made, meta={"prompt_length": self.sizes["P"]})

    def advantages(self, real: Any, batch: DataBatch) -> DataBatch:
        """The trainer's own advantage step, observed: what it read and wrote.
        A step that cannot run on what flowed in hands its batch on."""
        spy = _ReadSpy(batch)
        try:
            out = real(spy)
        except (KeyError, ValueError):
            self.tainted, out = True, batch.copy()
        deps = tuple(batch.meta.get(LINEAGE_KEY, ()))
        made = {column for seq in deps for column in self.nodes[seq].produced}
        writes = tuple(
            (name, ",".join(["B", *(str(_NAMES.get(n, n)) for n in a.shape[1:])])
             + f":{a.dtype}")
            for name, a in out.tensors.items()
            if name not in made
        )
        reads = tuple(spy.reads)
        self.steps.append(ControllerStep(len(self.nodes), deps, len(batch), reads, writes))
        return out


def dataflow_of(algo: Any, config: Any = None, **trainer_kwargs: Any) -> DataflowGraph:
    """The DAG one ``step`` of ``algo`` dispatches under ``config``.

    ``algo`` is an :class:`AlgoType` member or a trainer class;
    ``trainer_kwargs`` are that trainer's own constructor arguments
    (Safe-RLHF's ``pretrain_dataset``).  A fresh :class:`Probe` per call
    (about a millisecond) reads the worker classes as they are; if its step
    fails after a call it handed on for want of a sound contract,
    :class:`UncontractedCallError` names that call.
    """
    trainer_cls = trainer_class(algo)
    probe = Probe(trainer_cls, config or TrainerConfig(), _SIZES)
    try:
        probe.run(_ROWS, **trainer_kwargs)
    except (KeyError, ValueError, IndexError) as exc:
        if not probe.unchecked:
            raise
        role, method, _ = probe.unchecked[0]
        owner = probe.groups[role].worker_cls.__name__
        raise UncontractedCallError(
            f"{trainer_cls.__name__}.step dispatches {role}.{method}, "
            f"which {owner} does not @register with a @shape_contract"
        ) from exc
    called = [node.role for node in probe.nodes]
    roles = tuple(role for role in probe.groups if role in called)
    return DataflowGraph(trainer_cls.algo.value, roles, tuple(probe.nodes), tuple(probe.steps))
