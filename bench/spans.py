"""Outside-in layer trace: spans recorded from the benchmark's own wrappers.

The program under ``src/`` is not edited.  ``Tracer.install()`` replaces
each layer's public callables (the ``TARGETS`` table) with wrappers that
record a span — name, start, end, parent, step id — into memory.  It must
run *before* ``build_rlhf_system``: ``WorkerGroup`` pre-binds worker
methods, and modules that did ``from x import f`` hold their own reference,
so functions are also re-bound in every loaded ``repro.*`` module.

A layer's self time is its span's duration minus the part covered by its
child spans.  One thread runs everything, so children never overlap and
the covered part is the sum of the direct children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Span name of the root span the run loop opens around each step; its self
#: time is the step time under no other span.
ROOT = "bench.untraced"

#: Worker-method (RLHF stage) spans, reported with inclusive time too.
STAGES = (
    "workers.generate_sequences",
    "workers.update_actor",
    "workers.update_critic",
    "workers.compute_log_prob",
    "workers.compute_ref_log_prob",
    "workers.compute_values",
    "workers.compute_reward",
    "workers.compute_loss",
)

#: ``TinyLM`` forwards are classed by the stage they run under.
FWD_SPANS = ("models.fwd.train", "models.fwd.score", "models.fwd.decode")
_FWD_BY_STAGE = {
    "workers.update_actor": "models.fwd.train",
    "workers.update_critic": "models.fwd.train",
    "workers.compute_loss": "models.fwd.train",
    "workers.generate_sequences": "models.fwd.decode",
}

# (span name, module, attribute path).  ``*`` = every public function the
# module defines.  ``models.fwd`` spans are named after the stage they run
# under (FWD_SPANS); a generator function gets one span per item.
TARGETS: List[Tuple[str, str, str]] = [
    ("single_controller.dispatch", "repro.single_controller.worker_group", "RemoteMethod.__call__"),
    ("single_controller.protocol.distribute", "repro.single_controller.protocols", "TransferProtocol.distribute"),
    ("single_controller.protocol.collect", "repro.single_controller.protocols", "TransferProtocol.collect"),
    ("workers.generate_sequences", "repro.workers.actor", "ActorWorker.generate_sequences"),
    ("workers.update_actor", "repro.workers.actor", "ActorWorker.update_actor"),
    ("workers.update_critic", "repro.workers.critic", "CriticWorker.update_critic"),
    ("workers.compute_log_prob", "repro.workers.actor", "ActorWorker.compute_log_prob"),
    ("workers.compute_ref_log_prob", "repro.workers.scorers", "ReferenceWorker.compute_ref_log_prob"),
    ("workers.compute_values", "repro.workers.critic", "CriticWorker.compute_values"),
    # cost scoring is the same stage as reward scoring (one more scalar model)
    ("workers.compute_reward", "repro.workers.scorers", "RewardWorker.compute_reward"),
    ("workers.compute_reward", "repro.workers.scorers", "CostWorker.compute_cost"),
    ("workers.compute_reward", "repro.workers.scorers", "RewardFunctionWorker.compute_reward"),
    ("workers.compute_reward", "repro.workers.scorers", "RewardFunctionWorker.compute_cost"),
    ("workers.compute_loss", "repro.workers.actor", "ActorWorker.compute_loss"),
    ("workers.reshard", "repro.workers.base", "ShardedModelWorker.materialize_full_state"),
    ("workers.reshard", "repro.workers.base", "ShardedModelWorker.set_shard"),
    ("models.fwd", "repro.models.tinylm", "TinyLM.forward"),
    ("models.fwd", "repro.models.tinylm", "TinyLM.token_log_probs"),
    ("models.fwd", "repro.models.tinylm", "TinyLM.values"),
    ("models.fwd", "repro.models.tinylm", "TinyLM.sequence_reward"),
    ("models.autograd.backward", "repro.models.autograd", "Tensor.backward"),
    ("models.adam.step", "repro.models.adam", "Adam.step"),
    ("models.adam.step", "repro.models.adam", "Adam.clip_gradients"),
    ("models.sampler.generate", "repro.models.sampler", "generate"),
    ("models.sampler.sample", "repro.models.sampler", "sample_tokens"),
    ("models.sampler.sample", "repro.models.sampler", "sample_tokens_batch"),
    ("serving.server.step", "repro.serving.server", "RolloutServer.step"),
    ("serving.scheduler.schedule", "repro.serving.scheduler", "ContinuousBatchScheduler.schedule"),
    ("serving.scheduler.preempt", "repro.serving.scheduler", "ContinuousBatchScheduler.preempt"),
    ("serving.paged_kv", "repro.serving.paged_kv", "PagedKVCache.reserve"),
    ("serving.paged_kv", "repro.serving.paged_kv", "PagedKVCache.release"),
    ("hybrid_engine.to_generation", "repro.hybrid_engine.engine", "HybridEngine3D.to_generation"),
    ("hybrid_engine.to_training", "repro.hybrid_engine.engine", "HybridEngine3D.to_training"),
    ("hybrid_engine.materialize", "repro.hybrid_engine.engine", "HybridEngine3D.materialize_generation_replica"),
    ("hybrid_engine.publication.publish", "repro.hybrid_engine.publication", "WeightPublisher.publish"),
    ("hybrid_engine.publication.acquire", "repro.hybrid_engine.publication", "WeightPublisher.acquire"),
    ("comm.collectives", "repro.comm.collectives", "*"),
    ("rlhf.losses", "repro.rlhf.losses", "ppo_policy_loss"),
    ("rlhf.losses", "repro.rlhf.losses", "value_loss"),
    ("rlhf.losses", "repro.rlhf.losses", "grpo_policy_loss"),
    ("rlhf.losses", "repro.rlhf.losses", "safe_rlhf_policy_loss"),
    ("rlhf.losses", "repro.rlhf.losses", "kl_penalty"),
    ("rlhf.losses", "repro.rlhf.losses", "pretrain_loss"),
    ("rlhf.compute_advantages", "repro.rlhf.core", "compute_advantages"),
    ("pipeline.driver", "repro.pipeline.driver", "AsyncPipelineDriver.train"),
    ("pipeline.buffer", "repro.pipeline.buffer", "ExperienceBuffer.put"),
    ("pipeline.buffer", "repro.pipeline.buffer", "ExperienceBuffer.pop"),
    ("data.iter_batches", "repro.data.dataset", "PromptDataset.iter_batches"),
]


def span_names() -> List[str]:
    """Every span the trace reports, in table order (root last)."""
    names: List[str] = []
    for name, _module, _attr in TARGETS:
        for n in FWD_SPANS if name == "models.fwd" else (name,):
            if n not in names:
                names.append(n)
    return names + [ROOT]


# A span is (name, start, end, parent index or -1, step id).
Span = Tuple[str, float, float, int, int]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: duration minus its direct children's."""
    own = [end - start for _name, start, end, _parent, _step in spans]
    for _name, start, end, parent, _step in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: total self seconds, inclusive seconds, and calls."""
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _parent, _step), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["incl_s"] += end - start
        row["calls"] += 1
    return out


def children_named(spans: Sequence[Span], child: str, parent: str) -> int:
    """How many ``child`` spans sit directly under a ``parent`` span."""
    return sum(
        1
        for name, _s, _e, p, _step in spans
        if name == child and p >= 0 and spans[p][0] == parent
    )


class Tracer:
    """Owns the span buffer and the installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.step_id = 0
        self.unresolved: List[str] = []
        #: Called with ``(remote_method, args)`` on every dispatch — where the
        #: run loop reads counts that exist only at that boundary.
        self.on_dispatch: Optional[Callable[[Any, tuple], None]] = None
        #: Called with the value ``RolloutServer.step`` returned.
        self.on_serving_step: Optional[Callable[[Any], None]] = None
        self._stack: List[int] = []
        self._names: List[str] = []
        self._stage: Optional[str] = None
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._names.append(name)
        return index

    def _close(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name = self._names.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.step_id)

    def take_spans(self) -> List[Span]:
        """Hand over the closed spans recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take_spans() with spans still open")
        spans, self.spans = self.spans, []
        return spans  # type: ignore[return-value]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (the run loop's root span)."""
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        names = self._names
        is_stage = name in STAGES
        is_dispatch = name == "single_controller.dispatch"
        is_serving_step = name == "serving.server.step"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_name = name
            if span_name == "models.fwd":
                span_name = _FWD_BY_STAGE.get(tracer._stage, "models.fwd.score")
            if names and names[-1] == span_name:
                # a layer calling itself (token_log_probs -> forward) is
                # one span, not two
                return fn(*args, **kwargs)
            if is_dispatch and tracer.on_dispatch is not None:
                tracer.on_dispatch(args[0], args[1:])
            outer_stage = tracer._stage
            if is_stage:
                tracer._stage = span_name
            index = tracer._open(span_name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, start)
                tracer._stage = outer_stage
            if is_serving_step and tracer.on_serving_step is not None:
                tracer.on_serving_step(result)
            return result

        return traced

    def _wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """For a generator function: one span per item the caller waits for."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer._open(name)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(index, start)
                yield item

        return traced

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that resolves; note the ones that do not."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                for owner, leaf in _resolve(module, attr):
                    self._replace(name, owner, leaf)
            except (ImportError, AttributeError):
                if name not in self.unresolved:
                    self.unresolved.append(name)

    def _replace(self, name: str, owner: Any, leaf: str) -> None:
        raw = inspect.getattr_static(owner, leaf)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        original = raw.__func__ if kind else raw
        if inspect.isgeneratorfunction(original):
            wrapped = self._wrap_iterator(name, original)
        else:
            wrapped = self._wrap(name, original)
        replacement = kind(wrapped) if kind else wrapped
        if inspect.ismodule(owner):
            # ``from module import f`` copies: re-bind them wherever they live
            holders = [
                m
                for n, m in list(sys.modules.items())
                if m is not None and (n == "repro" or n.startswith("repro."))
            ]
        else:
            holders = [owner]  # aliases such as ``__call__ = forward``
        before = len(self._undo)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    self._undo.append((holder, key, raw))
                    setattr(holder, key, replacement)
        if len(self._undo) == before:
            raise AttributeError(f"{leaf} is not defined on {owner!r} itself")

    def uninstall(self) -> None:
        for holder, key, raw in reversed(self._undo):
            setattr(holder, key, raw)
        self._undo = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def _resolve(module: Any, attr: str) -> Iterable[Tuple[Any, str]]:
    """``(owner, leaf name)`` pairs an attribute path names in a module."""
    if attr == "*":
        found = [
            (module, key)
            for key, value in vars(module).items()
            if inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not key.startswith("_")
        ]
        if not found:
            raise AttributeError(f"{module.__name__} defines no public function")
        return found
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, leaf)  # AttributeError when the target is gone
    return [(owner, leaf)]


class CallCount:
    """How often a patched callable ran; ``None`` when it did not resolve."""

    calls: Optional[int] = 0


@contextlib.contextmanager
def count_graph_nodes() -> Iterator[CallCount]:
    """Count autograd graph nodes (``Tensor._from_op`` calls) in a block.

    Kept apart from the span wrappers: one count per tensor op would distort
    every timed span above it, so the counted pass is never timed.
    """
    counter = CallCount()
    try:
        owner = importlib.import_module("repro.models.autograd").Tensor
        raw = inspect.getattr_static(owner, "_from_op")
        original = raw.__func__  # a classmethod today
    except (ImportError, AttributeError):
        counter.calls = None
        yield counter
        return

    def counting(*args: Any, **kwargs: Any) -> Any:
        counter.calls += 1
        return original(*args, **kwargs)

    setattr(owner, "_from_op", type(raw)(counting))
    try:
        yield counter
    finally:
        setattr(owner, "_from_op", raw)
