"""``WorkerGroup``: one model's SPMD ranks plus protocol-driven dispatch.

Applying a worker class to a :class:`ResourcePool` spawns one worker per
device and builds the model's parallel topology over those devices (the
``3DParallelWorker`` initialisation of Figure 5a).  Calling a method that was
``@register``-ed runs the full single-controller round trip:

1. the method's transfer protocol *distributes* the inputs across ranks,
2. every rank executes its local computation (multi-controller SPMD),
3. the protocol *collects* the designated ranks' outputs,
4. the controller receives a :class:`DataFuture`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.config import GenParallelConfig, ParallelConfig
from repro.data.batch import LINEAGE_KEY, DataBatch
from repro.faults.errors import (
    CallTimeoutError,
    RetryBudgetExhausted,
    TransientRpcError,
    WorkerLostError,
)
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.spans import NULL_TRACER, SpanTracer
from repro.parallel.topology import GenGroupingMode, GenTopology, ParallelTopology
from repro.single_controller.access_log import READ, WRITE
from repro.single_controller.controller import ExecutionRecord
from repro.single_controller.decorator import (
    registered_blocking,
    registered_protocol,
)
from repro.single_controller.future import DataFuture
from repro.single_controller.protocols import get_protocol
from repro.single_controller.resource_pool import ResourcePool
from repro.single_controller.worker import Worker, WorkerContext


class RemoteMethod:
    """A bound, protocol-dispatched method of a worker group."""

    def __init__(self, group: "WorkerGroup", method_name: str) -> None:
        self.group = group
        self.method_name = method_name
        method = getattr(group.worker_cls, method_name)
        protocol_name = registered_protocol(method)
        if protocol_name is None:
            raise AttributeError(
                f"{group.worker_cls.__name__}.{method_name} is not @register-ed"
            )
        self.protocol_name = protocol_name
        self.protocol = get_protocol(protocol_name)
        # bind-time dispatch gate: a protocol whose declarative requirements
        # the group's topology violates must fail here, before any dispatch
        self.protocol.check_group(group)
        self.blocking = registered_blocking(method)
        # one attribute resolution per worker at bind time; every dispatch
        # then fans out over these bound callables without re-doing N
        # getattr round-trips (the group's worker list is append-only
        # during construction and never mutated afterwards — recovery
        # re-placement builds a fresh group)
        self._bound_calls = tuple(
            getattr(worker, method_name) for worker in group.workers
        )

    @staticmethod
    def _inputs(args: tuple, kwargs: dict) -> Tuple[tuple, int]:
        """The call's dataflow edges and input payload bytes.

        Edges are the trace records whose outputs feed this call.  They
        flow two ways: through :class:`DataFuture` handles, and through the
        lineage metadata stamped on every :class:`DataBatch` a remote call
        returned (which survives ``get()``, ``union`` and ``concat``).  A
        deferred future is resolved here, so its producer runs and takes its
        trace seq before this call builds its record.  The payload is the
        bytes of every batch argument.
        """
        deps = set()
        nbytes = 0
        for value in list(args) + list(kwargs.values()):
            if isinstance(value, DataFuture):
                future, value = value, value.get()
                if future.record_seq is not None:
                    deps.add(future.record_seq)
            if isinstance(value, DataBatch):
                deps.update(value.meta.get(LINEAGE_KEY, ()))
                nbytes += value.nbytes()
        return tuple(sorted(deps)), nbytes

    def _dispatch_gate(self, record: Optional[ExecutionRecord]) -> float:
        """Failure detection + retry/backoff/timeout before the call runs (§9).

        Returns the *planned duration* of the call ``record`` in simulated
        seconds; the dispatch path advances the clock (and occupies the
        pool's devices) by that much after the workers execute.  Without a
        fault injector the duration is the controller's
        ``planned_duration(record)``, so the controller clock tracks
        simulated work even in fault-free runs.

        With a :class:`~repro.faults.FaultInjector` attached to the
        controller, every remote call first passes this gate:

        * a dead device in the group's pool raises a typed
          :class:`~repro.faults.WorkerLostError` (detection-on-contact),
        * injected transient RPC faults are retried up to the controller's
          :class:`~repro.faults.RetryPolicy` budget with deterministic
          backoff on the simulated clock, then escalate to
          ``WorkerLostError``,
        * a call whose straggler-inflated duration exceeds the policy's
          per-call timeout behaves like a transient fault (so a persistent
          straggler escalates to ``WorkerLostError`` naming the slow ranks).

        The gate runs *before* the protocol distributes inputs and before
        the trace records anything, so retries never corrupt the execution
        trace: a call appears exactly once, when it actually runs.  Every
        retry, timeout, and loss increments its counter in the controller's
        metrics registry, and each backoff wait is traced as a ``retry``
        span.
        """
        if record is None:
            return 0.0
        group = self.group
        controller = group.controller
        injector = controller.fault_injector
        if injector is None:
            return controller.planned_duration(record)
        try:
            return self._retry_until_admitted(controller, injector, record)
        except RetryBudgetExhausted:
            raise  # counted as a budget exhaustion, not as a detected loss
        except WorkerLostError:
            controller.metrics.counter(
                "repro_worker_losses_total",
                "Remote calls that found their workers dead",
                group=group.name,
                pool=group.resource_pool.name,
            ).inc()
            raise

    def _retry_until_admitted(
        self, controller, injector, record: ExecutionRecord
    ) -> float:
        group = self.group
        labels = dict(group=group.name, method=self.method_name)
        policy = controller.retry_policy
        clock = controller.clock
        metrics = controller.metrics
        attempt = 0
        call_started = clock.now
        while True:
            try:
                injector.pre_call(group, self.method_name, record.seq)
                duration = injector.call_duration(group, record)
                if policy.timeout is not None and duration > policy.timeout:
                    clock.advance(policy.timeout)
                    metrics.counter(
                        "repro_call_timeouts_total",
                        "Remote calls that exceeded the per-call timeout",
                        **labels,
                    ).inc()
                    raise CallTimeoutError(
                        f"{group.name}.{self.method_name} exceeded the "
                        f"{policy.timeout:.3f}s call timeout "
                        f"(would take {duration:.3f}s)",
                        group=group.name,
                        method=self.method_name,
                        ranks=injector.straggler_ranks(group),
                    )
                return duration
            except TransientRpcError as exc:
                attempt += 1
                if attempt > policy.max_retries:
                    raise WorkerLostError(
                        f"{group.name}.{self.method_name} still failing "
                        f"after {policy.max_retries} retries: {exc}",
                        group=group.name,
                        pool=group.resource_pool.name,
                        dead_ranks=exc.ranks,
                        step=record.seq,
                        cause="retries exhausted",
                    ) from exc
                injector.note_retry()
                metrics.counter(
                    "repro_retries_total",
                    "Transient-fault retries across all remote calls",
                    **labels,
                ).inc()
                # Clock time this call already burned (timeouts + backoffs)
                # counts against the policy's per-call deadline budget.
                spent = clock.now - call_started
                try:
                    delay = policy.backoff_delay(
                        attempt,
                        spent=spent if policy.deadline is not None else None,
                    )
                except RetryBudgetExhausted:
                    metrics.counter(
                        "repro_retry_budget_exhausted_total",
                        "Remote calls whose retry deadline budget ran out",
                        **labels,
                    ).inc()
                    raise RetryBudgetExhausted(
                        f"{group.name}.{self.method_name} spent "
                        f"{spent:.3f}s of its {policy.deadline:.3f}s retry "
                        f"deadline over {attempt} attempt(s): {exc}",
                        group=group.name,
                        method=self.method_name,
                        pool=group.resource_pool.name,
                        step=record.seq,
                        deadline=policy.deadline,
                        spent=spent,
                        attempts=attempt,
                    ) from exc
                with controller.tracer.span(
                    "backoff",
                    category="retry",
                    pool=group.resource_pool.name,
                    attempt=attempt,
                    delay=delay,
                    error=type(exc).__name__,
                ):
                    clock.advance(delay)

    def _execute(self, args: tuple, kwargs: dict):
        group = self.group
        controller = group.controller
        tracer, metrics = group.tracer, group.metrics
        pool = group.resource_pool
        deps, payload_bytes = self._inputs(args, kwargs)
        record = None
        if controller is not None:
            record = ExecutionRecord(
                controller.next_seq, group.name, self.method_name, pool.name, deps
            )
        prev_seq = getattr(controller, "current_seq", None)
        try:
            with tracer.span(
                f"{group.name}.{self.method_name}",
                category="dispatch",
                pool=pool.name,
                ranks=tuple(pool.global_ranks),
                payload_bytes=payload_bytes,
                links=tracer.links_for(deps),
                protocol=self.protocol_name,
                deps=list(deps),
            ) as span:
                duration = self._dispatch_gate(record)
                # every shared-state access below happens *inside* this
                # dispatch: stamp it with the seq of its record
                if record is not None:
                    controller.current_seq = record.seq
                with tracer.span(
                    "distribute", category="protocol", pool=pool.name,
                    protocol=self.protocol_name,
                ):
                    calls = self.protocol.distribute(group, args, kwargs)
                outputs: List[Any] = [
                    bound(*wargs, **wkwargs)
                    for bound, (wargs, wkwargs) in zip(self._bound_calls, calls)
                ]
                self._record_merge_accesses(outputs)
                with tracer.span(
                    "collect", category="protocol", pool=pool.name,
                    protocol=self.protocol_name,
                ):
                    result = self.protocol.collect(group, outputs)
                recorder = getattr(controller, "shape_recorder", None)
                if recorder is not None:
                    # SF7xx runtime witness: sample the collected result's
                    # array shapes for cross-validation against the static
                    # inference
                    recorder.record(group.name, self.method_name, result)
                seq = None
                if record is not None:
                    if duration > 0.0:
                        controller.clock.advance(duration)
                        for device in pool.devices:
                            device.occupy(duration)
                    controller.record_execution(record)
                    seq = record.seq
                    if isinstance(result, DataBatch):
                        result.meta[LINEAGE_KEY] = (seq,)
                tracer.register_seq(seq, span)
                span.attrs["duration_model"] = duration
                metrics.counter(
                    "repro_dispatch_calls_total",
                    "Remote calls dispatched through the single controller",
                    group=group.name,
                    method=self.method_name,
                ).inc()
                metrics.histogram(
                    "repro_dispatch_seconds",
                    "Planned simulated duration per dispatched call",
                    group=group.name,
                ).observe(duration)
                tokens = self._generated_tokens(result)
                if tokens:
                    metrics.counter(
                        "repro_tokens_generated_total",
                        "Response tokens produced by generate_sequences",
                        group=group.name,
                    ).inc(tokens)
                return result, seq
        finally:
            if controller is not None:
                controller.current_seq = prev_seq

    def _record_merge_accesses(self, outputs: List[Any]) -> None:
        """Log the per-rank writes into this call's output merge buffer.

        Each rank that produced a (non-``None``) output conceptually writes
        one slot of a shared merge buffer the controller then reads and
        folds with ``merge_outputs``.  Whether those writes land in a
        deterministic order is a property of the protocol
        (``requires.deterministic_collect``); the RC5xx race detector flags
        unordered multi-rank writes as the nondeterministic-merge hazard.
        """
        group = self.group
        resource = f"merge[{group.name}.{self.method_name}]"
        ordered = self.protocol.requires.deterministic_collect
        wrote = False
        for worker, output in zip(group.workers, outputs):
            if output is None:
                continue
            wrote = True
            group.record_access(
                WRITE,
                resource,
                rank=worker.ctx.global_rank,
                ordered=ordered,
                note=self.protocol_name,
            )
        if wrote:
            group.record_access(READ, resource, note="collect")

    def _generated_tokens(self, result: Any) -> int:
        """Response tokens in a ``generate_sequences`` output batch, else 0."""
        if self.method_name != "generate_sequences":
            return 0
        if not isinstance(result, DataBatch) or "sequences" not in result:
            return 0
        sequences = result["sequences"]
        prompt_length = int(result.meta.get("prompt_length", 0))
        response = max(0, sequences.shape[-1] - prompt_length)
        return int(sequences.shape[0] * response)

    def __call__(self, *args: Any, **kwargs: Any) -> DataFuture:
        def run() -> Any:
            result, future.record_seq = self._execute(args, kwargs)
            return result

        future = DataFuture(
            thunk=run, producer=self.group.name, method=self.method_name
        )
        if self.blocking:
            future.get()
        return future


class WorkerGroup:
    """SPMD workers of one model over one resource pool."""

    def __init__(
        self,
        worker_cls: Type[Worker],
        resource_pool: ResourcePool,
        parallel_config: Optional[ParallelConfig] = None,
        gen_config: Optional[GenParallelConfig] = None,
        gen_mode: GenGroupingMode = GenGroupingMode.HYBRIDFLOW,
        name: Optional[str] = None,
        controller: Optional[Any] = None,
        worker_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        # set first: __getattr__ consults it, so it must exist before any
        # attribute lookup on a half-built instance can fail
        self._remote_methods: Dict[str, RemoteMethod] = {}
        if parallel_config is None:
            parallel_config = ParallelConfig(pp=1, tp=1, dp=resource_pool.size)
        if parallel_config.world_size != resource_pool.size:
            raise ValueError(
                f"parallel config {parallel_config} needs "
                f"{parallel_config.world_size} devices but pool "
                f"{resource_pool.name!r} has {resource_pool.size}"
            )
        self.worker_cls = worker_cls
        self.resource_pool = resource_pool
        self.name = name or f"{worker_cls.__name__.lower()}@{resource_pool.name}"
        self.controller = controller
        meter = controller.meter if controller is not None else None
        self.train_topology = ParallelTopology(
            parallel_config,
            global_ranks=resource_pool.global_ranks,
            meter=meter,
            name=self.name,
        )
        self.gen_topology: Optional[GenTopology] = None
        if gen_config is not None:
            self.gen_topology = GenTopology(
                self.train_topology, gen_config, mode=gen_mode
            )

        worker_kwargs = worker_kwargs or {}
        self.workers: List[Worker] = []
        self._by_global_rank: Dict[int, Worker] = {}
        for local_rank, device in enumerate(resource_pool.devices):
            ctx = WorkerContext(
                global_rank=device.global_rank,
                local_rank=local_rank,
                device=device,
                train_topology=self.train_topology,
                gen_topology=self.gen_topology,
            )
            worker = worker_cls(ctx, **worker_kwargs)
            ctx.group = self
            self.workers.append(worker)
            self._by_global_rank[device.global_rank] = worker
        resource_pool.attach(self)
        if controller is not None:
            controller.attach_group(self)

    # -- protocol-facing API -------------------------------------------------------

    @property
    def world_size(self) -> int:
        return len(self.workers)

    def coords(self, local_rank: int):
        return self.train_topology.coords(self.global_rank_of(local_rank))

    def global_rank_of(self, local_rank: int) -> int:
        return self.workers[local_rank].ctx.global_rank

    def worker_at_global_rank(self, global_rank: int) -> Worker:
        try:
            return self._by_global_rank[global_rank]
        except KeyError:
            raise ValueError(
                f"rank {global_rank} not in group {self.name!r}"
            ) from None

    # -- dispatch --------------------------------------------------------------------

    def __getattr__(self, attr: str) -> Any:
        # only called when normal lookup fails: resolve remote methods.
        # Bound RemoteMethods are cached per name — the protocol lookup,
        # bind-time dispatch-gate check, and per-worker method binding run
        # once per (group, method), not once per call.
        if attr.startswith("_"):
            raise AttributeError(attr)
        cached = self._remote_methods.get(attr)
        if cached is not None:
            return cached
        worker_method = getattr(self.worker_cls, attr, None)
        if worker_method is not None and registered_protocol(worker_method):
            method = RemoteMethod(self, attr)
            self._remote_methods[attr] = method
            return method
        raise AttributeError(
            f"{type(self).__name__} {self.name!r} has no remote method {attr!r}"
        )

    # -- the controller's instruments, or their null objects ---------------------------
    #
    # Everything that emits a span, a metric or an access-log event on behalf
    # of this group goes through these three, so only they know that a bare
    # (controller-less) group exists.

    @property
    def tracer(self) -> SpanTracer:
        return NULL_TRACER if self.controller is None else self.controller.tracer

    @property
    def metrics(self) -> MetricsRegistry:
        return NULL_METRICS if self.controller is None else self.controller.metrics

    def record_access(self, kind: str, resource: str, **where: Any) -> None:
        """Log a shared-state access with the controller (no-op without one)."""
        if self.controller is not None:
            self.controller.record_access(kind, resource, **where)

    def set_gen_topology(self, gen_config, mode=GenGroupingMode.HYBRIDFLOW) -> None:
        """Install/replace the generation topology (HybridEngine setup)."""
        self.gen_topology = GenTopology(self.train_topology, gen_config, mode=mode)
        for worker in self.workers:
            worker.ctx.gen_topology = self.gen_topology
        # cached RemoteMethods passed the bind-time dispatch gate against
        # the old topology; re-check on next access
        self._remote_methods.clear()

    def broadcast_call(self, fn: Callable[[Worker], Any]) -> List[Any]:
        """Apply ``fn`` to every worker (setup/inspection helper)."""
        return [fn(w) for w in self.workers]

    def __repr__(self) -> str:
        return (
            f"WorkerGroup({self.name!r}, {self.train_topology.config}, "
            f"{self.world_size} workers)"
        )
