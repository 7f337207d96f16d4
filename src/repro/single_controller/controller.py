"""The single controller: pools, groups, execution trace, checkpoints.

One :class:`SingleController` per RLHF job.  It owns the simulated cluster,
hands out non-overlapping resource pools, tracks every remote call in an
execution trace (used to verify execution *patterns* — Table 1), and
coordinates checkpointing across worker groups via "RPC" (§9: "Our
programming model enables the single controller to coordinate checkpoint
operations via RPC").

Beyond the happy path, the controller carries the job's failure policy: a
simulated clock, a retry/backoff/timeout :class:`~repro.faults.RetryPolicy`
consulted on every remote call, an optional
:class:`~repro.faults.FaultInjector`, and ``release_pools`` — the teardown
half of recovery, which returns devices to the cluster so a rebuilt job can
re-place itself on the survivors.

Checkpoints are written atomically (staged in a sibling directory, then
renamed into place) so a crash mid-save can never leave a half-written
checkpoint that a later ``load_checkpoint`` trusts, and every load failure
surfaces as a typed :class:`CheckpointError` rather than a raw
``KeyError``/``JSONDecodeError``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import shutil
import warnings
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.cluster import SimCluster
from repro.comm.groups import TrafficMeter
from repro.config import ClusterSpec
from repro.faults.policy import RetryPolicy, SimClock
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import SpanTracer
from repro.serialization import json_safe
from repro.single_controller.access_log import CONTROLLER_RANK, READ, WRITE, AccessLog
from repro.single_controller.resource_pool import ResourcePool

if TYPE_CHECKING:
    from repro.single_controller.worker_group import WorkerGroup


class CheckpointError(ValueError):
    """A checkpoint is missing, truncated, corrupted, or inconsistent.

    Subclasses ``ValueError`` so pre-existing callers that guarded the
    structural mismatches (missing group, rank count) keep working.
    """


@dataclasses.dataclass(frozen=True)
class ExecutionRecord:
    """One remote call: which group ran which method, in global order.

    ``deps`` holds the trace sequence numbers of the calls whose output
    futures fed this call — the edges of the RLHF dataflow DAG, which the
    timeline scheduler replays with asynchronous-execution semantics (§4.1).
    """

    seq: int
    group: str
    method: str
    pool: str
    deps: tuple = ()


#: Simulated seconds per call kind — the default duration model, a crude
#: stand-in for a latency model.  Generation dominates an RLHF iteration
#: (§2.3), updates cost forward+backward, scoring one forward.
DEFAULT_DURATIONS = {
    "generate_sequences": 6.0,
    "update_actor": 3.0,
    "update_critic": 3.0,
    "update_sft": 3.0,
    "update_reward": 3.0,
    "compute_values": 1.0,
    "compute_ref_log_prob": 1.0,
    "compute_reward": 1.0,
    "compute_cost": 1.0,
    "compute_log_prob": 1.0,
    "compute_loss": 1.0,
}
FALLBACK_DURATION = 1.0

#: Methods already warned about falling back to ``FALLBACK_DURATION`` — the
#: warning fires once per method per process so perf numbers are never
#: silently fabricated, without spamming every rebuild.
_FALLBACK_WARNED: set = set()


def _json_safe(value: Any, where: str) -> Any:
    """Coerce checkpoint scalars to JSON-serializable Python types.

    Worker ``state_for_checkpoint`` dicts routinely contain numpy scalar
    types (``np.float32``, ``np.int64``, 0-d arrays); these crash
    ``json.dumps`` unless coerced.  Delegates to the shared
    :func:`repro.serialization.json_safe` rules; anything non-serializable
    raises a :class:`CheckpointError` naming the offending key.
    """
    return json_safe(value, where, error=CheckpointError)


class SingleController:
    """Central coordinator of the RLHF dataflow."""

    def __init__(
        self,
        cluster_spec: Optional[ClusterSpec] = None,
        cluster: Optional[SimCluster] = None,
    ) -> None:
        #: Recovery rebuilds pass the *surviving* cluster back in so dead
        #: devices stay dead and re-placement runs on the shrunken world.
        self.cluster = (
            cluster if cluster is not None else SimCluster(cluster_spec or ClusterSpec())
        )
        self.meter = TrafficMeter()
        self.pools: Dict[str, ResourcePool] = {}
        self.groups: List[WorkerGroup] = []
        self.trace: List[ExecutionRecord] = []
        self._seq = 0
        #: Simulated wall clock; remote calls, backoff waits, and recovery
        #: actions all advance it (repro.faults.SimClock).
        self.clock = SimClock()
        #: Transient-fault handling for every remote call.
        self.retry_policy = RetryPolicy()
        #: Optional fault delivery (repro.faults.FaultInjector).
        self.fault_injector = None
        #: Structured span tracing of every dispatch, reshard, transition,
        #: checkpoint, and recovery phase (repro.observability).
        self.tracer = SpanTracer(self.clock)
        #: Counters/gauges/histograms fed by the dispatch path, fault gate,
        #: cluster collectors, and RLHF pipeline.
        self.metrics = MetricsRegistry()
        #: Shared-state read/write events for the RC5xx race detector.
        self.access_log = AccessLog()
        #: Seq of the dispatch currently executing, ``None`` between calls
        #: (controller context).  Set by :class:`RemoteMethod` around the
        #: distribute/execute/collect round trip.
        self.current_seq: Optional[int] = None

    # -- resources -----------------------------------------------------------------

    def create_pool(self, n_gpus: int, name: Optional[str] = None) -> ResourcePool:
        pool = ResourcePool.allocate(self.cluster, n_gpus, name=name)
        if pool.name in self.pools:
            raise ValueError(f"duplicate pool name {pool.name!r}")
        self.pools[pool.name] = pool
        return pool

    def release_pools(self) -> None:
        """Return every pool's devices to the cluster (recovery teardown).

        The job's workers are considered gone: surviving devices get their
        memory ledgers wiped so a rebuilt job can allocate cleanly, and dead
        devices stay dead.  The trace is kept — it documents the failed run.
        """
        for name in sorted(self.pools):
            self.cluster.release(self.pools[name].devices, clear_memory=True)
        self.pools.clear()
        self.groups.clear()

    def attach_group(self, group: WorkerGroup) -> None:
        self.groups.append(group)

    def group_named(self, name: str) -> WorkerGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(f"no worker group named {name!r}")

    # -- fault policy ------------------------------------------------------------------

    def attach_fault_injector(self, injector) -> None:
        """Install a :class:`repro.faults.FaultInjector` on this job."""
        injector.bind(self)
        self.fault_injector = injector

    def planned_duration(self, record: ExecutionRecord) -> float:
        """Simulated seconds the call ``record`` is planned to take.

        The one duration model: the dispatch gate, the fault injector and
        every timeline replay (``build_timeline(trace,
        controller.planned_duration)``) read it.  This default prices a
        call by its method in ``DEFAULT_DURATIONS``; assigning another
        callable of the record to the instance attribute (e.g.
        :func:`repro.runtime.projection.perf_duration_fn`) re-times all
        three together.  A method missing from the table is charged
        ``FALLBACK_DURATION`` — never silently: a one-time warning names it,
        and each charge increments a per-method metrics counter.
        """
        duration = DEFAULT_DURATIONS.get(record.method)
        if duration is not None:
            return duration
        self.metrics.counter(
            "repro_timeline_fallback_total",
            "Trace records charged FALLBACK_DURATION (no duration model)",
            method=record.method,
        ).inc()
        if record.method not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(record.method)
            warnings.warn(
                f"no duration model for method {record.method!r}; it was "
                f"charged the flat FALLBACK_DURATION={FALLBACK_DURATION}s — "
                "timings involving it are fabricated, not modelled",
                stacklevel=2,
            )
        return FALLBACK_DURATION

    # -- observability -----------------------------------------------------------------

    def adopt(
        self, clock: SimClock, tracer: SpanTracer, metrics: MetricsRegistry
    ) -> None:
        """Run on a supervised job's clock, tracer and registry.

        The job outlives every controller it builds: simulated time never
        restarts, spans keep accumulating on the one tracer (which reads
        that clock) and metrics keep their counts — a rebuild must not zero
        the job's history.
        """
        self.clock = clock
        self.tracer = tracer
        self.metrics = metrics

    # -- tracing -----------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next remote call will record."""
        return self._seq

    def record_execution(self, record: ExecutionRecord) -> None:
        """Append the record of a call that ran (its ``seq`` is ``next_seq``)."""
        self.trace.append(record)
        self._seq += 1

    def trace_methods(self) -> List[str]:
        """The execution pattern as ``"group.method"`` strings, in order."""
        return [f"{r.group}.{r.method}" for r in self.trace]

    def reset_trace(self) -> None:
        self.trace.clear()
        self.access_log.clear()
        self._seq = 0

    def record_access(
        self,
        kind: str,
        resource: str,
        rank: int = CONTROLLER_RANK,
        ordered: bool = True,
        note: str = "",
    ) -> None:
        """Log a shared-state access for the RC5xx race detector.

        ``current_seq`` (the in-flight dispatch) and ``next_seq`` (dispatches
        completed so far) position the event in the happens-before model;
        callers only say *what* was touched and by *whom*.
        """
        self.access_log.record(
            kind,
            resource,
            rank=rank,
            seq=self.current_seq,
            after_seq=self._seq,
            ordered=ordered,
            note=note,
        )

    # -- checkpointing (§9) ---------------------------------------------------------------

    def save_checkpoint(
        self, directory: str, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        """Persist every worker's rank-local state plus an RNG-aware manifest.

        The write is atomic: everything is staged into a sibling temp
        directory and renamed into place, so an interrupted save leaves
        either the previous checkpoint or the new one — never a mix.

        Args:
            extra: Caller state (e.g. the trainer's ``state_dict``) stored in
                the manifest; must sanitize to JSON.
        """
        with self.tracer.span(
            "checkpoint.write", category="checkpoint", directory=str(directory)
        ) as span:
            self.record_access(
                WRITE, f"checkpoint:{directory}", note="save_checkpoint"
            )
            self._save_checkpoint(directory, extra, span)

    def _save_checkpoint(
        self, directory: str, extra: Optional[Dict[str, Any]], span
    ) -> None:
        root = pathlib.Path(directory)
        root.parent.mkdir(parents=True, exist_ok=True)
        staging = root.parent / f".{root.name}.saving"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)

        manifest: Dict[str, Any] = {
            # simulated time, deliberately: a wall-clock stamp here would
            # make checkpoint bytes non-deterministic across identical runs
            "saved_at": self.clock.now,
            "trace_seq": self._seq,
            "clock": self.clock.now,
            "groups": [],
            "extra": _json_safe(extra, "extra") if extra is not None else None,
        }
        for gi, group in enumerate(self.groups):
            cfg = group.train_topology.config
            group_entry = {
                "name": group.name,
                # Recorded so a resized restore (allow_resize=True) can map
                # saved ranks onto a narrower/wider DP layout by coordinates.
                "parallel": [cfg.pp, cfg.tp, cfg.dp],
                "layout": getattr(group.workers[0], "layout", None),
                "workers": [],
            }
            for wi, worker in enumerate(group.workers):
                state = worker.state_for_checkpoint()
                arrays = {
                    k: v
                    for k, v in state.items()
                    if isinstance(v, np.ndarray) and v.ndim > 0
                }
                scalars = {
                    k: _json_safe(v, f"{group.name}[{wi}].{k}")
                    for k, v in state.items()
                    if k not in arrays
                }
                fname = f"group{gi}_worker{wi}.npz"
                if arrays:
                    np.savez(staging / fname, **arrays)
                group_entry["workers"].append(
                    {"file": fname if arrays else None, "scalars": scalars}
                )
            manifest["groups"].append(group_entry)
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2))

        saved_bytes = sum(
            f.stat().st_size for f in staging.iterdir() if f.is_file()
        )
        span.payload_bytes = saved_bytes
        self.metrics.counter(
            "repro_checkpoint_saves_total", "Checkpoints written"
        ).inc()
        self.metrics.counter(
            "repro_checkpoint_bytes_total",
            "Checkpoint bytes moved, by direction",
            direction="save",
        ).inc(saved_bytes)

        if root.exists():
            replaced = root.parent / f".{root.name}.replaced"
            if replaced.exists():
                shutil.rmtree(replaced)
            root.rename(replaced)
            staging.rename(root)
            shutil.rmtree(replaced)
        else:
            staging.rename(root)

    def load_checkpoint(
        self, directory: str, allow_resize: bool = False
    ) -> Dict[str, Any]:
        """Restore every worker from ``directory``; returns the manifest.

        The controller's trace sequence counter resumes from the saved value
        so a recovered run continues numbering instead of restarting at 0.
        Any missing, truncated, or corrupted file raises
        :class:`CheckpointError` with the reason.

        If a save was interrupted between swapping the old checkpoint out
        and the new one in, the previous complete checkpoint survives as
        ``.<name>.replaced`` next to ``directory``; loading falls back to it
        so a crash mid-save never strands the job without a restore point.

        Args:
            allow_resize: Permit restoring into groups whose DP width
                differs from the saved one (same PP/TP, 3d layout only).
                Ranks are mapped by parallel coordinates: 3d shards depend
                only on the (pipeline, tensor) position, and DP replicas are
                bit-identical copies, so a shrunken group loads the matching
                prefix and a grown group clones the last saved replica.
        """
        with self.tracer.span(
            "checkpoint.read", category="checkpoint", directory=str(directory)
        ) as span:
            self.record_access(
                READ, f"checkpoint:{directory}", note="load_checkpoint"
            )
            return self._load_checkpoint(directory, span, allow_resize)

    def _resolve_checkpoint_root(self, directory: str) -> pathlib.Path:
        root = pathlib.Path(directory)
        fallback = root.parent / f".{root.name}.replaced"
        if root.is_dir() and (root / "manifest.json").is_file():
            return root
        # A crash between the two rename steps of an atomic save can leave
        # the old checkpoint parked under the .replaced name; use it.
        if fallback.is_dir() and (fallback / "manifest.json").is_file():
            return fallback
        if not root.is_dir():
            raise CheckpointError(f"no checkpoint directory at {root}")
        raise CheckpointError(f"checkpoint at {root} has no manifest.json")

    def _resize_index_map(self, group, entry: Dict[str, Any]) -> List[int]:
        """Saved-worker index for each current worker, by parallel coordinates.

        Valid because 3d shards are a function of (pipeline, tensor) position
        only and DP replicas are bit-identical: local ranks enumerate TP
        fastest, then PP, then DP, so a new rank at coordinates ``(p, t, d)``
        restores from the saved rank at ``(p, t, min(d, old_dp - 1))`` — the
        identity prefix when shrinking, a clone of the last replica (which
        carries optimizer state on its leads) when growing.
        """
        saved_parallel = entry.get("parallel")
        if not saved_parallel:
            raise CheckpointError(
                f"checkpoint for {group.name!r} predates resize support: "
                f"no 'parallel' layout recorded in the manifest"
            )
        if entry.get("layout") != "3d":
            raise CheckpointError(
                f"elastic restore of {group.name!r} needs the 3d layout; "
                f"saved layout is {entry.get('layout')!r} (flat/ZeRO shards "
                f"are partitioned across DP and cannot be remapped)"
            )
        old_pp, old_tp, old_dp = (int(x) for x in saved_parallel)
        cfg = group.train_topology.config
        if (cfg.pp, cfg.tp) != (old_pp, old_tp):
            raise CheckpointError(
                f"elastic restore of {group.name!r} only resizes DP: saved "
                f"pp={old_pp} tp={old_tp}, current pp={cfg.pp} tp={cfg.tp}"
            )
        stage = cfg.pp * cfg.tp
        index_map = []
        for local_rank in range(len(group.workers)):
            d, rem = divmod(local_rank, stage)
            index_map.append(min(d, old_dp - 1) * stage + rem)
        return index_map

    def _load_checkpoint(
        self, directory: str, span, allow_resize: bool = False
    ) -> Dict[str, Any]:
        root = self._resolve_checkpoint_root(directory)
        manifest_path = root / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text())
        except (ValueError, OSError) as exc:
            raise CheckpointError(
                f"corrupt manifest.json in checkpoint {root}: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or "groups" not in manifest:
            raise CheckpointError(
                f"manifest.json in checkpoint {root} lacks a 'groups' section"
            )

        saved = {g["name"]: g for g in manifest["groups"]}
        for group in self.groups:
            if group.name not in saved:
                raise CheckpointError(
                    f"checkpoint has no state for group {group.name!r}"
                )
            entry = saved[group.name]
            if len(entry["workers"]) != len(group.workers):
                if not allow_resize:
                    raise CheckpointError(
                        f"checkpoint rank count mismatch for {group.name!r}: "
                        f"{len(entry['workers'])} vs {len(group.workers)} "
                        f"(pass allow_resize=True for an elastic restore)"
                    )
                index_map = self._resize_index_map(group, entry)
            else:
                index_map = list(range(len(group.workers)))
            for worker, saved_index in zip(group.workers, index_map):
                wentry = entry["workers"][saved_index]
                state: Dict[str, Any] = dict(wentry["scalars"])
                if wentry["file"]:
                    array_path = root / wentry["file"]
                    if not array_path.is_file():
                        raise CheckpointError(
                            f"checkpoint array file missing: {array_path}"
                        )
                    try:
                        with np.load(array_path) as data:
                            state.update({k: data[k] for k in data.files})
                    except Exception as exc:
                        raise CheckpointError(
                            f"corrupt or truncated checkpoint array file "
                            f"{array_path}: {exc}"
                        ) from exc
                worker.load_from_checkpoint(state)
        self._seq = int(manifest.get("trace_seq", self._seq))
        span.attrs["resized"] = any(
            len(saved[g.name]["workers"]) != len(g.workers) for g in self.groups
        )
        restored_bytes = sum(
            f.stat().st_size for f in root.iterdir() if f.is_file()
        )
        span.payload_bytes = restored_bytes
        self.metrics.counter(
            "repro_checkpoint_restores_total", "Checkpoints restored"
        ).inc()
        self.metrics.counter(
            "repro_checkpoint_bytes_total",
            "Checkpoint bytes moved, by direction",
            direction="restore",
        ).inc(restored_bytes)
        return manifest

    def __repr__(self) -> str:
        return (
            f"SingleController(cluster={self.cluster!r}, "
            f"groups={[g.name for g in self.groups]})"
        )
