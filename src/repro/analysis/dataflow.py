"""Static pre-execution checks of a composed RLHF dataflow (§4.1, Table 3).

A misconfigured dataflow — a ``@register``-ed method whose transfer protocol
cannot run on its group's topology, a placement whose projected memory
exceeds device capacity — fails today deep inside an iteration, at dispatch
time.  The
:class:`DataflowChecker` reports the same problems *before* any dispatch, as
findings against the declarative :class:`~repro.single_controller.protocols.
ProtocolRequires` descriptors the runtime dispatch gate itself enforces, so
the static check and the runtime behaviour can never drift.  A batch a
split does not divide is the SF pass's ``SF703``, found by running the
protocols (:mod:`repro.analysis.shapeflow`).

Rules:

========  ====================================================================
``DF101``  protocol requirements vs the group's parallelism topology
``DF103``  serving / eos / pad configuration inconsistencies
``DF104``  placement's projected persistent memory exceeds device capacity
``DF105``  placement plan structure (missing roles, missing gen config)
``DF106``  plan assigns a model role the algorithm's dataflow never calls
``DF107``  group sampling misconfigured (``group_size`` below the
           trainer's ``min_group_size``: 2 for GRPO)
``DF108``  async pipeline misconfigured (an algorithm the off-policy
           correction cannot support, no generation plan to publish into,
           a serving-backed actor, a degenerate importance-weight anchor)
========  ====================================================================
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import ERROR, WARNING, AnalysisReport
from repro.config import ClusterSpec, ModelSpec, RlhfWorkload
from repro.single_controller.decorator import registered_protocol
from repro.single_controller.protocols import get_protocol

#: Worker roles holding optimizer state (their *training* footprint is the
#: persistent one); forward-only roles persist parameters alone.
_TRAINABLE_DEFAULT = True


def registered_methods(worker_cls: type) -> List[Tuple[str, str]]:
    """``(method_name, protocol_name)`` for every ``@register``-ed method."""
    out = []
    for name in sorted(dir(worker_cls)):
        if name.startswith("_"):
            continue
        protocol = registered_protocol(getattr(worker_cls, name, None))
        if protocol is not None:
            out.append((name, protocol))
    return out


@dataclasses.dataclass(frozen=True)
class RoleBinding:
    """Where and how one model role runs — the placement facts the DF and SF
    checkers bind an algorithm's dataflow graph to."""

    role: str
    worker_cls: type
    pool: str
    parallel: Any
    gen_config: Any = None
    #: Serving-backed actors take variable-length batches: SF703 hints to
    #: pad the submitted prompt batch up.
    use_serving: bool = False


def bind_roles(
    placement: Any, function_rewards: Sequence[str] = (), use_serving: bool = False
) -> Dict[str, RoleBinding]:
    """``role -> RoleBinding`` of a :class:`PlacementPlan` (pre-build; the
    two arguments say what the builder would be told) or of a built
    :class:`~repro.runtime.RlhfSystem` (read off its live groups)."""
    # imported here: the checkers stay importable without the worker stack
    from repro.workers import WORKER_CLASSES, RewardFunctionWorker

    if hasattr(placement, "groups"):
        return {
            role: RoleBinding(
                role,
                group.worker_cls,
                group.resource_pool.name,
                group.train_topology.config,
                group.gen_topology.config if group.gen_topology else None,
                any(getattr(w, "use_serving", False) for w in group.workers),
            )
            for role, group in placement.groups.items()
        }
    classes = dict(WORKER_CLASSES)
    classes.update(dict.fromkeys(function_rewards, RewardFunctionWorker))
    return {
        role: RoleBinding(
            role,
            classes[role],
            assignment.pool,
            assignment.parallel,
            assignment.gen_parallel,
            use_serving and role == "actor",
        )
        for role, assignment in placement.assignments.items()
        if role in classes
    }


class DataflowChecker:
    """Pre-execution validation of a built system or a placement plan.

    Args:
        model_specs: Role -> :class:`~repro.config.ModelSpec` for the memory
            projection (``DF104``); roles without a spec (tiny functional
            models, function rewards) skip the memory check.
        workload: Sequence shape for activation/KV estimates; defaults to
            :class:`~repro.config.RlhfWorkload` defaults.
        cluster_spec: Device capacity for ``DF104``.
    """

    def __init__(
        self,
        model_specs: Optional[Dict[str, ModelSpec]] = None,
        workload: Optional[RlhfWorkload] = None,
        cluster_spec: Optional[ClusterSpec] = None,
    ) -> None:
        self.model_specs = model_specs or {}
        self.workload = workload or RlhfWorkload()
        self.cluster_spec = cluster_spec

    # -- entry points ----------------------------------------------------------------

    def check_system(self, system: Any) -> AnalysisReport:
        """Validate a built :class:`~repro.runtime.RlhfSystem` pre-dispatch."""
        report = AnalysisReport("dataflow")
        self._check_shapes(list(bind_roles(system).values()), report)
        for role, group in system.groups.items():
            for worker in group.workers:
                if getattr(worker, "use_serving", False):
                    self._check_serving(role, worker, report)
                    break  # one finding per role, not per rank
        return report

    def check_plan(
        self,
        algo: Any,
        plan: Any,
        function_rewards: Sequence[str] = (),
        group_size: Optional[int] = None,
    ) -> AnalysisReport:
        """Validate an algorithm + placement plan *before* building workers.

        Covers every shipped dataflow variant (PPO, ReMax, GRPO, Safe-RLHF,
        Figure 1): role requirements differ per algorithm, and a trainer that
        samples groups (``min_group_size > 1``: GRPO) carries the extra
        group-sampling constraint.

        Args:
            function_rewards: Roles served by a non-NN
                :class:`~repro.workers.RewardFunctionWorker` (the builder's
                ``reward_fn`` / ``cost_fn`` path), which registers
                ``one_to_one`` methods instead of ``3d_proto``.
            group_size: GRPO responses sampled per prompt
                (``TrainerConfig.group_size``).  ``None`` inherits the
                trainer's default.
        """
        # imported here: the checker stays importable without the rlhf stack
        from repro.rlhf.graph import dataflow_of
        from repro.rlhf.trainers import TrainerConfig, trainer_class

        report = AnalysisReport("dataflow")
        graph = dataflow_of(algo)
        needed = graph.roles
        missing = [m for m in needed if m not in plan.assignments]
        if missing:
            report.add(
                "DF105",
                ERROR,
                f"{graph.name} needs assignments for {missing}",
                location="plan",
                hint="add the missing roles to PlacementPlan.assignments",
            )
        if (
            "actor" in plan.assignments
            and plan.assignments["actor"].gen_parallel is None
        ):
            report.add(
                "DF105",
                ERROR,
                "the actor assignment has no gen_parallel config",
                location="plan.actor",
                hint="derive one with GenParallelConfig.derive(parallel, ...)",
            )
        roles = bind_roles(plan, function_rewards)
        for role in sorted(plan.assignments):
            report.note_checked("roles")
            if role in roles and role not in needed:
                report.add(
                    "DF106",
                    WARNING,
                    f"plan assigns {role!r}, but the {graph.name} dataflow "
                    "never calls it — the pool's GPUs sit idle",
                    location=f"plan.{role}",
                    hint=f"{graph.name} uses {sorted(needed)}; drop the "
                    "assignment or switch algorithms",
                )
        trainer = trainer_class(algo)
        if trainer.min_group_size > 1:
            if group_size is None:
                group_size = TrainerConfig().group_size
            report.note_checked("grpo_group_size")
            problem = trainer.group_size_problem(group_size)
            if problem is not None:
                message, hint = problem
                report.add("DF107", ERROR, message, location="plan", hint=hint)
        self._check_shapes(list(roles.values()), report)
        return report

    def check_pipeline(
        self,
        pipeline_config: Any,
        trainer_config: Any = None,
        algo: Any = None,
        actor: Any = None,
    ) -> AnalysisReport:
        """Validate an async-pipeline configuration *before* any overlap.

        The bounded-staleness loop (:mod:`repro.pipeline`) is sound only
        under specific conditions; each violation is a ``DF108`` finding.
        The config's own values (window, ``iw_clip``) are checked when it
        is built; these are the rules that read more than the config.
        ``staleness_window=0`` is the synchronous loop; a positive window
        additionally rejects:

        * a trainer whose loss is not ``off_policy_correctable``;
        * ``recompute_log_probs=False`` (warning) — the anchor collapses
          onto the behaviour policy and every importance weight is 1;
        * a serving-backed ``actor`` (``use_serving=True``) — the
          continuous-batching engine owns its own weight lifetime and
          cannot participate in the pipeline's flip-buffer protocol.

        At any window: an ``actor`` group without a generation topology
        (the :class:`~repro.hybrid_engine.publication.WeightPublisher` has
        no plan to stage weights into).
        """
        report = AnalysisReport("dataflow")
        report.note_checked("pipeline_configs")
        window = pipeline_config.staleness_window
        location = "pipeline"
        if window > 0 and algo is not None:
            from repro.rlhf.trainers import trainer_class

            trainer = trainer_class(algo)
            if not trainer.off_policy_correctable:
                report.add(
                    "DF108",
                    ERROR,
                    f"{trainer.algo.value} has no off-policy correction "
                    "path: its loss takes no importance weights",
                    location=location,
                    hint="run it with staleness_window=0 (synchronous)",
                )
        if (
            window > 0
            and trainer_config is not None
            and not trainer_config.recompute_log_probs
        ):
            report.add(
                "DF108",
                WARNING,
                "recompute_log_probs=False with a positive staleness window: "
                "the importance-weight anchor equals the behaviour policy, "
                "so every weight degenerates to 1 and stale batches are "
                "effectively uncorrected",
                location=location,
                hint="enable TrainerConfig.recompute_log_probs for async runs",
            )
        if actor is not None:
            if getattr(actor, "gen_topology", None) is None:
                report.add(
                    "DF108",
                    ERROR,
                    "actor group has no generation topology: the weight "
                    "publisher has no plan to stage published weights into",
                    location=location,
                    hint="build the actor with a generation parallel config "
                    "(gen_parallel=...) before wiring the async pipeline",
                )
            elif window > 0 and any(
                getattr(worker, "use_serving", False)
                for worker in getattr(actor, "workers", ())
            ):
                report.add(
                    "DF108",
                    ERROR,
                    "actor generation is serving-backed (use_serving=True): "
                    "the continuous-batching engine owns its weight "
                    "lifetime and cannot follow the pipeline's "
                    "publish/flip protocol",
                    location=location,
                    hint="disable use_serving for async-pipeline runs, or "
                    "drive the serving engine synchronously",
                )
        return report

    # -- individual passes -----------------------------------------------------------

    def _check_shapes(
        self, shapes: List[RoleBinding], report: AnalysisReport
    ) -> None:
        for shape in shapes:
            self._check_protocols(shape, report)
        self._check_memory(shapes, report)

    def _check_protocols(
        self, shape: RoleBinding, report: AnalysisReport
    ) -> None:
        # aggregate identical problems across a role's methods into one
        # finding each, so a 4-method worker yields one precise diagnosis
        by_problem: Dict[Tuple[str, str, str, str], List[str]] = {}
        for method, protocol_name in registered_methods(shape.worker_cls):
            protocol = get_protocol(protocol_name)
            report.note_checked("methods")
            for kind, severity, message in protocol.validate_shape(
                shape.parallel.world_size,
                shape.parallel,
                shape.gen_config is not None,
            ):
                key = (protocol_name, kind, severity, message)
                by_problem.setdefault(key, []).append(method)
        for (protocol_name, _kind, severity, message), methods in sorted(
            by_problem.items()
        ):
            report.add(
                "DF101",
                severity,
                f"{protocol_name} {message} "
                f"[{shape.role}: {', '.join(methods)}]",
                location=f"{shape.role}@{shape.pool} {shape.parallel}",
                hint=(
                    "pick a protocol matching the topology or reshape the "
                    "group (Table 3)"
                ),
            )

    def _check_serving(
        self, role: str, worker: Any, report: AnalysisReport
    ) -> None:
        report.note_checked("serving_configs")
        location = f"{role}.serving"
        vocab = getattr(
            getattr(worker, "model_config", None), "vocab_size", None
        )
        eos = getattr(worker, "eos_token_id", None)
        if eos is not None and vocab is not None and not 0 <= eos < vocab:
            report.add(
                "DF103",
                ERROR,
                f"eos_token_id {eos} outside the model vocabulary "
                f"[0, {vocab})",
                location=location,
                hint="the sampler can never emit it; sequences never stop",
            )
        cfg = getattr(worker, "serving_config", None)
        if cfg is None:
            return
        if cfg.n_blocks is not None and cfg.n_blocks < cfg.max_slots:
            report.add(
                "DF103",
                WARNING,
                f"only {cfg.n_blocks} KV blocks for {cfg.max_slots} slots; "
                "the engine will thrash on preempt-and-recompute",
                location=location,
                hint="give each admissible slot at least one block",
            )
        pad = cfg.pad_token_id
        if pad is not None and vocab is not None and not 0 <= pad < vocab:
            report.add(
                "DF103",
                ERROR,
                f"pad_token_id {pad} outside the model vocabulary [0, {vocab})",
                location=location,
                hint="padding must be a real token id",
            )
        if cfg.eos_token_id is not None and cfg.eos_token_id != eos:
            report.add(
                "DF103",
                WARNING,
                f"serving_config.eos_token_id={cfg.eos_token_id} differs from "
                f"the worker's eos_token_id={eos}; the worker's value wins "
                "per call",
                location=location,
                hint="drop the serving-config field or make them agree",
            )

    def _check_memory(
        self, shapes: List[RoleBinding], report: AnalysisReport
    ) -> None:
        """Projected per-GPU persistent memory per pool vs capacity (App. C)."""
        if self.cluster_spec is None or not self.model_specs:
            return
        from repro.perf.memory import USABLE_FRACTION, MemoryModel

        usable = self.cluster_spec.gpu.memory_bytes * USABLE_FRACTION

        by_pool: Dict[str, List[Tuple[str, float, float]]] = {}
        for shape in shapes:
            spec = self.model_specs.get(shape.role)
            if spec is None:
                continue
            model = MemoryModel(spec, self.cluster_spec)
            trainable = getattr(
                shape.worker_cls, "trainable", _TRAINABLE_DEFAULT
            )
            if trainable:
                stage = model.training(shape.parallel, self.workload)
            else:
                stage = model.inference(shape.parallel, self.workload)
            by_pool.setdefault(shape.pool, []).append(
                (shape.role, stage.persistent, stage.total - stage.persistent)
            )
        for pool, entries in sorted(by_pool.items()):
            report.note_checked("pools_projected")
            persistent = sum(p for _, p, _ in entries)
            # colocated models execute sequentially (§2.3): transient memory
            # peaks one model at a time, so the max rides on top
            transient = max(t for _, _, t in entries)
            projected = persistent + transient
            if projected > usable:
                roles = ", ".join(
                    f"{role} {p / 1e9:.1f}GB" for role, p, _ in entries
                )
                report.add(
                    "DF104",
                    ERROR,
                    f"pool {pool!r} projects {projected / 1e9:.1f} GB/GPU "
                    f"(persistent {roles} + transient "
                    f"{transient / 1e9:.1f}GB) but only "
                    f"{usable / 1e9:.1f} GB is usable",
                    location=f"pool {pool}",
                    hint=(
                        "raise the model-parallel degree, split the "
                        "colocation, or use bigger devices (§6)"
                    ),
                )
