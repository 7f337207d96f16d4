"""Static and post-hoc analysis of composed RLHF dataflows (``repro check``).

Seven passes behind one report type:

* :class:`DataflowChecker` — pre-execution: protocol/topology compatibility,
  batch divisibility, serving config, projected memory vs capacity, per-
  algorithm plan structure (PPO / ReMax / GRPO / Safe-RLHF).
* :class:`TraceAuditor` — post-execution: happens-before over spans,
  timeline overlap, memory-ledger leaks / double frees / negative balances,
  busy-accounting consistency.
* :class:`RepoLint` — AST rules over the source tree (seeded RNG only, no
  wall-clock reads, no float ``==``, json via ``json_safe``, no module-state
  mutation in workers, no stale suppressions).
* :class:`ShardingVerifier` — static proof that training shards partition
  the parameter space, the train→generation gather plan is complete and
  (under HYBRIDFLOW grouping) redundancy-free, collective group families
  partition their pools, and ZeRO/FSDP configs match the memory projection.
* :class:`RaceDetector` — vector-clock happens-before over the execution
  trace plus the shared-state access log; flags conflicting accesses with
  no ordering edge, including the nondeterministic ``merge_outputs`` hazard.
* :class:`ModelChecker` — bounded stateless model checking with sleep-set
  partial-order reduction over explicit state-machine models of the
  shipped concurrent protocols (async pipeline, drain hand-off, fleet
  gang scheduling); violations carry minimal counterexample schedules
  replayable through the RaceDetector / TraceAuditor.
* :class:`ShapeFlowChecker` — shape/dtype flow by a probe run: each
  trainer's own ``step`` once per plan, every call through its method's
  real transfer protocol over stand-in groups of the plan's geometry,
  checked against the ``@shape_contract`` specs at the call, plus the
  worker's own serving reassembly and async-pipeline staleness; a
  :class:`ShapeRecorder` cross-validates the probe against real runs.

All findings carry a rule id (``DF1xx`` / ``TA2xx`` / ``RL3xx`` / ``SH4xx``
/ ``RC5xx`` / ``MC6xx`` / ``SF7xx``), severity, location, and fix hint;
see ``docs/ANALYSIS.md`` for the catalog.
"""

from repro.analysis.dataflow import DataflowChecker, registered_methods
from repro.analysis.modelcheck import (
    MC_RULES,
    Counterexample,
    ModelChecker,
    ModelCheckResult,
    cross_validate,
    seeded_mutants,
    shipped_models,
)
from repro.analysis.races import RaceDetector
from repro.analysis.report import ERROR, WARNING, AnalysisReport, Finding
from repro.analysis.repolint import ALL_RULES, RepoLint
from repro.analysis.shapeflow import (
    MUTATIONS as SF_MUTATIONS,
    SF_RULES,
    ContractError,
    ShapeFlowChecker,
    ShapeRecorder,
    parse_contract,
    predict_system_outputs,
    shipped_graph_reports,
)
from repro.analysis.shapeflow import cross_validate as shape_cross_validate
from repro.analysis.shapeflow import seeded_mutants as shape_seeded_mutants
from repro.analysis.sharding import (
    ShardingVerifier,
    sweep_cells,
    sweep_difference_fraction,
    sweep_overlap_fraction,
    sweep_union_fraction,
)
from repro.analysis.trace_audit import (
    PERSISTENT_SUFFIXES,
    TraceAuditor,
    system_audit,
)

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "ContractError",
    "Counterexample",
    "DataflowChecker",
    "ERROR",
    "Finding",
    "MC_RULES",
    "ModelCheckResult",
    "ModelChecker",
    "PERSISTENT_SUFFIXES",
    "RaceDetector",
    "RepoLint",
    "SF_MUTATIONS",
    "SF_RULES",
    "ShapeFlowChecker",
    "ShapeRecorder",
    "ShardingVerifier",
    "TraceAuditor",
    "WARNING",
    "cross_validate",
    "parse_contract",
    "predict_system_outputs",
    "registered_methods",
    "seeded_mutants",
    "shape_cross_validate",
    "shape_seeded_mutants",
    "shipped_graph_reports",
    "shipped_models",
    "sweep_cells",
    "sweep_difference_fraction",
    "sweep_overlap_fraction",
    "sweep_union_fraction",
    "system_audit",
]
