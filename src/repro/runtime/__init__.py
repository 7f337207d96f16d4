"""Runtime glue: placement plans and end-to-end RLHF system construction."""

from repro.runtime.placement import ModelAssignment, PlacementPlan
from repro.runtime.builder import (
    TINY_LM,
    RlhfSystem,
    SystemSpec,
    build_rlhf_system,
    shipped_placements,
)
from repro.runtime.timeline import (
    Timeline,
    TimelineEvent,
    build_timeline,
)
from repro.runtime.report import (
    observability_summary,
    recovery_summary,
    system_report,
    system_report_dict,
)
from repro.runtime.recovery import (
    JobRun,
    RecoveryCostModel,
    RecoveryEvent,
    RecoveryReport,
    restore_system,
    train_with_recovery,
)

__all__ = [
    "JobRun",
    "ModelAssignment",
    "PlacementPlan",
    "RecoveryCostModel",
    "RecoveryEvent",
    "RecoveryReport",
    "RlhfSystem",
    "SystemSpec",
    "TINY_LM",
    "Timeline",
    "TimelineEvent",
    "build_rlhf_system",
    "build_timeline",
    "observability_summary",
    "recovery_summary",
    "restore_system",
    "shipped_placements",
    "system_report",
    "system_report_dict",
    "train_with_recovery",
]
