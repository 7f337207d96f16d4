"""HybridFlow reproduction: a flexible and efficient RLHF framework.

A pure-Python rebuild of *HybridFlow* (EuroSys 2025, open-sourced as verl)
on a simulated GPU cluster.  The public surface mirrors the paper's
workflow (§3): describe models and a placement, let the single controller
spawn parallel worker groups, and drive an RLHF algorithm as a
single-process script — or ask the auto-mapping algorithm (§6) to choose
the placement and parallelism for you.

Typical entry points:

>>> from repro import build_rlhf_system, PlacementPlan, AlgoType
>>> from repro import map_dataflow, MODEL_SPECS, ClusterSpec, RlhfWorkload

See README.md for a full tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro.config import (
    MODEL_SPECS,
    ClusterSpec,
    GenParallelConfig,
    GpuSpec,
    ModelSpec,
    ParallelConfig,
    RlhfWorkload,
)
from repro.data import DataBatch, PromptDataset, SyntheticPreferenceTask
from repro.mapping import map_dataflow
from repro.models import TinyLM, TinyLMConfig
from repro.observability import MetricsRegistry, SpanTracer, chrome_trace
from repro.rlhf import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import (
    ModelAssignment,
    PlacementPlan,
    RlhfSystem,
    build_rlhf_system,
    build_timeline,
)
from repro.single_controller import ResourcePool, SingleController, WorkerGroup

__version__ = "1.0.0"

__all__ = [
    "AlgoType",
    "ClusterSpec",
    "DataBatch",
    "GenParallelConfig",
    "GpuSpec",
    "MODEL_SPECS",
    "MetricsRegistry",
    "ModelAssignment",
    "ModelSpec",
    "ParallelConfig",
    "PlacementPlan",
    "PromptDataset",
    "ResourcePool",
    "RlhfSystem",
    "RlhfWorkload",
    "SingleController",
    "SpanTracer",
    "SyntheticPreferenceTask",
    "TinyLM",
    "TinyLMConfig",
    "TrainerConfig",
    "WorkerGroup",
    "build_rlhf_system",
    "build_timeline",
    "chrome_trace",
    "map_dataflow",
    "__version__",
]
