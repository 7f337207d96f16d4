"""Shared infrastructure for the figure/table reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's evaluation
(§8).  Results are printed as aligned text tables and also written under
``benchmarks/results/`` so they can be inspected after a run.

Absolute numbers come from the analytical simulators and will not match the
paper's A100 testbed; the *shapes* — who wins, by roughly what factor, where
crossovers fall — are asserted in the accompanying checks and recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Sequence

from repro.baselines import ALL_SYSTEMS
from repro.baselines.common import InfeasibleScenario
from repro.config import MODEL_SPECS, ClusterSpec, RlhfWorkload
from repro.rlhf.core import AlgoType
from repro.runtime.builder import required_models

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The end-to-end evaluation grid (model, number of machines) mirroring the
#: paper's scale sweep: "from the smallest number of GPUs to run RLHF
#: without OOM to 128 GPUs" (§8.2).
END_TO_END_GRID = [
    ("llama-7b", 1),
    ("llama-7b", 2),
    ("llama-7b", 8),
    ("llama-7b", 16),
    ("llama-13b", 2),
    ("llama-13b", 8),
    ("llama-13b", 16),
    ("llama-34b", 4),
    ("llama-34b", 16),
    ("llama-70b", 8),
    ("llama-70b", 16),
]


def workload() -> RlhfWorkload:
    """The §8.1 workload: 1024/1024 tokens, global batch 1024, 8 updates."""
    return RlhfWorkload()


def specs_for(algo: AlgoType, model_name: str) -> Dict[str, object]:
    return {m: MODEL_SPECS[model_name] for m in required_models(algo)}


def run_end_to_end_grid(algo: AlgoType) -> List[Dict[str, object]]:
    """Throughput of every system at every grid point; 'OOM' when infeasible."""
    wl = workload()
    rows = []
    for model_name, n_machines in END_TO_END_GRID:
        cluster = ClusterSpec(n_machines=n_machines)
        row: Dict[str, object] = {
            "model": model_name,
            "gpus": cluster.n_gpus,
        }
        for system, estimate_fn in ALL_SYSTEMS.items():
            try:
                est = estimate_fn(algo, specs_for(algo, model_name), cluster, wl)
                row[system] = est.throughput(wl)
            except InfeasibleScenario:
                row[system] = None
        rows.append(row)
    return rows


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    def fmt(value: object) -> str:
        if value is None:
            return "OOM"
        if isinstance(value, float):
            if value < 10:
                return f"{value:.3f}"
            return f"{value:,.1f}" if value < 100 else f"{value:,.0f}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def throughput_table(
    rows: List[Dict[str, object]], title: str
) -> str:
    headers = ["model", "gpus"] + list(ALL_SYSTEMS) + ["best speedup"]
    table_rows = []
    for row in rows:
        hf = row.get("HybridFlow")
        others = [
            row[s] for s in ALL_SYSTEMS if s != "HybridFlow" and row[s]
        ]
        speedup = (
            f"{hf / max(others):.2f}x" if hf and others else "-"
        )
        table_rows.append(
            [row["model"], row["gpus"]]
            + [row[s] for s in ALL_SYSTEMS]
            + [speedup]
        )
    return format_table(headers, table_rows, title)
