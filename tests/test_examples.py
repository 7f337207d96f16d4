"""The examples that drive a shared flow are code: run them.

Each ``main()`` runs in-process with its default arguments; the example's
own ``assert``s are the checks.  The lines pinned here are the numbers a
*shared* flow produced (``SystemSpec``, ``overlap_study``,
``RolloutServer``), as printed before those flows replaced the examples'
private copies.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

PINNED = {
    "async_pipeline": [
        "  modeled makespan 48.0s",
        "  4 weight publications, 665600 bytes via the train->gen plan",
        "  modeled makespan 42.0s (speedup 1.143x over synchronous)",
        "  recovery: 1 failure(s), 0 iteration(s) of work lost",
    ],
    "fault_tolerance": [
        "  rewards: [0.062, 0.062, 0.0, 0.042, 0.042, 0.083]",
        "  resumed rewards:   [0.042, 0.042, 0.083]",
        "  recovered rewards:    [0.062, 0.062, 0.0, 0.042, 0.042, 0.083]",
    ],
    "rollout_serving": [
        "  decode steps         : 42",
        "  static wave batching : 81 steps (1.93x the engine)",
    ],
    "fleet_scheduling": [],
    "execution_timelines": [],
    "full_pipeline": [],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_example_runs_and_prints_the_pinned_numbers(name, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name])  # argparse mains: no arguments
    assert not module.main()
    printed = capsys.readouterr().out.splitlines()
    for line in PINNED[name]:
        assert line in printed
