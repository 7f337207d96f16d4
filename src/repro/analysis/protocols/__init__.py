"""Harnesses that drive the shipped concurrent components for MC6xx.

The MC6xx bounded model checker (:mod:`repro.analysis.modelcheck`) explores
a harness: the real component at small scope, stand-ins in place of the
numerics.  One module per component — ``pipeline_harness``,
``serving_harness``, ``fleet_harness`` — each importing its component, so
only the checker loads them; this package exports the shared core.
"""

from repro.analysis.protocols.core import (
    Action,
    Harness,
    Mutant,
    Step,
    independent,
)

__all__ = [
    "Action",
    "Harness",
    "Mutant",
    "Step",
    "independent",
]
