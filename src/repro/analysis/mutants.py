"""Seeded mutants: one real function replaced, one rule expected.

The MC6xx and SF7xx mutation smokes seed their witnesses one way: a
:class:`Mutant` installs a replacement for one function of the shipped code
(a component's guard, a worker method carrying a changed contract, a named
checker function) and puts the original back.  :func:`seeded_mutants` lists
every witness with the one rule it must make fire; :func:`witness_reports`
runs a witness intact and seeded.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Tuple

from repro.analysis.report import AnalysisReport


@dataclasses.dataclass(frozen=True)
class Mutant:
    """One real function, replaced while a checker runs over it.

    ``owner`` is the class or module the function lives on;
    ``replacement`` is the function with one guard dropped.  ``applied()``
    installs it and puts back whatever was there before.
    """

    owner: Any
    attribute: str
    replacement: Callable[..., Any]

    @property
    def name(self) -> str:
        return f"{self.owner.__name__}.{self.attribute}"

    @contextlib.contextmanager
    def applied(self):
        original = self.owner.__dict__[self.attribute]
        setattr(self.owner, self.attribute, self.replacement)
        try:
            yield
        finally:
            setattr(self.owner, self.attribute, original)


def seeded_mutants() -> Tuple[Tuple[Any, str], ...]:
    """``(witness, rule)`` for every MC6xx and SF7xx rule, in rule order.

    An MC witness is a harness exploring its component with one real
    function replaced (each harness module's ``mutants()``); an SF witness
    is the :class:`Mutant` the SF pass runs every shipped graph under
    (:func:`repro.analysis.shapeflow.mutants`).
    """
    from repro.analysis import shapeflow
    from repro.analysis.protocols import fleet_harness, pipeline_harness, serving_harness

    witnesses = {
        **pipeline_harness.mutants(),
        **serving_harness.mutants(),
        **fleet_harness.mutants(),
        **shapeflow.mutants(),
    }
    return tuple((witnesses[rule], rule) for rule in sorted(witnesses))


def witness_reports(witness: Any) -> Tuple[AnalysisReport, AnalysisReport]:
    """``(intact, seeded)``: the run a witness is checked on, without and
    with its mutant — a harness's exploration, or the SF pass over every
    shipped graph."""
    if isinstance(witness, Mutant):
        from repro.analysis.shapeflow import ShapeFlowChecker

        checker = ShapeFlowChecker()
        # intact first: the shipped plans read the memoised dataflow_of,
        # which must be derived from the unpatched workers
        intact = checker.check_shipped()
        with witness.applied():
            return intact, checker.check_shipped()
    from repro.analysis.modelcheck import ModelChecker

    return (
        ModelChecker().check_all([witness.intact()]),
        ModelChecker().check_all([witness]),
    )


__all__ = ["Mutant", "seeded_mutants", "witness_reports"]
