"""Harnesses: the shipped concurrent components, driven one move at a time.

The RC5xx race detector audits the one schedule that happened to run; the
MC6xx model checker (:mod:`repro.analysis.modelcheck`) explores *every*
small-scope schedule instead.  What it explores is the real component —
the pipeline's trainer loop, experience buffer and weight publisher, the
rollout server, the fleet scheduler — built at a small configuration with
stand-ins where the numerics would be (a :class:`Harness` subclass per
component).  A harness state is a fingerprint of those objects plus the
objects themselves, and an action is one move the component's own code
allows from there; nothing about the component is restated.

Each :class:`Action` carries the footprint its real call left:

* ``reads`` / ``writes`` — *data* resources, from the access log, device
  ledgers and results the call wrote.
* ``ctrl_reads`` / ``ctrl_writes`` — *control* state: the fingerprint
  components the call changed, and those its guard reads.
* ``syncs`` / ``releases`` — the happens-before edges the call observed (a
  read of what another thread wrote, a device handed from one gang to the
  next).

The checker's partial-order reduction commutes two actions only when these
footprints are disjoint.  A counterexample is a schedule of action names;
:meth:`Harness.run_schedule` re-runs it on fresh real objects.

Actions are computed when a state is first expanded: each candidate runs on
a copy of the objects, so its footprint, its violations and the state it
leads to are what the real call did.  The copies live only while the
search may still move from them (the current DFS path); any other state is
rebuilt by replaying its schedule prefix from a fresh build — stateless
search, as CHESS does.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import pickle
from typing import Any, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.analysis.mutants import Mutant

Violations = Tuple[Tuple[str, str], ...]


class Action(NamedTuple):
    """One enabled transition of a harness, with its real call's footprint."""

    name: str
    thread: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    ctrl_reads: Tuple[str, ...] = ()
    ctrl_writes: Tuple[str, ...] = ()
    syncs: Tuple[str, ...] = ()
    releases: Tuple[str, ...] = ()


def independent(a: Action, b: Action) -> bool:
    """Conservative Mazurkiewicz independence: may the checker commute them?

    Same-thread actions are program-ordered, never independent.  Otherwise
    the *full* footprints (data + control + sync tokens) must be disjoint —
    any overlap could change the other action's guard, effect, or
    ordering, so the pair must be explored in both orders.
    """
    if a.thread == b.thread:
        return False
    a_writes = set(a.writes) | set(a.ctrl_writes)
    b_writes = set(b.writes) | set(b.ctrl_writes)
    a_touch = a_writes | set(a.reads) | set(a.ctrl_reads)
    b_touch = b_writes | set(b.reads) | set(b.ctrl_reads)
    if (a_writes & b_touch) or (b_writes & a_touch):
        return False
    if set(a.releases) & set(b.syncs) or set(b.releases) & set(a.syncs):
        return False
    return True


@dataclasses.dataclass
class Step:
    """What one real call did, as its harness observed it: the footprint
    fields of :class:`Action` but ``ctrl_writes`` (the fingerprint
    components that changed), and the invariants it broke."""

    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    ctrl_reads: Tuple[str, ...] = ()
    syncs: Tuple[str, ...] = ()
    releases: Tuple[str, ...] = ()
    viol: Violations = ()


def _shared(index: int) -> Any:
    """The object at ``index`` of a copy's shared list: a name the pickle
    refers to, which :class:`_SharingUnpickler` resolves per copy."""
    raise LookupError(f"shared object {index} outside a harness copy")


class _SharingPickler(pickle.Pickler):
    """Pickles a reference, not a copy, of each object in ``ids`` (consulted
    for class instances only: builtin containers and atoms never are)."""

    def __init__(self, file: io.BytesIO, ids: Dict[int, int]) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.ids = ids

    def reducer_override(self, obj: Any) -> Any:
        index = self.ids.get(id(obj))
        return NotImplemented if index is None else (_shared, (index,))


class _SharingUnpickler(pickle.Unpickler):
    def __init__(self, data: bytes, shared: List[Any]) -> None:
        super().__init__(io.BytesIO(data))
        self.shared = shared

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) == (__name__, "_shared"):
            return self.shared.__getitem__
        return super().find_class(module, name)


class _Node:
    """A harness state: its fingerprint (and violations) is its identity;
    while the search may move from it, it also holds the real objects and
    the children its candidates led to."""

    __slots__ = ("key", "path", "viol", "terminal", "final", "world", "children")

    def __init__(self, key, path, viol, terminal, final, world) -> None:
        self.key = key
        self.path = path
        self.viol = viol
        self.terminal = terminal
        self.final = final
        self.world = world
        self.children: Dict[str, Tuple[Any, Violations, Dict[str, Hashable]]] = {}

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Node) and self.key == other.key

    def release(self) -> None:
        self.world = None
        self.children = {}


class Harness:
    """A real component at small scope, explored by the model checker.

    A subclass builds the component (:meth:`build`), names the moves its
    own code allows (:meth:`candidates`), makes one (:meth:`perform`) and
    fingerprints the objects (:meth:`fingerprint`).  ``mutant`` replaces
    one real function for the whole exploration.  States are
    :class:`_Node` values; ``apply`` never mutates the objects of the state
    it starts from.
    """

    #: Short stable name; counterexample locations are ``model:<name>``.
    name = "harness"

    def __init__(self, mutant: Optional[Mutant] = None) -> None:
        self.mutant = mutant
        self._enabled: Dict[Hashable, List[Action]] = {}
        self._path: List[_Node] = []

    def _named(self, spec: str) -> str:
        suffix = f"!{self.mutant.name}" if self.mutant else ""
        return f"{spec}{suffix}"

    def intact(self) -> "Harness":
        """This harness with its mutant taken out: the shipped component."""
        twin = copy.copy(self)
        Harness.__init__(twin)
        twin.name = self.name.split("!")[0]
        return twin

    # -- what a component harness provides ---------------------------------------------

    def build(self) -> Any:
        """Fresh real objects at the harness's configuration."""
        raise NotImplementedError

    def shared(self, world: Any) -> Iterable[Any]:
        """Objects a copy of ``world`` may share: immutable, or never read."""
        return ()

    def candidates(self, world: Any) -> List[Tuple[str, str]]:
        """``(action, thread)`` pairs the component's own guards allow."""
        raise NotImplementedError

    def perform(self, world: Any, action: str) -> Optional[Step]:
        """Make ``action`` on ``world``; ``None`` when the call made no move."""
        raise NotImplementedError

    def fingerprint(self, world: Any) -> Dict[str, Hashable]:
        """The state that decides what the component does next, by component."""
        raise NotImplementedError

    def terminal(self, world: Any) -> bool:
        """True when the component has run to a legitimate quiescent end."""
        raise NotImplementedError

    def leftovers(self, world: Any) -> Violations:
        """Violations only a finished run exhibits (lost work, leaks)."""
        return ()

    # -- the interface the checker explores --------------------------------------------

    def initial_state(self) -> _Node:
        self._path = []
        with self._patched():
            world = self.build()
        return self._node(world, (), (), self.fingerprint(world))

    def enabled(self, state: _Node) -> List[Action]:
        """All moves from ``state``, each run once on a copy of its objects
        (the last on the objects themselves: the state gives them up)."""
        actions = self._enabled.get(state.key)
        if actions is not None:
            return actions
        world = self._enter(state)
        actions = []
        with self._patched():
            candidates = self.candidates(world)
            before = self.fingerprint(world)
            for i, (name, thread) in enumerate(candidates):
                child = world if i == len(candidates) - 1 else self._copy(world)
                step = self.perform(child, name)
                if step is None:
                    continue
                after = self.fingerprint(child)
                changed = tuple(k for k in after if before.get(k) != after[k])
                actions.append(
                    Action(
                        name, thread, step.reads, step.writes, step.ctrl_reads,
                        changed, step.syncs, step.releases,
                    )
                )
                state.children[name] = (child, step.viol, after)
        if candidates:
            state.world = None
        self._enabled[state.key] = actions
        return actions

    def apply(self, state: _Node, action: Action) -> _Node:
        child = state.children.pop(action.name, None)
        if child is None:
            world = self._copy(self._enter(state))
            with self._patched():
                step = self.perform(world, action.name)
            child = (world, step.viol, self.fingerprint(world))
        world, viol, fp = child
        return self._node(world, state.path + (action.name,), viol, fp)

    def is_terminal(self, state: _Node) -> bool:
        return state.terminal

    def state_violations(self, state: _Node) -> Violations:
        return state.viol

    def final_violations(self, state: _Node) -> Violations:
        return state.final

    def run_schedule(self, schedule: List[str]) -> _Node:
        """Re-execute a schedule of action names; returns the final state.

        Raises ``ValueError`` if any step names an action the component
        does not allow at that point.
        """
        state = self.initial_state()
        for i, name in enumerate(schedule):
            action = self.action_named(state, name)
            if action is None:
                have = [a.name for a in self.enabled(state)]
                raise ValueError(
                    f"{self.name}: step {i} action {name!r} not enabled "
                    f"(enabled: {have})"
                )
            state = self.apply(state, action)
        return state

    def action_named(self, state: _Node, name: str) -> Optional[Action]:
        for action in self.enabled(state):
            if action.name == name:
                return action
        return None

    # -- snapshots -----------------------------------------------------------------------

    def _patched(self):
        return self.mutant.applied() if self.mutant else contextlib.nullcontext()

    def _copy(self, world: Any) -> Any:
        """A deep copy of ``world`` through pickle (several times faster
        than ``copy.deepcopy``) that keeps :meth:`shared` objects shared."""
        shared = list(self.shared(world))
        buf = io.BytesIO()
        _SharingPickler(buf, {id(obj): i for i, obj in enumerate(shared)}).dump(world)
        return _SharingUnpickler(buf.getvalue(), shared).load()

    def _node(
        self, world: Any, path: Tuple[str, ...], viol: Violations,
        fp: Dict[str, Hashable],
    ) -> _Node:
        terminal = self.terminal(world)
        return _Node(
            (tuple(fp.items()), viol), path, viol, terminal,
            self.leftovers(world) if terminal else (), world,
        )

    def _enter(self, state: _Node) -> Any:
        """``state``'s objects, making it the top of the search path.

        A DFS moves from the newest state on its path, so states off the
        path are done and give their objects up; a state that gave them up
        is rebuilt by replaying its schedule prefix.
        """
        path = self._path
        while path and path[-1].path != state.path[: len(path[-1].path)]:
            path.pop().release()
        if not path or path[-1] is not state:
            path.append(state)
        if state.world is None:
            with self._patched():
                state.world = self.build()
                for name in state.path:
                    self.perform(state.world, name)
        return state.world


__all__ = [
    "Action",
    "Harness",
    "Mutant",
    "Step",
    "independent",
]
