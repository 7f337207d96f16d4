"""Repo-specific lint: ``ast`` rules encoding invariants learned the hard way.

Every rule guards a reproducibility or reporting invariant this codebase
depends on:

========  ====================================================================
``RL301``  no unseeded ``np.random.*`` / ``random.*`` global-state calls —
           every stochastic path takes an explicit seeded ``Generator``
``RL302``  no wall-clock reads (``time.time()``, ``datetime.now()``...) in
           simulation code: all timing comes from the simulated clock
``RL303``  no ``==`` / ``!=`` against float literals — model and perf
           outputs compare with tolerances
``RL304``  ``json.dump(s)`` only in modules that import
           ``repro.serialization`` — reports route through ``json_safe``
``RL305``  no module-level state mutation (``global`` statements; worker
           methods mutating module-level containers)
``RL306``  no unused ``# repro-lint: ignore[...]`` comments — a suppression
           that silences nothing is a stale waiver (ruff's unused-noqa)
``RL307``  no direct iteration over ``set`` / ``frozenset`` / ``dict
           .values()`` in the protocol-feeding packages (``repro/pipeline``,
           ``repro/fleet``, ``repro/single_controller``) — hash/insertion
           order there is schedule order, and the MC6xx-verified protocols
           assume deterministic dispatch; iterate something sorted
``RL308``  no ``np.asarray`` / ``np.zeros`` / ``np.empty`` without an
           explicit ``dtype=`` in the numeric hot paths (``repro/models``,
           ``repro/serving``, the ``repro/rlhf`` loss/advantage core) —
           numpy's float64 default silently promotes int token buffers and
           hides int/float drift (the SF704 float64-creep companion)
``RL309``  no ``is None`` / ``is not None`` test on a name or attribute
           called ``tracer`` or ``metrics`` under ``src/repro`` outside
           ``repro/observability`` — an unobserved component holds
           ``NULL_TRACER`` / ``NULL_METRICS``, so every instrumented call
           site is written once
``RL310``  no dict literal keyed by two or more ``AlgoType`` members outside
           ``repro/rlhf`` (tests keep their reference pins) — an algorithm
           is written once, in its trainer; every other layer reads roles,
           stages, call counts and columns off ``dataflow_of(algo)``
========  ====================================================================

Suppression: append ``# repro-lint: ignore`` (all rules) or
``# repro-lint: ignore[RL301,RL305]`` to the flagged line.  ``conftest.py``
files are exempt from ``RL301`` — fixtures may own their seeding policy.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.report import ERROR, WARNING, AnalysisReport

ALL_RULES = (
    "RL301", "RL302", "RL303", "RL304", "RL305", "RL306", "RL307", "RL308",
    "RL309", "RL310",
)

#: Packages whose dispatch order feeds the concurrent protocols; iteration
#: order there must be deterministic (RL307).
_SCHEDULE_SCOPED = ("repro/pipeline", "repro/fleet", "repro/single_controller")

#: Numeric hot paths where an implicit array dtype is float64 creep waiting
#: to happen (RL308): model math, the serving engine, the RLHF loss core.
_HOTPATH_SCOPED = (
    "repro/models",
    "repro/serving",
    "repro/rlhf/losses",
    "repro/rlhf/advantage",
    "repro/rlhf/core",
)

#: numpy constructors whose dtype defaults promote silently (RL308).
_DTYPE_DEFAULTING = {"asarray", "zeros", "empty"}

#: Legacy numpy global-state RNG entry points (anything except the
#: ``default_rng`` / ``Generator`` family).
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64"}
_STDLIB_RANDOM_OK = {"Random", "SystemRandom"}
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
}
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


class _Suppressions:
    """Per-line rule suppressions parsed from source comments."""

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, Optional[Set[str]]] = {}
        #: Lines whose suppression actually silenced a finding (RL306).
        self._used: Set[int] = set()
        # real COMMENT tokens only — the marker spelled inside a string
        # literal (docs, hints) is not a suppression
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            comments = list(enumerate(source.splitlines(), start=1))
        for lineno, text in comments:
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = match.group(1)
            self._by_line[lineno] = (
                {r.strip() for r in rules.split(",")} if rules else None
            )

    def suppressed(self, lineno: int, rule: str) -> bool:
        if lineno not in self._by_line:
            return False
        rules = self._by_line[lineno]
        if rules is None or rule in rules:
            self._used.add(lineno)
            return True
        return False

    def unused(self, active_rules: Set[str]) -> List[tuple]:
        """``(lineno, rules)`` of suppressions that silenced nothing.

        Only suppressions whose every listed rule was actually checked this
        run can be called unused — a partial-rule lint cannot tell whether
        ``ignore[RL302]`` would have fired under the full rule set.  Bare
        ``ignore`` comments need the whole catalog active for the same
        reason.
        """
        checkable = set(ALL_RULES) - {"RL306"}
        out = []
        for lineno, rules in sorted(self._by_line.items()):
            if lineno in self._used:
                continue
            required = checkable if rules is None else set(rules) & checkable
            if not required <= active_rules:
                continue
            out.append((lineno, rules))
        return out


class _LintVisitor(ast.NodeVisitor):
    def __init__(
        self,
        filename: str,
        report: AnalysisReport,
        rules: Set[str],
        suppressions: _Suppressions,
        is_conftest: bool,
    ) -> None:
        self.filename = filename
        self.report = report
        self.rules = rules
        self.suppressions = suppressions
        self.is_conftest = is_conftest
        #: import alias -> canonical module name ("np" -> "numpy")
        self.modules: Dict[str, str] = {}
        #: names bound by ``from X import Y`` -> "X.Y"
        self.from_imports: Dict[str, str] = {}
        self.imports_serialization = False
        self.module_level_names: Set[str] = set()
        self._class_stack: List[str] = []
        posix = filename.replace("\\", "/")
        self.schedule_scoped = any(p in posix for p in _SCHEDULE_SCOPED)
        self.hotpath_scoped = any(p in posix for p in _HOTPATH_SCOPED)
        self.null_object_scoped = (
            "src/repro/" in posix and "repro/observability" not in posix
        )
        self.algo_table_scoped = (
            "repro/rlhf/" not in posix and "tests/" not in posix
        )

    # -- helpers ---------------------------------------------------------------------

    def _flag(
        self, rule: str, severity: str, node: ast.AST, message: str, hint: str
    ) -> None:
        lineno = getattr(node, "lineno", 0)
        if rule not in self.rules:
            return
        if self.suppressions.suppressed(lineno, rule):
            self.report.note_checked("suppressed")
            return
        self.report.add(
            rule, severity, message,
            location=f"{self.filename}:{lineno}", hint=hint,
        )

    def _dotted(self, node: ast.AST) -> Optional[List[str]]:
        """``np.random.seed`` -> ["numpy", "random", "seed"] (alias-resolved)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.modules:
            parts.append(self.modules[root])
        elif root in self.from_imports:
            parts.extend(reversed(self.from_imports[root].split(".")))
        else:
            parts.append(root)
        return list(reversed(parts))

    def _in_worker_class(self) -> bool:
        return any(name.endswith("Worker") for name in self._class_stack)

    # -- imports ---------------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name
            if alias.name.startswith("repro.serialization"):
                self.imports_serialization = True
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            if node.module.startswith("repro.serialization"):
                self.imports_serialization = True
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- rules -----------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted:
            self._check_rng(node, dotted)
            self._check_wall_clock(node, dotted)
            self._check_json(node, dotted)
            self._check_dtype(node, dotted)
        self._check_module_mutation_call(node)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, dotted: List[str]) -> None:
        if self.is_conftest:
            return
        if (
            len(dotted) >= 3
            and dotted[0] == "numpy"
            and dotted[1] == "random"
            and dotted[2] not in _NP_RANDOM_OK
        ):
            self._flag(
                "RL301", ERROR, node,
                f"global-state RNG call {'.'.join(dotted)}(); "
                "outputs depend on hidden interpreter state",
                hint="thread an explicit np.random.default_rng(seed) through",
            )
        if (
            len(dotted) == 2
            and dotted[0] == "random"
            and self.modules.get("random") == "random"
            and dotted[1] not in _STDLIB_RANDOM_OK
        ):
            self._flag(
                "RL301", ERROR, node,
                f"global-state RNG call random.{dotted[1]}()",
                hint="use a seeded random.Random(seed) instance",
            )

    def _check_wall_clock(self, node: ast.Call, dotted: List[str]) -> None:
        tail = tuple(dotted[-2:])
        if tail in _WALL_CLOCK and dotted[0] in ("time", "datetime"):
            self._flag(
                "RL302", ERROR, node,
                f"wall-clock read {'.'.join(dotted)}() in simulation code",
                hint=(
                    "simulated runs must be time-deterministic; read the "
                    "controller's SimClock instead"
                ),
            )

    def _check_json(self, node: ast.Call, dotted: List[str]) -> None:
        if self.imports_serialization:
            return
        if len(dotted) == 2 and dotted[0] == "json" and dotted[1] in (
            "dump", "dumps",
        ):
            self._flag(
                "RL304", ERROR, node,
                f"json.{dotted[1]}() in a module that never imports "
                "repro.serialization",
                hint=(
                    "route reports through json_safe (or an exporter that "
                    "does) so numpy scalars cannot leak into output"
                ),
            )

    def _check_dtype(self, node: ast.Call, dotted: List[str]) -> None:
        """Hot-path array constructors must pin their dtype (RL308)."""
        if not self.hotpath_scoped:
            return
        if (
            len(dotted) != 2
            or dotted[0] != "numpy"
            or dotted[1] not in _DTYPE_DEFAULTING
        ):
            return
        # dtype may also be passed as the second positional argument
        if len(node.args) >= 2:
            return
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        self._flag(
            "RL308", WARNING, node,
            f"np.{dotted[1]}() without an explicit dtype= on a numeric "
            "hot path",
            hint=(
                "pin dtype= at the array's birthplace (np.float64 for "
                "math, np.int64 for token ids) — numpy's defaults promote "
                "to float64 and hide int/float drift (SF704)"
            ),
        )

    def _check_optional_observability(self, node: ast.Compare) -> None:
        """No ``tracer is None`` / ``metrics is not None`` branches (RL309)."""
        operands = [node.left, *node.comparators]
        names = {getattr(o, "id", None) or getattr(o, "attr", None) for o in operands}
        if (
            self.null_object_scoped
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(o, ast.Constant) and o.value is None for o in operands)
            and names & {"tracer", "metrics"}
        ):
            self._flag(
                "RL309", ERROR, node,
                "optional-observability branch: a tracer/metrics is tested "
                "against None",
                hint=(
                    "default to NULL_TRACER / NULL_METRICS (or read "
                    "group.tracer / group.metrics) and emit unconditionally"
                ),
            )

    def visit_Dict(self, node: ast.Dict) -> None:
        """No per-algorithm table outside ``repro/rlhf`` (RL310)."""
        members = [
            key for key in node.keys
            if (self._dotted(key) or [])[-2:-1] == ["AlgoType"]
        ]
        if self.algo_table_scoped and len(members) >= 2:
            self._flag(
                "RL310", ERROR, node,
                "a dict keyed by AlgoType members restates the algorithms' "
                "dataflow",
                hint=(
                    "read it off repro.rlhf.graph.dataflow_of(algo) — a new "
                    "algorithm must need no edit outside its trainer"
                ),
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._check_optional_observability(node)
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            for operand in operands:
                if (
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                ):
                    self._flag(
                        "RL303", WARNING, node,
                        f"exact equality against float literal "
                        f"{operand.value!r}",
                        hint="compare with math.isclose / np.allclose",
                    )
                    break
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._flag(
            "RL305", ERROR, node,
            f"mutates module-level state via 'global {', '.join(node.names)}'",
            hint="pass state explicitly or hold it on an object",
        )
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _check_module_mutation_call(self, node: ast.Call) -> None:
        """Worker methods mutating a module-level container (RL305)."""
        if not self._in_worker_class():
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.module_level_names
        ):
            self._flag(
                "RL305", ERROR, node,
                f"worker method mutates module-level {func.value.id!r} "
                f"via .{func.attr}()",
                hint=(
                    "workers are re-built on recovery; state they share "
                    "through the module survives and corrupts the rebuild"
                ),
            )

    def _unordered_iterable(self, node: ast.AST) -> Optional[str]:
        """What makes ``node`` a nondeterministically ordered iterable."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
            ):
                return f"{node.func.id}(...)"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "values"
                and not node.args
                and not node.keywords
            ):
                return "a dict .values() view"
        return None

    def _check_unordered_iteration(self, node: ast.AST, iter_node: ast.AST
                                   ) -> None:
        if not self.schedule_scoped:
            return
        what = self._unordered_iterable(iter_node)
        if what is None:
            return
        self._flag(
            "RL307", WARNING, node,
            f"iteration over {what}: hash/insertion order here is "
            "schedule order feeding the concurrent protocols",
            hint=(
                "iterate a sorted() or otherwise deterministically "
                "ordered sequence so dispatch order cannot drift between "
                "runs"
            ),
        )

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iteration(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_unordered_iteration(node.iter, node.iter)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._in_worker_class():
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in self.module_level_names
                ):
                    self._flag(
                        "RL305", ERROR, node,
                        f"worker method writes into module-level "
                        f"{target.value.id!r}",
                        hint="hold per-worker state on the worker instance",
                    )
        self.generic_visit(node)


class RepoLint:
    """AST lint over a set of files or directories."""

    def __init__(self, rules: Iterable[str] = ALL_RULES) -> None:
        self.rules = set(rules)
        unknown = self.rules - set(ALL_RULES)
        if unknown:
            raise ValueError(f"unknown lint rules: {sorted(unknown)}")

    def lint_paths(self, paths: Iterable[str]) -> AnalysisReport:
        report = AnalysisReport("repolint")
        for path in paths:
            root = pathlib.Path(path)
            files = (
                sorted(root.rglob("*.py")) if root.is_dir() else [root]
            )
            for file in files:
                if "__pycache__" in file.parts:
                    continue
                self.lint_source(
                    file.read_text(), str(file), report
                )
        return report

    def lint_source(
        self, source: str, filename: str, report: AnalysisReport
    ) -> AnalysisReport:
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            report.add(
                "RL300", ERROR, f"syntax error: {exc.msg}",
                location=f"{filename}:{exc.lineno or 0}",
                hint="fix the parse error first",
            )
            return report
        report.note_checked("files")
        suppressions = _Suppressions(source)
        visitor = _LintVisitor(
            filename=filename,
            report=report,
            rules=self.rules,
            suppressions=suppressions,
            is_conftest=pathlib.Path(filename).name == "conftest.py",
        )
        # collect module-level names first so method bodies can be checked
        # against them regardless of definition order
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        visitor.module_level_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                visitor.module_level_names.add(node.target.id)
        visitor.visit(tree)
        if "RL306" in self.rules:
            for lineno, rules in suppressions.unused(self.rules):
                what = (
                    "all rules" if rules is None else ", ".join(sorted(rules))
                )
                report.add(
                    "RL306", WARNING,
                    f"unused repro-lint suppression ({what}): nothing on "
                    "this line triggers the suppressed rule(s)",
                    location=f"{filename}:{lineno}",
                    hint="delete the stale '# repro-lint: ignore' comment",
                )
        return report
