"""Symbolic shape/dtype flow analysis over the RLHF dataflow graph (SF7xx).

The seventh static pass behind ``repro check``: an abstract interpreter that
propagates *symbolic array shapes and dtypes* through a whole algorithm graph
— PPO, ReMax, Safe-RLHF, GRPO (Figure 1) — before any worker exists.  Dims
are affine expressions over the batch ``B``, prompt length ``P``, response
length ``R``, the GRPO ``group_size`` ``G``, and concrete ints; dtypes are
tracked by family so integer token buffers cannot silently become float64.

What flows where is derived, never restated:

* **the algorithm's graph** — :func:`repro.rlhf.graph.dataflow_of` runs the
  trainer's own ``step`` against contract-driven probes; the pass walks the
  resulting DAG, so a call's input flow is the union of its deps' outputs
  plus the columns the controller-side advantage step was seen to write;
* **shape contracts** — ``@shape_contract`` annotations on worker methods
  (:mod:`repro.single_controller.decorator`), stating the columns a method
  consumes and produces with their symbolic shapes and dtypes;
* **transfer protocols** — each registered method's
  :class:`~repro.single_controller.protocols.ProtocolRequires` gives the
  batch split degree (divisibility) and collect semantics (all shipped
  splitting protocols restore the full batch on collect);
* **engine geometry** — the serving reassembly path is checked against its
  fixed-width + ``response_mask``/``response_lengths`` invariants (the
  train→gen gather plan is the SH4xx pass's to prove).

Rules:

=======  ==================================================================
SF701    shape mismatch at a role boundary
SF702    mask/length inconsistency (eos vs ``response_mask``)
SF703    dim not divisible under the assigned sharding
SF704    silent dtype promotion (float64 creep) on a hot path
SF705    padding/packing invariant violation (context or reassembly width)
SF706    missing or unsound shape contract
=======  ==================================================================

A runtime :class:`ShapeRecorder` samples real collected batches during
execution; :func:`cross_validate` compares them against the static
inference, so every contract is either proven or witnessed (the MC6xx
``cross_validate`` idiom).  ``seeded_mutants()`` returns one checker per
rule with a single flipped guard — the mutation smoke test.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import RoleBinding, bind_roles
from repro.analysis.report import ERROR, AnalysisReport
from repro.single_controller.decorator import (
    registered_protocol,
    registered_shape_contract,
)
from repro.single_controller.protocols import get_protocol

SF_RULES: Dict[str, Tuple[str, str]] = {
    "SF701": (
        "shape mismatch at a role boundary",
        "align the producer's @shape_contract outputs with the consumer's "
        "inputs — the symbolic dims must unify column by column",
    ),
    "SF702": (
        "mask/length inconsistency",
        "generate with eos_token_id produces response_mask; keep the eos "
        "config and the mask columns in sync end to end",
    ),
    "SF703": (
        "dim not divisible under the assigned sharding",
        "make every batch dim a multiple of the split degree it is chunked "
        "into (pad serving batches up, or lower the DP/micro-DP degree)",
    ),
    "SF704": (
        "silent dtype promotion (float64 creep) on a hot path",
        "pass dtype= explicitly at the array's birthplace; integer token "
        "buffers must stay int64 through concatenation",
    ),
    "SF705": (
        "padding/packing invariant violation",
        "keep prompt_length + max_new_tokens within the model's max_seq_len "
        "and the serving engine's fixed reassembly width",
    ),
    "SF706": (
        "missing or unsound shape contract",
        "decorate the worker method with @shape_contract(inputs=..., "
        "outputs=...) so the SF pass can verify the boundary",
    ),
}

#: One flipped contract/guard per rule (the PR-9 seeded-mutant idiom).
MUTATIONS: Dict[str, str] = {
    "widen_values": "SF701",
    "drop_mask": "SF702",
    "skew_batch": "SF703",
    "promote_pad": "SF704",
    "shrink_ctx": "SF705",
    "forget_contract": "SF706",
}

_SYMBOLS = ("B", "P", "R", "L", "T", "G")
_DTYPES = ("int64", "float64", "float32", "bool")


class ContractError(ValueError):
    """A @shape_contract that cannot be interpreted (SF706)."""


# ---------------------------------------------------------------------------
# symbolic dims: polynomials over named symbols with Fraction coefficients
# ---------------------------------------------------------------------------


class Dim:
    """An affine/polynomial dim expression, e.g. ``B``, ``4*B``, ``P+R``.

    Internally a map monomial → coefficient where a monomial is a sorted
    tuple of symbol names (empty = the constant term).  Coefficients are
    :class:`~fractions.Fraction` so per-rank chunk sizes like ``B/2`` stay
    exact.  Instances are immutable and hash/compare structurally.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[str, ...], Any]) -> None:
        clean = {
            tuple(m): Fraction(c) for m, c in terms.items() if Fraction(c)
        }
        object.__setattr__(self, "terms", tuple(sorted(clean.items())))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Dim is immutable")

    @classmethod
    def const(cls, value: int) -> "Dim":
        return cls({(): Fraction(value)})

    @classmethod
    def sym(cls, name: str) -> "Dim":
        return cls({(name,): Fraction(1)})

    def _as_dim(self, other: Any) -> Optional["Dim"]:
        if isinstance(other, Dim):
            return other
        if isinstance(other, int):
            return Dim.const(other)
        return None

    def __add__(self, other: Any) -> "Dim":
        o = self._as_dim(other)
        if o is None:
            return NotImplemented
        terms = {m: c for m, c in self.terms}
        for m, c in o.terms:
            terms[m] = terms.get(m, Fraction(0)) + c
        return Dim(terms)

    __radd__ = __add__

    def __mul__(self, other: Any) -> "Dim":
        o = self._as_dim(other)
        if o is None:
            return NotImplemented
        terms: Dict[Tuple[str, ...], Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in o.terms:
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Dim(terms)

    __rmul__ = __mul__

    def over(self, divisor: int) -> "Dim":
        """This dim scaled by ``1/divisor`` (a per-rank chunk size)."""
        return Dim({m: c / divisor for m, c in self.terms})

    def __eq__(self, other: Any) -> bool:
        o = self._as_dim(other)
        return NotImplemented if o is None else self.terms == o.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def const_value(self) -> Optional[int]:
        """The concrete integer value, or None if symbolic/non-integral."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == ():
            c = self.terms[0][1]
            return int(c) if c.denominator == 1 else None
        return None

    def subst(self, env: Dict[str, int]) -> Optional[int]:
        """Evaluate under concrete symbol bindings; None if under-bound."""
        total = Fraction(0)
        for mono, coef in self.terms:
            value = coef
            for name in mono:
                if name not in env:
                    return None
                value *= env[name]
            total += value
        return int(total) if total.denominator == 1 else None

    def divisible_by(self, divisor: int) -> Optional[bool]:
        """True/False when decidable; None when it depends on the symbols.

        A symbolic dim is provably divisible when every coefficient is an
        integer multiple of ``divisor`` (e.g. ``4*B`` by 2 for any int B);
        otherwise divisibility is deferred, not refuted.
        """
        value = self.const_value()
        if value is not None:
            return value % divisor == 0
        if all(
            c.denominator == 1 and c.numerator % divisor == 0
            for _, c in self.terms
        ):
            return True
        return None

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in self.terms:
            syms = "*".join(mono)
            num, den = coef.numerator, coef.denominator
            if not mono:
                text = str(coef)
            elif num == 1 and den == 1:
                text = syms
            elif den == 1:
                text = f"{num}*{syms}"
            elif num == 1:
                text = f"{syms}/{den}"
            else:
                text = f"{num}*{syms}/{den}"
            parts.append(text)
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Dim({self.render()})"


@dataclasses.dataclass(frozen=True)
class SymArray:
    """A symbolic array: a tuple of :class:`Dim` plus a dtype name."""

    dims: Tuple[Dim, ...]
    dtype: str

    def render(self) -> str:
        return _render_dims(self.dims) + f":{self.dtype}"


def _render_dims(dims: Sequence[Dim]) -> str:
    return "(" + ", ".join(d.render() for d in dims) + ")"


def _family(dtype: str) -> str:
    if dtype.startswith("int") or dtype.startswith("uint"):
        return "int"
    if dtype == "bool":
        return "bool"
    return "float"


# ---------------------------------------------------------------------------
# contract parsing
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ColumnSpec:
    """One column in a contract: name, symbolic dim tokens, dtype."""

    name: str
    tokens: Tuple[str, ...]
    dtype: str
    optional: bool = False


@dataclasses.dataclass(frozen=True)
class Contract:
    inputs: Tuple[ColumnSpec, ...]
    outputs: Tuple[ColumnSpec, ...]
    returns: str  # "batch" | "metrics"


def _parse_spec(name: str, spec: Any) -> ColumnSpec:
    optional = name.startswith("?")
    if optional:
        name = name[1:]
    if not name:
        raise ContractError("empty column name")
    if not isinstance(spec, str) or not spec.strip():
        raise ContractError(f"column {name!r}: spec must be a string")
    if ":" in spec:
        dims_part, dtype = spec.split(":", 1)
    else:
        dims_part, dtype = spec, "float64"
    dtype = dtype.strip()
    if dtype not in _DTYPES:
        raise ContractError(f"column {name!r}: unknown dtype {dtype!r}")
    tokens = tuple(t.strip() for t in dims_part.split(",") if t.strip())
    if not tokens:
        raise ContractError(f"column {name!r}: empty dims")
    for token in tokens:
        if not (token.isdigit() or token in _SYMBOLS):
            raise ContractError(
                f"column {name!r}: unknown dim symbol {token!r} "
                f"(known: {', '.join(_SYMBOLS)})"
            )
    return ColumnSpec(name=name, tokens=tokens, dtype=dtype, optional=optional)


def parse_contract(raw: Any) -> Contract:
    """Validate a raw ``@shape_contract`` payload into a :class:`Contract`."""
    if not isinstance(raw, dict):
        raise ContractError("contract payload must be a dict")
    returns = raw.get("returns", "batch")
    if returns not in ("batch", "metrics"):
        raise ContractError(f"returns must be 'batch' or 'metrics', got {returns!r}")
    inputs = tuple(
        _parse_spec(n, s) for n, s in (raw.get("inputs") or {}).items()
    )
    outputs = tuple(
        _parse_spec(n, s) for n, s in (raw.get("outputs") or {}).items()
    )
    if returns == "metrics" and outputs:
        raise ContractError("a metrics method declares no output columns")
    return Contract(inputs=inputs, outputs=outputs, returns=returns)


# ---------------------------------------------------------------------------
# per-protocol transfer functions (closed forms over ProtocolRequires)
# ---------------------------------------------------------------------------


class ProbeGroup:
    """Duck-typed stand-in for a WorkerGroup — just enough geometry for
    ``TransferProtocol.distribute``/``collect``: the property test replays
    real protocols through it and compares against the closed forms."""

    def __init__(self, parallel: Any, gen_config: Any = None, mode=None) -> None:
        from repro.parallel.topology import (
            GenGroupingMode,
            GenTopology,
            ParallelTopology,
        )

        self.name = "probe"
        self.train_topology = ParallelTopology(parallel)
        self.world_size = parallel.world_size
        self.gen_topology = (
            GenTopology(
                self.train_topology,
                gen_config,
                mode or GenGroupingMode.HYBRIDFLOW,
            )
            if gen_config is not None
            else None
        )

    def coords(self, index: int):
        return self.train_topology.coords(index)

    def global_rank_of(self, index: int) -> int:
        return index


def predict_protocol_shapes(
    protocol_name: str,
    parallel: Any,
    gen_config: Any = None,
    batch_size: Optional[int] = None,
) -> Dict[str, Any]:
    """Closed-form transfer function of one protocol over one topology.

    Returns the per-rank batch rows each worker sees after ``distribute``
    and the shape of the collected result — derived from the protocol's
    :class:`ProtocolRequires` (split degree) plus its collect mode.  The
    SF pass leans on the central invariant encoded here: every shipped
    *splitting* protocol's collect restores the full batch, so symbolic
    flow shapes are protocol-invariant and only divisibility can fail.
    """
    requires = get_protocol(protocol_name).requires
    world = parallel.world_size
    degree = requires.split_degree(parallel, gen_config)
    out: Dict[str, Any] = {
        "protocol": protocol_name,
        "world_size": world,
        "degree": degree,
    }
    if requires.splits_batch_by is not None:
        if batch_size is not None and degree and batch_size % degree == 0:
            out["per_rank_rows"] = batch_size // degree
        else:
            out["per_rank_rows"] = None
        out["collect"] = "merge"
        out["n_collected"] = degree
        out["collected_rows"] = batch_size
    elif requires.per_rank_args:
        out["per_rank_rows"] = None  # caller supplies per-rank args
        out["collect"] = "list"
        out["n_collected"] = world
        out["collected_rows"] = None
    elif protocol_name == "3d_pp_only":
        pp = parallel.pp
        out["per_rank_rows"] = batch_size
        out["collect"] = "list" if pp > 1 else "merge"
        out["n_collected"] = pp
        out["collected_rows"] = batch_size
    elif requires.single_rank:
        out["per_rank_rows"] = batch_size
        out["collect"] = "single"
        out["n_collected"] = 1
        out["collected_rows"] = batch_size
    else:  # broadcast, list collect (one_to_all)
        out["per_rank_rows"] = batch_size
        out["collect"] = "list"
        out["n_collected"] = world
        out["collected_rows"] = batch_size
    return out


# ---------------------------------------------------------------------------
# the abstract interpreter
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Env:
    """Ambient bindings one walk runs under.  ``tainted`` flips after an
    SF706 so a missing contract does not cascade into spurious SF701s."""

    B: Dim
    P: Dim
    R: Dim
    T: Dim
    cfg: Any  #: the TrainerConfig: group size, minibatch split, graph key
    eos: bool = False
    max_seq_len: Optional[int] = None
    prompt_length: Optional[int] = None
    max_new_tokens: Optional[int] = None
    tainted: bool = False


class ShapeFlowChecker:
    """Abstract interpreter emitting SF7xx findings over algorithm graphs.

    Entry points mirror the other analysis passes: :meth:`check_plan`
    (pre-build, from a placement plan), :meth:`check_system` (a constructed
    :class:`RlhfSystem`), :meth:`check_pipeline` (the async one-step-off
    loop), and :meth:`check_shipped` over every shipped example graph.

    Args:
        global_batch_size: Default concrete batch for divisibility checks;
            ``None`` keeps ``B`` symbolic and *defers* divisibility.
        mutate: One of :data:`MUTATIONS` — flips exactly one guard so the
            named rule fires (seeded mutation smoke); ``None`` = faithful.
    """

    def __init__(
        self,
        global_batch_size: Optional[int] = None,
        mutate: Optional[str] = None,
    ) -> None:
        if mutate is not None and mutate not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutate!r}; pick one of {sorted(MUTATIONS)}"
            )
        self.global_batch_size = global_batch_size
        self.mutate = mutate
        #: (role, method) -> {column: SymArray} of the last walk's collected
        #: outputs — the static side :func:`cross_validate` compares against.
        self.call_outputs: Dict[Tuple[str, str], Dict[str, SymArray]] = {}
        self.last_results: Dict[str, AnalysisReport] = {}

    # -- entry points -------------------------------------------------------

    def check_plan(
        self,
        algo: Any,
        plan: Any,
        function_rewards: Sequence[str] = (),
        *,
        batch_size: Optional[int] = None,
        prompt_length: Optional[int] = 4,
        max_new_tokens: Optional[int] = 8,
        max_seq_len: Optional[int] = None,
        eos_token_id: Optional[int] = None,
        use_serving: bool = False,
        trainer_config: Any = None,
        report: Optional[AnalysisReport] = None,
        _staleness: int = 0,
    ) -> AnalysisReport:
        """Walk one algorithm graph over a placement plan, pre-build.

        Args:
            algo: An ``AlgoType`` member or a trainer class.
            plan: A :class:`PlacementPlan` (or a built system, whose live
                groups then stand for the plan — see :meth:`check_system`).
            function_rewards: Roles served by the non-NN
                :class:`RewardFunctionWorker` (``one_to_one`` methods).
            batch_size: Concrete global batch; ``None`` (and no checker
                default) keeps ``B`` symbolic — divisibility then *defers*
                instead of failing, the serving-batch generalization DF102
                hands over to this pass.
        """
        from repro.rlhf.trainers import TrainerConfig

        report = report if report is not None else AnalysisReport("shapeflow")
        cfg = trainer_config or TrainerConfig()
        env = self._make_env(
            batch_size=batch_size,
            prompt_length=prompt_length,
            max_new_tokens=max_new_tokens,
            max_seq_len=max_seq_len,
            eos=eos_token_id is not None,
            cfg=cfg,
        )
        report.note_checked("graphs")
        facts = bind_roles(plan, function_rewards, use_serving)
        self._walk(algo, facts, env, report, staleness=_staleness)
        return report

    def check_system(
        self,
        system: Any,
        batch_size: Optional[int] = None,
        prompt_length: Optional[int] = None,
    ) -> AnalysisReport:
        """Walk a constructed :class:`RlhfSystem`'s graph.

        Reads the real worker attributes (``max_new_tokens``,
        ``eos_token_id``, ``use_serving``, the TinyLM ``max_seq_len``) so
        the static prediction matches what the runtime recorder will see.
        """
        actor0 = system.groups["actor"].workers[0]
        return self.check_plan(
            type(system.trainer),
            system,
            batch_size=batch_size,
            prompt_length=prompt_length,
            max_new_tokens=actor0.max_new_tokens,
            max_seq_len=actor0.model_config.max_seq_len,
            eos_token_id=actor0.eos_token_id,
            trainer_config=system.trainer.config,
        )

    def check_pipeline(
        self,
        pipeline_config: Any,
        trainer_config: Any = None,
        algo: Any = None,
        plan: Any = None,
        function_rewards: Sequence[str] = ("reward",),
        *,
        batch_size: Optional[int] = None,
        report: Optional[AnalysisReport] = None,
    ) -> AnalysisReport:
        """Shape-check the async one-step-off loop's version-tagged buffers.

        Stale batches (``staleness_window > 0`` with importance weighting)
        carry a per-token ``importance_weights`` column; the actor's update
        contract must declare it or training would crash (or worse, drop
        the off-policy correction) at the first overlapped step — SF701.
        """
        from repro.runtime.builder import SystemSpec

        report = report if report is not None else AnalysisReport("shapeflow")
        algo = SystemSpec.algo if algo is None else algo
        if plan is None:
            plan = SystemSpec(algo=algo).plan
        window = pipeline_config.staleness_window
        weighted = getattr(pipeline_config, "importance_weighting", True)
        report.note_checked("pipeline_configs")
        # window+1 buffer versions in flight, all with identical symbolic
        # column shapes (the buffer is version-tagged, not shape-tagged)
        report.note_checked("buffer_versions", max(window, 0) + 1)
        staleness = window if (window > 0 and weighted) else 0
        return self.check_plan(
            algo,
            plan,
            function_rewards,
            batch_size=batch_size,
            max_seq_len=32,
            trainer_config=trainer_config,
            report=report,
            _staleness=staleness,
        )

    def check_shipped(self, batch: int = 8) -> AnalysisReport:
        """Run the pass over every shipped example graph, merged."""
        merged = AnalysisReport("shapeflow")
        self.last_results = {}
        for name, rep in shipped_graph_reports(batch=batch, checker=self):
            self.last_results[name] = rep
            merged.merge(rep)
        return merged

    # -- internals ----------------------------------------------------------

    def _make_env(
        self,
        batch_size: Optional[int],
        prompt_length: Optional[int],
        max_new_tokens: Optional[int],
        max_seq_len: Optional[int],
        eos: bool,
        cfg: Any,
    ) -> _Env:
        if batch_size is None:
            batch_size = self.global_batch_size
        if self.mutate == "skew_batch" and batch_size is not None:
            batch_size += 1
        return _Env(
            B=Dim.const(batch_size) if batch_size is not None else Dim.sym("B"),
            P=(
                Dim.const(prompt_length)
                if prompt_length is not None
                else Dim.sym("P")
            ),
            R=(
                Dim.const(max_new_tokens)
                if max_new_tokens is not None
                else Dim.sym("R")
            ),
            T=Dim.sym("T"),
            cfg=cfg,
            eos=eos,
            max_seq_len=max_seq_len,
            prompt_length=prompt_length,
            max_new_tokens=max_new_tokens,
        )

    def _bind(
        self, tokens: Sequence[str], env: _Env, bdim: Dim
    ) -> Tuple[Dim, ...]:
        dims: List[Dim] = []
        for token in tokens:
            if token.isdigit():
                dims.append(Dim.const(int(token)))
            elif token == "B":
                dims.append(bdim)
            elif token == "P":
                dims.append(env.P)
            elif token == "R":
                dims.append(env.R)
            elif token == "L":
                dims.append(env.P + env.R)
            elif token == "T":
                dims.append(env.T)
            elif token == "G":
                dims.append(Dim.const(env.cfg.group_size))
            else:  # unreachable: tokens validated at parse time
                raise ContractError(f"unknown dim symbol {token!r}")
        return tuple(dims)

    def _contract_of(
        self, facts: Dict[str, RoleBinding], role: str, method: str
    ) -> Optional[Contract]:
        worker_cls = getattr(facts.get(role), "worker_cls", None)
        try:
            return parse_contract(
                registered_shape_contract(getattr(worker_cls, method, None))
            )
        except ContractError:
            return None

    def _walk(
        self,
        algo: Any,
        facts: Dict[str, RoleBinding],
        env: _Env,
        report: AnalysisReport,
        staleness: int = 0,
    ) -> None:
        """Propagate symbolic columns along the algorithm's derived DAG.

        A call's input flow is the union of its deps' outputs — the prompt
        batch for a source — plus the columns the controller has written by
        then.  Shapes are per batch: the graph is taken at one update round
        and the minibatch split is the one SF703 check on entering learning.
        """
        from repro.rlhf.graph import GENERATION, TRAINING, dataflow_of

        updates = env.cfg.updates_per_epoch
        one_round = dataclasses.replace(env.cfg, ppo_epochs=1, updates_per_epoch=1)
        graph = dataflow_of(algo, one_round)
        steps = list(graph.controller)
        outputs: Dict[int, Dict[str, SymArray]] = {}
        written: Dict[str, SymArray] = {}
        entered = set()
        for node in graph.nodes:
            bdim = env.B * (node.rows // graph.rows)
            while steps and steps[0].before <= node.seq:
                self._controller_step(
                    graph, steps.pop(0), outputs, written, env, report
                )
            first_of_stage = node.stage not in entered
            entered.add(node.stage)
            if first_of_stage and node.stage == TRAINING:
                div = bdim.divisible_by(updates)
                if div is False:
                    report.add(
                        "SF703",
                        ERROR,
                        f"learn() raises at runtime: batch {bdim.render()} "
                        f"is not divisible by updates_per_epoch={updates}",
                        location=f"{graph.name}.learning",
                        hint=SF_RULES["SF703"][1],
                    )
                elif updates > 1:
                    report.note_checked(
                        "minibatch_splits" if div else "deferred_batch_splits"
                    )
                if staleness > 0:
                    self._check_staleness(
                        facts, written, bdim, env, report, staleness
                    )
            flow: Dict[str, SymArray] = {}
            if not node.deps:
                flow["prompts"] = SymArray((bdim, env.P), "int64")
                if node.rows != graph.rows:
                    # the trainer repeats each prompt *before* generating
                    report.note_checked("grpo_group_repeat")
            for dep in node.deps:
                flow.update(outputs[dep])
            flow.update(written)
            outputs[node.seq] = self._call(facts, node, flow, bdim, env, report)
            if first_of_stage and node.stage == GENERATION:
                self._post_generate(
                    facts, env, outputs[node.seq], bdim, report
                )

    def _call(
        self,
        facts_map: Dict[str, RoleBinding],
        node: Any,
        flow: Dict[str, SymArray],
        bdim: Dim,
        env: _Env,
        report: AnalysisReport,
    ) -> Dict[str, SymArray]:
        """Check one call's boundary; its output columns — or, for a call
        that cannot be interpreted, its input flow passed through."""
        role, method = node.role, node.method
        facts = facts_map.get(role)
        if facts is None:
            report.note_checked("skipped_roles")
            return flow
        location = f"{role}.{method}@{facts.pool}"
        fn = getattr(facts.worker_cls, method, None)
        raw = registered_shape_contract(fn)
        if (
            self.mutate == "forget_contract"
            and role == "actor"
            and method == "generate_sequences"
        ):
            raw = None
        try:
            contract = parse_contract(raw)
        except ContractError as exc:
            owner = f"{facts.worker_cls.__name__}.{method}"
            problem = f"unsound contract on {owner}: {exc}"
            if raw is None:
                problem = (
                    f"{owner} has no @shape_contract; the {role} boundary "
                    "cannot be verified"
                )
            report.add(
                "SF706", ERROR, problem, location=location, hint=SF_RULES["SF706"][1]
            )
            env.tainted = True
            return flow
        report.note_checked("contracts")
        self._check_split(facts, fn, bdim, report, location)
        for spec in contract.inputs:
            arr = flow.get(spec.name)
            if arr is None:
                # an optional column is owed only when the trainer was seen
                # handing it to this call (GRPO's loss reads ref_log_probs)
                if spec.optional and spec.name not in node.consumed:
                    continue
                if env.tainted:
                    report.note_checked("suppressed_by_taint")
                    continue
                report.add(
                    "SF701",
                    ERROR,
                    f"{role}.{method} expects column {spec.name!r} but the "
                    f"flow carries {sorted(flow)}",
                    location=location,
                    hint=SF_RULES["SF701"][1],
                )
                continue
            report.note_checked("boundary_columns")
            want = self._bind(spec.tokens, env, bdim)
            if arr.dims != want:
                report.add(
                    "SF701",
                    ERROR,
                    f"{role}.{method} input {spec.name!r}: flow has "
                    f"{_render_dims(arr.dims)}, contract wants "
                    f"{_render_dims(want)}",
                    location=location,
                    hint=SF_RULES["SF701"][1],
                )
            want_family = _family(spec.dtype)
            got_family = _family(arr.dtype)
            if want_family != got_family:
                if want_family == "int" and got_family == "float":
                    report.add(
                        "SF704",
                        ERROR,
                        f"{role}.{method} input {spec.name!r} declared "
                        f"{spec.dtype} arrives as {arr.dtype} — float64 "
                        "creep upstream",
                        location=location,
                        hint=SF_RULES["SF704"][1],
                    )
                else:
                    report.add(
                        "SF701",
                        ERROR,
                        f"{role}.{method} input {spec.name!r}: dtype family "
                        f"mismatch (contract {spec.dtype}, flow {arr.dtype})",
                        location=location,
                        hint=SF_RULES["SF701"][1],
                    )
        if contract.returns == "metrics":
            report.note_checked("metric_calls")
            return flow
        out: Dict[str, SymArray] = {}
        for spec in contract.outputs:
            if spec.optional and spec.name == "response_mask":
                if not env.eos:
                    continue
                if (
                    self.mutate == "drop_mask"
                    and method == "generate_sequences"
                ):
                    continue
            elif spec.optional:
                continue
            tokens = spec.tokens
            if (
                self.mutate == "widen_values"
                and role == "critic"
                and method == "compute_values"
                and spec.name == "values"
            ):
                tokens = ("B", "L")
            out[spec.name] = SymArray(
                self._bind(tokens, env, bdim), spec.dtype
            )
        self.call_outputs[(role, method)] = dict(out)
        return out

    def _check_split(
        self,
        facts: RoleBinding,
        fn: Any,
        bdim: Dim,
        report: AnalysisReport,
        location: str,
    ) -> None:
        protocol_name = registered_protocol(fn)
        if protocol_name is None:
            return
        requires = get_protocol(protocol_name).requires
        degree = requires.split_degree(facts.parallel, facts.gen_config)
        if not degree or degree <= 1:
            return
        div = bdim.divisible_by(degree)
        if div is False:
            hint = SF_RULES["SF703"][1]
            if facts.use_serving:
                hint = (
                    "serving batches are variable-length: pad the submitted "
                    "prompt batch up to a multiple of the generation DP "
                    "degree, or lower micro_dp"
                )
            report.add(
                "SF703",
                ERROR,
                f"batch dim {bdim.render()} is not divisible by the "
                f"{protocol_name} split degree {degree}",
                location=location,
                hint=hint,
            )
        elif div is None:
            # symbolic batch (e.g. variable-length serving): divisibility is
            # deferred to runtime, not refuted — the DF102 generalization
            report.note_checked("deferred_batch_splits")
        else:
            report.note_checked("batch_splits")

    def _controller_step(
        self,
        graph: Any,
        step: Any,
        outputs: Dict[int, Dict[str, SymArray]],
        written: Dict[str, SymArray],
        env: _Env,
        report: AnalysisReport,
    ) -> None:
        """The controller-side advantage step: every column it was seen to
        read must flow in; the columns it was seen to write flow on."""
        bdim = env.B * (step.rows // graph.rows)
        for name, spec in step.writes:
            column = _parse_spec(name, spec)
            written[name] = SymArray(
                self._bind(column.tokens, env, bdim), column.dtype
            )
        flowing = set(written).union(*(outputs[dep] for dep in step.deps))
        for name in step.reads:
            report.note_checked("advantage_inputs")
            if name not in flowing:
                if env.tainted:
                    report.note_checked("suppressed_by_taint")
                    continue
                report.add(
                    "SF701",
                    ERROR,
                    f"compute_advantages({graph.name}) consumes {name!r} "
                    "which never flows out of the preparation stage",
                    location=f"{graph.name}.preparation",
                    hint=SF_RULES["SF701"][1],
                )

    def _post_generate(
        self,
        facts: Dict[str, RoleBinding],
        env: _Env,
        flow: Dict[str, SymArray],
        bdim: Dim,
        report: AnalysisReport,
    ) -> None:
        actor = facts.get("actor")
        pool = actor.pool if actor is not None else "?"
        if env.prompt_length is not None and env.max_new_tokens is not None:
            limit = env.max_seq_len
            if self.mutate == "shrink_ctx":
                limit = env.prompt_length
            if limit is not None:
                report.note_checked("context_budget")
                total = env.prompt_length + env.max_new_tokens
                if total > limit:
                    report.add(
                        "SF705",
                        ERROR,
                        f"prompt_length {env.prompt_length} + max_new_tokens "
                        f"{env.max_new_tokens} = {total} exceeds "
                        f"max_seq_len {limit}; generation overruns the "
                        "position table mid-iteration",
                        location=f"actor.generate_sequences@{pool}",
                        hint=SF_RULES["SF705"][1],
                    )
        if not env.tainted:
            report.note_checked("mask_consistency")
            mask = flow.get("response_mask")
            if env.eos and mask is None:
                report.add(
                    "SF702",
                    ERROR,
                    "eos_token_id is set but no response_mask column leaves "
                    "generate_sequences — losses and advantages would train "
                    "on post-EOS padding",
                    location=f"actor.generate_sequences@{pool}",
                    hint=SF_RULES["SF702"][1],
                )
            elif not env.eos and mask is not None:
                report.add(
                    "SF702",
                    ERROR,
                    "response_mask flows without an eos_token_id — nothing "
                    "defines where responses end",
                    location=f"actor.generate_sequences@{pool}",
                    hint=SF_RULES["SF702"][1],
                )
            elif mask is not None and mask.dims != (bdim, env.R):
                report.add(
                    "SF702",
                    ERROR,
                    f"response_mask has {_render_dims(mask.dims)}, want "
                    f"({bdim.render()}, {env.R.render()}) — one entry per "
                    "response token",
                    location=f"actor.generate_sequences@{pool}",
                    hint=SF_RULES["SF702"][1],
                )
        if actor is not None and actor.use_serving:
            self._check_serving(actor, env, flow, bdim, report)

    def _check_serving(
        self,
        actor: RoleBinding,
        env: _Env,
        flow: Dict[str, SymArray],
        bdim: Dim,
        report: AnalysisReport,
    ) -> None:
        location = f"actor._serve_generate@{actor.pool}"
        report.note_checked("serving_reassembly")
        # reassembly pads variable-length responses into a fixed-width int64
        # matrix; a float pad buffer would promote the whole token matrix
        pad_dtype = "float64" if self.mutate == "promote_pad" else "int64"
        if _family(pad_dtype) != "int":
            report.add(
                "SF704",
                ERROR,
                "serving reassembly pads sequences with a float buffer; "
                "np.concatenate promotes the int64 token matrix to float64 "
                "across the serving boundary",
                location=location,
                hint=SF_RULES["SF704"][1],
            )
        else:
            report.note_checked("serving_pad_dtype")
        if (
            env.prompt_length is not None
            and env.max_new_tokens is not None
            and not env.tainted
        ):
            report.note_checked("serving_width")
            width = Dim.const(env.prompt_length + env.max_new_tokens)
            sequences = flow.get("sequences")
            if (
                sequences is not None
                and len(sequences.dims) == 2
                and sequences.dims[1] != width
            ):
                report.add(
                    "SF705",
                    ERROR,
                    f"serving reassembles to fixed width {width.render()} "
                    f"but the contract says sequences are "
                    f"{_render_dims(sequences.dims)}",
                    location=location,
                    hint=SF_RULES["SF705"][1],
                )
        # response_lengths are astype(int64) by construction; counted so a
        # regression shows up as a checked-count drop in the report
        report.note_checked("serving_lengths")

    def _check_staleness(
        self,
        facts: Dict[str, RoleBinding],
        flow: Dict[str, SymArray],
        bdim: Dim,
        env: _Env,
        report: AnalysisReport,
        staleness: int,
    ) -> None:
        report.note_checked("stale_batches", staleness)
        flow["importance_weights"] = SymArray((bdim, env.R), "float64")
        contract = self._contract_of(facts, "actor", "update_actor")
        if contract is None:
            return  # SF706 already reported at the update_actor call
        declared = {spec.name for spec in contract.inputs}
        if "importance_weights" not in declared:
            report.add(
                "SF701",
                ERROR,
                "stale batches carry a per-token importance_weights column "
                "but update_actor's contract does not declare it",
                location="pipeline.update_actor",
                hint="add '?importance_weights': 'B,R' to the update "
                "contract so the off-policy correction reaches the loss",
            )
        else:
            report.note_checked("staleness_contract")


# ---------------------------------------------------------------------------
# shipped graphs and seeded mutants
# ---------------------------------------------------------------------------


def shipped_graph_reports(
    batch: int = 8,
    mutate: Optional[str] = None,
    checker: Optional[ShapeFlowChecker] = None,
) -> List[Tuple[str, AnalysisReport]]:
    """The SF pass over every shipped example graph, one report per graph.

    Covers every shipped algorithm (PPO, GRPO, ReMax, Safe-RLHF), the
    serving-backed actor, and the async one-step-off pipeline.
    """
    from repro.pipeline import PipelineConfig
    from repro.rlhf.core import AlgoType
    from repro.runtime.builder import SystemSpec

    chk = checker if checker is not None else ShapeFlowChecker(mutate=mutate)
    out: List[Tuple[str, AnalysisReport]] = []
    for name, algo, serving in (
        ("tiny-ppo", AlgoType.PPO, {}),
        ("grpo", AlgoType.GRPO, {}),
        ("remax", AlgoType.REMAX, {}),
        ("safe-rlhf", AlgoType.SAFE_RLHF, {}),
        ("serving-ppo", AlgoType.PPO, dict(eos_token_id=3, use_serving=True)),
    ):
        spec = SystemSpec(algo=algo)
        report = chk.check_plan(
            algo,
            spec.plan,
            function_rewards=spec.function_rewards,
            batch_size=batch,
            prompt_length=spec.prompt_length,
            max_new_tokens=spec.max_new_tokens,
            max_seq_len=spec.model_config.max_seq_len,
            **serving,
        )
        out.append((f"shapeflow[{name}]", report))
    out.append(
        (
            "shapeflow[async-pipeline]",
            chk.check_pipeline(
                PipelineConfig(staleness_window=1),
                None,
                AlgoType.PPO,
                batch_size=batch,
            ),
        )
    )
    return out


def seeded_mutants() -> List[Tuple[ShapeFlowChecker, str]]:
    """(checker-with-one-flipped-guard, expected rule) pairs, one per rule.

    Each mutant's :meth:`ShapeFlowChecker.check_shipped` run must produce
    findings of *exactly* the expected rule — nothing else fires, and the
    unmutated checker stays clean (the PR-9 mutation-smoke contract).
    """
    return [
        (ShapeFlowChecker(mutate=name), rule)
        for name, rule in sorted(MUTATIONS.items())
    ]


# ---------------------------------------------------------------------------
# runtime shape recorder + static/dynamic cross-validation
# ---------------------------------------------------------------------------


class ShapeRecorder:
    """Samples real collected batch shapes during execution.

    Attach as ``controller.shape_recorder``; the worker-group dispatch
    records every collected :class:`DataBatch` (metrics dicts and futures
    are counted but not sampled).  Sampling is capped per call site so a
    long training run stays O(1) in memory.
    """

    def __init__(self, max_samples_per_call: int = 8) -> None:
        self.max_samples_per_call = max_samples_per_call
        #: (group, method) -> list of {column: (shape, dtype)} samples
        self.samples: Dict[
            Tuple[str, str], List[Dict[str, Tuple[Tuple[int, ...], str]]]
        ] = {}
        self.counts: Dict[Tuple[str, str], int] = {}
        self.skipped = 0

    def record(self, group_name: str, method_name: str, result: Any) -> None:
        from repro.data.batch import DataBatch

        if not isinstance(result, DataBatch):
            self.skipped += 1
            return
        key = (group_name, method_name)
        self.counts[key] = self.counts.get(key, 0) + 1
        bucket = self.samples.setdefault(key, [])
        if len(bucket) >= self.max_samples_per_call:
            return
        bucket.append(
            {
                name: (tuple(arr.shape), str(arr.dtype))
                for name, arr in result.tensors.items()
            }
        )


def predict_system_outputs(
    system: Any, batch_size: int, prompt_length: int
) -> Dict[Tuple[str, str], Dict[str, Tuple[Tuple[int, ...], str]]]:
    """Static per-call output shapes for a constructed system, fully concrete.

    The keys match :class:`ShapeRecorder` keys (group name == role name),
    so :func:`cross_validate` can line the two sides up directly.
    """
    checker = ShapeFlowChecker()
    checker.check_system(
        system, batch_size=batch_size, prompt_length=prompt_length
    )
    predictions: Dict[
        Tuple[str, str], Dict[str, Tuple[Tuple[int, ...], str]]
    ] = {}
    for key, columns in checker.call_outputs.items():
        concrete: Dict[str, Tuple[Tuple[int, ...], str]] = {}
        for name, arr in columns.items():
            shape = tuple(d.const_value() for d in arr.dims)
            if any(v is None for v in shape):
                continue  # under-bound dim: nothing concrete to compare
            concrete[name] = (shape, arr.dtype)
        predictions[key] = concrete
    return predictions


def cross_validate(
    recorder: ShapeRecorder,
    predictions: Dict[Tuple[str, str], Dict[str, Tuple[Tuple[int, ...], str]]],
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Compare recorded runtime shapes against the static inference.

    Only call sites present on *both* sides are compared: calls the
    recorder never saw (e.g. a reward group living under a different
    controller) are skipped, and unpredicted extra calls are counted.
    Shape mismatches are SF701; an int column observed as float is SF704.
    """
    report = report if report is not None else AnalysisReport("shapeflow")
    for key, samples in sorted(recorder.samples.items()):
        predicted = predictions.get(key)
        if predicted is None:
            report.note_checked("unpredicted_calls")
            continue
        group, method = key
        location = f"{group}.{method}[recorded]"
        for sample in samples:
            report.note_checked("recorded_samples")
            if set(sample) != set(predicted):
                report.add(
                    "SF701",
                    ERROR,
                    f"recorded columns {sorted(sample)} differ from the "
                    f"static prediction {sorted(predicted)}",
                    location=location,
                    hint=SF_RULES["SF701"][1],
                )
                continue
            for name, (shape, dtype) in sorted(predicted.items()):
                got_shape, got_dtype = sample[name]
                if got_shape != shape:
                    report.add(
                        "SF701",
                        ERROR,
                        f"column {name!r}: recorded shape {got_shape}, "
                        f"predicted {shape}",
                        location=location,
                        hint=SF_RULES["SF701"][1],
                    )
                elif _family(got_dtype) != _family(dtype):
                    if _family(dtype) == "int" and _family(got_dtype) == "float":
                        report.add(
                            "SF704",
                            ERROR,
                            f"column {name!r}: predicted {dtype} but "
                            f"recorded {got_dtype} — float64 creep on the "
                            "hot path",
                            location=location,
                            hint=SF_RULES["SF704"][1],
                        )
                    else:
                        report.add(
                            "SF701",
                            ERROR,
                            f"column {name!r}: recorded dtype {got_dtype}, "
                            f"predicted {dtype}",
                            location=location,
                            hint=SF_RULES["SF701"][1],
                        )
    for key in sorted(predictions):
        if key not in recorder.samples:
            report.note_checked("unsampled_predictions")
    return report


__all__ = [
    "SF_RULES",
    "MUTATIONS",
    "ContractError",
    "Dim",
    "SymArray",
    "ColumnSpec",
    "Contract",
    "parse_contract",
    "ProbeGroup",
    "predict_protocol_shapes",
    "ShapeFlowChecker",
    "shipped_graph_reports",
    "seeded_mutants",
    "ShapeRecorder",
    "predict_system_outputs",
    "cross_validate",
]
