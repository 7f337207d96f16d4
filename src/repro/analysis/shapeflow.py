"""Shape/dtype flow over the RLHF dataflow, checked by running it (SF7xx).

The seventh pass behind ``repro check``.  Once per plan it runs the
trainer's own, unmodified ``step`` (:class:`repro.rlhf.graph.Probe`) with a
stand-in group per role that has the plan's geometry, so every call goes
through its method's real registered transfer protocol: ``distribute``
splits what the trainer handed it, each rank answers its own chunk with
zeros shaped by the method's ``@shape_contract``, ``collect`` merges them.
The rules read what the run shows: the columns each call was handed
against its contract (SF701/SF704); the real ``DataBatch.chunk`` refusing a
split at the call that made it, minibatches included (SF703); eos vs
``response_mask``, the context budget, the worker's own serving reassembly
and the async pipeline's ``importance_weights`` (SF702/SF705/SF701);
missing or unsound contracts (SF706).  SF703 is the one batch-divisibility
rule of ``repro check``.  With the batch unbound the probe runs at a
sentinel ``B`` and :func:`divisible_for_every_b` is the one symbolic fact
left; unbound ``B``/``P``/``R``/``T`` are named back.

=======  ==================================================================
SF701    shape mismatch at a role boundary
SF702    mask/length inconsistency (eos vs ``response_mask``)
SF703    dim not divisible under the assigned sharding
SF704    silent dtype promotion (float64 creep) on a hot path
SF705    padding/packing invariant violation (context or reassembly width)
SF706    missing or unsound shape contract
=======  ==================================================================

The probe samples what it collects with the :class:`ShapeRecorder` a real
run feeds: :func:`predict_system_outputs` is the probe over a built system's
bindings, and :func:`cross_validate` compares the two.  :func:`mutants`
replaces one real function per rule for the mutation smoke.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.dataflow import bind_roles
from repro.analysis.mutants import Mutant
from repro.analysis.report import ERROR, AnalysisReport
from repro.data.batch import DataBatch, IndivisibleBatchError
from repro.rlhf.graph import _ROWS, _SIZES, GENERATION, TRAINING, Probe, _ReadSpy
from repro.single_controller.decorator import (
    ContractError,
    parse_contract,
    register,
    registered_protocol,
    registered_shape_contract,
    shape_contract,
)
from repro.single_controller.protocols import get_protocol
from repro.workers import ActorWorker, CriticWorker
from repro.workers import actor as actor_worker
from repro.workers.actor import reassemble_responses

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

#: How one column's mismatch reads at a call and in :func:`cross_validate`.
_AT_CALL = {
    "shape": "{col}: flow has {G}, contract wants {W}",
    "creep": "{col} declared {wd} arrives as {gd} — float64 creep upstream",
    "dtype": "{col}: dtype family mismatch (contract {wd}, flow {gd})",
}
_RECORDED = {
    "shape": "{col}: recorded shape {G}, predicted {W}",
    "creep": "{col}: predicted {wd} but recorded {gd} — float64 creep on the hot path",
    "dtype": "{col}: recorded dtype {gd}, predicted {wd}",
}


def _family(dtype: Any) -> str:
    dtype = str(dtype)
    return "int" if dtype.startswith(("int", "uint")) else "bool" if dtype == "bool" else "float"


def _mismatches(col: str, got: Tuple, want: Tuple, texts: Dict[str, str], render=str):
    """``(rule, message)`` for a ``(shape, dtype)`` column against the one
    wanted: the shape (SF701), then the dtype family — an int column
    arriving as float is creep (SF704), any other change SF701."""
    kinds = ["shape"] if tuple(got[0]) != tuple(want[0]) else []
    g, w = _family(got[1]), _family(want[1])
    if g != w:
        kinds.append("creep" if (w, g) == ("int", "float") else "dtype")
    words = dict(col=col, G=render(got[0]), W=render(want[0]), gd=got[1], wd=want[1])
    return [("SF704" if k == "creep" else "SF701", texts[k].format(**words)) for k in kinds]


def divisible_for_every_b(rows: int, degree: int) -> bool:
    """SF703's one symbolic fact.  With the batch unbound the probe runs at
    ``B = 8``; a call handed ``rows = c·B`` rows splits ``degree`` ways for
    every ``B`` exactly when ``c`` is an integer multiple of ``degree``."""
    c = Fraction(rows, _ROWS)
    return c.denominator == 1 and c.numerator % degree == 0


class _PlanProbe(Probe):
    """One run of a trainer's step over a plan's stand-in groups, reporting
    SF7xx as it goes; ``p``/``r`` are the bound prompt/response lengths
    (``None``: run at the sentinel size, named back)."""

    def __init__(self, trainer_cls, config, bindings, report, batch,
                 p, r, max_seq_len, eos, staleness) -> None:
        sizes = dict(_SIZES, P=p or _SIZES["P"], R=r or _SIZES["R"])
        sizes["L"] = sizes["P"] + sizes["R"]
        placement = {
            role: (b.worker_cls, b.parallel, b.gen_config) for role, b in bindings.items()
        }
        # a copy: learn() runs unsplit once its minibatch split is reported
        super().__init__(trainer_cls, dataclasses.replace(config), sizes, placement)
        self.bindings, self.report = bindings, report
        self.batch, self.p, self.r, self.max_seq_len = batch, p, r, max_seq_len
        self.eos, self.staleness, self.name = eos, staleness, trainer_cls.algo.value
        self.recorder = ShapeRecorder()
        # unbound symbols are named back (L reads "6+P" when only R is bound)
        given = [(sizes["P"], "P", p), (sizes["R"], "R", r)]
        self.names = {_SIZES["T"]: "T", **{size: str(v or sym) for size, sym, v in given}}
        bound = [str(sum(size for size, _, v in given if v))] if p or r else []
        self.names[sizes["L"]] = "+".join(bound + [sym for _, sym, v in given if not v])
        self.scale: Dict[int, Fraction] = {}
        self.trained: set = set()
        self.quiet = self.tainted = self.found = self.generated = False

    def prompt_rows(self) -> int:
        """Prompts the step runs on: the bound batch, else the sentinel ``B``."""
        return _ROWS if self.batch is None else self.batch

    def context_budget(self) -> Optional[int]:
        """Positions one sequence may fill: the model's ``max_seq_len``."""
        return self.max_seq_len

    def note(self, what: str, n: int = 1) -> None:
        if not self.quiet:
            self.report.note_checked(what, n)

    def add(self, rule: str, message: str, location: str, hint: str = "") -> None:
        if not self.quiet:
            self.found = True
            self.report.add(rule, ERROR, message, location, hint or SF_RULES[rule][1])

    def render(self, shape: Sequence[Any]) -> str:
        rows = Fraction(shape[0])
        if self.batch is None:  # rows in units of the unbound B
            num, den = (rows / _ROWS).numerator, (rows / _ROWS).denominator
            rows = ("B" if num == 1 else f"{num}*B") + (f"/{den}" if den > 1 else "")
        dims = [str(rows)] + [self.names.get(d, str(d)) for d in shape[1:]]
        return "(" + ", ".join(dims) + ")"

    def split(self, rows, degree, refused, message, where, hint="") -> None:
        """SF703 on a split the real ``DataBatch.chunk`` made or refused."""
        if self.batch is None:
            proven = divisible_for_every_b(rows, degree)
            self.note("batch_splits" if proven else "deferred_batch_splits")
        elif refused:
            self.add("SF703", message, where, hint)
        else:
            self.note("batch_splits")

    def dispatch(self, role: str, method: str, batch: DataBatch, **kwargs: Any) -> Any:
        # a learning loop's later minibatches repeat its first: run, don't re-check
        self.quiet = (role, method) in self.trained
        future = super().dispatch(role, method, batch, **kwargs)
        if self.nodes[-1].stage == TRAINING:
            self.trained.add((role, method))
        self.quiet = False
        return future

    def contract(self, role: str, method: str) -> Any:
        binding = self.bindings.get(role)
        if binding is None:
            self.note("skipped_roles")
            return None  # the call hands its batch on
        raw = registered_shape_contract(getattr(binding.worker_cls, method, None))
        try:
            contract = parse_contract(raw)
        except ContractError as exc:
            owner = f"{binding.worker_cls.__name__}.{method}"
            problem = f"unsound contract on {owner}: {exc}"
            if raw is None:
                problem = f"{owner} has no @shape_contract; the {role} boundary cannot be verified"
            self.add("SF706", problem, f"{role}.{method}@{binding.pool}")
            self.tainted = True
            return None  # the call hands its batch on, unchecked
        outputs = []
        for spec in contract.outputs:
            if spec.optional:  # of the optional outputs only the eos mask flows
                if spec.name != "response_mask" or not self.eos:
                    continue
                spec = dataclasses.replace(spec, optional=False)
            outputs.append(spec)
        return dataclasses.replace(contract, outputs=tuple(outputs))

    def execute(self, node: Any, contract: Any, batch: DataBatch, kwargs: dict) -> Any:
        binding = self.bindings[node.role]
        where = f"{node.role}.{node.method}@{binding.pool}"
        refused = None
        try:
            result = super().execute(node, contract, batch, kwargs)
        except IndivisibleBatchError as exc:
            result, refused = self.answer(contract, batch), exc
        except (ValueError, RuntimeError):
            # a group its protocol cannot bind at all: DF101/DF105 report it
            result = self.answer(contract, batch)
        # a collect that did not restore its batch scales every consumer
        scale = next((self.scale[d] for d in node.deps if self.scale.get(d, 1) != 1), 1)
        protocol = registered_protocol(getattr(binding.worker_cls, node.method))
        if protocol is not None:
            self.note("contracts")
            requires = get_protocol(protocol).requires
            degree = requires.split_degree(binding.parallel, binding.gen_config)
            degree = refused.n_chunks if refused else degree or 1
            if degree > 1:
                self.split(len(batch), degree, refused, f"batch dim {len(batch)} is not "
                           f"divisible by the {protocol} split degree {degree}", where,
                           "serving batches are variable-length: pad the submitted "
                           "prompt batch up to a multiple of the generation DP degree, "
                           "or lower micro_dp" if binding.use_serving else "")
            self._check_inputs(node, contract, batch, len(batch) * scale, where)
        if isinstance(result, DataBatch) and result.tensors:
            self.scale[node.seq] = Fraction(len(batch), len(result))
            self.recorder.record(node.role, node.method, result)
            if node.stage == GENERATION and not self.generated:
                self.generated = True
                self._post_generate(node, binding, result, len(batch) * scale)
        return result

    def _check_inputs(self, node, contract, batch, want_rows, where) -> None:
        call = f"{node.role}.{node.method}"
        if self.staleness and call == "actor.update_actor":
            self.note("stale_batches", self.staleness)
            if "importance_weights" not in {spec.name for spec in contract.inputs}:
                self.add("SF701", "stale batches carry a per-token importance_weights "
                         "column but update_actor's contract does not declare it",
                         "pipeline.update_actor", "add '?importance_weights': 'B,R' to "
                         "the update contract so the off-policy correction reaches the loss")
        for spec in contract.inputs:
            if spec.name in batch:
                self.note("boundary_columns")
                arr, want = batch[spec.name], spec.shape(dict(self.sizes, B=want_rows))
                for rule, message in _mismatches(
                    f"{call} input {spec.name!r}", (arr.shape, arr.dtype),
                    (want, spec.dtype), _AT_CALL, self.render,
                ):
                    self.add(rule, message, where)
            elif self.tainted and not spec.optional:
                self.note("suppressed_by_taint")
            elif not spec.optional:  # an optional one is owed only when handed over
                self.add("SF701", f"{call} expects column {spec.name!r} but the flow "
                         f"carries {sorted(batch.keys())}", where)

    def advantages(self, real: Any, batch: DataBatch) -> DataBatch:
        """The trainer's own advantage step on what flowed in.  A column it
        reads that never flowed out is SF701; when it cannot run, what
        follows is checked only for the columns that did flow (taint).
        Then the minibatch split ``learn()`` makes next, tried on its output."""
        spy = _ReadSpy(batch)
        try:
            out = real(spy)
        except (KeyError, ValueError) as exc:
            # a column shaped wrong is reported where the next contract reads it
            if isinstance(exc, KeyError) and not self.tainted:
                self.add("SF701", f"compute_advantages({self.name}) consumes "
                         f"{spy.reads[-1]!r} which never flows out of the preparation "
                         "stage", f"{self.name}.preparation")
            self.tainted, out = True, batch.copy()
        self.note("advantage_inputs", len(spy.reads))
        if self.staleness:  # the async pipeline's off-policy correction
            out["importance_weights"] = np.zeros((len(out), self.sizes["R"]))
        updates = self.config.updates_per_epoch
        if updates > 1:
            try:
                refused = not out.chunk(updates)  # the split learn() makes next
            except IndivisibleBatchError:
                refused, self.config.updates_per_epoch = True, 1  # train unsplit
            self.split(len(out), updates, refused, f"learn() raises at runtime: batch "
                       f"{len(out)} is not divisible by updates_per_epoch={updates}",
                       f"{self.name}.learning")
        return out

    def _post_generate(self, node, binding, flow, want_rows) -> None:
        """Plan facts at the first generation: the context budget, eos vs
        ``response_mask``, and the worker's own serving reassembly run on
        ragged stand-in completions."""
        where, p, r = f"{node.role}.{node.method}@{binding.pool}", self.p, self.r
        limit = self.context_budget()
        if p is not None and r is not None and limit is not None:
            self.note("context_budget")
            if p + r > limit:
                self.add("SF705", f"prompt_length {p} + max_new_tokens {r} = {p + r} "
                         f"exceeds max_seq_len {limit}; generation overruns the "
                         "position table mid-iteration", where)
        mask, want = flow.tensors.get("response_mask"), (want_rows, self.sizes["R"])
        if not self.tainted:
            self.note("mask_consistency")
            if self.eos and mask is None:
                self.add("SF702", "eos_token_id is set but no response_mask column "
                         "leaves generate_sequences — losses and advantages would "
                         "train on post-EOS padding", where)
            elif not self.eos and mask is not None:
                self.add("SF702", "response_mask flows without an eos_token_id — "
                         "nothing defines where responses end", where)
            elif mask is not None and mask.shape != want:
                self.add("SF702", f"response_mask has {self.render(mask.shape)}, want "
                         f"{self.render(want)} — one entry per response token", where)
        if not binding.use_serving:
            return
        where = f"{node.role}._serve_generate@{binding.pool}"
        r, rows = self.sizes["R"], int(want_rows)
        self.note("serving_reassembly")
        done = [SimpleNamespace(request_id=i, response=np.zeros(i % (r + 1), dtype=np.int64),
                                log_probs=np.zeros(i % (r + 1))) for i in range(rows)]
        prompts = np.zeros((rows, self.sizes["P"]), dtype=np.int64)
        sequences = actor_worker.reassemble_responses(prompts, done, r, 0, self.eos)[0]
        if _family(sequences.dtype) != "int":
            self.add("SF704", "serving reassembly pads sequences with a float buffer; "
                     "np.concatenate promotes the int64 token matrix to float64 "
                     "across the serving boundary", where)
        observed, width = flow.tensors.get("sequences"), sequences.shape[1]
        if not self.tainted and observed is not None and observed.ndim == 2:
            self.note("serving_width")
            if observed.shape[1] != width:
                self.add("SF705", f"serving reassembles to fixed width "
                         f"{self.names.get(width, width)} but the contract says "
                         f"sequences are {self.render(observed.shape)}", where)


class ShapeFlowChecker:
    """Runs each algorithm's step through a plan and emits SF7xx findings.

    Entry points mirror the other analysis passes: :meth:`check_plan`
    (pre-build, from a placement plan), :meth:`check_system` (a constructed
    :class:`RlhfSystem`) and :meth:`check_shipped` over every shipped
    example graph.  Each takes the batch it runs at.
    """

    def __init__(self) -> None:
        #: The last run's collected batches, as a real run's recorder has them.
        self.recorder = ShapeRecorder()

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
        _staleness: int = 0,
    ) -> AnalysisReport:
        """Run one algorithm's step over a placement plan, pre-build.

        Args:
            algo: An ``AlgoType`` member or a trainer class.
            plan: A :class:`PlacementPlan` (or a built system, whose live
                groups then stand for the plan — see :meth:`check_system`).
            function_rewards: Roles served by the non-NN
                :class:`RewardFunctionWorker` (``one_to_one`` methods).
            batch_size: Concrete global batch; ``None`` leaves ``B``
                unbound — divisibility then *defers* instead of failing.
        """
        from repro.rlhf.trainers import TrainerConfig, trainer_class

        report = AnalysisReport("shapeflow")
        report.note_checked("graphs")
        probe = _PlanProbe(
            trainer_class(algo), trainer_config or TrainerConfig(),
            bind_roles(plan, function_rewards, use_serving), report, batch_size,
            prompt_length, max_new_tokens, max_seq_len, eos_token_id is not None,
            _staleness,
        )
        try:
            probe.run(probe.prompt_rows())
        except (KeyError, ValueError, IndexError) as exc:
            # the trainer's own code failed on what it was handed; after a
            # finding (or a missing contract) that is its consequence
            if not (probe.found or probe.tainted):
                probe.add("SF701", f"{probe.name}.step raises {exc!r}", f"{probe.name}.step")
        self.recorder = probe.recorder
        return report

    def check_system(
        self,
        system: Any,
        batch_size: Optional[int] = None,
        prompt_length: Optional[int] = None,
    ) -> AnalysisReport:
        """Run a constructed :class:`RlhfSystem`'s step over its bindings.

        Reads the real worker attributes (``max_new_tokens``,
        ``eos_token_id``, ``use_serving``, the TinyLM ``max_seq_len``) so
        the probe's batches match what the runtime recorder will see.
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

    def check_shipped(self, batch: int = 8) -> AnalysisReport:
        """Run the pass over every shipped example graph, merged."""
        merged = AnalysisReport("shapeflow")
        for _name, report in shipped_graph_reports(batch=batch, checker=self):
            merged.merge(report)
        return merged


# ---------------------------------------------------------------------------
# shipped graphs and seeded mutants
# ---------------------------------------------------------------------------


def shipped_graph_reports(
    batch: int = 8, checker: Optional[ShapeFlowChecker] = None
) -> List[Tuple[str, AnalysisReport]]:
    """The SF pass over every shipped example graph, one report per graph.

    Covers every shipped algorithm (PPO, GRPO, ReMax, Safe-RLHF), the
    serving-backed actor, and the async one-step-off pipeline, whose stale
    batches carry a per-token ``importance_weights`` column the actor's
    update contract must declare (SF701).
    """
    from repro.rlhf.core import AlgoType
    from repro.runtime.builder import SystemSpec

    chk = checker if checker is not None else ShapeFlowChecker()
    out: List[Tuple[str, AnalysisReport]] = []
    for name, algo, extra in (
        ("tiny-ppo", AlgoType.PPO, {}),
        ("grpo", AlgoType.GRPO, {}),
        ("remax", AlgoType.REMAX, {}),
        ("safe-rlhf", AlgoType.SAFE_RLHF, {}),
        ("serving-ppo", AlgoType.PPO, dict(eos_token_id=3, use_serving=True)),
        ("async-pipeline", AlgoType.PPO, dict(max_new_tokens=8, _staleness=1)),
    ):
        spec = SystemSpec(algo=algo)
        shape = dict(prompt_length=spec.prompt_length, max_new_tokens=spec.max_new_tokens,
                     max_seq_len=spec.model_config.max_seq_len)
        out.append((f"shapeflow[{name}]", chk.check_plan(
            algo, spec.plan, spec.function_rewards, batch_size=batch, **{**shape, **extra}
        )))
    return out


def _recontracted(worker_cls: type, method: str, outputs: Optional[dict]) -> Mutant:
    """``worker_cls.method`` under its own protocol, declaring ``outputs``
    in place of its contract's (``None``: no contract at all)."""
    real = getattr(worker_cls, method)

    def mutated(self, *args: Any, **kwargs: Any) -> Any:
        return real(self, *args, **kwargs)

    if outputs is not None:
        shape_contract(**dict(registered_shape_contract(real), outputs=outputs))(mutated)
    return Mutant(worker_cls, method, register(registered_protocol(real))(mutated))


def _reassemble_in_floats(prompts: np.ndarray, *args: Any) -> Any:
    """``reassemble_responses`` (the shipped one, imported unpatched)
    padding into a float buffer."""
    return reassemble_responses(prompts.astype(np.float64), *args)


def mutants() -> Dict[str, Mutant]:
    """Rule -> the one real function whose replacement makes it fire over
    the shipped graphs (:func:`repro.analysis.seeded_mutants`)."""
    values = registered_shape_contract(CriticWorker.compute_values)["outputs"]
    generated = registered_shape_contract(ActorWorker.generate_sequences)["outputs"]
    return {
        "SF701": _recontracted(CriticWorker, "compute_values", dict(values, values="B,L")),
        "SF702": _recontracted(
            ActorWorker, "generate_sequences",
            {name: spec for name, spec in generated.items() if name != "?response_mask"},
        ),
        "SF703": Mutant(
            _PlanProbe, "prompt_rows", lambda self: self.batch + 1 if self.batch else _ROWS
        ),
        "SF704": Mutant(actor_worker, "reassemble_responses", _reassemble_in_floats),
        "SF705": Mutant(_PlanProbe, "context_budget", lambda self: self.p),
        "SF706": _recontracted(ActorWorker, "generate_sequences", None),
    }


# ---------------------------------------------------------------------------
# runtime shape recorder + cross-validation
# ---------------------------------------------------------------------------


#: Batches :class:`ShapeRecorder` keeps per call site.
_SAMPLES_PER_CALL = 8


class ShapeRecorder:
    """Samples collected batch shapes, in a real run or in the probe.

    Attach as ``controller.shape_recorder``; the worker-group dispatch
    records every collected :class:`DataBatch` (metrics dicts and futures
    are counted but not sampled).  Sampling is capped per call site so a
    long training run stays O(1) in memory.
    """

    def __init__(self) -> None:
        #: (group, method) -> list of {column: (shape, dtype)} samples
        self.samples: Dict[
            Tuple[str, str], List[Dict[str, Tuple[Tuple[int, ...], str]]]
        ] = {}
        self.skipped = 0

    def record(self, group_name: str, method_name: str, result: Any) -> None:
        if not isinstance(result, DataBatch):
            self.skipped += 1
            return
        bucket = self.samples.setdefault((group_name, method_name), [])
        if len(bucket) >= _SAMPLES_PER_CALL:
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
    """Per-call output shapes for a constructed system: the first batch the
    probe's own :class:`ShapeRecorder` sampled at each call, run over the
    system's bindings.  Keys match a runtime recorder's (group == role)."""
    checker = ShapeFlowChecker()
    checker.check_system(system, batch_size=batch_size, prompt_length=prompt_length)
    return {key: samples[0] for key, samples in checker.recorder.samples.items()}


def cross_validate(
    recorder: ShapeRecorder,
    predictions: Dict[Tuple[str, str], Dict[str, Tuple[Tuple[int, ...], str]]],
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Compare recorded runtime shapes against the probe's.

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
        location = "{}.{}[recorded]".format(*key)
        for sample in samples:
            report.note_checked("recorded_samples")
            problems = [] if set(sample) == set(predicted) else [(
                "SF701",
                f"recorded columns {sorted(sample)} differ from the "
                f"static prediction {sorted(predicted)}",
            )]
            for name, want in sorted(predicted.items()) if not problems else ():
                problems += _mismatches(f"column {name!r}", sample[name], want, _RECORDED)[:1]
            for rule, message in problems:
                report.add(rule, ERROR, message, location, SF_RULES[rule][1])
    for key in sorted(predictions):
        if key not in recorder.samples:
            report.note_checked("unsampled_predictions")
    return report


__all__ = [
    "SF_RULES",
    "ContractError",
    "parse_contract",
    "divisible_for_every_b",
    "ShapeFlowChecker",
    "shipped_graph_reports",
    "mutants",
    "ShapeRecorder",
    "predict_system_outputs",
    "cross_validate",
]
