"""Observability layer: spans, metrics, exporters, and their runtime wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.single_controller.controller as controller_mod
from repro.config import (
    ClusterSpec,
    GenParallelConfig,
    ParallelConfig,
)
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.faults import FaultInjector, FaultPlan
from repro.faults.policy import SimClock
from repro.models.tinylm import TinyLMConfig
from repro.observability import (
    MetricsRegistry,
    SpanTracer,
    chrome_trace,
    collect_system_metrics,
    pool_fractions_from_trace,
    render_chrome_trace,
)
from repro.rlhf.core import AlgoType
from repro.rlhf.trainers import TrainerConfig
from repro.runtime import (
    ModelAssignment,
    PlacementPlan,
    build_rlhf_system,
    build_timeline,
    system_report_dict,
    train_with_recovery,
)
from repro.runtime.report import metrics_summary, observability_summary
from repro.runtime.timeline import Timeline, TimelineEvent
from repro.single_controller import SingleController, Worker, WorkerGroup, register
from repro.single_controller.controller import FALLBACK_DURATION, ExecutionRecord

GOLDEN = "tests/golden/chrome_trace.json"


# -- metrics registry ---------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates_per_labelset(self):
        reg = MetricsRegistry()
        reg.counter("calls_total", "calls", method="a").inc()
        reg.counter("calls_total", method="a").inc(2)
        reg.counter("calls_total", method="b").inc()
        assert reg.value("calls_total", method="a") == 3
        assert reg.value("calls_total", method="b") == 1
        assert reg.total("calls_total") == 4

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x").inc(-1)

    def test_gauge_set_is_idempotent(self):
        reg = MetricsRegistry()
        for _ in range(3):
            reg.gauge("mem_bytes", rank=0).set(100.0)
        assert reg.value("mem_bytes", rank=0) == 100.0
        reg.gauge("mem_bytes", rank=0).set_max(50.0)
        assert reg.value("mem_bytes", rank=0) == 100.0

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 5.0))
        for v in (0.5, 3.0, 30.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(33.5)
        assert h.bucket_counts == [1, 1]

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help text", group="g").inc(2)
        reg.gauge("g_now").set(1.5)
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP c_total help text" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{group="g"} 2' in text
        assert "g_now 1.5" in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text

    def test_as_dict_is_json_safe(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(np.float32(2.5))
        json.dumps(reg.as_dict())


# -- span tracer --------------------------------------------------------------------


class TestSpanTracer:
    def test_nesting_and_clock(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        outer = tracer.begin("outer", category="iteration")
        clock.advance(1.0)
        inner = tracer.begin("inner", category="dispatch")
        clock.advance(2.0)
        tracer.end(inner)
        tracer.end(outer)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert (outer.start, outer.end) == (0.0, 3.0)
        assert (inner.start, inner.end) == (1.0, 3.0)

    def test_seq_links(self):
        tracer = SpanTracer()
        producer = tracer.end(tracer.begin("p", category="dispatch"))
        tracer.register_seq(7, producer)
        assert tracer.links_for((7, 99)) == (producer.span_id,)
        assert producer.attrs["seq"] == 7

    def test_context_manager_marks_errors(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fails", category="dispatch"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.finished
        assert span.attrs["status"] == "error"
        assert span.attrs["error"] == "RuntimeError"

    def test_out_of_order_end_unwinds_stack(self):
        tracer = SpanTracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        tracer.end(outer)  # inner never closed explicitly
        assert tracer.begin("next").parent_id is None

    def test_counts_by_category(self):
        tracer = SpanTracer()
        tracer.instant("a", category="x")
        tracer.instant("b", category="x")
        tracer.instant("c", category="y")
        assert tracer.counts_by_category() == {"x": 2, "y": 1}


# -- timeline satellites ------------------------------------------------------------


def _three_pool_timeline() -> Timeline:
    return Timeline(
        events=[
            TimelineEvent(seq=0, name="a.gen", pool="a", start=0.0, end=2.0),
            TimelineEvent(seq=1, name="b.score", pool="b", start=2.0, end=4.0),
        ]
    )


class TestTimelineWindows:
    def test_idle_fraction_defaults_to_makespan(self):
        tl = _three_pool_timeline()
        assert tl.idle_fraction("a") == pytest.approx(0.5)

    def test_idle_fraction_within_window(self):
        tl = _three_pool_timeline()
        assert tl.idle_fraction("a", within=(0.0, 2.0)) == pytest.approx(0.0)
        assert tl.idle_fraction("a", within=(2.0, 4.0)) == pytest.approx(1.0)
        assert tl.idle_fraction("a", within=tl.active_window("a")) == 0.0

    def test_active_window(self):
        tl = _three_pool_timeline()
        assert tl.active_window("b") == (2.0, 4.0)
        assert tl.active_window("missing") == (0.0, 0.0)

    def test_empty_window_is_zero(self):
        tl = _three_pool_timeline()
        assert tl.idle_fraction("a", within=(1.0, 1.0)) == 0.0

    def test_render_reports_both_fractions(self):
        out = _three_pool_timeline().render_ascii()
        assert "idle=50% (win 0%)" in out


class TestLegendMarkers:
    def _many_events(self, n: int) -> Timeline:
        return Timeline(
            events=[
                TimelineEvent(
                    seq=i, name=f"g.m{i}", pool="p", start=float(i), end=i + 1.0
                )
                for i in range(n)
            ]
        )

    def test_markers_unique_past_26(self):
        tl = self._many_events(30)
        out = tl.render_ascii(max_legend=64)
        # the 27th event is A1, not a duplicate A
        assert "  p/A1: g.m26" in out
        markers = [
            line.split(":")[0].strip()
            for line in out.splitlines()
            if line.startswith("  p/")
        ]
        assert len(markers) == len(set(markers)) == 30

    def test_legend_capped_with_explicit_remainder(self):
        out = self._many_events(30).render_ascii(max_legend=5)
        assert "... 25 more event(s)" in out
        assert out.count("  p/") == 5


class _UnlistedWorker(Worker):
    """A worker whose one method has no entry in ``DEFAULT_DURATIONS``."""

    @register(protocol="one_to_all")
    def mystery_method(self):
        return self.ctx.local_rank


class TestFallbackAccounting:
    def _controller_with_unknown_method(self):
        controller = SingleController(ClusterSpec(n_machines=1))
        trace = [
            ExecutionRecord(seq=0, group="g", method="mystery_method", pool="p"),
            ExecutionRecord(seq=1, group="g", method="mystery_method", pool="p"),
        ]
        return controller, trace

    def test_fallback_warns_once_and_counts(self):
        controller, trace = self._controller_with_unknown_method()
        controller_mod._FALLBACK_WARNED.discard("mystery_method")
        with pytest.warns(UserWarning, match="no duration model"):
            build_timeline(trace, controller.planned_duration)
        assert (
            controller.metrics.value(
                "repro_timeline_fallback_total", method="mystery_method"
            )
            == 2
        )
        # second build: counted again, but not warned again
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            build_timeline(trace, controller.planned_duration)
        assert (
            controller.metrics.value(
                "repro_timeline_fallback_total", method="mystery_method"
            )
            == 4
        )

    def test_known_methods_do_not_warn(self):
        controller = SingleController(ClusterSpec(n_machines=1))
        trace = [
            ExecutionRecord(
                seq=0, group="g", method="generate_sequences", pool="p"
            )
        ]
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            build_timeline(trace, controller.planned_duration)

    def test_dispatch_charges_the_fallback_out_loud_without_a_replay(self):
        # a run that never replays its trace still reports the flat charge:
        # the dispatch gate asks the same default model the replay does
        controller = SingleController(ClusterSpec(n_machines=1))
        group = WorkerGroup(
            _UnlistedWorker, controller.create_pool(2), controller=controller
        )
        controller_mod._FALLBACK_WARNED.discard("mystery_method")
        with pytest.warns(UserWarning, match="no duration model"):
            group.mystery_method()
        assert (
            controller.metrics.value(
                "repro_timeline_fallback_total", method="mystery_method"
            )
            == 1
        )
        assert controller.clock.now == FALLBACK_DURATION


# -- null objects: an unobserved component behaves the same and records nothing ------


class TestNullObjects:
    LM = TinyLMConfig(
        n_layers=2, hidden_size=16, n_heads=2, ffn_hidden_size=24,
        vocab_size=16, max_seq_len=32,
    )

    def _actor_group(self, controller):
        """The same 2-rank actor group with or without a controller."""
        from repro.cluster import SimCluster
        from repro.single_controller import WorkerGroup
        from repro.single_controller.resource_pool import ResourcePool
        from repro.workers import ActorWorker

        parallel = ParallelConfig(pp=1, tp=2, dp=1)
        pool = (
            controller.create_pool(2)
            if controller is not None
            else ResourcePool.allocate(SimCluster(ClusterSpec(n_machines=1)), 2)
        )
        return WorkerGroup(
            ActorWorker,
            pool,
            parallel_config=parallel,
            gen_config=GenParallelConfig.derive(parallel, 1, 1),
            controller=controller,
            name="actor",
            worker_kwargs={"model_config": self.LM, "max_new_tokens": 4},
        )

    def test_null_instruments_record_nothing(self):
        from repro.observability import NULL_METRICS, NULL_TRACER

        with NULL_TRACER.span("outer", category="x", pool="p") as span:
            span.attrs["k"] = 1
            NULL_TRACER.instant("tick")
            NULL_TRACER.register_seq(3, span)
        NULL_METRICS.counter("c_total", "help", a=1).inc(5)
        NULL_METRICS.gauge("g").set(2.0)
        NULL_METRICS.histogram("h").observe(0.3)
        assert len(NULL_TRACER) == 0 and NULL_TRACER.links_for((3,)) == ()
        assert len(NULL_METRICS) == 0 and NULL_METRICS.families() == []
        assert NULL_METRICS.total("c_total") == 0.0
        assert NULL_METRICS.render_prometheus() == ""

    def test_exception_inside_null_span_propagates(self):
        from repro.observability import NULL_TRACER

        with pytest.raises(KeyError, match="boom"):
            with NULL_TRACER.span("doomed"):
                raise KeyError("boom")
        assert len(NULL_TRACER) == 0

    def test_controllerless_group_call_matches_an_observed_one(self):
        from repro.observability import NULL_METRICS, NULL_TRACER
        from repro.single_controller import SingleController

        controller = SingleController(ClusterSpec(n_machines=1))
        observed = self._actor_group(controller)
        bare = self._actor_group(None)
        assert bare.tracer is NULL_TRACER and bare.metrics is NULL_METRICS
        prompts = PromptDataset(8, 4, vocab_size=16, seed=1).batch(0, 4)
        a = observed.generate_sequences(prompts).get()
        b = bare.generate_sequences(prompts).get()
        for column in ("sequences", "old_log_probs"):
            np.testing.assert_array_equal(a[column], b[column])
        assert controller.tracer.counts_by_category()["dispatch"] == 1
        assert controller.metrics.total("repro_dispatch_calls_total") == 1
        assert len(NULL_TRACER) == 0 and len(NULL_METRICS) == 0

    def test_bare_rollout_server_drain_matches_an_observed_one(self):
        from repro.models.tinylm import TinyLM
        from repro.observability import NULL_METRICS, NULL_TRACER
        from repro.serving import RolloutServer, ServingConfig

        model = TinyLM(self.LM, seed=4)
        config = ServingConfig(max_slots=2, block_size=4, seed=3)
        tracer, metrics = SpanTracer(SimClock()), MetricsRegistry()
        reports = []
        for server in (
            RolloutServer(model, config),
            RolloutServer(model, config, tracer=tracer, metrics=metrics),
        ):
            for length in (3, 5, 4):
                server.submit(np.arange(length), max_new_tokens=6)
            reports.append(server.drain())
        bare, observed = reports
        assert bare.to_dict() == observed.to_dict()
        for x, y in zip(bare.completed, observed.completed):
            np.testing.assert_array_equal(x.response, y.response)
            np.testing.assert_array_equal(x.log_probs, y.log_probs)
        assert tracer.counts_by_category() == {"serving": observed.n_steps + 3}
        assert metrics.total("repro_serving_tokens_total") == observed.total_tokens
        assert len(NULL_TRACER) == 0 and len(NULL_METRICS) == 0

    def test_bare_hybrid_engine_round_trip_matches_an_observed_one(self):
        from repro.hybrid_engine import HybridEngine3D
        from repro.observability import NULL_METRICS, NULL_TRACER
        from repro.single_controller import SingleController

        controller = SingleController(ClusterSpec(n_machines=1))
        observed, bare = self._actor_group(controller), self._actor_group(None)
        results = []
        for group in (observed, bare):
            engine = HybridEngine3D(group)
            report = engine.to_generation()
            shards = [dict(w.gen_shard) for w in group.workers]
            engine.to_training()
            results.append((report, shards))
        (report_a, shards_a), (report_b, shards_b) = results
        assert report_a == report_b
        for sa, sb in zip(shards_a, shards_b):
            assert sa.keys() == sb.keys()
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])
        assert controller.tracer.counts_by_category() == {"transition": 2}
        assert controller.metrics.total("repro_transitions_total") == 2
        assert len(NULL_TRACER) == 0 and len(NULL_METRICS) == 0


# -- golden-file Chrome trace -------------------------------------------------------


def golden_scenario():
    """A deterministic faulted-and-recovered scenario, built by hand.

    Emulates the span structure of a real run — an iteration with nested
    dispatches and protocol phases, a checkpoint save, then a failure with
    teardown/rebuild/restore phases — on a hand-advanced simulated clock, so
    the exported trace is byte-stable.
    """
    clock = SimClock()
    tracer = SpanTracer(clock)

    it0 = tracer.begin("iteration[0]", category="iteration", algo="ppo", iteration=0)
    gen = tracer.begin(
        "actor.generate_sequences",
        category="dispatch",
        pool="main",
        ranks=(0, 1),
        payload_bytes=1024,
        protocol="dp_compute",
        deps=[],
    )
    with tracer.span("distribute", category="protocol", pool="main"):
        pass
    with tracer.span("collect", category="protocol", pool="main"):
        pass
    clock.advance(6.0)
    tracer.end(gen)
    tracer.register_seq(0, gen)
    upd = tracer.begin(
        "actor.update_actor",
        category="dispatch",
        pool="main",
        ranks=(0, 1),
        payload_bytes=2048,
        links=tracer.links_for((0,)),
        protocol="dp_compute",
        deps=[0],
    )
    clock.advance(3.0)
    tracer.end(upd)
    tracer.register_seq(1, upd)
    tracer.end(it0)

    with tracer.span("checkpoint.save", category="checkpoint", iteration=1):
        tracer.instant("checkpoint.write", category="checkpoint", payload_bytes=4096)
        clock.advance(0.5)

    recovery = tracer.begin(
        "recovery[0]",
        category="recovery",
        pool="main",
        ranks=(1,),
        cause="device loss",
        failed_iteration=1,
    )
    with tracer.span("recovery.teardown", category="recovery"):
        pass
    with tracer.span("recovery.rebuild", category="recovery"):
        clock.advance(2.0)
    with tracer.span("recovery.restore", category="recovery"):
        tracer.instant("checkpoint.read", category="checkpoint", payload_bytes=4096)
        clock.advance(1.0)
    tracer.end(recovery, resumed_iteration=1, lost_iterations=0)

    timeline = Timeline(
        events=[
            TimelineEvent(
                seq=0, name="actor.generate_sequences", pool="main",
                start=0.0, end=6.0,
            ),
            TimelineEvent(
                seq=2, name="reward.compute_reward", pool="r",
                start=6.0, end=7.0,
            ),
            TimelineEvent(
                seq=1, name="actor.update_actor", pool="main",
                start=6.0, end=9.0,
            ),
        ]
    )
    return timeline, tracer


class TestChromeTraceGolden:
    def test_matches_golden_file(self):
        timeline, tracer = golden_scenario()
        rendered = render_chrome_trace(timeline=timeline, spans=tracer.spans)
        with open(GOLDEN) as f:
            assert rendered == f.read(), (
                "Chrome trace output drifted from tests/golden/chrome_trace.json; "
                "if the change is intentional, regenerate with "
                "python -c \"from tests.test_observability import regen_golden; "
                'regen_golden()"'
            )

    def test_golden_structure(self):
        timeline, tracer = golden_scenario()
        doc = chrome_trace(timeline=timeline, spans=tracer.spans)
        events = doc["traceEvents"]
        by_phase = {}
        for e in events:
            by_phase.setdefault(e["ph"], []).append(e)
        # two process tracks with named threads
        process_names = {
            e["args"]["name"]
            for e in by_phase["M"]
            if e["name"] == "process_name"
        }
        assert process_names == {"timeline (Figure 3 replay)", "runtime spans"}
        # flow arrows for the dataflow link gen -> update
        assert {e["id"] for e in by_phase["s"]} == {e["id"] for e in by_phase["f"]}
        assert len(by_phase["s"]) == 1
        # nesting: the recovery phases all point at the recovery span
        spans_by_name = {
            e["name"]: e for e in by_phase["X"] if e["pid"] == 1
        }
        rec_id = spans_by_name["recovery[0]"]["args"]["span_id"]
        for phase in ("recovery.teardown", "recovery.rebuild", "recovery.restore"):
            assert spans_by_name[phase]["args"]["parent_id"] == rec_id
        restore_id = spans_by_name["recovery.restore"]["args"]["span_id"]
        assert spans_by_name["checkpoint.read"]["args"]["parent_id"] == restore_id

    def test_fractions_recomputed_from_doc(self):
        timeline, tracer = golden_scenario()
        doc = chrome_trace(timeline=timeline, spans=tracer.spans)
        fractions = pool_fractions_from_trace(doc)
        assert fractions["main"]["busy"] == pytest.approx(9.0)
        assert fractions["r"]["idle_fraction"] == pytest.approx(
            timeline.idle_fraction("r")
        )


def regen_golden() -> None:
    """Rewrite the golden file from the synthetic scenario (manual tool)."""
    timeline, tracer = golden_scenario()
    with open(GOLDEN, "w") as f:
        f.write(render_chrome_trace(timeline=timeline, spans=tracer.spans))


# -- integration: a faulted-and-recovered functional run ----------------------------

CFG = TinyLMConfig(
    n_layers=2,
    hidden_size=32,
    n_heads=4,
    ffn_hidden_size=48,
    vocab_size=16,
    max_seq_len=32,
)
TASK = SyntheticPreferenceTask(vocab_size=16, target_token=7)
PAR = ParallelConfig(pp=1, tp=2, dp=1)
SPEC = ClusterSpec(n_machines=2, gpus_per_machine=4)


def build_ppo(cluster=None):
    plan = PlacementPlan(
        pools={"main": 2, "r": 1},
        assignments={
            "actor": ModelAssignment(
                "main", PAR, GenParallelConfig.derive(PAR, 1, 1)
            ),
            "critic": ModelAssignment("main", PAR),
            "reference": ModelAssignment("main", PAR),
            "reward": ModelAssignment("r", ParallelConfig(1, 1, 1)),
        },
    )
    return build_rlhf_system(
        AlgoType.PPO,
        plan,
        CFG,
        cluster_spec=SPEC,
        trainer_config=TrainerConfig(kl_coef=0.01, seed=7),
        reward_fn=TASK.reward,
        max_new_tokens=6,
        lr=5e-3,
        seed=7,
        cluster=cluster,
    )


@pytest.fixture(scope="module")
def recovered_run(tmp_path_factory):
    injector = FaultInjector(FaultPlan().kill_device(1, at_step=10))
    system, history, report = train_with_recovery(
        build_ppo,
        PromptDataset(n_prompts=128, prompt_length=4, vocab_size=16, seed=1),
        n_iterations=3,
        batch_size=8,
        checkpoint_dir=str(tmp_path_factory.mktemp("obs") / "ckpt"),
        injector=injector,
    )
    assert report.n_failures == 1
    return system, history, report


class TestRecoveredRunObservability:
    def test_exported_fractions_match_timeline(self, recovered_run):
        """The acceptance criterion: trace file vs Timeline accounting."""
        system, _, _ = recovered_run
        controller = system.controller
        timeline = build_timeline(controller.trace, controller.planned_duration)
        doc = chrome_trace(timeline=timeline, spans=controller.tracer.spans)
        # round-trip through the serialized JSON, as a viewer would read it
        doc = json.loads(json.dumps(doc))
        fractions = pool_fractions_from_trace(doc)
        assert set(fractions) == set(timeline.pools())
        for pool in timeline.pools():
            assert fractions[pool]["busy"] == pytest.approx(
                timeline.busy_time(pool), abs=1e-6
            )
            assert fractions[pool]["idle_fraction"] == pytest.approx(
                timeline.idle_fraction(pool), abs=1e-6
            )

    def test_one_tracer_spans_the_whole_run(self, recovered_run):
        system, _, _ = recovered_run
        tracer = system.controller.tracer
        counts = tracer.counts_by_category()
        for category in (
            "dispatch", "protocol", "iteration", "checkpoint",
            "recovery", "transition",
        ):
            assert counts.get(category, 0) > 0, f"no {category} spans"
        assert all(s.finished for s in tracer.spans)
        assert all(s.end >= s.start for s in tracer.spans)

    def test_recovery_span_nesting(self, recovered_run):
        system, _, report = recovered_run
        tracer = system.controller.tracer
        recovery = [
            s for s in tracer.by_category("recovery")
            if s.name.startswith("recovery[")
        ]
        assert len(recovery) == 1
        (rec,) = recovery
        assert rec.attrs["lost_iterations"] == report.events[0].lost_iterations
        assert rec.start == pytest.approx(report.events[0].detected_at)
        phases = {
            s.name for s in tracer.spans if s.parent_id == rec.span_id
        }
        assert phases == {
            "recovery.teardown", "recovery.rebuild", "recovery.restore",
        }
        # checkpoint restore happened inside the restore phase
        (restore,) = [s for s in tracer.spans if s.name == "recovery.restore"]
        reads = [
            s for s in tracer.spans
            if s.name == "checkpoint.read" and s.parent_id == restore.span_id
        ]
        assert len(reads) == 1

    def test_failed_dispatch_marked_error(self, recovered_run):
        system, _, _ = recovered_run
        tracer = system.controller.tracer
        errored = [
            s for s in tracer.by_category("dispatch")
            if s.attrs.get("status") == "error"
        ]
        assert len(errored) == 1
        assert errored[0].attrs["error"] == "WorkerLostError"

    def test_dispatch_spans_carry_dataflow_links(self, recovered_run):
        system, _, _ = recovered_run
        tracer = system.controller.tracer
        linked = [s for s in tracer.by_category("dispatch") if s.links]
        assert linked, "no dispatch spans carry provenance links"
        by_id = {s.span_id: s for s in tracer.spans}
        for span in linked:
            for link in span.links:
                assert by_id[link].category == "dispatch"

    def test_metrics_survive_recovery_without_double_counting(
        self, recovered_run
    ):
        system, history, report = recovered_run
        metrics = system.controller.metrics
        assert metrics.total("repro_worker_losses_total") == 1
        assert metrics.total("repro_recoveries_total") == 1
        assert metrics.total("repro_devices_killed_total") == 1
        assert (
            metrics.total("repro_lost_iterations_total")
            == report.total_lost_iterations
        )
        # re-run iterations are counted as work done, rolled-back history is
        # not double-kept
        assert metrics.total("repro_iterations_total") == len(
            history
        ) + report.total_lost_iterations
        assert (
            metrics.total("repro_checkpoint_saves_total")
            == report.checkpoints_saved
        )
        assert metrics.total("repro_checkpoint_restores_total") == 1

    def test_collectors_are_idempotent(self, recovered_run):
        system, _, _ = recovered_run
        controller = system.controller
        first = collect_system_metrics(controller).render_prometheus()
        second = collect_system_metrics(controller).render_prometheus()
        assert first == second
        # 2 machines x 4 GPUs, one killed by the injected fault
        assert controller.metrics.value("repro_devices_alive") == 7

    def test_tokens_generated_counted(self, recovered_run):
        system, _, _ = recovered_run
        tracer = system.controller.tracer
        metrics = system.controller.metrics
        generates = [
            s
            for s in tracer.by_category("dispatch")
            if s.name == "actor.generate_sequences"
            and s.attrs.get("status") != "error"
        ]
        # 8 prompts x 6 new tokens per successful generation dispatch
        assert metrics.total("repro_tokens_generated_total") == 8 * 6 * len(
            generates
        )


# -- report integration -------------------------------------------------------------


class TestReportSerialization:
    def test_numpy_scalars_do_not_leak_into_json(self, recovered_run):
        system, _, report = recovered_run
        system.trainer.history[-1]["np_leak"] = np.float32(1.25)
        try:
            doc = system_report_dict(system, recovery=report)
            text = json.dumps(doc)
        finally:
            del system.trainer.history[-1]["np_leak"]
        assert '"np_leak": 1.25' in text
        assert doc["recovery"]["n_failures"] == 1
        assert doc["metrics"]["repro_recoveries_total"]["children"][0]["value"] == 1

    def test_metrics_summary_includes_float32(self, recovered_run):
        system, _, _ = recovered_run
        system.trainer.history[-1]["np_leak"] = np.float32(1.25)
        try:
            lines = metrics_summary(system)
        finally:
            del system.trainer.history[-1]["np_leak"]
        assert any("np_leak = +1.2500" in line for line in lines)

    def test_observability_summary(self, recovered_run):
        system, _, _ = recovered_run
        lines = observability_summary(system)
        assert "spans" in lines[0]
        assert any("iteration" in line for line in lines)
        assert any("worker_losses=1" in line for line in lines)


# -- histogram +Inf conformance -----------------------------------------------------


class TestHistogramOverflow:
    """Prometheus conformance for observations above the largest bucket."""

    def test_overflow_counter_tracks_out_of_range_observations(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 5.0))
        for v in (0.5, 3.0, 30.0, 100.0):
            h.observe(v)
        assert h.overflow == 2
        assert h.bucket_counts == [1, 1]
        # finite buckets plus overflow account for every observation
        assert sum(h.bucket_counts) + h.overflow == h.count == 4

    def test_inf_sample_equals_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        for v in (0.5, 2.0, 9.0):
            h.observe(v)
        samples = {
            (name, dict(key).get("le")): value
            for name, key, value in h.samples("lat", ())
        }
        assert samples[("lat_bucket", "+Inf")] == h.count == 3
        assert samples[("lat_bucket", "1")] == 1
        assert samples[("lat_count", None)] == 3

    def test_as_dict_includes_inf_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 5.0))
        for v in (0.5, 30.0, 40.0):
            h.observe(v)
        (child,) = reg.as_dict()["lat"]["children"]
        assert child["buckets"][-1] == ["+Inf", 2]
        assert child["count"] == 3
        json.dumps(reg.as_dict())

    def test_prometheus_text_inf_bucket_is_cumulative(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", buckets=(1.0,)).observe(10.0)
        text = reg.render_prometheus()
        assert 'h_seconds_bucket{le="1"} 0' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text
