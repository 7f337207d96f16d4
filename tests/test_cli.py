"""Tests for the command-line interface."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main, subcommands


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["throughput", "--model", "gpt-5"])

    def test_defaults(self):
        args = build_parser().parse_args(["map"])
        args2 = build_parser().parse_args(["throughput"])
        assert args.model == args2.model == "llama-7b"
        assert args.machines == 2


class TestCommands:
    def test_throughput(self, capsys):
        assert main(["throughput", "--model", "llama-7b", "--machines", "1"]) == 0
        out = capsys.readouterr().out
        assert "HybridFlow" in out
        assert "speedup vs" in out

    def test_throughput_reports_infeasible_systems(self, capsys):
        """HybridFlow's search raises the baselines' ``InfeasibleScenario``,
        so a scenario no system fits prints a row per system, not a traceback."""
        assert main(["throughput", "--model", "llama-70b", "--machines", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4 and all(" OOM " in row for row in rows)

    def test_map(self, capsys):
        assert main(["map", "--model", "llama-7b", "--machines", "1"]) == 0
        out = capsys.readouterr().out
        assert "best mapping" in out
        assert "throughput" in out

    def test_map_remax(self, capsys):
        assert main(
            ["map", "--model", "llama-7b", "--machines", "1", "--algo", "remax"]
        ) == 0
        out = capsys.readouterr().out
        assert "critic" not in out

    def test_transition(self, capsys):
        assert main(
            [
                "transition",
                "--model",
                "llama-13b",
                "--tp",
                "8",
                "--dp",
                "2",
                "--gen-tp",
                "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "hybridflow " in out or "hybridflow  " in out
        assert "redundant= 0.00 GB" in out

    def test_sweep_gen(self, capsys):
        assert main(["sweep-gen", "--model", "llama-13b"]) == 0
        out = capsys.readouterr().out
        assert "best generation TP size" in out
        assert "t_g=8" in out

    def test_custom_workload(self, capsys):
        assert main(
            [
                "throughput",
                "--model",
                "llama-7b",
                "--machines",
                "1",
                "--batch",
                "512",
                "--prompt-length",
                "512",
                "--response-length",
                "512",
            ]
        ) == 0
        assert "512/512 tokens" in capsys.readouterr().out


class TestMapHetero:
    def test_default_zones(self, capsys):
        assert main(["map-hetero", "--model", "llama-7b"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous mapping" in out
        assert "zone" in out

    def test_bad_zone_spec(self, capsys):
        assert main(["map-hetero", "--zone", "nonsense"]) == 2
        assert "bad --zone" in capsys.readouterr().err

    def test_unknown_gpu(self, capsys):
        assert main(["map-hetero", "--zone", "z:TPU-v5:1"]) == 2


class TestUsageErrors:
    """Bad arguments leave one way: exit 2, message on stderr, nothing run."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # tracebacks before ServingConfig validated itself
            (["serve", "--slots", "0"], "max_slots"),
            (["serve", "--block-size", "0"], "block_size"),
            (["serve", "--blocks", "0"], "n_blocks"),
            (["serve", "--requests", "0"], "bad request shape"),
            (
                ["serve", "--mean-response", "40", "--max-response", "24"],
                "bad request shape",
            ),
            (["serve", "--priority-levels", "0"], "--priority-levels"),
            # exit 0: every request arrived at t=0, or none met the SLO
            (["serve", "--arrival-rate", "-1"], "--arrival-rate"),
            (["serve", "--slo-ttft", "-1"], "slo_ttft"),
            (["serve", "--slo-ttft", "0"], "slo_ttft"),
            (["serve", "--slo-latency", "-1"], "slo_latency"),
            # a model no forward could lay out: past the widest key width
            (["serve", "--prompt-length", "100", "--max-response", "40"], "key width 144"),
            (["faults", "--kill-device", "99"], "--kill-device 99 out of range"),
            (["faults", "--kill-machine", "2"], "--kill-machine 2 out of range"),
            # exit 0 having verified nothing
            (["faults", "--iterations", "0"], "--iterations"),
            # tracebacks from FaultEvent, one after the whole run
            (["faults", "--at-step", "-5", "--kill-device", "1"], "--at-step must be >= 0"),
            (["faults", "--transients", "-1"], "--transients must be >= 0"),
            (["faults", "--mtbf", "0"], "--mtbf must be > 0"),
            # exit 1 as "unrecoverable failure"
            (["faults", "--machines", "0"], "--machines must be >= 1"),
            (["faults", "--gpus-per-machine", "0"], "--gpus-per-machine must be >= 1"),
            (["faults", "--ckpt-every", "0"], "--ckpt-every must be >= 1"),
            # exit 1 as "cluster exhausted" after the job started
            (["faults", "--gpus-per-machine", "1"], "places 3 GPUs (main 2, r 1)"),
            (["pipeline", "--iterations", "0"], "n_iterations"),
            # a traceback from DataBatch.chunk
            (["pipeline", "--batch", "3"], "not divisible"),
            (["pipeline", "--staleness", "-1"], "staleness_window"),
            # 3 machines in racks of 2 are 2 racks; a ZeroDivisionError
            (["fleet", "--kill-rack", "2"], "out of range for 2 rack(s)"),
            (["fleet", "--kill-rack", "0", "--machines-per-rack", "0"],
             "--machines-per-rack"),
            (["fleet", "--jobs", "0"], "--jobs"),
            # tracebacks from int(), ClusterZone and map_dataflow
            (["map", "--machines", "0"], "--machines must be >= 1"),
            (["throughput", "--machines", "-1"], "--machines must be >= 1"),
            (["map-hetero", "--zone", "a:A100-80GB:x"], "bad --zone 'a:A100-80GB:x'"),
            (["map-hetero", "--zone", "a:A100-80GB:0"], "MACHINES must be >= 1"),
            (["map-hetero", "--zone", "a:A100-80GB:-2"], "MACHINES must be >= 1"),
            (["map-hetero", "--zone", "a:A100-80GB:1", "--zone", "a:H100-80GB:1"],
             "zone 'a' is named twice"),
            # tracebacks
            (["transition", "--tp", "0"], "--tp must be >= 1, got 0"),
            (["sweep-gen", "--tp", "0"], "--tp must be >= 1, got 0"),
            (["transition", "--gen-tp", "3"],
             "--gen-tp 3: generation MP size 3 must divide training MP size 8"),
            (["throughput", "--batch", "0"], "--batch must be >= 1, got 0"),
            (["fleet", "--iterations", "0"], "--iterations must be >= 1, got 0"),
            (["fleet", "--ckpt-every", "0"], "--ckpt-every must be >= 1, got 0"),
            (["fleet", "--kill-machine", "0", "--at-tick", "-1"],
             "--at-tick must be >= 0, got -1"),
            (["serve", "--seed", "-1"], "--seed must be >= 0, got -1"),
            # exit 1, reported as a run failure
            (["fleet", "--machines", "0"], "--machines must be >= 1, got 0"),
            (["fleet", "--machines", "1", "--gpus-per-machine", "2"],
             "job0 needs 3 GPUs at its narrowest (dp=1) but --machines 1 x "
             "--gpus-per-machine 2 give 2"),
            (["faults", "--seed", "-1", "--iterations", "1"],
             "--seed must be >= 0, got -1"),
            # exit 0 with a nonsense result, or having checked nothing
            (["map", "--prompt-length", "0"], "--prompt-length must be >= 1, got 0"),
            (["throughput", "--response-length", "0"],
             "--response-length must be >= 1, got 0"),
            (["sweep-gen", "--reserved-gb", "-5"], "--reserved-gb must be >= 0, got -5.0"),
            (["check", "--batch", "0"], "--batch must be >= 1, got 0"),
            (["check", "--models", "--mc-states", "0"], "--mc-states must be >= 1, got 0"),
            (["check", "--models", "--mc-depth", "0"], "--mc-depth must be >= 1, got 0"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_exit_2_with_message_and_no_output(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--model", "llama-70b", "--machines", "1"],
            ["map-hetero", "--model", "llama-70b"],
        ],
        ids=" ".join,
    )
    def test_no_feasible_mapping_is_exit_1_with_one_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("no feasible mapping for")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_a_run_that_fails_is_exit_1_not_usage(self, capsys):
        # one machine, and it dies: a real failure, detected mid-run
        assert main(
            ["faults", "--machines", "1", "--kill-machine", "0",
             "--at-step", "5", "--iterations", "2"]
        ) == 1
        assert "unrecoverable failure" in capsys.readouterr().err

    def test_a_training_tp_no_power_of_two_divides_sweeps_what_does(self, capsys):
        # t_g=2 does not divide a training MP size of 3: a traceback once
        assert main(["sweep-gen", "--tp", "3", "--model", "llama-13b"]) == 0
        out = capsys.readouterr().out
        assert "t_g=1:" in out and "t_g=2:" not in out

    def test_the_partial_last_rack_can_be_killed(self, capsys):
        # the CLI's own defaults (3 machines, racks of 2) have a rack 1
        assert main(
            ["fleet", "--kill-rack", "1", "--at-tick", "1", "--iterations", "2",
             "--no-checks"]
        ) == 0
        assert "4 device(s) killed" in capsys.readouterr().out


#: (subcommand, flag, type, bound) for every flag with a bound: its own, or
#: the one the config field it feeds declares.
BOUNDED = [
    (name, action.option_strings[0], action.type, action.bound)
    for name, command in subcommands(build_parser()).items()
    for action in command._actions
    if getattr(action, "bound", None)
]


def _outside(kind, bound):
    """``(the nearest value outside bound, a strategy for any outside)``."""
    ((key, limit),) = bound.items()
    if kind is int:
        edge = limit - 1 if key == "ge" else limit
        return edge, st.integers(max_value=edge)
    values = st.floats(
        max_value=limit, exclude_max=key == "ge", allow_nan=False, allow_infinity=False
    )
    return (limit - 1e-9 if key == "ge" else limit), values


class TestEveryBound:
    """For every subcommand and every bounded setting it exposes, a value
    outside the bound exits 2 with one stderr line naming the flag, and runs
    and prints nothing."""

    def test_the_bounds_are_read_from_the_parser(self):
        flags = {(name, flag) for name, flag, _, _ in BOUNDED}
        assert len(flags) >= 50
        assert ("serve", "--slots") in flags and ("fleet", "--at-tick") in flags
        assert all(kind in (int, float) for _, _, kind, _ in BOUNDED)

    @pytest.mark.parametrize(
        "name, flag, kind, bound", BOUNDED, ids=[f"{n} {f}" for n, f, _, _ in BOUNDED]
    )
    @settings(
        derandomize=True,
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_a_value_outside_exits_2_naming_the_flag(
        self, name, flag, kind, bound, data, capsys
    ):
        edge, values = _outside(kind, bound)
        for value in (edge, data.draw(values)):
            # `=`: argparse reads a bare "-1e-09" as an option, not a value
            assert main([name, f"{flag}={value}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith(f"{flag} must be ")


    @pytest.mark.parametrize(
        "name, flag, kind, bound", BOUNDED, ids=[f"{n} {f}" for n, f, _, _ in BOUNDED]
    )
    def test_an_unreadable_value_exits_2_naming_the_flag(
        self, name, flag, kind, bound, capsys
    ):
        with pytest.raises(SystemExit) as exit_:
            main([name, flag, "x"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{flag}: invalid {kind.__name__} value: 'x'\n"


class TestFaults:
    def test_device_kill_recovers(self, capsys):
        assert main(
            [
                "faults",
                "--iterations",
                "2",
                "--kill-device",
                "0",
                "--at-step",
                "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "recovery: 1 failure(s)" in out
        assert "device loss" in out
        assert "goodput vs checkpoint interval" in out
        assert "Young optimal interval" in out

    def test_no_faults_clean_run(self, capsys):
        assert main(["faults", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovery: 0 failure(s)" in out

    def test_goodput_curve_is_the_jobs_not_the_accidents(self, capsys):
        """The analytic model is fed the measured mean of the iterations that
        completed (16.0 s on the shipped job): an aborted iteration's partial
        time is not averaged in, so a fault does not move the curve."""

        def analytic_model(argv):
            assert main(["faults", *argv]) == 0
            return capsys.readouterr().out.split("analytic model")[1].split("\n")

        clean = analytic_model([])
        assert clean[1] == (
            "  Young optimal interval: 2.0s of work (~0.1 iterations)"
        )
        assert [line.split(": ")[1] for line in clean[3:9]] == [
            "0.9972", "0.9950", "0.9906", "0.9820", "0.9651", "0.9331",
        ]
        assert analytic_model(["--kill-machine", "0", "--machines", "2"]) == clean

    def test_a_fault_that_never_fires_fails_the_run(self, capsys):
        # 3 iterations are dispatches 0..20: a kill armed at the default
        # --at-step 30 used to print "0 device(s) killed" and exit 0
        assert main(["faults", "--iterations", "3", "--kill-device", "1"]) == 1
        err = capsys.readouterr().err
        assert "never fired: device_loss at step 30" in err
        assert "last dispatch was seq 20" in err

    def test_trace_and_metrics_of_a_recovered_run(
        self, capsys, tmp_path, monkeypatch
    ):
        import json
        import re

        import repro.cli
        from repro.observability import pool_fractions_from_trace
        from repro.runtime.timeline import build_timeline

        # keep the system the run ends with, to hold the trace to its Timeline
        kept, train = {}, repro.cli._train_shipped_job

        def keeping(*args):
            kept["system"], history, report = train(*args)
            return kept["system"], history, report

        monkeypatch.setattr(repro.cli, "_train_shipped_job", keeping)
        trace, prom = tmp_path / "run.json", tmp_path / "run.prom"
        assert main(
            ["faults", "--iterations", "2", "--kill-device", "1",
             "--at-step", "5", "--trace", str(trace), "--metrics", str(prom)]
        ) == 0
        out = capsys.readouterr().out
        assert "recovery: 1 failure(s)" in out
        assert "MISMATCH" not in out

        controller = kept["system"].controller
        timeline = build_timeline(controller.trace, controller.planned_duration)
        fractions = pool_fractions_from_trace(json.loads(trace.read_text()))
        assert sorted(fractions) == sorted(timeline.pools())
        for pool in timeline.pools():
            assert fractions[pool]["busy"] == pytest.approx(
                timeline.busy_time(pool), abs=1e-6
            )
            assert fractions[pool]["idle_fraction"] == pytest.approx(
                timeline.idle_fraction(pool), abs=1e-6
            )

        typed, families = {}, set()
        sample = re.compile(r"([a-z_]+)(\{[^}]*\})? (\S+)")
        for line in prom.read_text().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                typed[name] = kind
            elif not line.startswith("# HELP "):
                name, _labels, value = sample.fullmatch(line).groups()
                float(value)
                families.add(name)
        assert typed["repro_dispatch_calls_total"] == "counter"
        assert "repro_dispatch_calls_total" in families
        assert all(
            any(name == f or name.startswith(f + "_") for f in typed)
            for name in families
        )

    def test_trace_that_disagrees_with_the_timeline_fails(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.observability

        monkeypatch.setattr(
            repro.observability,
            "pool_fractions_from_trace",
            lambda doc: {"main": {"busy": 0.0, "idle_fraction": 1.0}},
        )
        assert main(
            ["faults", "--iterations", "2", "--trace", str(tmp_path / "t.json")]
        ) == 1
        captured = capsys.readouterr()
        assert "trace does not match timeline accounting" in captured.err
        assert "MISMATCH" in captured.out


class TestServe:
    def test_matched_workload_cross_checks_against_analytic_model(self, capsys):
        # the analytic model left is static wave batching's step count; the
        # engine is its own Orca schedule (tests/test_serving.py)
        assert main(["serve", "--requests", "12"]) == 0
        out = capsys.readouterr().out
        assert "slot utilisation" in out
        assert (
            "  static wave batching : 45 steps for the same responses "
            "(1.25x the engine's 36)"
        ) in out.splitlines()
        assert "analytic cross-check" not in out

    def test_bursty_prioritised_run_with_slos(self, capsys):
        assert main(
            [
                "serve",
                "--requests",
                "10",
                "--eos",
                "0",
                "--arrival-rate",
                "0.5",
                "--priority-levels",
                "3",
                "--slo-ttft",
                "0.5",
                "--slo-latency",
                "1.0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO attainment" in out
        assert "eos=" in out

    def test_tight_blocks_force_preemption(self, capsys):
        assert main(
            [
                "serve",
                "--requests",
                "8",
                "--prompt-length",
                "6",
                "--mean-response",
                "8",
                "--max-response",
                "12",
                "--slots",
                "4",
                "--block-size",
                "4",
                "--blocks",
                "9",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "preemptions          : 0" not in out
        assert "tokens recomputed" in out

    def test_rejects_bad_priority_levels(self, capsys):
        assert main(["serve", "--priority-levels", "0"]) == 2


class TestCheckCommand:
    def test_sharding_and_races_passes_run(self, capsys):
        assert main(["check", "--skip", "lint", "--skip", "dataflow"]) == 0
        out = capsys.readouterr().out
        assert "geometry_cross_checks" in out
        assert "zero_configs" in out
        assert "repro check passed" in out

    def test_format_json_emits_report_on_stdout(self, capsys):
        import json as json_mod

        assert main(
            [
                "check",
                "--format",
                "json",
                "--skip",
                "lint",
                "--skip",
                "dataflow",
                "--skip",
                "trace",
                "--skip",
                "races",
            ]
        ) == 0
        captured = capsys.readouterr()
        doc = json_mod.loads(captured.out)
        assert doc["name"] == "repro check"
        assert doc["n_errors"] == 0
        assert "findings" in doc
        # human summary moved to stderr
        assert "repro check passed" in captured.err

    def test_json_is_spelled_format_json(self, capsys):
        # `--json` was an alias of `--format json`: one flag per setting
        with pytest.raises(SystemExit) as exit_:
            main(["check", "--json", "--skip", "lint"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    def test_models_pass_explores_protocols_and_writes_report(
        self, capsys, tmp_path
    ):
        import json as json_mod

        mc_path = tmp_path / "mc_report.json"
        assert main(
            [
                "check",
                "--strict",
                "--models",
                "--mc-report",
                str(mc_path),
                "--skip",
                "lint",
                "--skip",
                "dataflow",
                "--skip",
                "sharding",
                "--skip",
                "trace",
                "--skip",
                "races",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "mc_models" in out
        assert "repro check passed" in out
        doc = json_mod.loads(mc_path.read_text())
        assert doc["max_depth"] == 400
        assert sum(m["states"] for m in doc["models"]) >= 10_000
        assert all(m["counterexamples"] == [] for m in doc["models"])

    def test_mc_budget_flags_are_forwarded(self, capsys, tmp_path):
        import json as json_mod

        mc_path = tmp_path / "mc_small.json"
        main(
            [
                "check",
                "--models",
                "--mc-states",
                "50",
                "--mc-report",
                str(mc_path),
                "--skip",
                "lint",
                "--skip",
                "dataflow",
                "--skip",
                "sharding",
                "--skip",
                "trace",
                "--skip",
                "races",
            ]
        )
        capsys.readouterr()
        doc = json_mod.loads(mc_path.read_text())
        assert doc["max_states"] == 50
        assert any(m["truncated"] for m in doc["models"])
        assert all(m["states"] <= 51 for m in doc["models"])

    def test_failure_line_lists_family_counts(self, capsys, tmp_path):
        # lint a file with a seeded violation: non-zero exit and the summary
        # names the failing rule family with its count
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(
            [
                "check",
                str(bad),
                "--skip",
                "dataflow",
                "--skip",
                "sharding",
                "--skip",
                "trace",
                "--skip",
                "races",
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "repro check FAILED [RL3xx=1]" in err

    def test_an_indivisible_batch_is_reported_by_the_shapes_pass_alone(self, capsys):
        # the dataflow pass runs too: batch divisibility is SF703's, once
        # per call that splits, and no DF1xx repeats it
        argv = ["check", "--batch", "3"]
        for name in ("lint", "sharding", "trace", "races"):
            argv += ["--skip", name]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "SF703" in captured.out and "DF1" not in captured.out
        assert "repro check FAILED [SF7xx=" in captured.err
        assert "DF1xx" not in captured.err


class TestBenchCommand:
    """`repro bench` — perf-trajectory record, check gate, fleet compare."""

    WL = ["--workload", "sequential_generate"]

    def test_update_then_check_roundtrip(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_perf.json"
        assert main(["bench", "--update", "--baseline", str(baseline),
                     *self.WL]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["bench", "--check", "--baseline", str(baseline),
                     *self.WL]) == 0
        out = capsys.readouterr().out
        assert "sequential_generate" in out
        assert "tokens" in out and "[exact] 128" in out

    def test_check_without_baseline_exits_2(self, capsys, tmp_path):
        assert main(["bench", "--check", "--baseline",
                     str(tmp_path / "missing.json"), *self.WL]) == 2
        assert "no baseline" in capsys.readouterr().err.lower()

    def test_check_fails_on_regression(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "BENCH_perf.json"
        assert main(["bench", "--update", "--baseline", str(baseline),
                     *self.WL]) == 0
        doc = json.loads(baseline.read_text())
        doc["workloads"]["sequential_generate"]["metrics"]["tokens"][
            "value"
        ] = 1
        baseline.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bench", "--check", "--baseline", str(baseline),
                     *self.WL]) == 1
        assert "tokens" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["bench", "--workload", "bogus"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_out_writes_record(self, tmp_path):
        import json

        out = tmp_path / "rec.json"
        assert main(["bench", "--out", str(out), *self.WL]) == 0
        doc = json.loads(out.read_text())
        assert "sequential_generate" in doc["workloads"]

    def test_async_overlap_workload(self, capsys, tmp_path):
        baseline = tmp_path / "BENCH_perf.json"
        wl = ["--workload", "async_ppo_overlap"]
        assert main(["bench", "--update", "--baseline", str(baseline),
                     *wl]) == 0
        out = capsys.readouterr().out
        assert "overlap_speedup" in out
        assert "staleness0_bit_exact" in out
        assert main(["bench", "--check", "--baseline", str(baseline),
                     *wl]) == 0

    def test_fleet_compare_mode(self, capsys, tmp_path):
        import json

        rec = {
            "benchmark": "fleet_chaos", "jobs": 3, "cluster_gpus": 16,
            "devices_killed": 8, "all_completed": True, "ok": True,
            "goodput_mean": 0.8, "analysis_findings": {},
        }
        current = tmp_path / "cur.json"
        baseline = tmp_path / "base.json"
        current.write_text(json.dumps(rec))
        baseline.write_text(json.dumps(rec))
        assert main(["bench", "--check", "--fleet",
                     "--current", str(current),
                     "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        bad = dict(rec, jobs=5)
        current.write_text(json.dumps(bad))
        assert main(["bench", "--check", "--fleet",
                     "--current", str(current),
                     "--baseline", str(baseline)]) == 1
        assert "jobs" in capsys.readouterr().err


class TestPipelineCommand:
    """`repro pipeline` — the async one-step-off gate."""

    def test_default_run_passes_self_check(self, capsys):
        assert main(["pipeline", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact with synchronous run_step" in out
        assert "staleness_window=1" in out
        assert "speedup" in out

    def test_trace_gate_runs_race_detector(self, capsys, tmp_path):
        trace = tmp_path / "async.json"
        assert main(
            ["pipeline", "--iterations", "2", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert trace.exists()
        assert "race detector: overlapped schedule is clean" in out

    def test_staleness_zero_is_allowed(self, capsys):
        assert main(["pipeline", "--staleness", "0",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "max_staleness_seen=0" in out
