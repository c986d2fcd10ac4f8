"""Tests of the benchmark itself: generators, fault accounting, output checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402
from alertmpc import cli  # noqa: E402
from alertmpc.domain import AmiModel, DlModel, IdtModel, ModelSet  # noqa: E402

BOX = (25.0, 27.0, 450.0, 750.0)


def small_stream(seed=3):
    return gen.daemon_stream(seed, workers=6, readings=4, windows=10, malformed_share=0.1, late_share=0.05)


def run_noc_daemon(plan):
    cfg, de = cli.parse_control_config(str(ROOT / "src/alertmpc/configs/case2_noc.cfg"))
    doc = gen.model_document()
    models = ModelSet(
        dl=DlModel(intercept=doc["dl"]["intercept"], coef=dict(doc["dl"]["coef"])),
        idt=IdtModel(**doc["idt"]),
        ami=AmiModel(**doc["ami"]),
    )
    records = []
    stats = cli.run_daemon(models, cfg, de, iter(plan.lines), records.append)
    return records, stats


class TestGenerators:
    def test_daemon_stream_is_deterministic(self):
        assert small_stream(3) == small_stream(3)
        assert small_stream(3).lines != small_stream(4).lines

    def test_telemetry_is_deterministic(self):
        assert gen.telemetry_rows(7, 3, 50) == gen.telemetry_rows(7, 3, 50)
        assert gen.telemetry_rows(7, 3, 50) != gen.telemetry_rows(8, 3, 50)

    def test_scenario_seeds_are_deterministic_and_distinct(self):
        seeds = gen.scenario_seeds(5, 100)
        assert seeds == gen.scenario_seeds(5, 100)
        assert len(set(seeds)) == 100

    def test_stream_plan_places_gap_and_faults(self):
        plan = small_stream()
        assert plan.expected_status[0] == "warmup"
        assert plan.expected_status[plan.gap_window : plan.gap_window + 2] == ("stale", "stale")
        assert plan.expected_status.count("stale") == 2
        assert plan.malformed > 0 and plan.late > 0
        # the first line after the gap closes two windows at once
        assert sum(plan.closing) == len(plan.expected_status) - 1


class TestFaultAccounting:
    def test_injected_counts_match_daemon_report(self):
        plan = small_stream()
        records, stats = run_noc_daemon(plan)
        assert stats["malformed"] == plan.malformed
        assert stats["late"] == plan.late
        assert stats["records_in"] == len(plan.lines)
        assert tuple(r["status"] for r in records) == plan.expected_status
        assert checks.check_daemon(plan, records, stats, BOX) == []
        assert checks.window_problems(plan, records, BOX) == []


class TestChecksRejectWrongOutput:
    @pytest.fixture
    def daemon_output(self):
        plan = small_stream()
        records, stats = run_noc_daemon(plan)
        return plan, records, stats

    def test_wrong_status(self, daemon_output):
        plan, records, stats = daemon_output
        records[-1] = dict(records[-1], status="stale")
        assert checks.check_daemon(plan, records, stats, BOX)
        assert len(checks.window_problems(plan, records, BOX)) == 1

    def test_setpoint_outside_box(self, daemon_output):
        plan, records, stats = daemon_output
        records[3] = dict(records[3], temp_set_c=27.5)
        assert checks.check_daemon(plan, records, stats, BOX)

    def test_miscounted_faults(self, daemon_output):
        plan, records, stats = daemon_output
        assert checks.check_daemon(plan, records, dict(stats, malformed=stats["malformed"] - 1), BOX)
        assert checks.check_daemon(plan, records, dict(stats, late=stats["late"] + 1), BOX)

    def test_changed_repetition(self, daemon_output):
        plan, records, stats = daemon_output
        first = checks.digest(records)
        records[2] = dict(records[2], illum_set_lx=records[2]["illum_set_lx"] + 1e-9)
        assert checks.check_daemon(plan, records, stats, BOX, first)

    def test_arm_checks(self):
        assert checks.check_arm_runs([0.0, 0.0, 0.0], wins=2, pairs=3) == []
        assert checks.check_arm_runs([0.0, 0.25], wins=2, pairs=2)
        assert checks.check_arm_runs([0.0, 0.0], wins=1, pairs=2)
        assert checks.check_prefix("a", "b", "seed 1 MPC2")

    def test_fit_checks(self):
        truth = checks.flatten_models(gen.TRUTH_DL, gen.TRUTH_IDT, gen.TRUTH_AMI)
        assert checks.check_fits(dict(truth), truth) == []
        for key in ("dl.illum", "idt.k_up", "ami.theta_set"):
            wrong = dict(truth)
            wrong[key] += 10 * checks.FIT_TOLERANCE[key]
            assert checks.check_fits(wrong, truth)


def test_fits_recover_generator_truth(tmp_path):
    path = tmp_path / "telemetry.csv"
    path.write_text("\n".join(gen.telemetry_rows(11, 24, 1000)) + "\n")
    from alertmpc import identify

    table = cli.read_telemetry_csv(str(path))
    dl, _ = identify.fit_dl_model(table)
    idt, _ = identify.fit_idt_coeffs(table)
    ami, _ = identify.fit_ami_model(table)
    truth = checks.flatten_models(gen.TRUTH_DL, gen.TRUTH_IDT, gen.TRUTH_AMI)
    assert checks.check_fits(checks.flatten_models(dl, idt, ami), truth) == []


class TestTracing:
    def test_missing_hook_is_absent_not_fatal(self):
        tracer = spans.Tracer()
        hooks = [
            spans.Hook("models.rollout", "alertmpc.mpc", "no_such_rollout"),
            spans.Hook("mpc.solve", "alertmpc.mpc", "solve"),
        ]
        tracer.install(hooks)
        tracer.uninstall()
        assert "models.rollout" in tracer.absent
        metrics = spans.layer_metrics(tracer, wall_s=1.0)
        value, unit, reason = metrics["models.eval_calls"]
        assert value is None and "no_such_rollout" in reason
        assert metrics["mpc.solve_ms_p50"][2] is None

    def test_uninstall_restores_originals(self):
        import alertmpc.mpc as mpc

        before = (mpc.rollout, mpc.Controller.__dict__["decide"])
        tracer = spans.Tracer()
        tracer.install()
        assert mpc.rollout is not before[0]
        tracer.uninstall()
        assert (mpc.rollout, mpc.Controller.__dict__["decide"]) == before

    def test_self_time_subtracts_direct_children(self):
        fake = [
            ["a", 0.0, 10.0, -1, -1, None],
            ["b", 1.0, 4.0, 0, -1, None],
            ["c", 2.0, 3.0, 1, -1, None],
            ["d", 5.0, 6.0, 0, -1, None],
        ]
        assert spans.self_times(fake) == [6.0, 2.0, 1.0, 1.0]

    def test_spans_nest_with_decision_ids(self):
        tracer = spans.Tracer()
        outer = tracer.wrap("mpc.decide", lambda: inner(), new_decision=True)
        inner = tracer.wrap("mpc.solve", lambda: 1)
        outer()
        outer()
        names = [(s[spans.NAME], s[spans.PARENT], s[spans.DECISION]) for s in tracer.spans]
        assert names == [("mpc.decide", -1, 0), ("mpc.solve", 0, 0), ("mpc.decide", -1, 1), ("mpc.solve", 2, 1)]


class TestYardstick:
    def test_scale_brings_times_to_reference_speed(self):
        ref = yardstick.REFERENCE_S
        assert yardstick.scale(ref, ref) == pytest.approx(1.0)
        # a host running at 1/1.6 of reference speed: times shrink by 1.6
        assert yardstick.scale(1.6 * ref, 1.6 * ref) == pytest.approx(1 / 1.6)

    def test_samples_are_kept_and_summed(self):
        stick = yardstick.Yardstick()
        mark = stick.mark()
        stick.measure()
        stick.measure()
        assert len(stick.samples) == 2
        assert stick.spent == pytest.approx(sum(stick.samples))
        assert stick.scale_since(mark) > 0

    def test_timed_calls_restores_and_tolerates_missing_function(self):
        import alertmpc.mpc as mpc

        before = mpc.Controller.__dict__["decide"]
        samples = []
        with run.timed_calls(yardstick.Yardstick(), samples):
            assert mpc.Controller.__dict__["decide"] is not before
        assert mpc.Controller.__dict__["decide"] is before
        with run.timed_calls(yardstick.Yardstick(), samples, attr="Controller.no_such_decide"):
            pass
        with run.timed_calls(None, samples):
            assert mpc.Controller.__dict__["decide"] is before
        assert samples == []

    def test_unit_timings_carry_speed_factors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "WORK", tmp_path)
        (tmp_path / "model.json").write_text(json.dumps(gen.model_document()))
        monkeypatch.setattr(run.DaemonFloor, "windows", 6)
        workload = run.DaemonFloor(5)
        out = workload.unit(0, yardstick.Yardstick())
        assert out.problems == []
        assert out.busy_s > 0 and out.reference_s > 0
        ok_windows = workload.plans[0].expected_status.count("ok")
        assert len(out.timings) == ok_windows
        assert all(s > 0 and f > 0 for s, f in out.timings)
        assert all(f == 1.0 for _, f in workload.unit(1, None).timings)
        assert workload.plans[0].lines != workload.plans[1].lines
        # the stream comes round again and its pass must repeat the first one
        assert workload.unit(workload.streams, None).problems == []

    def test_whole_window_ops_span_more_than_the_decision(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "WORK", tmp_path)
        (tmp_path / "model.json").write_text(json.dumps(gen.model_document()))
        monkeypatch.setattr(run.IngestDense, "windows", 6)
        monkeypatch.setattr(run.IngestDense, "readings", 4)
        workload = run.IngestDense(5)
        out = workload.unit(0, yardstick.Yardstick())
        assert out.problems == []
        assert len(out.timings) == workload.plans[0].expected_status.count("ok")
        # every op covers at least the window's lines, so the ops add up to most of the pass
        assert sum(s for s, _ in out.timings) > 0.5 * out.busy_s

    def test_identify_unit_scales_each_phase(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "WORK", tmp_path)
        out = run.IdentifyFleet(5).unit(0, yardstick.Yardstick())
        assert out.attempted == 3 and out.failed == 0
        assert out.work > 0 and out.busy_s > 0 and out.reference_s > 0
        ((seconds, factor),) = out.timings
        assert seconds == pytest.approx(out.busy_s) and factor == pytest.approx(out.reference_s / out.busy_s)


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    assert run.tail(list(range(19))) == (9, 50.0, 19)
    assert run.tail(list(range(20))) == (9, 50.0, 20)
    assert run.tail(list(range(21)))[0] == 10
    assert run.tail(list(range(5000))) == (4749, 95.0, 5000)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identify_fleet", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]


def test_benchmark_declares_every_metric_the_harness_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in declared["per_layer"]}
    assert set(spans.LAYER_METRICS) <= layer_names
    assert {f"self_share.{layer}" for layer in spans.LAYERS} <= layer_names
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
