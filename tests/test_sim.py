import gc
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

import alertmpc.mpc as mpc_mod
import alertmpc.sim as sim_mod
from alertmpc.domain import (
    AmiModel,
    ConfigError,
    ControlMode,
    MpcConfig,
    NonFiniteSetting,
    StateSnapshot,
    WorkerState,
    increments,
)
from alertmpc.formats import read_trace_csv, write_trace_csv
from alertmpc.models import predict_ami, predict_dl, predict_idt, rollout
from alertmpc.mpc import Controller
from alertmpc.optimizer import DeParams, NonFiniteObjective
from alertmpc.sim import (
    ARMS,
    DRAW_BYTES_CEILING,
    ArmComparison,
    Metrics,
    PlantConfig,
    PlantOutOfRange,
    TRACE_BYTES_CEILING,
    ScenarioConfig,
    SimTrace,
    TraceStep,
    compare_arms,
    compute_metrics,
    initial_state,
    plant_step,
    run_open_loop,
    run_scenario,
    scenario_for_arm,
    step_rng,
    trace_nbytes,
)

from helpers import CASE1_MODELS, solve_failing_at, trace_to_telemetry, working_day_drift


TRUE_DL, TRUE_IDT, TRUE_AMI = CASE1_MODELS.dl, CASE1_MODELS.idt, CASE1_MODELS.ami


def quiet_plant(**overrides):
    defaults = dict(
        true_idt=TRUE_IDT, true_ami=TRUE_AMI, true_dl=TRUE_DL,
        idt_noise_sd=0.0, ami_noise_sd=0.0, dl_noise_sd=0.0,
        effort_sd=0.0, substeps=1,
        init_temp=26.5, init_illum=520.0, init_dl=2.2,
    )
    defaults.update(overrides)
    return PlantConfig(**defaults)


def noisy_plant(**overrides):
    base = dict(idt_noise_sd=0.05, ami_noise_sd=5.0, dl_noise_sd=0.05,
                effort_sd=0.05, substeps=4)
    base.update(overrides)
    return quiet_plant(**base)


FAST_DE = DeParams(population_size=12, max_generations=10, tolerance=0.0, seed=900)


def hex_fields(snapshot):
    """Every float of a StateSnapshot as float.hex, so -0.0 differs from 0.0."""
    room = (snapshot.temp_current, snapshot.illum_current)
    return tuple(tuple(map(float.hex, astuple(w))) for w in snapshot.workers), tuple(map(float.hex, room))


def small_scenario(mode=ControlMode.MPC2, plant=None, **overrides):
    cfg = MpcConfig(mode=mode, num_workers=1)
    defaults = dict(
        steps=6, seed=0,
        plant=plant if plant is not None else noisy_plant(),
        mpc_cfg=cfg, de=FAST_DE,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestPlantStep:
    def start_state(self):
        return StateSnapshot((WorkerState(2.0),), temp_current=28.0, illum_current=520.0)

    def test_zero_noise_matches_models(self):
        plant = quiet_plant()
        out = plant_step(plant, self.start_state(), (26.0, 600.0), 0, 0)
        assert out.temp_current == predict_idt(TRUE_IDT, 28.0, 26.0)
        assert out.temp_current == pytest.approx(27.1, abs=1e-12)  # lowering branch
        assert out.illum_current == predict_ami(TRUE_AMI, 520.0, 600.0)
        assert out.workers[0].effort == 0.0
        tp, tm = increments(out.temp_current, 28.0)
        lp, lm = increments(out.illum_current, 520.0)
        want_dl = predict_dl(TRUE_DL, 2.0, 0.0, 0.0, out.temp_current, tp, tm,
                             out.illum_current, lp, lm, 0.0)
        assert out.workers[0].d_current == want_dl
        assert out.workers[0].d_minus == 2.0 - want_dl
        assert out.workers[0].d_plus == 0.0

    def test_drift_enters_additively(self):
        base = plant_step(quiet_plant(), self.start_state(), (26.0, 600.0), 0, 1)
        bumped = plant_step(quiet_plant(drift=(0.0, 0.1)), self.start_state(), (26.0, 600.0), 0, 1)
        assert bumped.workers[0].d_current == pytest.approx(base.workers[0].d_current + 0.1, abs=1e-12)

    def test_ambient_pull_is_capped(self):
        base = predict_idt(TRUE_IDT, 28.0, 26.0)
        plant = quiet_plant(ambient_pull=0.2, ambient_temp=30.0)
        out = plant_step(plant, self.start_state(), (26.0, 600.0), 0, 0)
        assert out.temp_current == base + 0.2  # gap exceeds the pull, so it saturates
        near = quiet_plant(ambient_pull=0.2, ambient_temp=27.15)
        out2 = plant_step(near, self.start_state(), (26.0, 600.0), 0, 0)
        assert out2.temp_current == pytest.approx(27.15, abs=1e-12)

    def test_freeze_holds_workers_but_room_moves(self):
        plant = quiet_plant()
        state = StateSnapshot((WorkerState(2.3, 0.1, 0.0, 0.2),), 28.0, 520.0)
        nxt = plant_step(plant, state, (26.0, 600.0), 0, 0, freeze_workers=True)
        assert nxt.workers == (WorkerState(2.3),)
        assert nxt.temp_current != state.temp_current

    def test_single_substep_has_zero_effort(self):
        plant = noisy_plant(substeps=1)
        out = plant_step(plant, self.start_state(), (26.0, 600.0), 3, 1)
        assert out.workers[0].effort == 0.0

    def test_common_random_numbers_across_setpoints(self):
        # Identical (seed, step) pairs must yield identical disturbances
        # whatever the controller commanded.
        plant = noisy_plant()
        state = self.start_state()
        out_a = plant_step(plant, state, (26.0, 600.0), 7, 2)
        out_b = plant_step(plant, state, (25.5, 700.0), 7, 2)
        noise_a = out_a.temp_current - predict_idt(TRUE_IDT, state.temp_current, 26.0)
        noise_b = out_b.temp_current - predict_idt(TRUE_IDT, state.temp_current, 25.5)
        assert noise_a == noise_b
        assert out_a.workers[0].effort == out_b.workers[0].effort

    def test_disturbances_come_from_the_step_stream(self):
        # The temperature disturbance is the first draw of step_rng(seed, step).
        plant = noisy_plant()
        state = self.start_state()
        out = plant_step(plant, state, (26.0, 600.0), 7, 2)
        noise = step_rng(7, 2).normal(0.0, plant.idt_noise_sd)
        assert out.temp_current == predict_idt(TRUE_IDT, state.temp_current, 26.0) + noise
        assert plant_step(plant, state, (26.0, 600.0), 7, 3).temp_current != out.temp_current

    @pytest.mark.parametrize("freeze", [False, True])
    def test_room_outside_the_measured_range_is_refused(self, freeze):
        # 30 + 0.5 * 9000 + 0.85 * 10000 = 13030 lx, past the 10000 lx limit.
        plant = quiet_plant(true_ami=AmiModel(theta0=30.0, theta_prev=0.5, theta_set=0.85))
        state = replace(self.start_state(), illum_current=9000.0)
        with pytest.raises(PlantOutOfRange, match=r"^step 4: plant illuminance 13030\.0 outside the measured range"):
            plant_step(plant, state, (26.0, 10000.0), 0, 4, freeze_workers=freeze)

    def test_illuminance_pushed_below_zero_is_recorded_as_zero(self):
        # Lights off with no carry-over: the model predicts 0 lx, and this
        # step's illuminance noise, its second draw, is negative.
        plant = quiet_plant(true_ami=AmiModel(theta0=0.0, theta_prev=0.0, theta_set=1.0), ami_noise_sd=5.0)
        rng = step_rng(0, 0)
        rng.normal(0.0, plant.idt_noise_sd)
        assert rng.normal(0.0, plant.ami_noise_sd) < 0.0
        out = plant_step(plant, self.start_state(), (26.0, 0.0), 0, 0)
        assert out.illum_current.hex() == "0x0.0p+0"

    def test_telemetry_rows_satisfy_regression_when_quiet(self):
        # Realized DL must equal the true regression applied to realized
        # inputs, which is what makes identification exact.
        plant = quiet_plant(effort_sd=0.3, substeps=5)
        state = self.start_state()
        pairs = [(26.0, 600.0), (26.5, 450.0), (25.5, 700.0)]
        for t, pair in enumerate(pairs):
            prev = state
            state = plant_step(plant, state, pair, 11, t)
            temp, prev_temp = state.temp_current, prev.temp_current
            illum, prev_illum = state.illum_current, prev.illum_current
            (was,), (now,) = prev.workers, state.workers
            want = predict_dl(
                TRUE_DL, was.d_current, was.d_plus, was.d_minus,
                temp, max(temp - prev_temp, 0.0), max(prev_temp - temp, 0.0),
                illum, max(illum - prev_illum, 0.0), max(prev_illum - illum, 0.0),
                now.effort,
            )
            assert now.d_current == want


class TestScenarioValidation:
    def test_controller_models_replace_the_plant_models(self, monkeypatch):
        used = []

        class Spy(Controller):
            def __init__(self, models, cfg, de):
                used.append(models)
                super().__init__(models, cfg, de)

        monkeypatch.setattr(sim_mod, "Controller", Spy)
        sc = small_scenario(steps=1)
        truth = sc.plant.truth()
        other = replace(truth, dl=replace(truth.dl, intercept=truth.dl.intercept + 0.1))
        run_scenario(sc)
        run_scenario(replace(sc, controller_models=other))
        assert used == [truth, other]

    def test_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            replace(small_scenario(), steps=0)

    def test_oversize_search_is_refused_when_built(self):
        big = MpcConfig(mode=ControlMode.MPC2, horizon=100_000, num_workers=24)
        with pytest.raises(ConfigError, match="needs 27896149888 bytes"):
            small_scenario(mpc_cfg=big, de=DeParams(population_size=80))
        with pytest.raises(ConfigError, match="over the ceiling"):
            replace(small_scenario(), mpc_cfg=big)

    @pytest.mark.parametrize("name", ["seed", "lunch_start", "lunch_steps"])
    def test_negative_value_is_refused_when_built(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
            small_scenario(**{name: -1})


class TestTraceCeiling:
    """The sizes are computed, never allocated: no oversize run starts."""

    def test_trace_size(self):
        # 28 steps of five workers: 384 + 5 x 80 per step, and 16 KB.
        assert trace_nbytes(28, 5) == 28 * 784 + 16384

    def test_oversize_steps_are_refused_when_built(self):
        needed = trace_nbytes(10**12, 1)
        with pytest.raises(ConfigError) as info:
            replace(small_scenario(), steps=10**12)
        assert str(info.value) == (
            f"a run of 1000000000000 steps for 1 worker(s) keeps a trace of {needed} bytes, "
            "over the ceiling of 1073741824 bytes"
        )

    @pytest.mark.parametrize("workers", [1, 24])
    def test_ceiling_is_the_largest_size_accepted(self, workers):
        per_step = trace_nbytes(2, workers) - trace_nbytes(1, workers)
        steps = (TRACE_BYTES_CEILING - trace_nbytes(0, workers)) // per_step
        cfg = MpcConfig(mode=ControlMode.NOC, num_workers=workers)
        assert trace_nbytes(steps, workers) <= TRACE_BYTES_CEILING < trace_nbytes(steps + 1, workers)
        small_scenario(mode=ControlMode.NOC, mpc_cfg=cfg, steps=steps)
        with pytest.raises(ConfigError, match="over the ceiling"):
            small_scenario(mode=ControlMode.NOC, mpc_cfg=cfg, steps=steps + 1)

    # A run with and one without a search, at one worker and at 24.
    @pytest.mark.parametrize("mode", [ControlMode.NOC, ControlMode.MPC1])
    @pytest.mark.parametrize("workers", [1, 24])
    def test_count_bounds_what_a_real_runs_trace_holds(self, mode, workers):
        steps = 150 if mode is ControlMode.NOC else 40
        sc = small_scenario(mode=mode, mpc_cfg=MpcConfig(mode=mode, num_workers=workers), steps=steps,
                            de=DeParams(population_size=8, max_generations=5))
        run_scenario(replace(sc, steps=2))  # one-time allocations of numpy and Python
        gc.collect()
        tracemalloc.start()
        try:
            trace, metrics = run_scenario(sc)
            # Collecting empties the interpreter's free lists of floats and
            # tuples, which the run filled and no trace holds.
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace.steps) == steps
        count = trace_nbytes(steps, workers)
        assert count / 2 <= held <= count


class TestDrawCeiling:
    """One plant step's draws, workers x (substeps + 1) values in three
    float arrays, are bounded before any step: nothing is allocated."""

    def test_oversize_substeps_are_refused_before_a_step(self):
        plant = noisy_plant(substeps=10**8)
        message = (f"a plant step of 100000000 substeps for 24 worker(s) draws {24 * 24 * (10**8 + 1)} "
                   "bytes, over the ceiling of 1073741824 bytes")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as built:
                small_scenario(mode=ControlMode.NOC, plant=plant,
                               mpc_cfg=MpcConfig(mode=ControlMode.NOC, num_workers=24))
            with pytest.raises(ConfigError) as run:
                run_open_loop(plant, 24, [(26.0, 600.0)], seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(built.value) == str(run.value) == message
        assert peak < 2**20

    @pytest.mark.parametrize("workers", [1, 24])
    def test_ceiling_is_the_largest_size_accepted(self, workers):
        substeps = DRAW_BYTES_CEILING // (24 * workers) - 1
        cfg = MpcConfig(mode=ControlMode.NOC, num_workers=workers)
        small_scenario(mode=ControlMode.NOC, mpc_cfg=cfg, plant=noisy_plant(substeps=substeps))
        with pytest.raises(ConfigError, match="over the ceiling"):
            small_scenario(mode=ControlMode.NOC, mpc_cfg=cfg, plant=noisy_plant(substeps=substeps + 1))


class TestRunScenario:
    def test_deterministic(self):
        sc = small_scenario()
        trace_a, metrics_a = run_scenario(sc)
        trace_b, metrics_b = run_scenario(sc)
        assert trace_a == trace_b
        assert metrics_a == metrics_b

    def test_noc_quiet_run_converges_to_comfort(self):
        sc = small_scenario(mode=ControlMode.NOC, plant=quiet_plant(), steps=10,
                            mpc_cfg=MpcConfig(mode=ControlMode.NOC, num_workers=1))
        trace, metrics = run_scenario(sc)
        assert all(s.status == "ok" for s in trace.steps)
        assert all(s.feasible for s in trace.steps)
        assert all((s.temp_set, s.illum_set) == (26.0, 600.0) for s in trace.steps)
        devs = [abs(s.temp - 26.0) for s in trace.steps]
        assert devs == sorted(devs, reverse=True)
        assert metrics.setpoint_change_count == 0

    def test_noc_never_invokes_optimizer(self, monkeypatch):
        import alertmpc.mpc as mpc_mod

        def boom(*args, **kwargs):
            raise AssertionError("NOC must not invoke the optimizer")

        monkeypatch.setattr(mpc_mod, "de_minimize", boom)
        sc = small_scenario(mode=ControlMode.NOC,
                            mpc_cfg=MpcConfig(mode=ControlMode.NOC, num_workers=1))
        trace, _ = run_scenario(sc)
        assert all(s.status == "ok" for s in trace.steps)

    def test_one_step_predictions_match_quiet_plant(self):
        # With the true models, no disturbances, and no drift, what the
        # controller predicts for the next step is what the room does.
        plant = quiet_plant()
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1)
        ctl = Controller(plant.truth(), cfg, FAST_DE)
        for pre in (-2, -1):
            ctl.observe(pre, [plant.init_dl], [0.0], plant.init_temp, plant.init_illum)
        state = initial_state(plant, 1)
        for t in range(5):
            snap = ctl.snapshot
            setpoints, solution, status = ctl.decide(t)
            assert status == "ok"
            predicted = rollout(plant.truth(), snap, solution.schedule, cfg)
            state = plant_step(plant, state, setpoints, 0, t)
            assert state.temp_current == pytest.approx(predicted.temps[0], abs=1e-9)
            assert state.illum_current == pytest.approx(predicted.illums[0], abs=1e-9)
            assert state.workers[0].d_current == pytest.approx(predicted.dls[0][0], abs=1e-9)
            (w,) = state.workers
            ctl.observe(t, [w.d_current], [w.effort], state.temp_current, state.illum_current)

    def test_controller_snapshot_is_the_plant_state_bit_for_bit(self):
        # The plant and Controller.observe take the increments of the same
        # floats, so the state the controller solves from is the plant's own,
        # lunch steps included.
        plant = noisy_plant(drift=working_day_drift(10))
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=2)
        ctl = Controller(plant.truth(), cfg, FAST_DE)
        state = initial_state(plant, 2)

        def observe(step):
            workers = state.workers
            ctl.observe(step, [w.d_current for w in workers], [w.effort for w in workers],
                        state.temp_current, state.illum_current)

        observe(-2)
        assert ctl.snapshot is None  # one step forms no increments
        statuses = []
        for t in range(-1, 10):
            if t >= 0:
                lunch = 4 <= t < 7
                decision = ctl.hold("lunch") if lunch else ctl.decide(t)
                statuses.append(decision.status)
                state = plant_step(plant, state, decision.setpoints, 5, t, freeze_workers=lunch)
            observe(t)
            assert ctl.snapshot == state
            assert hex_fields(ctl.snapshot) == hex_fields(state)
        assert statuses == ["ok"] * 4 + ["lunch"] * 3 + ["ok"] * 3
        assert any(w.d_plus for w in state.workers) or any(w.d_minus for w in state.workers)

    def test_lunch_freezes_workers_and_setpoints(self):
        sc = small_scenario(plant=quiet_plant(), steps=7, lunch_start=2,
                            lunch_steps=2)
        trace, _ = run_scenario(sc)
        statuses = [s.status for s in trace.steps]
        assert statuses[2] == statuses[3] == "lunch"
        assert statuses[4] == "ok"
        assert trace.steps[2].dls == trace.steps[1].dls
        assert trace.steps[3].dls == trace.steps[1].dls
        held = (trace.steps[1].temp_set, trace.steps[1].illum_set)
        assert (trace.steps[2].temp_set, trace.steps[2].illum_set) == held
        assert (trace.steps[3].temp_set, trace.steps[3].illum_set) == held
        assert trace.steps[2].efforts == (0.0,)

    def test_controller_failure_is_contained(self, monkeypatch):
        sc = small_scenario(steps=3)
        monkeypatch.setattr(mpc_mod, "solve", solve_failing_at(sc.de.seed + 1, NonFiniteObjective("solver crashed")))
        trace, _ = run_scenario(sc)
        assert trace.steps[1].status == "error"
        assert trace.steps[1].feasible is None
        assert trace.steps[1].temp_set == trace.steps[0].temp_set
        assert trace.steps[1].illum_set == trace.steps[0].illum_set
        assert trace.steps[0].status == "ok"
        assert trace.steps[2].status == "ok"

    def test_other_controller_errors_propagate(self, monkeypatch):
        sc = small_scenario(steps=3)
        monkeypatch.setattr(mpc_mod, "solve", solve_failing_at(sc.de.seed + 1, RuntimeError("program fault")))
        with pytest.raises(RuntimeError, match="program fault"):
            run_scenario(sc)

    def test_lunch_steps_have_no_feasible_flag(self, tmp_path):
        sc = small_scenario(plant=quiet_plant(), steps=5, lunch_start=2, lunch_steps=2)
        trace, _ = run_scenario(sc)
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, trace)
        for steps in (trace.steps, read_trace_csv(path).steps):
            assert [s.status for s in steps] == ["ok", "ok", "lunch", "lunch", "ok"]
            assert [s.feasible for s in steps] == [True, True, None, None, True]

    def test_drift_profile_cycles(self):
        plant = quiet_plant(drift=(0.0, 0.1))
        assert plant.drift_at(0) == 0.0
        assert plant.drift_at(1) == 0.1
        assert plant.drift_at(5) == 0.1
        assert quiet_plant().drift_at(3) == 0.0


@pytest.mark.parametrize("overrides, field", [
    ({"idt_noise_sd": float("nan")}, "idt_noise_sd"),
    ({"ami_noise_sd": float("inf")}, "ami_noise_sd"),
    ({"dl_noise_sd": float("nan")}, "dl_noise_sd"),
    ({"effort_sd": float("inf")}, "effort_sd"),
    ({"ambient_pull": float("nan")}, "ambient_pull"),
    ({"ambient_temp": float("-inf")}, "ambient_temp"),
    ({"init_temp": float("nan")}, "init_temp"),
    ({"init_illum": float("nan")}, "init_illum"),
    ({"init_dl": float("nan")}, "init_dl"),
    ({"drift": (0.0, float("nan"))}, "drift"),
])
def test_plant_rejects_nonfinite_settings(overrides, field):
    with pytest.raises(NonFiniteSetting, match=f"{field} must be finite"):
        quiet_plant(**overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"ami_noise_sd": -0.5}, "ami_noise_sd must be >= 0, got -0.5"),
    ({"substeps": 0}, "substeps must be >= 1, got 0"),
    ({"init_dl": 5.5}, "init_dl must lie on the 1-5 scale, got 5.5"),
])
def test_plant_rejects_settings_off_their_range(overrides, message):
    with pytest.raises(ValueError) as info:
        quiet_plant(**overrides)
    assert str(info.value) == message


@pytest.mark.parametrize("overrides, field", [
    ({"init_temp": 50.5}, "init_temp"),
    ({"init_temp": -1.0}, "init_temp"),
    ({"ambient_temp": 60.0}, "ambient_temp"),
    ({"init_illum": 10000.5}, "init_illum"),
])
def test_plant_rejects_state_outside_the_room_range(overrides, field):
    with pytest.raises(ValueError, match=f"{field} .* outside the measured range"):
        quiet_plant(**overrides)


class TestOpenLoopAndTelemetry:
    def test_open_loop_shape(self):
        table = run_open_loop(noisy_plant(), num_workers=2,
                              setpoints=[(26.0, 600.0)] * 5, seed=4)
        assert len(table) == 10
        assert set(table.worker_ids) == {"w0", "w1"}

    def test_open_loop_rejects_empty(self):
        with pytest.raises(ValueError):
            run_open_loop(noisy_plant(), 1, [], seed=0)

    def test_plant_leaving_the_measured_range_is_refused(self):
        # Illuminance settles at (30 + 0.85 * 10000) / 0.5 lx; step 1 reaches 12925 lx.
        plant = quiet_plant(true_ami=AmiModel(theta0=30.0, theta_prev=0.5, theta_set=0.85))
        with pytest.raises(PlantOutOfRange, match=r"^step 1: plant illuminance 12925\.0 outside the measured range"):
            run_open_loop(plant, 1, [(26.0, 10000.0)] * 3, seed=0)

    def test_plant_drowsiness_of_nan_is_refused(self):
        # +inf from the temperature term plus -inf from the illuminance term
        # is nan, which clamping passes through.
        dl = replace(TRUE_DL, coef=dict(TRUE_DL.coef, temp=1e308, illum=-1e308))
        plant = quiet_plant(true_dl=dl)
        want = r"^step 0: plant drowsiness of worker 0 nan outside the measured range \[1\.0, 5\.0\]$"
        with pytest.raises(PlantOutOfRange, match=want):
            run_open_loop(plant, 2, [(26.0, 600.0)] * 3, seed=0)

    def test_plant_effort_that_is_not_finite_is_refused(self):
        # The jitter's squares overflow, so its SD is inf; dl_effort * inf
        # is -inf, which the clamp would move onto the scale.
        plant = quiet_plant(effort_sd=1e200, substeps=4)
        with pytest.raises(PlantOutOfRange, match=r"^step 0: plant effort of worker 0 inf is not finite$"):
            run_open_loop(plant, 2, [(26.0, 600.0)] * 3, seed=0)

    def test_trace_round_trip(self):
        trace, _ = run_scenario(small_scenario(steps=4))
        table = trace_to_telemetry(trace)
        assert len(table) == 4
        assert table.dl[0] == trace.steps[0].dls[0]
        assert table.temp_set[0] == trace.steps[0].temp_set


class TestComparison:
    def test_runs_all_arms_paired(self):
        base = small_scenario(steps=4)
        cmp = compare_arms(base, seeds=(0, 1))
        assert set(cmp.metrics) == {m.value for m in ARMS}
        assert len(cmp.metrics["NOC"]) == 2
        deltas = cmp.paired_delta("MPC2", "NOC")
        assert len(deltas) == 2
        assert np.isfinite(cmp.mean_of("MPC1", "mean_dl"))

    @staticmethod
    def runs(*runs) -> ArmComparison:
        """A comparison of (arm, seed, mean_dl) runs, added in the order given."""
        comparison = ArmComparison()
        for arm, seed, dl in runs:
            comparison.add(arm, seed, Metrics(dl, 0.0, 0.0, 0.0, 0))
        return comparison

    def test_paired_delta_pairs_runs_by_seed(self):
        cmp = self.runs(("NOC", 1, 3.0), ("NOC", 2, 3.5), ("MPC2", 2, 2.5), ("MPC2", 1, 2.75))
        assert cmp.paired("MPC2", "NOC")
        assert cmp.paired_delta("MPC2", "NOC") == (2.75 - 3.0, 2.5 - 3.5)
        assert cmp.metrics["MPC2"] == (Metrics(2.5, 0.0, 0.0, 0.0, 0), Metrics(2.75, 0.0, 0.0, 0.0, 0))

    def test_paired_delta_refuses_different_seeds(self):
        cmp = self.runs(("NOC", 1, 3.0), ("NOC", 2, 3.5), ("MPC2", 1, 2.5), ("MPC2", 3, 2.75))
        assert not cmp.paired("MPC2", "NOC")
        with pytest.raises(ValueError, match=r"arms MPC2 and NOC ran different seeds: \[1, 3\] and \[1, 2\]"):
            cmp.paired_delta("MPC2", "NOC")

    def test_refuses_a_repeated_run(self):
        cmp = self.runs(("NOC", 1, 3.0))
        with pytest.raises(ValueError, match="arm NOC already has a run for seed 1"):
            cmp.add("NOC", 1, Metrics(3.5, 0.0, 0.0, 0.0, 0))
        assert cmp.metrics == {"NOC": (Metrics(3.0, 0.0, 0.0, 0.0, 0),)}

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError, match="2 seeds"):
            compare_arms(small_scenario(), seeds=(0,))

    @pytest.mark.parametrize("seeds", [(1, 1), (3, 4, 3)], ids=["1,1", "3,4,3"])
    def test_repeated_seed_is_refused_before_any_run(self, monkeypatch, seeds):
        runs = []

        def counting(sc):
            runs.append(sc.seed)
            return run_scenario(sc)

        monkeypatch.setattr(sim_mod, "run_scenario", counting)
        with pytest.raises(ValueError, match=f"seed {seeds[-1]} is given more than once"):
            compare_arms(small_scenario(steps=2), seeds=seeds)
        assert runs == []

    def test_scenario_for_arm_keeps_configs_aligned(self):
        sc = scenario_for_arm(small_scenario(), ControlMode.NOC, seed=9)
        assert sc.mpc_cfg.mode is ControlMode.NOC
        assert sc.seed == 9


class TestSimTrace:
    # A step with another worker count would be written under a header of
    # num_workers workers, which read_trace_csv then refuses.
    @pytest.mark.parametrize("dls, efforts", [
        ((2.0,), (0.1,)), ((2.0, 2.0), (0.1,)), ((2.0,), (0.1, 0.1)), ((2.0,) * 3, (0.1,) * 3),
    ])
    def test_step_with_another_worker_count_is_refused(self, dls, efforts):
        steps = (
            TraceStep(0, 26.0, 600.0, 26.0, 600.0, 0.0, None, "stale", (2.0, 2.0), (0.1, 0.1)),
            TraceStep(1, 26.0, 600.0, 26.0, 600.0, 0.0, None, "stale", dls, efforts),
        )
        message = f"step 1: {len(dls)} dls and {len(efforts)} efforts for 2 workers"
        with pytest.raises(ValueError, match=message):
            SimTrace(ControlMode.NOC, 1, 2, 2.0, 26.0, 600.0, steps)


class TestMetrics:
    def test_hand_computed(self):
        steps = (
            TraceStep(0, 26.0, 600.0, 26.5, 750.0, 1.25, True, "ok",
                      (2.0, 4.0), (0.1, 0.1)),
            TraceStep(1, 25.5, 600.0, 29.0, 600.0, 1.5, True, "ok",
                      (3.0, 5.0), (0.1, 0.1)),
        )
        trace = SimTrace(ControlMode.NOC, 0, 2, penalty_cap=1.3,
                         temp_comfort=26.0, illum_comfort=600.0, steps=steps)
        m = compute_metrics(trace)
        assert m.mean_dl == 3.5
        assert m.comfort_violation_rate == 0.5
        assert m.mean_abs_temp_dev == pytest.approx(1.75)
        assert m.mean_abs_illum_dev == pytest.approx(75.0)
        assert m.setpoint_change_count == 1


def test_working_day_drift_profile():
    profile = working_day_drift(steps=28, bump=0.08)
    assert len(profile) == 28
    assert profile[13] == 0.0
    assert profile[14] == 0.08
    assert profile[19] == 0.08
    assert profile[20] == 0.0
    assert sum(1 for x in profile if x) == 6
