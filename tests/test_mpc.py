from dataclasses import replace

import numpy as np
import pytest

import alertmpc.models as models_mod
import alertmpc.mpc as mpc_mod
from alertmpc.cli import parse_scenario_config, shipped_config_path
from alertmpc.domain import (
    AmiModel,
    ControlMode,
    ControlSchedule,
    DlModel,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
)
from alertmpc.models import (
    HorizonKernel,
    comfort_penalty,
    constraint_violation,
    objective,
    rollout,
)
from alertmpc.mpc import Controller, MeasurementLog, solve
from alertmpc.optimizer import BadBounds, DeParams

from helpers import solve_failing_at


def demo_models():
    return ModelSet(
        dl=DlModel(intercept=0.14, coef={
            "d_prev": 0.8, "d_plus_prev": 0.08, "d_minus_prev": -0.04,
            "temp": 0.02, "temp_plus": 0.05, "temp_minus": -0.18,
            "illum": -0.0004, "illum_plus": -0.0011, "illum_minus": 0.0006,
            "effort": -0.06,
        }),
        idt=IdtModel(k_up=0.3, k_down=0.45),
        ami=AmiModel(theta0=30.0, theta_prev=0.1, theta_set=0.85),
    )


def constant_dl_models(level=2.7):
    coef = {name: 0.0 for name in demo_models().dl.coef}
    return ModelSet(
        dl=DlModel(intercept=level, coef=coef),
        idt=IdtModel(k_up=0.3, k_down=0.45),
        ami=AmiModel(theta0=30.0, theta_prev=0.1, theta_set=0.85),
    )


def snapshot(workers=1, d=2.4, temp=26.8, illum=540.0, effort=0.1):
    ws = tuple(WorkerState(d, 0.0, 0.0, effort) for _ in range(workers))
    return StateSnapshot(ws, temp, illum)


FAST_DE = DeParams(population_size=20, max_generations=40, tolerance=0.0, seed=0)


class TestNoc:
    def test_holds_comfort_point_without_optimizer(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("NOC must not invoke the optimizer")

        monkeypatch.setattr(mpc_mod, "de_minimize", boom)
        cfg = MpcConfig(mode=ControlMode.NOC, num_workers=1)
        sol = solve(demo_models(), snapshot(), cfg)
        assert sol.schedule.temp_setpoints == (cfg.temp_comfort,) * cfg.horizon
        assert sol.schedule.illum_setpoints == (cfg.illum_comfort,) * cfg.horizon
        assert sol.feasible

    def test_reports_infeasibility_honestly(self):
        # Broken lights: predicted illuminance is stuck far above comfort,
        # so even the comfort schedule violates the cap.
        models = ModelSet(
            dl=constant_dl_models().dl,
            idt=IdtModel(k_up=0.3, k_down=0.45),
            ami=AmiModel(theta0=2000.0, theta_prev=0.0, theta_set=0.0),
        )
        cfg = MpcConfig(mode=ControlMode.NOC, num_workers=1)
        sol = solve(models, snapshot(), cfg)
        assert not sol.feasible

    def test_no_search_diagnostics(self):
        sol = solve(demo_models(), snapshot(), MpcConfig(mode=ControlMode.NOC, num_workers=1))
        assert (sol.generations_used, sol.evaluations, sol.stop_reason) == (0, 0, None)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_prediction_equals_single_schedule_views(self, workers):
        cfg = MpcConfig(mode=ControlMode.NOC, num_workers=workers)
        snap = snapshot(workers=workers, temp=28.3, illum=410.0)
        sol = solve(demo_models(), snap, cfg)
        pred = rollout(demo_models(), snap, sol.schedule, cfg)
        assert sol.objective_value == objective(pred)
        assert sol.violation == constraint_violation(pred, cfg)
        assert sol.feasible == (constraint_violation(pred, cfg) == 0.0)


class TestSolveModes:
    def test_constant_dl_objective(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1)
        sol = solve(constant_dl_models(2.7), snapshot(), cfg, FAST_DE)
        assert sol.objective_value == pytest.approx(2.7, abs=1e-12)
        assert sol.feasible

    def test_mpc1_pins_illuminance(self):
        cfg = MpcConfig(mode=ControlMode.MPC1, num_workers=1)
        sol = solve(demo_models(), snapshot(), cfg, FAST_DE)
        assert sol.schedule.illum_setpoints == (cfg.illum_comfort,) * cfg.horizon
        for t in sol.schedule.temp_setpoints:
            assert cfg.temp_lo <= t <= cfg.temp_hi

    def test_mpc2_matches_fine_grid_on_single_step(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=1)
        models = demo_models()
        snap = snapshot()

        best = np.inf
        for t in np.linspace(cfg.temp_lo, cfg.temp_hi, 21):
            for l in np.linspace(cfg.illum_lo, cfg.illum_hi, 21):
                sched = ControlSchedule((float(t),), (float(l),))
                pred = rollout(models, snap, sched, cfg)
                if constraint_violation(pred, cfg) == 0.0:
                    best = min(best, objective(pred))

        sol = solve(models, snap, cfg, DeParams(population_size=20,
                                                max_generations=80,
                                                tolerance=0.0, seed=5))
        assert sol.feasible
        assert sol.objective_value <= best + 1e-9

    def test_mpc2_no_worse_than_mpc1(self):
        de = DeParams(population_size=40, max_generations=80, tolerance=0.0, seed=3)
        snap = snapshot()
        sol1 = solve(demo_models(), snap,
                     MpcConfig(mode=ControlMode.MPC1, num_workers=1, horizon=2), de)
        sol2 = solve(demo_models(), snap,
                     MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2), de)
        assert sol2.objective_value <= sol1.objective_value + 1e-3

    def test_setpoints_within_bounds(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=2, horizon=3)
        models = demo_models()
        rng = np.random.default_rng(8)
        for i in range(20):
            ws = tuple(
                WorkerState.from_history(rng.uniform(1.2, 4.8), rng.uniform(1.2, 4.8),
                                         effort=rng.uniform(0, 0.4))
                for _ in range(2)
            )
            snap = StateSnapshot(ws, rng.uniform(23, 30), rng.uniform(300, 900))
            sol = solve(models, snap, cfg,
                        DeParams(population_size=16, max_generations=15, seed=i))
            for t in sol.schedule.temp_setpoints:
                assert cfg.temp_lo <= t <= cfg.temp_hi
            for l in sol.schedule.illum_setpoints:
                assert cfg.illum_lo <= l <= cfg.illum_hi

    @pytest.mark.parametrize("mode", [ControlMode.MPC1, ControlMode.MPC2])
    def test_carries_search_diagnostics(self, monkeypatch, mode):
        results = []
        real = mpc_mod.de_minimize

        def spy(evaluate, lo, hi, params):
            results.append(real(evaluate, lo, hi, params))
            return results[-1]

        monkeypatch.setattr(mpc_mod, "de_minimize", spy)
        cfg = MpcConfig(mode=mode, num_workers=2, horizon=3)
        snap = snapshot(workers=2)
        sol = solve(demo_models(), snap, cfg,
                    DeParams(population_size=16, max_generations=300, tolerance=1e-9, seed=4))
        (res,) = results
        assert sol.generations_used == res.generations_used > 0
        assert sol.evaluations == res.evaluations == 16 * (1 + res.generations_used)
        assert sol.stop_reason == res.stop_reason == "tolerance"
        # The search's own scores of its best member are the single-schedule
        # definitions' scores of the returned schedule.
        assert (sol.objective_value, sol.violation) == (res.best_objective, res.best_violation)
        pred = rollout(demo_models(), snap, sol.schedule, cfg)
        assert sol.objective_value == objective(pred)
        assert sol.violation == constraint_violation(pred, cfg)

    def test_feasible_flag_backed_by_predictions(self):
        # Tighter cap than the default so the constraint actually binds.
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=3,
                        temp_lo=24.5, temp_hi=28.0, illum_lo=350.0, illum_hi=850.0,
                        penalty_cap=0.8)
        models = demo_models()
        rng = np.random.default_rng(21)
        outcomes = {True: 0, False: 0}
        for i in range(12):
            # Even draws start mild (always recoverable within the cap); odd
            # draws start so hot that one interval of maximal cooling still
            # overshoots the cap, so no feasible schedule exists.
            temp0 = rng.uniform(24.5, 28.5) if i % 2 == 0 else rng.uniform(31.0, 34.0)
            snap = StateSnapshot(
                (WorkerState.from_history(rng.uniform(1.5, 4.5), rng.uniform(1.5, 4.5),
                                          effort=rng.uniform(0, 0.3)),),
                temp0, rng.uniform(300.0, 900.0))
            sol = solve(models, snap, cfg,
                        DeParams(population_size=24, max_generations=40, seed=i))
            outcomes[sol.feasible] += 1
            pred = rollout(models, snap, sol.schedule, cfg)
            if sol.feasible:
                for t, l in zip(pred.temps, pred.illums):
                    assert comfort_penalty(t, l, cfg) <= cfg.penalty_cap
            else:
                assert constraint_violation(pred, cfg) > 0.0
        assert outcomes[True] > 0, "tight-cap sweep never produced a feasible solve"
        assert outcomes[False] > 0, "tight-cap sweep never produced an infeasible solve"


@pytest.mark.parametrize("mode", list(ControlMode))
def test_solve_scores_whole_populations_only(monkeypatch, mode):
    # Every kernel call and every workspace a solve makes, by row count: the
    # search's generations, or NOC's one schedule, and nothing after them.
    calls, built = [], []
    for name in ("evaluate", "rollout"):
        def spy(kernel, temp_sets, illum_sets, real=getattr(HorizonKernel, name), name=name):
            calls.append((name, len(temp_sets)))
            return real(kernel, temp_sets, illum_sets)
        monkeypatch.setattr(HorizonKernel, name, spy)

    class CountedWorkspace(models_mod._Workspace):
        def __init__(self, kernel, pop):
            built.append(pop)
            super().__init__(kernel, pop)

    monkeypatch.setattr(models_mod, "_Workspace", CountedWorkspace)
    cfg = MpcConfig(mode=mode, num_workers=2, horizon=3)
    sol = solve(demo_models(), snapshot(workers=2), cfg,
                DeParams(population_size=16, max_generations=30, seed=3))
    rows = 1 if mode is ControlMode.NOC else 16
    assert calls == [("evaluate", rows)] * (1 + sol.generations_used)
    assert built == [rows]


@pytest.mark.parametrize("room", ["case1", "case2"])
@pytest.mark.parametrize("mode", list(ControlMode))
def test_violation_reported_and_backs_feasible(room, mode):
    sc = parse_scenario_config(shipped_config_path(f"{room}_mpc2.cfg"))
    cfg = replace(sc.mpc_cfg, mode=mode)
    de = replace(sc.de, max_generations=15)
    models = sc.plant.truth()
    outcomes = set()
    # A room at 36 C cannot be brought within the comfort cap in one step.
    for temp in (26.7, 36.0):
        snap = snapshot(workers=cfg.num_workers, temp=temp, illum=530.0)
        sol = solve(models, snap, cfg, de)
        assert sol.feasible == (sol.violation == 0.0)
        pred = rollout(models, snap, sol.schedule, cfg)
        assert sol.objective_value == objective(pred)
        assert sol.violation == constraint_violation(pred, cfg)
        outcomes.add(sol.feasible)
    assert outcomes == {True, False}


class TestMeasurementLog:
    def test_snapshot_from_two_steps(self):
        log = MeasurementLog()
        log.record_step(0, [2.0, 3.0], [0.10, 0.20], 26.5, 610.0)
        log.record_step(1, [2.5, 2.75], [0.15, 0.05], 26.2, 605.0)
        snap = log.snapshot()
        assert snap.temp_current == 26.2
        assert snap.illum_current == 605.0
        w0, w1 = snap.workers
        assert (w0.d_current, w0.d_plus, w0.d_minus, w0.effort) == (2.5, 0.5, 0.0, 0.15)
        assert (w1.d_current, w1.d_plus, w1.d_minus, w1.effort) == (2.75, 0.0, 0.25, 0.05)

    def test_rejects_worker_count_change(self):
        log = MeasurementLog()
        log.record_step(0, [2.0, 3.0], [0.1, 0.1], 26.0, 600.0)
        with pytest.raises(ValueError, match="worker count"):
            log.record_step(1, [2.0], [0.1], 26.0, 600.0)

    def test_rejects_nonadvancing_step(self):
        log = MeasurementLog()
        log.record_step(3, [2.0], [0.1], 26.0, 600.0)
        with pytest.raises(ValueError, match="advance strictly"):
            log.record_step(3, [2.1], [0.1], 26.0, 600.0)

    def test_bounded_to_the_steps_snapshot_reads(self):
        rng = np.random.default_rng(4)
        steps = [
            (s, rng.uniform(1.0, 5.0, 3), rng.uniform(0.0, 0.3, 3),
             rng.uniform(24.0, 28.0), rng.uniform(400.0, 800.0))
            for s in range(1000)
        ]
        log = MeasurementLog()
        for step in steps:
            log.record_step(*step)
        assert len(log) == 2
        assert log.latest_index == 999
        # the state the two latest steps define, as an unbounded log gave
        (_, prev_dl, _, _, _), (_, cur_dl, cur_sd, temp, illum) = steps[-2:]
        want = StateSnapshot(
            tuple(WorkerState.from_history(float(d), float(p), float(e))
                  for d, p, e in zip(cur_dl, prev_dl, cur_sd)),
            float(temp), float(illum))
        assert log.snapshot() == want

    def test_gap_drops_unreadable_step(self):
        log = MeasurementLog()
        log.record_step(0, [2.0], [0.1], 26.0, 600.0)
        log.record_step(1, [2.2], [0.1], 26.0, 600.0)
        log.record_step(3, [2.4], [0.1], 26.0, 600.0)
        assert len(log) == 1
        log.record_step(4, [2.3], [0.1], 26.0, 600.0)
        assert len(log) == 2
        w, = log.snapshot().workers
        assert (w.d_current, w.d_minus) == (2.3, pytest.approx(0.1))

    def test_snapshot_requires_consecutive_steps(self):
        log = MeasurementLog()
        log.record_step(0, [2.0], [0.1], 26.0, 600.0)
        log.record_step(2, [2.1], [0.1], 26.0, 600.0)
        with pytest.raises(ValueError, match="consecutive"):
            log.snapshot()


class TestStepController:
    """One interval decided by Controller.decide: freshness and seeding."""

    def fresh_controller(self, cfg, de, through_step):
        ctl = Controller(demo_models(), cfg, de)
        for s in range(through_step + 1):
            ctl.observe(s, [2.2 + 0.05 * s], [0.1], 26.5, 560.0)
        return ctl

    def test_stale_history_holds_setpoints(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1)
        ctl = self.fresh_controller(cfg, FAST_DE, through_step=3)
        assert ctl.decide(6) == ((cfg.temp_comfort, cfg.illum_comfort), None, "stale")

    def test_gap_before_latest_step_is_stale(self):
        # Fresh latest measurement but the step before it is missing, so
        # the increment features cannot be formed.
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1)
        ctl = Controller(demo_models(), cfg, FAST_DE)
        ctl.observe(0, [2.2], [0.1], 26.5, 560.0)
        ctl.observe(1, [2.3], [0.1], 26.4, 565.0)
        ctl.observe(3, [2.4], [0.1], 26.3, 570.0)
        assert ctl.decide(4) == ((cfg.temp_comfort, cfg.illum_comfort), None, "stale")

    def test_interval_seed_offsets_base(self, monkeypatch):
        captured = []
        real = mpc_mod.de_minimize

        def spy(evaluate, lo, hi, params):
            captured.append(params.seed)
            return real(evaluate, lo, hi, params)

        monkeypatch.setattr(mpc_mod, "de_minimize", spy)
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2)
        de = DeParams(population_size=8, max_generations=2, seed=100)
        ctl = self.fresh_controller(cfg, de, through_step=4)
        ctl.decide(5)
        assert captured == [105]

    def test_same_clock_same_solution(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2)
        de = DeParams(population_size=16, max_generations=20, seed=7)
        ctl = self.fresh_controller(cfg, de, through_step=2)
        _, a, _ = ctl.decide(3)
        _, b, _ = ctl.decide(3)
        assert a.schedule == b.schedule
        assert a.objective_value == b.objective_value


class TestController:
    def test_stale_before_any_data(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1)
        ctl = Controller(demo_models(), cfg, FAST_DE)
        setpoints, solution, status = ctl.decide(5)
        assert status == "stale"
        assert solution is None
        assert setpoints == (cfg.temp_comfort, cfg.illum_comfort)

    def test_holds_last_solution_when_lagging(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2)
        ctl = Controller(demo_models(), cfg, FAST_DE)
        ctl.observe(4, [2.4], [0.1], 27.0, 520.0)
        ctl.observe(5, [2.6], [0.12], 26.7, 540.0)
        applied, solution, status = ctl.decide(6)
        assert status == "ok" and solution is not None
        assert applied == (solution.schedule.temp_setpoints[0], solution.schedule.illum_setpoints[0])
        held, held_solution, held_status = ctl.decide(8)
        assert held_status == "stale"
        assert held_solution is None
        assert held == applied

    def test_failed_solve_is_held_as_error(self, monkeypatch):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2)
        ctl = Controller(demo_models(), cfg, FAST_DE)
        ctl.observe(4, [2.4], [0.1], 27.0, 520.0)
        ctl.observe(5, [2.6], [0.12], 26.7, 540.0)
        ok = ctl.decide(6)
        assert ok.feasible == ok.solution.feasible and ok.feasible is not None
        assert ctl.hold("lunch") == (ok.setpoints, None, "lunch")
        assert ctl.hold("lunch").feasible is None
        monkeypatch.setattr(mpc_mod, "solve", solve_failing_at(FAST_DE.seed + 7, BadBounds("no box")))
        ctl.observe(6, [2.5], [0.1], 26.6, 545.0)
        error = ctl.decide(7)
        assert error == (ok.setpoints, None, "error") and error.feasible is None
        ctl.observe(7, [2.5], [0.1], 26.5, 550.0)
        assert ctl.decide(8).status == "ok"
