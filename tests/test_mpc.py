import functools
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import alertmpc.models as models_mod
import alertmpc.mpc as mpc_mod
from alertmpc.cli import parse_scenario_config
from alertmpc.domain import (
    AmiModel,
    ConfigError,
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
    comfort_holds,
    comfort_penalty,
    constraint_violation,
    objective,
    rollout,
    rollout_nbytes,
)
from alertmpc.mpc import Controller, require_search_fits, search_bytes, solve
from alertmpc.optimizer import DeParams, NonFiniteObjective, search_nbytes
from alertmpc.sim import run_scenario

from helpers import CASE1_MODELS, shipped_config_path, solve_failing_at


def constant_dl_models(level=2.7):
    coef = {name: 0.0 for name in CASE1_MODELS.dl.coef}
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
        sol = solve(CASE1_MODELS, snapshot(), cfg)
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
        sol = solve(CASE1_MODELS, snapshot(), MpcConfig(mode=ControlMode.NOC, num_workers=1))
        assert (sol.generations_used, sol.evaluations, sol.stop_reason) == (0, 0, None)

    @pytest.mark.parametrize("mode", list(ControlMode))
    def test_overflowing_illuminance_is_refused(self, mode):
        # theta_set * 600 overflows to infinity at step 1, and 0 * infinity
        # makes step 2's illuminance NaN: rollout keeps it, as the kernel does.
        models = replace(CASE1_MODELS, ami=AmiModel(theta0=0.0, theta_prev=0.0, theta_set=1e306))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteObjective, match="objective returned nan"):
            solve(models, snapshot(), MpcConfig(mode=mode, num_workers=1), FAST_DE)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_prediction_equals_single_schedule_views(self, workers):
        cfg = MpcConfig(mode=ControlMode.NOC, num_workers=workers)
        snap = snapshot(workers=workers, temp=28.3, illum=410.0)
        sol = solve(CASE1_MODELS, snap, cfg)
        pred = rollout(CASE1_MODELS, snap, sol.schedule, cfg)
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
        sol = solve(CASE1_MODELS, snapshot(), cfg, FAST_DE)
        assert sol.schedule.illum_setpoints == (cfg.illum_comfort,) * cfg.horizon
        for t in sol.schedule.temp_setpoints:
            assert cfg.temp_lo <= t <= cfg.temp_hi

    def test_mpc2_matches_fine_grid_on_single_step(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=1)
        models = CASE1_MODELS
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
        sol1 = solve(CASE1_MODELS, snap,
                     MpcConfig(mode=ControlMode.MPC1, num_workers=1, horizon=2), de)
        sol2 = solve(CASE1_MODELS, snap,
                     MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2), de)
        assert sol2.objective_value <= sol1.objective_value + 1e-3

    def test_setpoints_within_bounds(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=2, horizon=3)
        models = CASE1_MODELS
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
        sol = solve(CASE1_MODELS, snap, cfg,
                    DeParams(population_size=16, max_generations=300, tolerance=1e-9, seed=4))
        (res,) = results
        assert sol.generations_used == res.generations_used > 0
        assert sol.evaluations == res.evaluations == 16 * (1 + res.generations_used)
        assert sol.stop_reason == res.stop_reason == "tolerance"
        # The search's own scores of its best member are the single-schedule
        # definitions' scores of the returned schedule.
        assert (sol.objective_value, sol.violation) == (res.best_objective, res.best_violation)
        pred = rollout(CASE1_MODELS, snap, sol.schedule, cfg)
        assert sol.objective_value == objective(pred)
        assert sol.violation == constraint_violation(pred, cfg)

    def test_feasible_flag_backed_by_predictions(self):
        # Tighter cap than the default so the constraint actually binds.
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=3,
                        temp_lo=24.5, temp_hi=28.0, illum_lo=350.0, illum_hi=850.0,
                        penalty_cap=0.8)
        models = CASE1_MODELS
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
            # No solve here is proved feasible in advance: the box's
            # hottest corner alone costs 1.0 of the cap, and a hot start
            # more.  So each runs the feasibility-first search.
            assert not comfort_holds(models, snap, cfg)
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
    # Every kernel a solve builds and every call on it, by row count: the
    # search's generations and nothing after them.  NOC's one schedule
    # goes through rollout and builds no kernel.
    calls, built = [], []

    def spy(kernel, pop, real=HorizonKernel.evaluate):
        calls.append(len(pop))
        return real(kernel, pop)

    monkeypatch.setattr(HorizonKernel, "evaluate", spy)

    def counted_init(kernel, models, snapshot, cfg, rows, real=HorizonKernel.__init__):
        built.append(rows)
        real(kernel, models, snapshot, cfg, rows)

    monkeypatch.setattr(HorizonKernel, "__init__", counted_init)
    cfg = MpcConfig(mode=mode, num_workers=2, horizon=3)
    dim = cfg.horizon * (2 if mode is ControlMode.MPC2 else 1)
    # A set population, then the default of 10 per dimension.
    for population, search_rows in [(16, 16), (None, 10 * dim)]:
        calls.clear()
        built.clear()
        sol = solve(CASE1_MODELS, snapshot(workers=2), cfg,
                    DeParams(population_size=population, max_generations=30, seed=3))
        if mode is ControlMode.NOC:
            assert calls == built == []
        else:
            assert calls == [search_rows] * (1 + sol.generations_used)
            assert built == [search_rows]


@functools.cache
def shipped_solve_boxes(room, mode):
    # Runs the shipped room's closed loops once, for seeds 1-3, spying the
    # box method; per seed: the ok solves, each solve's (proved, floor,
    # ceiling), the modes of its walks over the room's bounds and each
    # solve's bottom.  The tests below read this one record.
    boxes, walks, bottoms, runs = [], [], [], []

    def spy(kernel, real=HorizonKernel.restrict_to_box):
        real(kernel)
        boxes.append((kernel.proved, kernel.floor, kernel.ceiling))
        bottoms.append(kernel.bottom)

    def counted_bounds(models, snapshot, cfg, real=models_mod._room_bounds):
        walks.append(cfg.mode)
        return real(models, snapshot, cfg)

    sc = parse_scenario_config(shipped_config_path(f"{room}_mpc2.cfg"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HorizonKernel, "restrict_to_box", spy)
        mp.setattr(models_mod, "_room_bounds", counted_bounds)
        for seed in (1, 2, 3):
            boxes.clear()
            walks.clear()
            bottoms.clear()
            trace, _ = run_scenario(replace(sc, seed=seed, mpc_cfg=replace(sc.mpc_cfg, mode=mode)))
            solves = sum(step.status == "ok" for step in trace.steps)
            runs.append((solves, tuple(boxes), tuple(walks), tuple(bottoms)))
    return tuple(runs)


@pytest.mark.parametrize("room", ["case1", "case2"])
@pytest.mark.parametrize("mode", [ControlMode.MPC1, ControlMode.MPC2])
def test_every_shipped_solve_is_proved(room, mode):
    # The shipped boxes lie inside the comfort band with room to spare:
    # every solve of their closed loops searches on the objective alone.
    # Each solve walks the room's bounds once, for the proof and both clamps.
    for solves, boxes, walks, _ in shipped_solve_boxes(room, mode):
        assert solves > 0 and [proved for proved, _, _ in boxes] == [True] * solves
        assert walks == (mode,) * solves


@pytest.mark.parametrize("room", ["case1", "case2"])
@pytest.mark.parametrize("mode", [ControlMode.MPC1, ControlMode.MPC2])
def test_every_shipped_solve_skips_both_clamps(room, mode):
    # No schedule in the shipped boxes darkens the room or lifts a worker
    # past the 1-5 scale: every kernel call of their closed loops, and so
    # of the benchmark's, skips the illuminance floor and the ceiling.
    for solves, boxes, _, _ in shipped_solve_boxes(room, mode):
        assert solves > 0 and boxes == ((True, False, False),) * solves


@pytest.mark.parametrize("room, mode, bottom", [
    ("case1", ControlMode.MPC1, False), ("case1", ControlMode.MPC2, True), ("case2", ControlMode.MPC2, True)])
def test_shipped_solves_clamp_at_one_where_their_box_reaches_it(room, mode, bottom):
    # Under MPC1 the lights stay at comfort, and the lower bound on case
    # 1's levels stays at 1.43 or above: every such solve skips the clamp
    # at 1.  MPC2's lights may move the illuminance by hundreds of lux a
    # step, whose terms take the bound under 1: every MPC2 solve keeps it.
    for solves, _, _, bottoms in shipped_solve_boxes(room, mode):
        assert solves > 0 and bottoms == (bottom,) * solves


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


class TestNoNumpyWarnings:
    """A search that overflows warns nothing: it refuses, or saturates the
    violation, silently.  The suite makes warnings errors; these tests
    check it by themselves, as a run outside the suite would."""

    @pytest.mark.parametrize("mode", [ControlMode.MPC1, ControlMode.MPC2])
    def test_saturated_violation(self, mode):
        # Comfort weights near the largest float overflow the penalty.
        cfg = MpcConfig(mode=mode, num_workers=2, p_temp=1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(CASE1_MODELS, snapshot(workers=2, temp=30.0), cfg, FAST_DE)
        assert sol.violation == np.finfo(float).max

    @pytest.mark.parametrize("mode", [ControlMode.MPC1, ControlMode.MPC2])
    def test_overflowing_rollout_is_refused(self, mode):
        # Coefficients this large overflow the drowsiness rollout to nan.
        coef = dict(CASE1_MODELS.dl.coef, d_prev=1e308, temp=-1e308)
        models = replace(CASE1_MODELS, dl=DlModel(intercept=0.0, coef=coef))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteObjective, match="objective returned nan"):
                solve(models, snapshot(), MpcConfig(mode=mode, num_workers=1), FAST_DE)


def history(num_workers):
    """A Controller for num_workers workers, to observe steps into."""
    return Controller(CASE1_MODELS, MpcConfig(mode=ControlMode.MPC2, num_workers=num_workers), FAST_DE)


class TestMeasurementLog:
    """The measured history Controller keeps: observe, snapshot, and the
    stale decision when the history cannot be read."""

    def test_snapshot_from_two_steps(self):
        ctl = history(2)
        ctl.observe(0, [2.0, 3.0], [0.10, 0.20], 26.5, 610.0)
        ctl.observe(1, [2.5, 2.75], [0.15, 0.05], 26.2, 605.0)
        snap = ctl.snapshot
        assert snap.temp_current == 26.2
        assert snap.illum_current == 605.0
        w0, w1 = snap.workers
        assert (w0.d_current, w0.d_plus, w0.d_minus, w0.effort) == (2.5, 0.5, 0.0, 0.15)
        assert (w1.d_current, w1.d_plus, w1.d_minus, w1.effort) == (2.75, 0.0, 0.25, 0.05)

    def test_rejects_worker_count_change(self):
        ctl = history(2)
        ctl.observe(0, [2.0, 3.0], [0.1, 0.1], 26.0, 600.0)
        with pytest.raises(ValueError, match="worker count 1 differs from num_workers 2"):
            ctl.observe(1, [2.0], [0.1], 26.0, 600.0)
        # The count is checked against the config, so a first step is checked too.
        with pytest.raises(ValueError, match="worker count 3"):
            history(2).observe(0, [2.0] * 3, [0.1] * 3, 26.0, 600.0)
        with pytest.raises(ValueError, match="matching lengths"):
            history(2).observe(0, [2.0, 2.1], [0.1], 26.0, 600.0)
        with pytest.raises(ValueError, match="worker count 0"):
            history(2).observe(0, [], [], 26.0, 600.0)

    def test_rejects_nonadvancing_step(self):
        ctl = history(1)
        ctl.observe(3, [2.0], [0.1], 26.0, 600.0)
        with pytest.raises(ValueError, match="advance strictly"):
            ctl.observe(3, [2.1], [0.1], 26.0, 600.0)

    def test_bounded_to_the_steps_snapshot_reads(self):
        rng = np.random.default_rng(4)
        steps = [
            (s, rng.uniform(1.0, 5.0, 3), rng.uniform(0.0, 0.3, 3),
             rng.uniform(24.0, 28.0), rng.uniform(400.0, 800.0))
            for s in range(1000)
        ]
        ctl = history(3)
        for step in steps:
            ctl.observe(*step)
        # the latest step and the snapshot it forms, nothing older
        assert ctl._latest[0] == 999
        # the state the two latest steps define, as an unbounded log gave
        (_, prev_dl, _, _, _), (_, cur_dl, cur_sd, temp, illum) = steps[-2:]
        want = StateSnapshot(
            tuple(WorkerState.from_history(float(d), float(p), float(e))
                  for d, p, e in zip(cur_dl, prev_dl, cur_sd)),
            float(temp), float(illum))
        assert ctl.snapshot == want

    def test_gap_drops_unreadable_step(self):
        ctl = history(1)
        ctl.observe(0, [2.0], [0.1], 26.0, 600.0)
        ctl.observe(1, [2.2], [0.1], 26.0, 600.0)
        ctl.observe(3, [2.4], [0.1], 26.0, 600.0)
        assert ctl.snapshot is None
        assert ctl.decide(4).status == "stale"
        ctl.observe(4, [2.3], [0.1], 26.0, 600.0)
        assert ctl._latest[0] == 4
        w, = ctl.snapshot.workers
        assert (w.d_current, w.d_minus) == (2.3, pytest.approx(0.1))
        assert ctl.decide(5).status == "ok"

    def test_snapshot_requires_consecutive_steps(self):
        ctl = history(1)
        assert ctl.snapshot is None
        ctl.observe(0, [2.0], [0.1], 26.0, 600.0)
        assert ctl.snapshot is None
        ctl.observe(2, [2.1], [0.1], 26.0, 600.0)
        assert ctl.snapshot is None
        ctl.observe(3, [2.2], [0.1], 26.0, 600.0)
        assert ctl.snapshot is not None
        ctl.restart_history()
        assert ctl.snapshot is None
        assert ctl.decide(4).status == "stale"


class TestStepController:
    """One interval decided by Controller.decide: freshness and seeding."""

    def fresh_controller(self, cfg, de, through_step):
        ctl = Controller(CASE1_MODELS, cfg, de)
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
        ctl = Controller(CASE1_MODELS, cfg, FAST_DE)
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
        ctl = Controller(CASE1_MODELS, cfg, FAST_DE)
        setpoints, solution, status = ctl.decide(5)
        assert status == "stale"
        assert solution is None
        assert setpoints == (cfg.temp_comfort, cfg.illum_comfort)

    def test_holds_last_solution_when_lagging(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2)
        ctl = Controller(CASE1_MODELS, cfg, FAST_DE)
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
        ctl = Controller(CASE1_MODELS, cfg, FAST_DE)
        ctl.observe(4, [2.4], [0.1], 27.0, 520.0)
        ctl.observe(5, [2.6], [0.12], 26.7, 540.0)
        ok = ctl.decide(6)
        assert ok.feasible == ok.solution.feasible and ok.feasible is not None
        assert ctl.hold("lunch") == (ok.setpoints, None, "lunch")
        assert ctl.hold("lunch").feasible is None
        failure = NonFiniteObjective("objective returned nan")
        monkeypatch.setattr(mpc_mod, "solve", solve_failing_at(FAST_DE.seed + 7, failure))
        ctl.observe(6, [2.5], [0.1], 26.6, 545.0)
        error = ctl.decide(7)
        assert error == (ok.setpoints, None, "error") and error.feasible is None
        ctl.observe(7, [2.5], [0.1], 26.5, 550.0)
        assert ctl.decide(8).status == "ok"


class TestSearchCeiling:
    """The sizes are computed, never allocated: no oversize search runs."""

    @pytest.mark.parametrize("mode, dim", [(ControlMode.MPC1, 3), (ControlMode.MPC2, 6)])
    def test_size_is_the_kernels_and_the_searchs(self, mode, dim):
        cfg = MpcConfig(mode=mode, horizon=3, num_workers=2)
        de = DeParams(population_size=12)
        assert search_bytes(cfg, de) == HorizonKernel.nbytes(3, 2, 12) + search_nbytes(12, dim)
        rows = 10 * dim
        assert search_bytes(cfg, DeParams()) == HorizonKernel.nbytes(3, 2, rows) + search_nbytes(rows, dim)

    # 24 workers at horizon 4, one worker over a long horizon, and a size
    # between.  33 generations make the search draw a second block of
    # draws, once it has dropped the first.
    @pytest.mark.parametrize("mode", [ControlMode.MPC1, ControlMode.MPC2])
    @pytest.mark.parametrize("horizon, workers, rows", [(4, 24, 40), (256, 1, 40), (64, 5, 80)])
    def test_count_bounds_a_real_solves_peak(self, mode, horizon, workers, rows):
        cfg = MpcConfig(mode=mode, horizon=horizon, num_workers=workers)
        de = DeParams(population_size=rows, max_generations=33, tolerance=0.0)
        state = snapshot(workers=workers)
        solve(CASE1_MODELS, state, cfg, de)  # one-time allocations of numpy and Python
        tracemalloc.start()
        try:
            solve(CASE1_MODELS, state, cfg, de)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = search_bytes(cfg, de)
        assert count / 2 <= peak <= count

    def test_search_size(self):
        # At 40 rows and 8 dimensions: 56 x 40 x 8 held; drawing a block of
        # 32 generations, its uniforms and mask, 32 x 40 x 8 x 9, and
        # donors; the box, the scores and 16 KB.
        assert search_nbytes(40, 8) == 17920 + (92160 + 30720) + 192 + 1920 + 16384

    def test_noc_runs_no_search(self):
        # NOC's count is its rollout's, whatever [de] says.
        cfg = MpcConfig(mode=ControlMode.NOC, horizon=100_000, num_workers=24)
        count = search_bytes(cfg, DeParams())
        assert 0 < count == rollout_nbytes(100_000, 24) <= mpc_mod.SEARCH_BYTES_CEILING
        assert search_bytes(cfg, DeParams(population_size=10_000_000)) == count
        require_search_fits(cfg, DeParams(population_size=10_000_000))

    # NOC scores its one schedule with rollout, which allocates Python
    # floats and tuples in proportion to the horizon.
    @pytest.mark.parametrize("horizon", [500, 2000])
    @pytest.mark.parametrize("workers", [1, 5, 24])
    def test_noc_count_bounds_a_real_solves_peak(self, horizon, workers):
        cfg = MpcConfig(mode=ControlMode.NOC, horizon=horizon, num_workers=workers)
        state = snapshot(workers=workers)
        solve(CASE1_MODELS, state, cfg)  # one-time allocations of numpy and Python
        tracemalloc.start()
        try:
            solve(CASE1_MODELS, state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = search_bytes(cfg, DeParams())
        assert count / 2 <= peak <= count

    def test_oversize_noc_rollout_is_refused(self):
        cfg = MpcConfig(mode=ControlMode.NOC, horizon=3_000_000, num_workers=5)
        want = ("an NOC solve over horizon 3000000 for 5 worker(s) needs 1308004096 bytes, "
                "over the ceiling of 1073741824 bytes")
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            require_search_fits(cfg, DeParams())

    def test_oversize_kernel_is_refused(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, horizon=100_000, num_workers=24)
        want = ("an MPC2 search over horizon 100000 for 24 worker(s) with population_size 80 "
                "needs 27896149888 bytes, over the ceiling of 1073741824 bytes")
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            require_search_fits(cfg, DeParams(population_size=80))

    def test_oversize_population_is_refused(self):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1)
        with pytest.raises(ConfigError, match="population_size 10000000 needs 51360045248 bytes"):
            require_search_fits(cfg, DeParams(population_size=10_000_000))

    def test_ceiling_is_the_largest_size_accepted(self, monkeypatch):
        cfg = MpcConfig(mode=ControlMode.MPC1, horizon=4, num_workers=5)
        de = DeParams(population_size=40)
        monkeypatch.setattr(mpc_mod, "SEARCH_BYTES_CEILING", search_bytes(cfg, de))
        require_search_fits(cfg, de)
        with pytest.raises(ConfigError, match="over the ceiling"):
            require_search_fits(replace(cfg, num_workers=6), de)

    def test_shipped_configs_fit_far_below_the_ceiling(self):
        for name in ("case1_mpc1.cfg", "case1_mpc2.cfg", "case2_mpc2.cfg"):
            sc = parse_scenario_config(shipped_config_path(name))
            at_24 = search_bytes(replace(sc.mpc_cfg, num_workers=24), sc.de)
            assert at_24 < mpc_mod.SEARCH_BYTES_CEILING / 1000
