"""Acceptance suite: the guarantees this package commits to, end to end.

Each test is one numbered criterion with its tolerance stated inline and a
time budget.  A criterion prints one ACCEPTANCE line (visible with -s);
under plain pytest -v the per-test PASSED/FAILED line carries the verdict.

1. prediction fidelity        exact single-step examples; rollout vs an
                              independent hand recursion at 1e-12
2. optimizer vs grid          DE never worse than a 625-point exhaustive
                              grid by more than 1e-9, 10 seeds
3. constraint guarantee       50 seeded solves: feasible flag re-verified
                              exactly, all setpoints within bounds
4. identification round trip  noiseless recovery within 1e-6, 100 random
                              ground truths; noisy fits within 3 SE in
                              at least 95/100 trials
5. closed-loop benefit        paired runs, 20 seeds: full control beats
                              no-control in at least 18/20, zero comfort
                              violations
6. control-scope dominance    same runs: temperature+lighting control is
                              within +0.02 of temperature-only in at
                              least 16/20 pairs
7. shipped config fidelity    packaged case configs parse to their exact
                              published values
8. determinism and replay     byte-identical repeat simulation; stream
                              replay reproduces simulated decisions
"""

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from alertmpc.cli import main, parse_scenario_config
from alertmpc.domain import (
    AmiModel,
    ControlMode,
    ControlSchedule,
    DL_FEATURES,
    DlModel,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
    increments,
)
from alertmpc.formats import write_model_set
from alertmpc.identify import (
    fit_ami_model,
    fit_dl_model,
    fit_idt_coeffs,
)
from alertmpc.models import (
    comfort_penalty,
    constraint_violation,
    objective,
    predict_ami,
    predict_dl,
    predict_idt,
    rollout,
)
from alertmpc.mpc import solve
from alertmpc.optimizer import DeParams
from alertmpc.sim import (
    PlantConfig,
    ScenarioConfig,
    compare_arms,
    run_scenario,
)

from helpers import Row, replay_stream_lines, shipped_config_path, table_of, working_day_drift

FIXTURE_DL = DlModel(intercept=0.14, coef={
    "d_prev": 0.8, "d_plus_prev": 0.08, "d_minus_prev": -0.04,
    "temp": 0.02, "temp_plus": 0.05, "temp_minus": -0.18,
    "illum": -0.0004, "illum_plus": -0.0011, "illum_minus": 0.0006,
    "effort": -0.06,
})
FIXTURE_MODELS = ModelSet(
    dl=FIXTURE_DL,
    idt=IdtModel(k_up=0.3, k_down=0.45),
    ami=AmiModel(theta0=30.0, theta_prev=0.1, theta_set=0.85),
)


@contextmanager
def gate(number, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_s:
        print(f"ACCEPTANCE {number} {name}: FAIL (over {budget_s}s budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
        )
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def zero_coef(**overrides):
    coef = {name: 0.0 for name in DL_FEATURES}
    coef.update(overrides)
    return coef


def hand_recursion(models, worker, temp0, illum0, temp_sets, illum_sets):
    """Independent transcription of the one-step recursions.

    Written directly from the model definitions, without reusing any
    rollout code: environment increments taken along the chain, the
    drowsiness increments lagged one step behind the clamped prediction,
    effort held at the measured value.
    """
    c = models.dl.coef
    temps, illums, dls = [], [], []
    t_prev, l_prev = temp0, illum0
    d_prev, d_plus, d_minus = worker.d_current, worker.d_plus, worker.d_minus
    for t_set, l_set in zip(temp_sets, illum_sets):
        k = models.idt.k_up if t_set >= t_prev else models.idt.k_down
        t = k * t_set + (1.0 - k) * t_prev
        l_raw = (models.ami.theta0 + models.ami.theta_prev * l_prev
                 + models.ami.theta_set * l_set)
        l = l_raw if l_raw > 0.0 else 0.0
        raw = (models.dl.intercept
               + c["d_prev"] * d_prev
               + c["d_plus_prev"] * d_plus
               + c["d_minus_prev"] * d_minus
               + c["temp"] * t
               + c["temp_plus"] * max(t - t_prev, 0.0)
               + c["temp_minus"] * max(t_prev - t, 0.0)
               + c["illum"] * l
               + c["illum_plus"] * max(l - l_prev, 0.0)
               + c["illum_minus"] * max(l_prev - l, 0.0)
               + c["effort"] * worker.effort)
        d = min(max(raw, 1.0), 5.0)
        d_plus, d_minus = max(d - d_prev, 0.0), max(d_prev - d, 0.0)
        d_prev = d
        t_prev, l_prev = t, l
        temps.append(t)
        illums.append(l)
        dls.append(d)
    return temps, illums, dls


def test_1_prediction_fidelity():
    """Single-step examples hold exactly; two rollout fixtures match an
    independently scripted hand recursion to 1e-12.  Budget 1 s."""
    with gate(1, "prediction fidelity", 1.0):
        # increment decomposition
        assert increments(3.0, 2.0) == (1.0, 0.0)
        assert increments(2.0, 2.0) == (0.0, 0.0)
        assert increments(24.5, 26.0) == (0.0, 1.5)

        # temperature lag
        unit = IdtModel(k_up=1.0, k_down=1.0)
        assert predict_idt(unit, temp_prev=23.1, setpoint=27.4) == 27.4
        assert predict_idt(IdtModel(k_up=0.9, k_down=0.4),
                           temp_prev=28.0, setpoint=25.5) == 27.0
        assert predict_idt(IdtModel(k_up=0.3, k_down=0.9),
                           temp_prev=25.0, setpoint=27.0) == 25.6

        # illuminance response (the stability rule |theta_prev| < 1 forbids
        # a pure previous-level passthrough, so that case is probed with an
        # exactly-representable half/half split instead)
        assert predict_ami(AmiModel(0.0, 0.0, 1.0), 500.0, 750.0) == 750.0
        assert predict_ami(AmiModel(0.0, 0.5, 0.5), 500.0, 500.0) == 500.0
        assert predict_ami(AmiModel(50.0, 0.2, 0.7), 500.0, 750.0) == 675.0

        # drowsiness regression
        flat = DlModel(intercept=1.7, coef=zero_coef())
        assert predict_dl(flat, 3.0, 0.5, 0.0, 26.0, 1.0, 0.0,
                          600.0, 50.0, 0.0, 0.2) == 1.7
        lin = DlModel(intercept=0.2, coef=zero_coef(d_prev=0.9, temp_minus=-0.1))
        assert predict_dl(lin, 2.0, 0.0, 0.0, 26.0, 0.0, 1.0,
                          600.0, 0.0, 0.0, 0.0) == 1.9
        low = DlModel(intercept=0.0, coef=zero_coef(d_prev=0.2))
        assert predict_dl(low, 2.0, 0.0, 0.0, 26.0, 0.0, 0.0,
                          600.0, 0.0, 0.0, 0.0) == 1.0  # raw 0.4 clamps up

        # identity-model rollout reproduces the schedule
        identity = ModelSet(
            dl=DlModel(intercept=2.0, coef=zero_coef()),
            idt=IdtModel(k_up=1.0, k_down=1.0),
            ami=AmiModel(0.0, 0.0, 1.0),
        )
        snap = StateSnapshot((WorkerState(3.0, 0.0, 0.0, 0.1),), 26.0, 600.0)
        sched = ControlSchedule((25.7, 26.4), (620.0, 480.0))
        pred = rollout(identity, snap, sched, MpcConfig(horizon=2))
        assert pred.temps == (25.7, 26.4)
        assert pred.illums == (620.0, 480.0)
        assert pred.dls == ((2.0, 2.0),)

        # mean-drowsiness objective
        class Fixed:
            def __init__(self, dls):
                self.dls = dls
        assert objective(Fixed(((1.7, 1.7), (1.7, 1.7)))) == 1.7
        assert objective(Fixed(((1.0, 2.0), (3.0, 4.0)))) == 2.5
        assert objective(Fixed(((5.0,),))) == 5.0

        # comfort penalty with the published weights
        cfg = MpcConfig()  # p_temp 0.5, p_illum 1/150, cap 2
        assert comfort_penalty(27.0, 750.0, cfg) == 1.5
        assert comfort_penalty(27.0, 750.0, cfg) <= cfg.penalty_cap
        assert comfort_penalty(28.5, 750.0, cfg) == 2.25
        assert comfort_penalty(28.5, 750.0, cfg) > cfg.penalty_cap

        # violation aggregates positive excess only
        class Traj:
            def __init__(self, temps, illums):
                self.temps, self.illums = temps, illums
        assert constraint_violation(Traj((26.0, 26.0), (600.0, 600.0)), cfg) == 0.0
        assert constraint_violation(Traj((28.5,), (750.0,)), cfg) == 0.25
        assert constraint_violation(Traj((28.5, 28.5), (750.0, 750.0)), cfg) == 0.5

        # derived fixture A: temperature chain only, tolerance 1e-12
        env_models = ModelSet(
            dl=DlModel(intercept=2.0, coef=zero_coef()),
            idt=IdtModel(k_up=0.5, k_down=0.5),
            ami=AmiModel(0.0, 0.0, 1.0),
        )
        worker = WorkerState(2.0, 0.0, 0.0, 0.0)
        snap = StateSnapshot((worker,), 28.0, 600.0)
        sched = ControlSchedule((26.0, 26.0), (600.0, 600.0))
        pred = rollout(env_models, snap, sched, MpcConfig(horizon=2))
        assert pred.temps == pytest.approx((27.0, 26.5), abs=1e-12)
        ref = hand_recursion(env_models, worker, 28.0, 600.0,
                             (26.0, 26.0), (600.0, 600.0))
        assert pred.temps == pytest.approx(ref[0], abs=1e-12)

        # derived fixture B: full two-step recursion with drowsiness
        # coupling, tolerance 1e-12 against the same hand oracle
        dl_models = ModelSet(
            dl=DlModel(intercept=0.5, coef=zero_coef(d_prev=0.8, temp_minus=-0.2)),
            idt=IdtModel(k_up=0.5, k_down=0.5),
            ami=AmiModel(0.0, 0.0, 1.0),
        )
        pred = rollout(dl_models, snap, sched, MpcConfig(horizon=2))
        temps, illums, dls = hand_recursion(dl_models, worker, 28.0, 600.0,
                                            (26.0, 26.0), (600.0, 600.0))
        assert pred.temps == pytest.approx(temps, abs=1e-12)
        assert pred.illums == pytest.approx(illums, abs=1e-12)
        assert pred.dls[0] == pytest.approx(dls, abs=1e-12)
        assert pred.dls[0][0] == pytest.approx(1.9, abs=1e-12)
        assert pred.dls[0][1] == pytest.approx(1.92, abs=1e-12)


def test_2_optimizer_matches_grid():
    """Two-step, one-worker instance: across 10 seeds the evolutionary
    search returns a feasible objective no worse than the best feasible
    point of an exhaustive 5-level-per-variable grid (625 candidates)
    plus 1e-9.  Budget 10 s."""
    with gate(2, "optimizer vs grid", 10.0):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=2)
        snap = StateSnapshot((WorkerState(2.4, 0.1, 0.0, 0.15),), 26.8, 540.0)

        temp_levels = np.linspace(cfg.temp_lo, cfg.temp_hi, 5)
        illum_levels = np.linspace(cfg.illum_lo, cfg.illum_hi, 5)
        grid_best = np.inf
        for t1, t2 in itertools.product(temp_levels, repeat=2):
            for l1, l2 in itertools.product(illum_levels, repeat=2):
                sched = ControlSchedule((float(t1), float(t2)),
                                        (float(l1), float(l2)))
                pred = rollout(FIXTURE_MODELS, snap, sched, cfg)
                if constraint_violation(pred, cfg) == 0.0:
                    grid_best = min(grid_best, objective(pred))
        assert np.isfinite(grid_best), "grid produced no feasible candidate"

        for seed in range(10):
            sol = solve(FIXTURE_MODELS, snap, cfg,
                        DeParams(population_size=30, max_generations=80,
                                 seed=seed))
            assert sol.feasible, f"seed {seed} returned infeasible"
            assert sol.objective_value <= grid_best + 1e-9, (
                f"seed {seed}: {sol.objective_value} vs grid {grid_best}"
            )


def test_3_constraint_guarantee():
    """50 seeded solves with randomized snapshots under a cap tight enough
    to bind: every solution flagged feasible re-verifies the per-step
    penalty cap with violation exactly 0, and every returned schedule
    (feasible or not) stays inside the setpoint bounds.  Budget 30 s."""
    with gate(3, "constraint guarantee", 30.0):
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1, horizon=3,
                        temp_lo=24.5, temp_hi=28.0,
                        illum_lo=350.0, illum_hi=850.0, penalty_cap=0.8)
        rng = np.random.default_rng(7)
        outcomes = {True: 0, False: 0}
        for i in range(50):
            # Odd draws start hot enough that even one interval of maximal
            # cooling overshoots the cap, forcing the infeasible branch.
            temp0 = (rng.uniform(24.8, 28.3) if i % 2 == 0
                     else rng.uniform(31.0, 34.0))
            snap = StateSnapshot(
                (WorkerState.from_history(rng.uniform(1.5, 4.5),
                                          rng.uniform(1.5, 4.5),
                                          effort=rng.uniform(0.0, 0.3)),),
                temp0, rng.uniform(300.0, 900.0))
            sol = solve(FIXTURE_MODELS, snap, cfg,
                        DeParams(population_size=20, max_generations=30,
                                 seed=1000 + i))
            outcomes[sol.feasible] += 1
            for t_set in sol.schedule.temp_setpoints:
                assert cfg.temp_lo <= t_set <= cfg.temp_hi
            for l_set in sol.schedule.illum_setpoints:
                assert cfg.illum_lo <= l_set <= cfg.illum_hi
            pred = rollout(FIXTURE_MODELS, snap, sol.schedule, cfg)
            if sol.feasible:
                assert constraint_violation(pred, cfg) == 0.0
                for t, l in zip(pred.temps, pred.illums):
                    assert comfort_penalty(t, l, cfg) <= cfg.penalty_cap
            else:
                assert constraint_violation(pred, cfg) > 0.0
        assert outcomes[True] >= 20, outcomes
        assert outcomes[False] >= 20, outcomes


def _dl_chunk_table(truth, n_chunks, rng, noise_sd, d_lo, d_hi):
    """Telemetry of independent 3-step chains whose final level satisfies
    the regression exactly (plus optional noise on that level only).
    Chunks are spaced so no window straddles two of them."""
    c = truth.coef
    rows = []
    for chunk in range(n_chunks):
        base = 4 * chunk
        d0, d1 = rng.uniform(d_lo, d_hi, 2)
        t1, t2 = rng.uniform(25.0, 27.5, 2)
        l1, l2 = rng.uniform(480.0, 720.0, 2)
        e2 = rng.uniform(0.0, 0.3)
        target = (truth.intercept + c["d_prev"] * d1
                  + c["d_plus_prev"] * max(d1 - d0, 0.0)
                  + c["d_minus_prev"] * max(d0 - d1, 0.0)
                  + c["temp"] * t2
                  + c["temp_plus"] * max(t2 - t1, 0.0)
                  + c["temp_minus"] * max(t1 - t2, 0.0)
                  + c["illum"] * l2
                  + c["illum_plus"] * max(l2 - l1, 0.0)
                  + c["illum_minus"] * max(l1 - l2, 0.0)
                  + c["effort"] * e2)
        if noise_sd:
            target += rng.normal(0.0, noise_sd)
        rows.append(Row(base, "w0", d0, 0.1, t1, l1, t1, l1))
        rows.append(Row(base + 1, "w0", d1, 0.1, t1, l1, t1, l1))
        rows.append(Row(base + 2, "w0", target, e2, t2, l2, t2, l2))
    return table_of(rows)


def _env_sweep_table(idt_truth, ami_truth, steps=80):
    """Noiseless setpoint sweep whose room responses follow the lag and
    affine models exactly, exercising both temperature directions."""
    rows = [Row(0, "w0", 2.0, 0.1, 26.5, 520.0, 26.5, 520.0)]
    t, l = 26.5, 520.0
    for i in range(1, steps):
        t_set = 25.2 if (i // 3) % 2 == 0 else 27.3
        l_set = 460.0 + (i * 53) % 280
        t = predict_idt(idt_truth, t, t_set)
        l = predict_ami(ami_truth, l, l_set)
        rows.append(Row(i, "w0", 2.0, 0.1, t, l, t_set, l_set))
    return table_of(rows)


def _random_dl_truth(rng):
    """Random regression coefficients whose outputs stay strictly inside
    the 1-5 scale over the chunk generator's feature ranges, so clamping
    never censors the target."""
    coef = {
        "d_prev": rng.uniform(0.5, 0.8),
        "d_plus_prev": rng.uniform(-0.08, 0.08),
        "d_minus_prev": rng.uniform(-0.08, 0.08),
        "temp": rng.uniform(-0.03, 0.03),
        "temp_plus": rng.uniform(-0.2, 0.2),
        "temp_minus": rng.uniform(-0.2, 0.2),
        "illum": rng.uniform(-6e-4, 6e-4),
        "illum_plus": rng.uniform(-1.5e-3, 1.5e-3),
        "illum_minus": rng.uniform(-1.5e-3, 1.5e-3),
        "effort": rng.uniform(-0.2, 0.2),
    }
    mids = {
        "d_prev": 2.5, "d_plus_prev": 0.7, "d_minus_prev": 0.7,
        "temp": 26.25, "temp_plus": 1.25, "temp_minus": 1.25,
        "illum": 600.0, "illum_plus": 120.0, "illum_minus": 120.0,
        "effort": 0.15,
    }
    # Center the output interval at 3.0; the slope ranges above bound the
    # half-width by about 1.7, keeping every target inside (1, 5).
    intercept = 3.0 - sum(coef[k] * mids[k] for k in coef)
    return DlModel(intercept=intercept, coef=coef)


def test_4_identification_round_trip():
    """Noiseless fits recover every parameter within 1e-6 across 100
    random ground truths.  With observation noise 0.05 on 500 samples,
    all 11 regression parameters land within 3 standard errors in at
    least 95 of 100 trials.  Budget 30 s."""
    with gate(4, "identification round trip", 30.0):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            dl_truth = _random_dl_truth(rng)
            idt_truth = IdtModel(k_up=rng.uniform(0.15, 0.95),
                                 k_down=rng.uniform(0.15, 0.95))
            ami_truth = AmiModel(theta0=rng.uniform(10.0, 60.0),
                                 theta_prev=rng.uniform(-0.1, 0.8),
                                 theta_set=rng.uniform(0.2, 1.0))

            dl_fit, _ = fit_dl_model(
                _dl_chunk_table(dl_truth, 40, rng, 0.0, 1.8, 3.2))
            assert dl_fit.intercept == pytest.approx(dl_truth.intercept, abs=1e-6)
            for name in DL_FEATURES:
                assert dl_fit.coef[name] == pytest.approx(
                    dl_truth.coef[name], abs=1e-6), (seed, name)

            env = _env_sweep_table(idt_truth, ami_truth)
            idt_fit, _ = fit_idt_coeffs(env)
            assert idt_fit.k_up == pytest.approx(idt_truth.k_up, abs=1e-6)
            assert idt_fit.k_down == pytest.approx(idt_truth.k_down, abs=1e-6)
            ami_fit, _ = fit_ami_model(env)
            assert ami_fit.theta0 == pytest.approx(ami_truth.theta0, abs=1e-6)
            assert ami_fit.theta_prev == pytest.approx(ami_truth.theta_prev, abs=1e-6)
            assert ami_fit.theta_set == pytest.approx(ami_truth.theta_set, abs=1e-6)

        within = 0
        for trial in range(100):
            rng = np.random.default_rng(5000 + trial)
            table = _dl_chunk_table(FIXTURE_DL, 500, rng, 0.05, 2.3, 3.7)
            fit, _ = fit_dl_model(table)
            # standard errors from the same design the fit consumed
            design = []
            targets = []
            dl, temp, illum = table.dl.tolist(), table.temp.tolist(), table.illum.tolist()
            effort = table.effort.tolist()
            for i in range(0, len(table), 3):
                design.append([
                    1.0, dl[i + 1], max(dl[i + 1] - dl[i], 0.0), max(dl[i] - dl[i + 1], 0.0),
                    temp[i + 2], max(temp[i + 2] - temp[i + 1], 0.0), max(temp[i + 1] - temp[i + 2], 0.0),
                    illum[i + 2], max(illum[i + 2] - illum[i + 1], 0.0), max(illum[i + 1] - illum[i + 2], 0.0),
                    effort[i + 2],
                ])
                targets.append(dl[i + 2])
            a = np.asarray(design)
            y = np.asarray(targets)
            beta = np.array([fit.intercept] + [fit.coef[n] for n in DL_FEATURES])
            resid = y - a @ beta
            sigma2 = float(resid @ resid) / (a.shape[0] - a.shape[1])
            se = np.sqrt(np.diag(np.linalg.inv(a.T @ a)) * sigma2)
            truth_vec = np.array([FIXTURE_DL.intercept]
                                 + [FIXTURE_DL.coef[n] for n in DL_FEATURES])
            if np.all(np.abs(beta - truth_vec) <= 3.0 * se):
                within += 1
        assert within >= 95, f"only {within}/100 noisy fits within 3 SE"


def _paired_comparison(_cache={}):
    """20-seed paired arm comparison shared by criteria 5 and 6."""
    if "cmp" not in _cache:
        plant = PlantConfig(
            true_idt=FIXTURE_MODELS.idt, true_ami=FIXTURE_MODELS.ami,
            true_dl=FIXTURE_DL,
            idt_noise_sd=0.04, ami_noise_sd=4.0, dl_noise_sd=0.04,
            effort_sd=0.05, substeps=4, drift=working_day_drift(24),
            init_temp=26.5, init_illum=520.0, init_dl=2.2,
        )
        cfg = MpcConfig(mode=ControlMode.MPC2, num_workers=1)
        base = ScenarioConfig(
            steps=24, seed=0,
            plant=plant, mpc_cfg=cfg,
            de=DeParams(population_size=24, max_generations=50, seed=500),
        )
        _cache["cmp"] = compare_arms(base, range(20))
    return _cache["cmp"]


def test_5_closed_loop_benefit():
    """Paired common-random-number runs over 20 seeds with a mid-day
    drowsiness bump: full control lowers mean drowsiness versus
    no-control in at least 18/20 pairs and never violates the comfort
    cap.  Budget 120 s (shared with criterion 6)."""
    with gate(5, "closed-loop benefit", 120.0):
        cmp = _paired_comparison()
        deltas = cmp.paired_delta("MPC2", "NOC")
        wins = sum(d < 0.0 for d in deltas)
        assert wins >= 18, f"full control won only {wins}/20 pairs: {deltas}"
        for metrics in cmp.metrics["MPC2"]:
            assert metrics.comfort_violation_rate == 0.0


def test_6_control_scope_dominance():
    """On the same paired runs, controlling temperature and lighting is
    no worse than temperature alone by more than 0.02 mean drowsiness in
    at least 16/20 pairs.  Budget 120 s (shared with criterion 5)."""
    with gate(6, "control-scope dominance", 120.0):
        cmp = _paired_comparison()
        deltas = cmp.paired_delta("MPC2", "MPC1")
        wins = sum(d <= 0.02 for d in deltas)
        assert wins >= 16, f"within-tolerance in only {wins}/20 pairs: {deltas}"


def test_7_shipped_config_fidelity():
    """The packaged case configs parse to exactly their published values:
    0.25 h steps, 4-step horizon, comfort targets 26 C / 600 lx, weights
    0.5 and 1/150, cap 2, illuminance bounds 450/750, case-specific
    temperature bounds and worker counts.  Budget 5 s."""
    with gate(7, "shipped config fidelity", 5.0):
        expected_modes = {
            "case1_mpc2.cfg": ControlMode.MPC2,
            "case1_mpc1.cfg": ControlMode.MPC1,
            "case1_noc.cfg": ControlMode.NOC,
            "case2_mpc2.cfg": ControlMode.MPC2,
            "case2_noc.cfg": ControlMode.NOC,
        }
        for name, mode in expected_modes.items():
            sc = parse_scenario_config(shipped_config_path(name))
            cfg = sc.mpc_cfg
            assert cfg.mode is mode, name
            assert cfg.step_hours == 0.25, name
            assert cfg.horizon == 4, name
            assert cfg.temp_comfort == 26.0, name
            assert cfg.illum_comfort == 600.0, name
            assert cfg.p_temp == 0.5, name
            assert cfg.p_illum == 1.0 / 150.0, name
            assert cfg.penalty_cap == 2.0, name
            assert (cfg.illum_lo, cfg.illum_hi) == (450.0, 750.0), name
            if name.startswith("case1"):
                assert cfg.num_workers == 5, name
                assert (cfg.temp_lo, cfg.temp_hi) == (25.5, 26.5), name
            else:
                assert cfg.num_workers == 6, name
                assert (cfg.temp_lo, cfg.temp_hi) == (25.0, 27.0), name


REPLAY_CFG = """\
[mpc]
mode = mpc2
horizon = 2
num_workers = 1

[de]
population_size = 12
max_generations = 12
seed = 77

[plant]
k_up = 0.3
k_down = 0.45
theta0 = 30.0
theta_prev = 0.1
theta_set = 0.85
dl_intercept = 0.14
dl_d_prev = 0.8
dl_d_plus_prev = 0.08
dl_d_minus_prev = -0.04
dl_temp = 0.02
dl_temp_plus = 0.05
dl_temp_minus = -0.18
dl_illum = -0.0004
dl_illum_plus = -0.0011
dl_illum_minus = 0.0006
dl_effort = -0.06
idt_noise_sd = 0.03
ami_noise_sd = 3.0
dl_noise_sd = 0.03
effort_sd = 0.05
substeps = 1
init_temp = 26.5
init_illum = 520
init_dl = 2.2

[scenario]
steps = 6
seed = {seed}
"""


def test_8_determinism_and_replay(tmp_path):
    """Repeating a simulation of the shipped main-case config produces
    byte-identical trace and metrics files, and on 5 seeded scenarios
    the streaming daemon fed a replayed measurement stream emits exactly
    the setpoints the simulator applied.  Budget 90 s."""
    with gate(8, "determinism and replay", 90.0):
        cfg_path = shipped_config_path("case1_mpc2.cfg")
        dirs = (str(tmp_path / "sim1"), str(tmp_path / "sim2"))
        for out_dir in dirs:
            assert main(["simulate", "--config", cfg_path,
                         "--out-dir", out_dir]) == 0
        for name in ("trace.csv", "metrics.csv"):
            with open(f"{dirs[0]}/{name}", "rb") as fh:
                first = fh.read()
            with open(f"{dirs[1]}/{name}", "rb") as fh:
                second = fh.read()
            assert first == second, f"{name} differed between repeat runs"

        for seed in (101, 102, 103, 104, 105):
            case_dir = tmp_path / f"replay{seed}"
            case_dir.mkdir()
            scenario_path = str(case_dir / "scenario.cfg")
            with open(scenario_path, "w", encoding="utf-8") as fh:
                fh.write(REPLAY_CFG.format(seed=seed))
            sc = parse_scenario_config(scenario_path)
            trace, _ = run_scenario(sc)

            model_path = str(case_dir / "models.json")
            write_model_set(model_path, ModelSet(
                dl=sc.plant.true_dl, idt=sc.plant.true_idt,
                ami=sc.plant.true_ami))
            stream_path = str(case_dir / "stream.jsonl")
            with open(stream_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(
                    replay_stream_lines(trace, sc.plant, sc.mpc_cfg)) + "\n")
            out_path = str(case_dir / "setpoints.jsonl")
            assert main(["daemon", "--model", model_path,
                         "--config", scenario_path,
                         "--in", stream_path, "--out", out_path,
                         "--out-dir", str(case_dir)]) == 0

            with open(out_path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            assert records[0]["status"] == "warmup"
            assert len(records) == len(trace.steps) + 2
            for record, step in zip(records[1:], trace.steps):
                assert record["status"] == "ok"
                assert record["temp_set_c"] == step.temp_set, seed
                assert record["illum_set_lx"] == step.illum_set, seed
