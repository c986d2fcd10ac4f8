import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from alertmpc.cli import parse_scenario_config
from alertmpc.domain import (
    AmiModel,
    ControlMode,
    ControlSchedule,
    DlModel,
    DL_FEATURES,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
    increments,
)
from alertmpc.models import (
    HorizonKernel,
    ShapeMismatch,
    comfort_penalty,
    constraint_violation,
    objective,
    predict_ami,
    predict_dl,
    predict_idt,
    rollout,
)
from alertmpc.mpc import solve

from helpers import CASE1_MODELS, comfort_proved, shipped_config_path


def zero_coef(**overrides):
    coef = {name: 0.0 for name in DL_FEATURES}
    coef.update(overrides)
    return coef


IDENTITY_AMI = AmiModel(theta0=0.0, theta_prev=0.0, theta_set=1.0)


def reference_rollout(models, snapshot, schedule):
    """Plain transcription of the one-step recursions, kept independent of
    the package implementation on purpose."""
    temps, illums = [], []
    t_prev, l_prev = snapshot.temp_current, snapshot.illum_current
    for t_set, l_set in zip(schedule.temp_setpoints, schedule.illum_setpoints):
        k = models.idt.k_up if t_set >= t_prev else models.idt.k_down
        t = k * t_set + (1.0 - k) * t_prev
        l = models.ami.theta0 + models.ami.theta_prev * l_prev + models.ami.theta_set * l_set
        l = max(l, 0.0)
        temps.append(t)
        illums.append(l)
        t_prev, l_prev = t, l

    env_prev = [(snapshot.temp_current, snapshot.illum_current)] + list(zip(temps, illums))[:-1]
    dls = []
    for w in snapshot.workers:
        d_prev, dp, dm = w.d_current, w.d_plus, w.d_minus
        row = []
        for n in range(schedule.horizon):
            tp, tm = max(temps[n] - env_prev[n][0], 0.0), max(env_prev[n][0] - temps[n], 0.0)
            lp, lm = max(illums[n] - env_prev[n][1], 0.0), max(env_prev[n][1] - illums[n], 0.0)
            c = models.dl.coef
            raw = (
                models.dl.intercept
                + c["d_prev"] * d_prev
                + c["d_plus_prev"] * dp
                + c["d_minus_prev"] * dm
                + c["temp"] * temps[n]
                + c["temp_plus"] * tp
                + c["temp_minus"] * tm
                + c["illum"] * illums[n]
                + c["illum_plus"] * lp
                + c["illum_minus"] * lm
                + c["effort"] * w.effort
            )
            d = min(max(raw, 1.0), 5.0)
            row.append(d)
            dp, dm = max(d - d_prev, 0.0), max(d_prev - d, 0.0)
            d_prev = d
        dls.append(tuple(row))
    return tuple(temps), tuple(illums), tuple(dls)


class TestIncrements:
    def test_rise(self):
        assert increments(2.5, 2.0) == (0.5, 0.0)

    def test_fall(self):
        assert increments(2.0, 2.5) == (0.0, 0.5)

    def test_flat(self):
        assert increments(3.0, 3.0) == (0.0, 0.0)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_one_side_zero_and_difference_recovered(self, a, b):
        plus, minus = increments(a, b)
        assert plus >= 0.0 and minus >= 0.0
        assert plus * minus == 0.0
        assert plus - minus == a - b


class TestPredictIdt:
    def test_unit_gain_reaches_setpoint(self):
        m = IdtModel(k_up=1.0, k_down=1.0)
        assert predict_idt(m, temp_prev=24.0, setpoint=26.0) == 26.0

    def test_half_gain_cooling(self):
        m = IdtModel(k_up=0.3, k_down=0.5)
        assert predict_idt(m, temp_prev=28.0, setpoint=26.0) == 27.0

    def test_setpoint_equal_is_fixed_point(self):
        m = IdtModel(k_up=0.3, k_down=0.7)
        assert predict_idt(m, 26.0, 26.0) == 26.0

    def test_result_between_prev_and_setpoint(self):
        rng = np.random.default_rng(3)
        m = IdtModel(k_up=0.4, k_down=0.8)
        for _ in range(200):
            prev = rng.uniform(20, 32)
            sp = rng.uniform(20, 32)
            out = predict_idt(m, prev, sp)
            assert min(prev, sp) - 1e-12 <= out <= max(prev, sp) + 1e-12


class TestPredictAmi:
    def test_identity(self):
        assert predict_ami(IDENTITY_AMI, illum_prev=312.0, setpoint=640.0) == 640.0

    def test_affine_example(self):
        m = AmiModel(theta0=100.0, theta_prev=0.5, theta_set=0.25)
        assert predict_ami(m, 400.0, 600.0) == 450.0

    def test_clamped_at_zero(self):
        m = AmiModel(theta0=-500.0, theta_prev=0.1, theta_set=0.2)
        assert predict_ami(m, 100.0, 100.0) == 0.0


class TestPredictDl:
    def test_clamps_high(self):
        m = DlModel(intercept=7.0, coef=zero_coef())
        assert predict_dl(m, d_prev=2.0, d_plus_prev=0.0, d_minus_prev=0.0,
                          temp=26.0, temp_plus=0.0, temp_minus=0.0,
                          illum=600.0, illum_plus=0.0, illum_minus=0.0,
                          effort=0.0) == 5.0

    def test_clamps_low(self):
        m = DlModel(intercept=0.0, coef=zero_coef())
        assert predict_dl(m, 2.0, 0.0, 0.0, 26.0, 0.0, 0.0, 600.0, 0.0, 0.0, 0.0) == 1.0

    def test_linear_region(self):
        m = DlModel(intercept=0.5, coef=zero_coef(d_prev=0.8, temp_minus=-0.2))
        out = predict_dl(m, 2.0, 0.0, 0.0, 26.0, 0.0, 0.5, 600.0, 0.0, 0.0, 0.0)
        assert out == pytest.approx(0.5 + 1.6 - 0.1, abs=1e-15)


def snapshot_one(d=2.0, d_plus=0.0, d_minus=0.0, effort=0.0, temp=28.0, illum=520.0):
    return StateSnapshot((WorkerState(d, d_plus, d_minus, effort),), temp, illum)


class TestRollout:
    def test_env_chain_frozen_values(self):
        # k_down=0.5 from 28: 28 -> 27.0 -> 26.5 with constant setpoint 26.
        models = ModelSet(
            dl=DlModel(intercept=2.0, coef=zero_coef()),
            idt=IdtModel(k_up=0.3, k_down=0.5),
            ami=IDENTITY_AMI,
        )
        pred = rollout(models, snapshot_one(), ControlSchedule((26.0, 26.0), (600.0, 600.0)),
                       MpcConfig(horizon=2))
        assert pred.temps == (27.0, 26.5)
        assert pred.illums == (600.0, 600.0)

    def test_dl_recursion_frozen_values(self):
        models = ModelSet(
            dl=DlModel(intercept=0.5, coef=zero_coef(d_prev=0.8, temp_minus=-0.2)),
            idt=IdtModel(k_up=0.3, k_down=0.5),
            ami=IDENTITY_AMI,
        )
        pred = rollout(models, snapshot_one(d=2.0, temp=28.0, illum=600.0),
                       ControlSchedule((26.0, 26.0), (600.0, 600.0)), MpcConfig(horizon=2))
        assert pred.dls[0][0] == pytest.approx(1.9000000000000001, abs=1e-12)
        assert pred.dls[0][1] == pytest.approx(1.9200000000000004, abs=1e-12)

    def test_against_reference_recursion(self):
        rng = np.random.default_rng(17)
        for trial in range(25):
            coef = zero_coef(
                d_prev=rng.uniform(0.4, 0.95),
                d_plus_prev=rng.uniform(-0.2, 0.2),
                d_minus_prev=rng.uniform(-0.2, 0.2),
                temp=rng.uniform(-0.05, 0.05),
                temp_plus=rng.uniform(-0.3, 0.3),
                temp_minus=rng.uniform(-0.3, 0.3),
                illum=rng.uniform(-8e-4, 8e-4),
                illum_plus=rng.uniform(-2e-3, 2e-3),
                illum_minus=rng.uniform(-2e-3, 2e-3),
                effort=rng.uniform(-0.2, 0.2),
            )
            models = ModelSet(
                dl=DlModel(intercept=rng.uniform(0.0, 1.0), coef=coef),
                idt=IdtModel(k_up=rng.uniform(0.1, 1.0), k_down=rng.uniform(0.1, 1.0)),
                ami=AmiModel(theta0=rng.uniform(0, 120),
                             theta_prev=rng.uniform(-0.5, 0.9),
                             theta_set=rng.uniform(0.1, 1.0)),
            )
            horizon = int(rng.integers(1, 6))
            workers = tuple(
                WorkerState.from_history(rng.uniform(1.2, 4.8), rng.uniform(1.2, 4.8),
                                         effort=rng.uniform(0, 0.4))
                for _ in range(int(rng.integers(1, 4)))
            )
            snap = StateSnapshot(workers, rng.uniform(22, 30), rng.uniform(300, 900))
            sched = ControlSchedule(
                tuple(rng.uniform(24, 28, horizon)), tuple(rng.uniform(400, 800, horizon)))
            pred = rollout(models, snap, sched,
                           MpcConfig(horizon=horizon, num_workers=len(workers)))
            assert (pred.temps, pred.illums, pred.dls) == reference_rollout(models, snap, sched), trial

    def test_schedule_independent_when_env_coefs_zero(self):
        models = ModelSet(
            dl=DlModel(intercept=0.6, coef=zero_coef(d_prev=0.7)),
            idt=IdtModel(k_up=0.5, k_down=0.5),
            ami=IDENTITY_AMI,
        )
        snap = snapshot_one(d=3.0)
        a = rollout(models, snap, ControlSchedule((25.5, 25.5), (450.0, 450.0)), MpcConfig(horizon=2))
        b = rollout(models, snap, ControlSchedule((26.5, 26.5), (750.0, 750.0)), MpcConfig(horizon=2))
        assert a.dls == b.dls

    def test_worker_permutation(self):
        models = ModelSet(
            dl=DlModel(intercept=0.4, coef=zero_coef(d_prev=0.8, effort=-0.1, temp_plus=0.2)),
            idt=IdtModel(k_up=0.4, k_down=0.6),
            ami=IDENTITY_AMI,
        )
        workers = (
            WorkerState(2.0, 0.1, 0.0, 0.05),
            WorkerState(3.5, 0.0, 0.2, 0.2),
            WorkerState(1.5, 0.0, 0.0, 0.0),
        )
        sched = ControlSchedule((26.5, 25.5), (700.0, 500.0))
        cfg = MpcConfig(horizon=2, num_workers=3)
        fwd = rollout(models, StateSnapshot(workers, 26.0, 600.0), sched, cfg)
        rev = rollout(models, StateSnapshot(workers[::-1], 26.0, 600.0), sched, cfg)
        assert fwd.dls == rev.dls[::-1]
        assert fwd.temps == rev.temps

    def test_shape_mismatch(self):
        models = ModelSet(DlModel(2.0, zero_coef()), IdtModel(0.5, 0.5), IDENTITY_AMI)
        with pytest.raises(ShapeMismatch, match="schedule has 1 steps, config horizon is 3"):
            rollout(models, snapshot_one(), ControlSchedule((26.0,), (600.0,)),
                    MpcConfig(horizon=3))

    def test_worker_count_mismatch(self):
        models = ModelSet(DlModel(2.0, zero_coef()), IdtModel(0.5, 0.5), IDENTITY_AMI)
        with pytest.raises(ShapeMismatch, match="snapshot has 1 workers, config expects 2"):
            rollout(models, snapshot_one(), ControlSchedule((26.0,), (600.0,)),
                    MpcConfig(horizon=1, num_workers=2))


class TestRolloutBatch:
    MODELS = ModelSet(
        dl=DlModel(intercept=0.2, coef=zero_coef(
            d_prev=0.85, d_plus_prev=0.1, d_minus_prev=-0.05,
            temp=0.01, temp_plus=2.5, temp_minus=-2.5,
            illum=-1e-4, illum_plus=-1e-3, illum_minus=1e-3, effort=-0.3)),
        idt=IdtModel(k_up=0.6, k_down=0.5),
        ami=AmiModel(theta0=-250.0, theta_prev=0.2, theta_set=0.8),
    )

    def population(self, rng, pop, horizon):
        temps = rng.uniform(22.0, 31.0, (pop, horizon))
        illums = rng.uniform(0.0, 900.0, (pop, horizon))
        # Push rows onto the clamps: hard heating (DL up to 5), hard
        # cooling (DL down to 1), lights off (illuminance clamped at 0).
        temps[0] = 31.0
        temps[1] = 20.0
        illums[2] = 0.0
        return temps, illums

    def test_rows_equal_reference_recursion(self):
        rng = np.random.default_rng(31)
        hit = {"dl_high": False, "dl_low": False, "dark": False}
        for trial in range(10):
            horizon = 4
            workers = tuple(
                WorkerState.from_history(rng.uniform(1.2, 4.8), rng.uniform(1.2, 4.8),
                                         effort=rng.uniform(0, 0.4))
                for _ in range(3)
            )
            snap = StateSnapshot(workers, 26.0, rng.uniform(300, 900))
            cfg = MpcConfig(horizon=horizon, num_workers=3)
            temp_sets, illum_sets = self.population(rng, 16, horizon)
            kernel = HorizonKernel(self.MODELS, snap, cfg, 16)
            kernel.evaluate(np.hstack((temp_sets, illum_sets)))
            temps, illums, dls = kernel.room[:, 0], kernel.room[:, 1], kernel.dls
            assert temps.shape == illums.shape == (horizon, 16)
            assert dls.shape == (3, horizon, 16)
            for row in range(16):
                sched = ControlSchedule(tuple(temp_sets[row]), tuple(illum_sets[row]))
                want_t, want_l, want_d = reference_rollout(self.MODELS, snap, sched)
                assert tuple(temps[:, row]) == want_t, (trial, row)
                assert tuple(illums[:, row]) == want_l, (trial, row)
                assert tuple(map(tuple, dls[..., row])) == want_d, (trial, row)
            hit["dl_high"] |= bool((dls == 5.0).any())
            hit["dl_low"] |= bool((dls == 1.0).any())
            hit["dark"] |= bool((illums == 0.0).any())
        assert all(hit.values()), hit

    def test_scores_equal_single_schedule_views(self):
        rng = np.random.default_rng(5)
        snap = StateSnapshot((WorkerState(2.5, 0.0, 0.3, 0.1), WorkerState(3.1)), 27.4, 480.0)
        cfg = MpcConfig(horizon=3, num_workers=2, penalty_cap=0.6)
        temp_sets, illum_sets = self.population(rng, 16, 3)
        # Half the rows stay near comfort, so both outcomes occur.
        temp_sets[8:] = rng.uniform(25.8, 26.2, (8, 3))
        illum_sets[8:] = rng.uniform(900.0, 920.0, (8, 3))
        fs, vs = HorizonKernel(self.MODELS, snap, cfg, 16).evaluate(np.hstack((temp_sets, illum_sets)))
        assert (vs > 0.0).any() and (vs == 0.0).any()
        for row in range(16):
            pred = rollout(self.MODELS, snap,
                           ControlSchedule(tuple(temp_sets[row]), tuple(illum_sets[row])), cfg)
            assert fs[row] == objective(pred)
            assert vs[row] == constraint_violation(pred, cfg)

    def test_shape_mismatch(self):
        snap = snapshot_one()
        with pytest.raises(ShapeMismatch):
            HorizonKernel(self.MODELS, snap, MpcConfig(horizon=3), 4).evaluate(np.zeros((4, 4)))
        with pytest.raises(ShapeMismatch):
            HorizonKernel(self.MODELS, snap, MpcConfig(horizon=3, num_workers=2), 4)


def reference_scores(temps, illums, dls, cfg):
    """Objective and violation of reference_rollout's trajectories, summed
    one float at a time in the scalar order."""
    total = 0.0
    for path in dls:
        for d in path:
            total += d
    violation = 0.0
    for t, l in zip(temps, illums):
        excess = comfort_penalty(t, l, cfg) - cfg.penalty_cap
        violation += excess if excess > 0.0 else 0.0
    return total / (len(dls) * len(temps)), min(violation, np.finfo(float).max)


def scorer(models, snap, cfg, rows):
    """Score rows schedules a call, as solve does: one through rollout,
    objective and constraint_violation, more through one HorizonKernel.

    The returned function takes (rows, horizon) setpoints and gives the
    temperatures and illuminances, (horizon, rows) each, the drowsiness,
    (workers, horizon, rows), and the objectives and violations, (rows,).
    """
    if rows > 1:
        kernel = HorizonKernel(models, snap, cfg, rows)

        def score(temp_sets, illum_sets):
            f, v = kernel.evaluate(np.hstack((temp_sets, illum_sets)))
            return kernel.room[:, 0], kernel.room[:, 1], kernel.dls, f, v

        return score

    def score(temp_sets, illum_sets):
        pred = rollout(models, snap, ControlSchedule(temp_sets[0], illum_sets[0]), cfg)
        f, v = objective(pred), constraint_violation(pred, cfg)
        return (*(np.array(x)[..., None] for x in (pred.temps, pred.illums, pred.dls)),
                np.array([f]), np.array([v]))

    return score


# A DL coefficient: zero, either sign, or a large one, so that increment
# pairs of every sign meet the clamps.
DL_COEF = st.one_of(st.sampled_from([0.0, -0.0, 2.5, -2.5]), st.floats(-3.0, 3.0))


@st.composite
def kernel_cases(draw):
    """Models, a snapshot, a configuration and (rows, horizon) schedules
    for one HorizonKernel call, with 2 or 40 rows.

    The draws take in zero and negative increment and room coefficients,
    setpoints equal to the temperature before them (ties), an
    illuminance model that clamps at zero, and workers whose last two
    readings are equal (zero drowsiness increments)."""
    coef = {name: draw(DL_COEF) for name in DL_FEATURES}
    dl = DlModel(intercept=draw(st.floats(-2.0, 4.0)), coef=coef)
    idt = IdtModel(k_up=draw(st.floats(0.05, 1.0)), k_down=draw(st.floats(0.05, 1.0)))
    ami = draw(st.one_of(
        st.just(AmiModel(theta0=-900.0, theta_prev=0.1, theta_set=0.6)),  # dark at low setpoints
        st.builds(AmiModel, theta0=st.floats(-300.0, 100.0), theta_prev=st.floats(-0.9, 0.9),
                  theta_set=st.floats(0.0, 1.2))))
    rows, workers, horizon = draw(st.sampled_from([2, 40])), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    readings = st.floats(1.0, 5.0)
    states = []
    for _ in range(workers):
        d_now = draw(readings)
        d_before = d_now if draw(st.booleans()) else draw(readings)
        states.append(WorkerState.from_history(d_now, d_before, effort=draw(st.floats(0.0, 0.5))))
    snap = StateSnapshot(tuple(states), draw(st.floats(20.0, 30.0)), draw(st.floats(0.0, 900.0)))
    cfg = MpcConfig(horizon=horizon, num_workers=workers, penalty_cap=draw(st.floats(0.05, 3.0)))
    # Schedules from a drawn seed; a drawn share of the temperatures copy
    # the one before them (the measured one at step 1), so they tie with
    # the room's temperature when the gain is 1 or the room has settled.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    temps = rng.uniform(18.0, 32.0, (rows, horizon))
    ties = rng.random((rows, horizon)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    for step in range(horizon):
        before = snap.temp_current if step == 0 else temps[:, step - 1]
        temps[:, step] = np.where(ties[:, step], before, temps[:, step])
    temps[0] = snap.temp_current
    illums = rng.uniform(0.0, 1000.0, (rows, horizon))
    illums[-1] = 0.0
    return ModelSet(dl=dl, idt=idt, ami=ami), snap, cfg, temps, illums


class TestHorizonKernel:
    MODELS = TestRolloutBatch.MODELS

    def setting(self, rng, workers, horizon):
        snap = StateSnapshot(
            tuple(
                WorkerState.from_history(rng.uniform(1.2, 4.8), rng.uniform(1.2, 4.8),
                                         effort=rng.uniform(0, 0.4))
                for _ in range(workers)
            ),
            26.0, rng.uniform(300, 900))
        return snap, MpcConfig(horizon=horizon, num_workers=workers, penalty_cap=0.6)

    def kernel(self, rng, workers, horizon, rows):
        snap, cfg = self.setting(rng, workers, horizon)
        return HorizonKernel(self.MODELS, snap, cfg, rows), snap, cfg

    # A pop of 1 is NOC's one schedule, which rollout scores.
    @pytest.mark.parametrize("horizon", [1, 4, 6])
    @pytest.mark.parametrize("workers", [1, 5, 24])
    @pytest.mark.parametrize("pop", [1, 2, 4, 40])
    def test_equals_reference_and_single_schedule_views(self, pop, workers, horizon):
        rng = np.random.default_rng(1000 * pop + 10 * workers + horizon)
        snap, cfg = self.setting(rng, workers, horizon)
        score = scorer(self.MODELS, snap, cfg, pop)
        # 40 rows, scored pop at a time: the first three sit on the clamps.
        temp_sets, illum_sets = TestRolloutBatch().population(rng, 40, horizon)
        # Setpoints equal to the measured 26.0 tie, which takes k_up: rows 3
        # to 5 start there and row 6 holds it at every step.
        temp_sets[3:6, 0] = snap.temp_current
        temp_sets[6] = snap.temp_current
        hit = {"dl_high": False, "dl_low": False, "dark": False, "violated": False}
        for start in range(0, 40, pop):
            rows = slice(start, start + pop)
            temps, illums, dls, f, v = score(temp_sets[rows], illum_sets[rows])
            assert f.shape == v.shape == (pop,)
            assert temps.shape == illums.shape == (horizon, pop)
            assert dls.shape == (workers, horizon, pop)
            for j, row in enumerate(range(start, start + pop)):
                sched = ControlSchedule(tuple(temp_sets[row]), tuple(illum_sets[row]))
                want_t, want_l, want_d = reference_rollout(self.MODELS, snap, sched)
                assert tuple(temps[:, j]) == want_t, row
                assert tuple(illums[:, j]) == want_l, row
                assert tuple(map(tuple, dls[:, :, j])) == want_d, row
                assert (f[j], v[j]) == reference_scores(want_t, want_l, want_d, cfg), row
                pred = rollout(self.MODELS, snap, sched, cfg)
                assert (pred.temps, pred.illums, pred.dls) == (want_t, want_l, want_d)
                assert (objective(pred), constraint_violation(pred, cfg)) == (f[j], v[j])
            hit["dl_high"] |= bool((dls == 5.0).any())
            hit["dl_low"] |= bool((dls == 1.0).any())
            hit["dark"] |= bool((illums == 0.0).any())
            hit["violated"] |= bool((v > 0.0).any())
        assert all(hit.values()), hit

    @settings(max_examples=120, deadline=None)
    @given(kernel_cases())
    def test_rows_equal_rollout_and_scores_by_hex(self, case):
        models, snap, cfg, temps, illums = case
        kernel = HorizonKernel(models, snap, cfg, len(temps))
        f, v = kernel.evaluate(np.hstack((temps, illums)))
        for row in range(len(temps)):
            pred = rollout(models, snap, ControlSchedule(tuple(temps[row]), tuple(illums[row])), cfg)
            assert tuple(kernel.room[:, 0, row]) == pred.temps
            assert tuple(kernel.room[:, 1, row]) == pred.illums
            assert tuple(map(tuple, kernel.dls[:, :, row])) == pred.dls
            assert f[row].hex() == objective(pred).hex()
            assert v[row].hex() == constraint_violation(pred, cfg).hex()

    def test_workspace_reuse_and_fresh_scores(self):
        rng = np.random.default_rng(8)
        kernel, _, _ = self.kernel(rng, 5, 4, 40)
        a = np.hstack(TestRolloutBatch().population(rng, 40, 4))
        b = np.hstack(TestRolloutBatch().population(rng, 40, 4))
        f_a, v_a = kernel.evaluate(a)
        want = f_a.copy(), v_a.copy()
        f_b, v_b = kernel.evaluate(b)
        assert not (np.array_equal(f_a, f_b) and np.array_equal(v_a, v_b))
        # Scoring B left A's arrays alone: they are not the workspace's.
        assert np.array_equal(f_a, want[0]) and np.array_equal(v_a, want[1])
        # Another row count is refused and leaves the buffers alone.
        with pytest.raises(ShapeMismatch):
            kernel.evaluate(a[:1])
        # The caller may write into the returned arrays, as de_minimize does.
        np.copyto(f_a, -1.0)
        np.copyto(v_a, -1.0)
        f_again, v_again = kernel.evaluate(a)
        assert np.array_equal(f_again, want[0]) and np.array_equal(v_again, want[1])

    @pytest.mark.parametrize("pop", [1, 2, 4, 40])
    def test_tie_takes_the_rising_gain(self, pop):
        # With these gains k * 26.0 + (1 - k) * 26.0 rounds differently for
        # k_up and k_down, so the tie's branch shows in the temperature.
        models = replace(self.MODELS, idt=IdtModel(k_up=0.1, k_down=0.15))
        snap = StateSnapshot((WorkerState(2.0),), 26.0, 600.0)
        score = scorer(models, snap, MpcConfig(horizon=2, num_workers=1), pop)
        temps, *_ = score(np.full((pop, 2), 26.0), np.full((pop, 2), 600.0))
        want = predict_idt(models.idt, 26.0, 26.0)
        assert want != predict_idt(IdtModel(k_up=0.15, k_down=0.15), 26.0, 26.0)
        assert (temps[0] == want).all()

    def test_second_call_adds_no_workspace(self):
        workers, pop = 24, 40
        rng = np.random.default_rng(12)
        kernel, _, _ = self.kernel(rng, workers, 4, pop)
        population = np.hstack(TestRolloutBatch().population(rng, pop, 4))
        kernel.evaluate(population)
        tracemalloc.start()
        try:
            kernel.evaluate(population)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The call allocates its two (P,) results and small Python objects,
        # nothing of a workers-by-rows size.
        assert peak < np.empty((workers, pop)).nbytes

    def test_strided_illuminance_needs_no_buffer(self):
        # MPC2's illuminances are the second half of its (rows, 2 * horizon)
        # population's columns: a ufunc reading them strided would run
        # through a buffer of up to 64 KB that numpy allocates on every call.
        horizon, pop = 256, 40
        rng = np.random.default_rng(13)
        kernel, _, _ = self.kernel(rng, 1, horizon, pop)
        population = np.hstack(TestRolloutBatch().population(rng, pop, horizon))
        kernel.evaluate(population)
        tracemalloc.start()
        try:
            kernel.evaluate(population)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8192

    def test_shape_mismatch(self):
        kernel, _, _ = self.kernel(np.random.default_rng(2), 2, 3, 4)
        # Another horizon, another row count, MPC1's columns alone, or
        # no row axis.
        for shape in [(4, 4), (5, 6), (1, 6), (4, 3), (6,)]:
            with pytest.raises(ShapeMismatch, match=r"the kernel scores \(4, 6\)"):
                kernel.evaluate(np.full(shape, 26.0))
        with pytest.raises(ShapeMismatch, match="snapshot has 1 workers"):
            HorizonKernel(self.MODELS, snapshot_one(), MpcConfig(num_workers=2), 4)

    def test_refuses_fewer_than_two_rows(self):
        # One schedule is rollout's: a one-row sum would be numpy's pairwise one.
        for rows in (1, 0):
            with pytest.raises(ShapeMismatch, match=f"two rows or more, got {rows}"):
                HorizonKernel(self.MODELS, snapshot_one(), MpcConfig(), rows)


# Seeded solves on the shipped rooms, pinned as float.hex: the schedule
# (the optimizer's best vector), the objective and the generations used.
PINNED_SOLVES = {
    "case1_mpc1.cfg": (["0x1.9800000000000p+4"] * 4, "0x1.20a60e3b92e26p+1", 29),
    "case1_mpc2.cfg": (
        ["0x1.9800000000000p+4"] * 4
        + ["0x1.7700000000000p+9"] * 2 + ["0x1.76f9b270dababp+9", "0x1.76ef03a28442fp+9"],
        "0x1.033dc9c4b1f89p+1",
        60,
    ),
    "case2_mpc2.cfg": (
        ["0x1.9000000000000p+4"] * 4 + ["0x1.7700000000000p+9"] * 4,
        "0x1.0b7bc954e9657p+1",
        60,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
def test_pinned_seeded_solve(name):
    sc = parse_scenario_config(shipped_config_path(name))
    workers = tuple(
        WorkerState(1.8 + 0.45 * i, 0.1 * (i % 2), 0.07 * ((i + 1) % 2), 0.05 + 0.02 * i)
        for i in range(sc.mpc_cfg.num_workers)
    )
    sol = solve(sc.plant.truth(), StateSnapshot(workers, 26.7, 530.0), sc.mpc_cfg, sc.de)
    vector = sol.schedule.temp_setpoints
    if "mpc2" in name:
        vector += sol.schedule.illum_setpoints
    assert ([x.hex() for x in vector], sol.objective_value.hex(), sol.generations_used) == (
        PINNED_SOLVES[name]
    )


class TestObjectiveAndConstraint:
    def test_objective_is_grand_mean(self):
        class P:
            dls = ((2.0, 3.0), (4.0, 1.0))
        assert objective(P()) == 2.5

    def test_comfort_penalty_values(self):
        cfg = MpcConfig()
        assert comfort_penalty(26.0, 600.0, cfg) == 0.0
        assert comfort_penalty(26.5, 600.0, cfg) == pytest.approx(0.25, abs=1e-15)
        assert comfort_penalty(26.0, 750.0, cfg) == pytest.approx(1.0, abs=1e-15)
        assert comfort_penalty(25.5, 450.0, cfg) == pytest.approx(1.25, abs=1e-15)

    def test_violation_zero_within_cap(self):
        cfg = MpcConfig()

        class P:
            temps = (26.5, 25.5)
            illums = (750.0, 450.0)
        assert constraint_violation(P(), cfg) == 0.0

    def test_violation_sums_positive_excess(self):
        cfg = MpcConfig(penalty_cap=0.5)

        class P:
            temps = (26.5, 26.0, 27.5)
            illums = (750.0, 600.0, 600.0)
        # penalties: 1.25, 0.0, 0.75 -> excesses 0.75, 0, 0.25
        assert constraint_violation(P(), cfg) == pytest.approx(1.0, abs=1e-12)

    # The kernel's penalty overflows to infinity on the way; numpy warns.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_violation_saturates_as_the_kernel_does(self):
        models = TestRolloutBatch.MODELS
        cfg = MpcConfig(horizon=2, num_workers=1, p_temp=1e308, p_illum=1e308)
        snap = StateSnapshot((WorkerState(2.0),), 29.0, 900.0)
        sched = ControlSchedule((29.0, 29.0), (900.0, 900.0))
        _, vs = HorizonKernel(models, snap, cfg, 2).evaluate(
            np.array([sched.temp_setpoints + sched.illum_setpoints] * 2))
        violation = constraint_violation(rollout(models, snap, sched, cfg), cfg)
        assert violation == vs[0] == vs[1] == np.finfo(float).max
        assert type(violation) is float


def box_schedules(cfg, rng, rows=32):
    """(rows, horizon) setpoints inside cfg's box, as a search of cfg's
    mode scores them.  Each quantity holds its lower bound, its upper
    bound or one step past it (DE's first population, lower + u * span,
    can pass it by so much), or alternates between the lower bound and
    that step, in either phase; the first 25 rows are every pair of
    those, the rest uniform draws.  MPC1's illuminance is illum_comfort
    throughout."""
    def patterns(lo, hi):
        past = np.nextafter(hi, np.inf)
        alternating = np.resize([lo, past], cfg.horizon)
        return [np.full(cfg.horizon, x) for x in (lo, hi, past)] + [alternating, alternating[::-1]]

    temps = rng.uniform(cfg.temp_lo, cfg.temp_hi, (rows, cfg.horizon))
    illums = rng.uniform(cfg.illum_lo, cfg.illum_hi, (rows, cfg.horizon))
    pairs = itertools.product(patterns(cfg.temp_lo, cfg.temp_hi), patterns(cfg.illum_lo, cfg.illum_hi))
    for row, (t, l) in enumerate(pairs):
        temps[row], illums[row] = t, l
    if cfg.mode is ControlMode.MPC1:
        illums[...] = cfg.illum_comfort
    return temps, illums


def population(cfg, temps, illums):
    """box_schedules' setpoints as the population a kernel of cfg's mode
    scores: MPC2's temperatures and illuminances, the other modes'
    temperatures alone."""
    return np.hstack((temps, illums)) if cfg.mode is ControlMode.MPC2 else temps


@st.composite
def comfort_cases(draw):
    """Models, a snapshot, a configuration and box_schedules of its box
    for restrict_to_box.

    The gains are 1 or lie in 0.05-1, and the illuminance model is the
    identity or has coefficients of either sign; snapshots lie inside the
    box or anywhere in the measured range.  At unit gains from inside the
    box the temperatures reach the box's corners, and so do the
    illuminances under the identity model.  The cap may be drawn one step
    under the largest penalty that any of the schedules meets: a proof
    then leaves no room for a bound that misses a reachable room, a
    rounding or a row past the box."""
    def ordered(low, high):
        a, b = draw(st.floats(low, high)), draw(st.floats(low, high))
        return min(a, b), max(a, b)

    (temp_lo, temp_hi), (illum_lo, illum_hi) = ordered(15.0, 35.0), ordered(0.0, 1500.0)
    comfort = {"temp_comfort": draw(st.floats(temp_lo, temp_hi)),
               "illum_comfort": draw(st.floats(illum_lo, illum_hi))}
    if draw(st.booleans()):
        idt, temp = IdtModel(k_up=1.0, k_down=1.0), draw(st.floats(temp_lo, temp_hi))
    else:
        idt = IdtModel(k_up=draw(st.floats(0.05, 1.0)), k_down=draw(st.floats(0.05, 1.0)))
        temp = draw(st.floats(temp_lo, temp_hi) | st.floats(0.0, 50.0))
    ami = draw(st.just(IDENTITY_AMI) | st.builds(
        AmiModel, theta0=st.floats(-300.0, 300.0), theta_prev=st.floats(-0.95, 0.95),
        theta_set=st.floats(-1.5, 1.5)))
    illum = draw(st.floats(illum_lo, illum_hi) | st.floats(0.0, 10000.0))
    cfg = MpcConfig(horizon=draw(st.integers(1, 6)), num_workers=1, temp_lo=temp_lo, temp_hi=temp_hi,
                    illum_lo=illum_lo, illum_hi=illum_hi, **comfort,
                    p_temp=draw(st.floats(1e-3, 1.0)), p_illum=draw(st.floats(1e-6, 0.01)),
                    penalty_cap=draw(st.floats(0.05, 10.0)),
                    mode=draw(st.sampled_from([ControlMode.MPC1, ControlMode.MPC2])))
    models = ModelSet(dl=TestRolloutBatch.MODELS.dl, idt=idt, ami=ami)
    snap = StateSnapshot((WorkerState(2.0),), temp, illum)
    case = models, snap, cfg, *box_schedules(cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return tightened(*case) if draw(st.booleans()) else case


def comfort_case(models, cfg, temp=26.0, illum=600.0, worker=WorkerState(2.0)):
    """A comfort_cases value: one worker, the room at (temp, illum), and
    box_schedules from seed 0."""
    return (models, StateSnapshot((worker,), temp, illum), cfg,
            *box_schedules(cfg, np.random.default_rng(0)))


def tightened(models, snap, cfg, temps, illums):
    """The case with its cap one step under the largest penalty that the
    schedules' predictions meet, when that is positive."""
    preds = (rollout(models, snap, ControlSchedule(t, l), cfg) for t, l in zip(temps, illums))
    largest = max(comfort_penalty(t, l, cfg) for p in preds for t, l in zip(p.temps, p.illums))
    if largest > 0.0:
        cfg = replace(cfg, penalty_cap=float(np.nextafter(largest, 0.0)))
    return models, snap, cfg, temps, illums


# Bounds that overflow: a comfort weight whose penalty is past the largest
# float, and illuminance models whose prediction is, above it or below
# (the room is then dark, but the bound proves nothing).
OVERFLOWING_BOUNDS = {
    "weight": comfort_case(TestRolloutBatch.MODELS, MpcConfig(horizon=3, p_illum=1.7e308)),
    "model": comfort_case(replace(TestRolloutBatch.MODELS, ami=AmiModel(1e308, 0.5, 1e308)),
                          MpcConfig(horizon=3)),
    "dark model": comfort_case(replace(TestRolloutBatch.MODELS, ami=AmiModel(0.0, 0.0, -1e308)),
                               MpcConfig(horizon=1, p_illum=1e-6)),
}


class TestComfortHolds:
    @settings(max_examples=300, deadline=None)
    @given(comfort_cases())
    @example(OVERFLOWING_BOUNDS["weight"])
    @example(OVERFLOWING_BOUNDS["model"])
    # An exact room whose far corner is the upper one, and a cap at that
    # corner's penalty: rounding and the rows past the box leave no slack.
    @example(comfort_case(
        ModelSet(dl=TestRolloutBatch.MODELS.dl, idt=IdtModel(1.0, 1.0), ami=IDENTITY_AMI),
        MpcConfig(horizon=2, temp_comfort=25.5, illum_comfort=450.0,
                  penalty_cap=0.5 * (26.5 - 25.5) + (1.0 / 150.0) * (750.0 - 450.0))))
    # A negative theta_prev: the brightest second step follows the darkest
    # first one.
    @example(tightened(*comfort_case(
        ModelSet(dl=TestRolloutBatch.MODELS.dl, idt=IdtModel(1.0, 1.0), ami=AmiModel(0.0, -0.9, 1.0)),
        MpcConfig(horizon=2, illum_lo=0.0, illum_hi=1000.0, illum_comfort=0.0, p_temp=1e-3, p_illum=1e-3),
        illum=500.0)))
    def test_a_proof_means_every_violation_is_zero(self, case):
        models, snap, cfg, temps, illums = case
        # A kernel told its box returns None as the violation exactly on a proof.
        kernel = HorizonKernel(models, snap, cfg, len(temps))
        kernel.restrict_to_box()
        proved = kernel.proved
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing bounds' penalties
            assert (kernel.evaluate(population(cfg, temps, illums))[1] is None) == proved
        if not proved:
            return
        kernel = HorizonKernel(models, snap, cfg, len(temps))
        _, violations = kernel.evaluate(population(cfg, temps, illums))
        assert [v.hex() for v in violations] == [(0.0).hex()] * len(temps)
        for row in (0, 1, 2):
            pred = rollout(models, snap, ControlSchedule(tuple(temps[row]), tuple(illums[row])), cfg)
            assert constraint_violation(pred, cfg).hex() == (0.0).hex()

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_BOUNDS))
    def test_a_bound_that_overflows_proves_nothing(self, name):
        models, snap, cfg, _, _ = OVERFLOWING_BOUNDS[name]
        assert not comfort_proved(models, snap, cfg)

    def test_default_box_is_proved_from_comfort(self):
        # The default box's farthest corner costs 0.25 + 1.0 of the cap of
        # 2.  A cap of exactly that leaves no slack; a room at 29 C costs
        # 1.5 + 1.0 at step 1.
        models = replace(TestRolloutBatch.MODELS, idt=IdtModel(1.0, 1.0), ami=IDENTITY_AMI)
        snap = StateSnapshot((WorkerState(2.0),), 26.0, 600.0)
        assert comfort_proved(models, snap, MpcConfig())
        assert not comfort_proved(models, snap, MpcConfig(penalty_cap=1.25))
        assert not comfort_proved(models, replace(snap, temp_current=29.0), MpcConfig())


def lagged_case(coef, d_now):
    """A comfort_case whose drowsiness follows its own last level, pushed
    by the room at step 1 and by its own lagged rise or fall at step 2."""
    models = ModelSet(dl=DlModel(intercept=0.0, coef=zero_coef(d_prev=1.0, **coef)),
                      idt=IdtModel(1.0, 1.0), ami=IDENTITY_AMI)
    return comfort_case(models, MpcConfig(horizon=2), worker=WorkerState(d_now))


def steady_case(intercept, d_prev=0.0, d_now=2.0):
    """A comfort_case whose drowsiness is intercept plus d_prev times its
    last level, whatever the room."""
    models = ModelSet(dl=DlModel(intercept=intercept, coef=zero_coef(d_prev=d_prev)),
                      idt=IdtModel(1.0, 1.0), ami=IDENTITY_AMI)
    return comfort_case(models, MpcConfig(horizon=2), worker=WorkerState(d_now))


# Cases where a clamp binds inside the box: a room that goes dark at the
# box's lower illuminance; a worker at DL 4.9 who was at 1.1 a step ago,
# whom a warming room lifts past the 1-5 scale; workers whom step 1's
# rise or fall, lagged, lifts past it at step 2 only; a worker at DL 1.2
# whom a cooling room drops under it; one whom step 1's rise, lagged,
# drops under it at step 2 only; one who loses 0.3 a step from 1.55,
# whose bound is exact; and a level one unit in the last place under it.
BINDING_CLAMPS = {
    "floor": comfort_case(replace(TestRolloutBatch.MODELS, ami=AmiModel(-900.0, 0.1, 0.6)),
                          MpcConfig(horizon=3)),
    "ceiling": comfort_case(TestRolloutBatch.MODELS, MpcConfig(horizon=3),
                            worker=WorkerState.from_history(4.9, 1.1)),
    "ceiling after a rise": lagged_case({"d_plus_prev": 4.0, "temp_plus": 1.0}, 3.0),
    "ceiling after a fall": lagged_case({"d_minus_prev": 4.0, "temp_minus": -1.0}, 4.0),
    "bottom": lagged_case({"temp_minus": -1.0}, 1.2),
    "bottom after a rise": lagged_case({"d_plus_prev": -4.0, "temp_plus": 1.0}, 1.5),
    "bottom at step 2": steady_case(-0.3, d_prev=1.0, d_now=1.55),
    "bottom just under": steady_case(float(np.nextafter(1.0, 0.0))),
}


class TestSkippedClamps:
    @settings(max_examples=300, deadline=None)
    @given(comfort_cases())
    @example(BINDING_CLAMPS["floor"])
    @example(BINDING_CLAMPS["ceiling"])
    @example(BINDING_CLAMPS["ceiling after a rise"])
    @example(BINDING_CLAMPS["ceiling after a fall"])
    @example(BINDING_CLAMPS["bottom"])
    @example(BINDING_CLAMPS["bottom after a rise"])
    @example(BINDING_CLAMPS["bottom at step 2"])
    @example(BINDING_CLAMPS["bottom just under"])
    # Every level exactly at the bottom of the scale: the clamp there is idle.
    @example(steady_case(1.0))
    def test_every_row_in_the_box_stays_rollouts(self, case):
        # Rows at the box's corners, one unit in the last place past it and
        # inside it, whichever clamps the kernel skips.
        models, snap, cfg, temps, illums = case
        kernel = HorizonKernel(models, snap, cfg, len(temps))
        kernel.restrict_to_box()
        f, v = kernel.evaluate(population(cfg, temps, illums))
        for row in range(len(temps)):
            pred = rollout(models, snap, ControlSchedule(tuple(temps[row]), tuple(illums[row])), cfg)
            assert tuple(kernel.room[:, 0, row]) == pred.temps
            assert tuple(kernel.room[:, 1, row]) == pred.illums
            assert tuple(map(tuple, kernel.dls[:, :, row])) == pred.dls
            assert f[row].hex() == objective(pred).hex()
            # None: comfort is proved, so every violation is +0.0.
            assert (0.0 if v is None else v[row]).hex() == constraint_violation(pred, cfg).hex()

    @pytest.mark.parametrize("name", sorted(BINDING_CLAMPS))
    def test_a_clamp_that_binds_is_kept(self, name):
        models, snap, cfg, temps, illums = BINDING_CLAMPS[name]
        kernel = HorizonKernel(models, snap, cfg, len(temps))
        kernel.restrict_to_box()
        preds = [rollout(models, snap, ControlSchedule(tuple(t), tuple(l)), cfg) for t, l in zip(temps, illums)]
        if name == "floor":
            assert kernel.floor and any(0.0 in pred.illums for pred in preds)
        elif name.startswith("bottom"):
            assert kernel.bottom and any(1.0 in path for pred in preds for path in pred.dls)
        else:
            assert kernel.ceiling and any(5.0 in path for pred in preds for path in pred.dls)

    def test_a_kernel_clamps_until_told_its_box(self):
        snap = StateSnapshot((WorkerState(2.0),), 26.0, 600.0)
        kernel = HorizonKernel(CASE1_MODELS, snap, MpcConfig(num_workers=1), 2)
        comfort = np.full((2, 8), 26.0)
        comfort[:, 4:] = 600.0
        assert (kernel.proved, kernel.floor, kernel.ceiling) == (False, True, True)
        assert kernel.bottom
        assert kernel.evaluate(comfort)[1].tolist() == [0.0, 0.0]
        kernel.restrict_to_box()
        assert (kernel.proved, kernel.floor, kernel.ceiling) == (True, False, False)
        assert kernel.evaluate(comfort)[1] is None

    def test_an_overflowing_bound_keeps_the_ceiling(self):
        # The illuminance bound overflows, so the ceiling is kept; the floor
        # needs no bound when every coefficient of the room's light is positive.
        models, snap, cfg, _, _ = OVERFLOWING_BOUNDS["model"]
        kernel = HorizonKernel(models, snap, cfg, 2)
        kernel.restrict_to_box()
        assert (kernel.floor, kernel.ceiling) == (False, True)


# An illuminance model that overflows: theta_set * setpoint is infinite
# at step 1, and 0 * infinity makes step 2's illuminance NaN.
OVERFLOWING_LIGHTS = replace(CASE1_MODELS, ami=AmiModel(theta0=0.0, theta_prev=0.0, theta_set=1e306))


class TestScoreGuarantees:
    """What de_minimize takes on trust from its evaluate and checks no
    more: a (rows,) objective, and None or a (rows,) violation that is
    finite and >= 0.  Only the objective may be NaN or infinite."""

    @staticmethod
    def assert_guaranteed(kernel, pop):
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing bounds' penalties
            f, v = kernel.evaluate(pop)
        assert f.shape == (len(pop),)
        if v is not None:
            assert v.shape == (len(pop),)
            assert np.isfinite(v).all() and (v >= 0.0).all()

    def assert_both_kernels_keep_them(self, models, snap, cfg, pop):
        # A new kernel, which always returns violations, and one told its box.
        self.assert_guaranteed(HorizonKernel(models, snap, cfg, len(pop)), pop)
        kernel = HorizonKernel(models, snap, cfg, len(pop))
        kernel.restrict_to_box()
        self.assert_guaranteed(kernel, pop)

    @settings(max_examples=120, deadline=None)
    @given(kernel_cases())
    def test_kernel_cases(self, case):
        models, snap, cfg, temps, illums = case
        # restrict_to_box is told that the rows lie in cfg's box.
        temps = np.clip(temps, cfg.temp_lo, cfg.temp_hi)
        illums = np.clip(illums, cfg.illum_lo, cfg.illum_hi)
        self.assert_both_kernels_keep_them(models, snap, cfg, np.hstack((temps, illums)))

    @pytest.mark.parametrize("name", sorted(OVERFLOWING_BOUNDS))
    def test_overflowing_bounds(self, name):
        models, snap, cfg, temps, illums = OVERFLOWING_BOUNDS[name]
        self.assert_both_kernels_keep_them(models, snap, cfg, population(cfg, temps, illums))

    @pytest.mark.parametrize("mode", [ControlMode.MPC1, ControlMode.MPC2])
    def test_nan_illuminance(self, mode):
        models, snap, cfg, temps, illums = comfort_case(OVERFLOWING_LIGHTS, MpcConfig(horizon=3, mode=mode))
        self.assert_both_kernels_keep_them(models, snap, cfg, population(cfg, temps, illums))

    def test_constraint_violation_of_nan_illuminance(self):
        # NOC's comfort schedule, as tests/test_mpc.py's
        # TestNoc::test_overflowing_illuminance_is_refused scores it.
        cfg = MpcConfig(mode=ControlMode.NOC, num_workers=1)
        schedule = ControlSchedule((cfg.temp_comfort,) * cfg.horizon, (cfg.illum_comfort,) * cfg.horizon)
        snap = StateSnapshot((WorkerState(2.4, 0.0, 0.0, 0.1),), 26.8, 540.0)
        with np.errstate(all="ignore"):
            pred = rollout(OVERFLOWING_LIGHTS, snap, schedule, cfg)
        assert np.isinf(pred.illums[0]) and np.isnan(pred.illums[1])
        violation = constraint_violation(pred, cfg)
        assert np.isfinite(violation) and violation >= 0.0


class TestObjectiveGradient:
    """Check smoothness of the optimizer's landscape at a kink-free point:
    central finite differences of the rolled-out objective must agree with a
    tighter-step estimate (Richardson-style consistency)."""

    def test_fd_consistency(self):
        models = ModelSet(
            dl=DlModel(intercept=0.3, coef={
                "d_prev": 0.8, "d_plus_prev": 0.05, "d_minus_prev": -0.03,
                "temp": 0.02, "temp_plus": 0.06, "temp_minus": -0.15,
                "illum": -0.0004, "illum_plus": -0.001, "illum_minus": 0.0005,
                "effort": -0.05,
            }),
            idt=IdtModel(k_up=0.3, k_down=0.5),
            ami=AmiModel(theta0=30.0, theta_prev=0.1, theta_set=0.85),
        )
        snap = StateSnapshot((WorkerState(2.4, 0.1, 0.0, 0.1),), 27.0, 520.0)
        cfg = MpcConfig(horizon=3)
        x0 = np.array([26.2, 25.8, 26.1, 640.0, 560.0, 610.0])

        def f(vec):
            return objective(rollout(models, snap, ControlSchedule(tuple(vec[:3]), tuple(vec[3:])), cfg))

        for j in range(x0.size):
            h = 1e-3 if j < 3 else 1e-1
            def fd(step):
                up, dn = x0.copy(), x0.copy()
                up[j] += step
                dn[j] -= step
                return (f(up) - f(dn)) / (2 * step)
            g1, g2 = fd(h), fd(h / 2)
            assert g1 == pytest.approx(g2, abs=1e-6), f"coordinate {j}"
