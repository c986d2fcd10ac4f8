import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alertmpc.domain import AmiModel, DL_FEATURES, DL_MAX, DL_MIN, IdtModel, increments
from alertmpc.identify import (
    DegenerateSweep,
    InsufficientData,
    InvalidTelemetry,
    OverflowingFit,
    UnstableFit,
    dl_design,
    fit_ami_model,
    fit_dl_model,
    fit_idt_coeffs,
)
from alertmpc.models import predict_ami, predict_dl, predict_idt
from helpers import CASE1_MODELS, Row, rows_of, table_of

TRUTH_DL, TRUTH_IDT, TRUTH_AMI = CASE1_MODELS.dl, CASE1_MODELS.idt, CASE1_MODELS.ami


def make_sweep(steps=60, workers=2, seed=0, noise_sd=0.0,
               truth_dl=TRUTH_DL, truth_idt=TRUTH_IDT, truth_ami=TRUTH_AMI):
    """Excitation sweep rolled forward through the true recursions.

    Setpoints alternate in blocks (both lag branches get transitions) and
    the illuminance sweep covers distinct levels.  With noise_sd=0 every
    row satisfies the drowsiness regression exactly.
    """
    rng = np.random.default_rng(seed)
    rows = []
    temp, illum = 26.5, 520.0
    cur = {j: 2.2 for j in range(workers)}
    prev = dict(cur)
    for i in range(steps):
        tset = 25.5 if (i // 3) % 2 == 0 else 26.8
        lset = 450.0 + (i * 37) % 300
        new_temp = predict_idt(truth_idt, temp, tset)
        new_illum = predict_ami(truth_ami, illum, lset)
        tp, tm = increments(new_temp, temp)
        lp, lm = increments(new_illum, illum)
        for j in range(workers):
            effort = 0.05 + 0.04 * ((i * 7 + j * 3) % 5)
            dp, dm = increments(cur[j], prev[j])
            d = predict_dl(truth_dl, cur[j], dp, dm, new_temp, tp, tm,
                           new_illum, lp, lm, effort)
            assert 1.0 < d < 5.0, "sweep left the linear region"
            if noise_sd:
                d = float(np.clip(d + rng.normal(0.0, noise_sd), 1.0, 5.0))
            rows.append(Row(i, f"w{j}", d, effort, new_temp, new_illum,
                                     tset, lset))
            prev[j], cur[j] = cur[j], d
        temp, illum = new_temp, new_illum
    return table_of(rows)


def make_chunks(n_chunks, seed, noise_sd=0.05, truth_dl=TRUTH_DL):
    """Independent three-step chains with exogenous features.

    Only the target carries noise, so the least-squares estimate is
    unbiased and standard errors apply cleanly.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(n_chunks):
        wid = f"c{c}"
        d0 = rng.uniform(1.6, 3.4)
        d1 = rng.uniform(2.0, 3.4)
        t0, t1, t2 = rng.uniform(25.5, 27.0, 3)
        l0, l1, l2 = rng.uniform(500.0, 700.0, 3)
        e0, e1, e2 = rng.uniform(0.0, 0.35, 3)
        dp, dm = increments(d1, d0)
        tp, tm = increments(t2, t1)
        lp, lm = increments(l2, l1)
        d2 = predict_dl(truth_dl, d1, dp, dm, t2, tp, tm, l2, lp, lm, e2)
        assert 1.0 < d2 < 5.0, "chunk left the linear region"
        d2 += rng.normal(0.0, noise_sd)
        rows.append(Row(0, wid, d0, e0, t0, l0, t0, l0))
        rows.append(Row(1, wid, d1, e1, t1, l1, t1, l1))
        rows.append(Row(2, wid, d2, e2, t2, l2, t2, l2))
    return table_of(rows)


def coefficient_standard_errors(X, y, intercept, beta):
    """Classical OLS standard errors from the augmented design."""
    A = np.column_stack([np.ones(len(y)), X])
    resid = y - A @ np.concatenate([[intercept], beta])
    dof = len(y) - A.shape[1]
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(A.T @ A)
    return np.sqrt(np.diag(cov))


class TestTelemetryValidation:
    def test_row_rejects_out_of_scale_dl(self):
        with pytest.raises(ValueError, match="w3"):
            table_of((Row(0, "w3", 5.4, 0.1, 26.0, 600.0, 26.0, 600.0),))

    def test_row_rejects_negative_effort(self):
        with pytest.raises(ValueError, match="effort"):
            table_of((Row(2, "w0", 2.0, -0.1, 26.0, 600.0, 26.0, 600.0),))

    def test_table_rejects_nonincreasing_steps(self):
        rows = (
            Row(0, "w0", 2.0, 0.1, 26.0, 600.0, 26.0, 600.0),
            Row(0, "w0", 2.1, 0.1, 26.0, 600.0, 26.0, 600.0),
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            table_of(rows)

    def test_interleaved_workers_allowed(self):
        rows = (
            Row(0, "a", 2.0, 0.1, 26.0, 600.0, 26.0, 600.0),
            Row(0, "b", 2.5, 0.1, 26.0, 600.0, 26.0, 600.0),
            Row(1, "a", 2.1, 0.1, 26.0, 600.0, 26.0, 600.0),
            Row(1, "b", 2.4, 0.1, 26.0, 600.0, 26.0, 600.0),
        )
        table = table_of(rows)
        assert set(table.worker_ids) == {"a", "b"}


class TestDlDesign:
    def row(self, step, dl, temp, illum, effort):
        return Row(step, "w", dl, effort, temp, illum, temp, illum)

    def test_hand_computed_features(self):
        table = table_of((
            self.row(0, 2.0, 26.0, 600.0, 0.10),
            self.row(1, 2.4, 25.5, 650.0, 0.12),
            self.row(2, 2.1, 26.5, 640.0, 0.08),
            self.row(3, 2.2, 26.0, 700.0, 0.20),
        ))
        X, y = dl_design(table)
        assert X.shape == (2, 10)
        want0 = [2.4, 0.4, 0.0, 26.5, 1.0, 0.0, 640.0, 0.0, 10.0, 0.08]
        want1 = [2.1, 0.0, 0.3, 26.0, 0.0, 0.5, 700.0, 60.0, 0.0, 0.20]
        assert np.allclose(X[0], want0, atol=1e-12)
        assert np.allclose(X[1], want1, atol=1e-12)
        assert y.tolist() == [2.1, 2.2]

    def test_gap_breaks_chain(self):
        table = table_of((
            self.row(s, 2.0 + 0.01 * s, 26.0, 600.0, 0.1)
            for s in (0, 1, 2, 4, 5, 6)
        ))
        X, _ = dl_design(table)
        assert X.shape[0] == 2  # (0,1,2) and (4,5,6) only

    def test_boundary_exclusion_flag(self):
        table = table_of((
            self.row(0, 2.0, 26.0, 600.0, 0.1),
            self.row(1, 3.0, 26.0, 600.0, 0.1),
            self.row(2, 5.0, 26.0, 600.0, 0.1),
        ))
        X_excl, _ = dl_design(table, exclude_boundary=True)
        X_incl, y_incl = dl_design(table, exclude_boundary=False)
        assert X_excl.shape[0] == 0
        assert X_incl.shape[0] == 1 and y_incl[0] == 5.0


class TestDlFit:
    def test_noiseless_round_trip(self):
        for seed in range(10):
            table = make_sweep(seed=seed)
            model, report = fit_dl_model(table)
            assert model.intercept == pytest.approx(TRUTH_DL.intercept, abs=1e-9)
            for name in DL_FEATURES:
                assert model.coef[name] == pytest.approx(
                    TRUTH_DL.coef[name], abs=1e-9), name
            assert report.rmse < 1e-9
            assert not report.condition_warning

    def test_constant_dl_yields_minimum_norm(self):
        rows = tuple(
            Row(s, "w", 2.0, 0.05 * (s % 3), 25.0 + 0.3 * (s % 5),
                         500.0 + 17.0 * (s % 7), 26.0, 600.0)
            for s in range(16)
        )
        model, report = fit_dl_model(table_of(rows))
        assert model.intercept == pytest.approx(2.0, abs=1e-9)
        for name in DL_FEATURES:
            assert model.coef[name] == pytest.approx(0.0, abs=1e-9), name
        assert report.condition_warning
        assert report.rmse < 1e-12

    def test_insufficient_samples(self):
        table = make_sweep(steps=6, workers=1)
        with pytest.raises(InsufficientData, match="11"):
            fit_dl_model(table)

    def test_noisy_fit_within_standard_errors(self):
        table = make_chunks(n_chunks=600, seed=1, noise_sd=0.05)
        model, report = fit_dl_model(table)
        X, y = dl_design(table)
        beta_hat = np.array([model.coef[n] for n in DL_FEATURES])
        ses = coefficient_standard_errors(X, y, model.intercept, beta_hat)
        truth = np.concatenate([[TRUTH_DL.intercept],
                                [TRUTH_DL.coef[n] for n in DL_FEATURES]])
        est = np.concatenate([[model.intercept], beta_hat])
        assert np.all(np.abs(est - truth) <= 4.0 * ses)
        assert 0.04 < report.rmse < 0.06

    def test_ridge_stays_close_on_clean_data(self):
        model, _ = fit_dl_model(make_sweep(seed=2), ridge=1e-8)
        assert model.coef["d_prev"] == pytest.approx(0.8, abs=1e-3)

    @pytest.mark.parametrize("effort, rows, ridge, part", [
        (1e200, (10,), 0.5, "Gram matrix"),
        (1e308, (10, 12), 0.0, "column means"),
    ])
    def test_overflowing_fit_refused(self, effort, rows, ridge, part):
        # Valid telemetry whose effort readings overflow the fit's sums:
        # refused before the solver sees them, with no numpy warning.
        table = table_of(row._replace(effort=effort) if i in rows else row
                         for i, row in enumerate(rows_of(make_sweep())))
        with pytest.raises(OverflowingFit, match=f"drowsiness fit overflows: its {part}"):
            fit_dl_model(table, ridge=ridge)


def env_row(step, temp, tset, illum=600.0, lset=600.0):
    return Row(step, "w", 2.0, 0.0, temp, illum, tset, lset)


class TestIdtFit:
    def test_exact_recovery(self):
        table = make_sweep(seed=3)
        model, report = fit_idt_coeffs(table)
        assert model.k_up == pytest.approx(TRUTH_IDT.k_up, abs=1e-9)
        assert model.k_down == pytest.approx(TRUTH_IDT.k_down, abs=1e-9)
        assert report.rmse < 1e-9
        assert not report.condition_warning

    def test_unit_gain(self):
        truth = IdtModel(k_up=1.0, k_down=1.0)
        table = make_sweep(seed=4, truth_idt=truth)
        model, _ = fit_idt_coeffs(table)
        assert model.k_up == pytest.approx(1.0, abs=1e-12)
        assert model.k_down == pytest.approx(1.0, abs=1e-12)

    def test_overshoot_clipped_with_warning(self):
        # Observed temperature moves 1.5x the commanded gap in both
        # directions, so both branch gains solve to 1.5 and get clipped.
        table = table_of((
            env_row(0, 25.0, 25.0),
            env_row(1, 28.0, 27.0),   # raising: dp=2, do=3
            env_row(2, 31.0, 30.0),   # raising: dp=2, do=3
            env_row(3, 28.0, 29.0),   # lowering: dp=-2, do=-3
            env_row(4, 25.0, 26.0),   # lowering: dp=-2, do=-3
        ))
        model, report = fit_idt_coeffs(table)
        assert model.k_up == 1.0
        assert model.k_down == 1.0
        assert report.condition_warning

    def test_missing_branch(self):
        table = table_of((
            env_row(s, 25.0 + 0.2 * s, 28.0) for s in range(6)
        ))
        with pytest.raises(InsufficientData, match="lowering"):
            fit_idt_coeffs(table)

    def test_uninformative_branch(self):
        # Raising transitions exist but the setpoint always equals the
        # previous temperature, so the gain is unidentifiable.
        table = table_of((
            env_row(0, 26.0, 26.0),
            env_row(1, 26.0, 26.0),
            env_row(2, 26.0, 26.0),
            env_row(3, 25.5, 25.0),
            env_row(4, 24.9, 24.0),
        ))
        with pytest.raises(InsufficientData, match="raising"):
            fit_idt_coeffs(table)

    def test_gap_transitions_skipped(self):
        # True gain 0.5 on every consecutive transition; the jump from step
        # 1 to step 5 carries a poison temperature and must be ignored.
        table = table_of((
            env_row(0, 28.0, 28.0),
            env_row(1, 27.0, 26.0),    # lowering: dp=-2, do=-1
            env_row(5, 20.0, 31.0),    # gap, not a transition
            env_row(6, 25.0, 30.0),    # raising: dp=10, do=5
            env_row(7, 24.5, 24.0),    # lowering: dp=-1, do=-0.5
            env_row(8, 25.25, 26.0),   # raising: dp=1.5, do=0.75
        ))
        model, _ = fit_idt_coeffs(table)
        assert model.k_up == pytest.approx(0.5, abs=1e-12)
        assert model.k_down == pytest.approx(0.5, abs=1e-12)


class TestAmiFit:
    def test_identity_plant(self):
        levels = [450.0, 700.0, 520.0, 640.0, 480.0, 730.0]
        rows = tuple(
            env_row(s, 26.0, 26.0, illum=levels[s], lset=levels[s])
            for s in range(len(levels))
        )
        model, report = fit_ami_model(table_of(rows))
        assert model.theta0 == pytest.approx(0.0, abs=1e-9)
        assert model.theta_prev == pytest.approx(0.0, abs=1e-9)
        assert model.theta_set == pytest.approx(1.0, abs=1e-9)
        assert report.rmse < 1e-9

    def test_round_trip(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            truth = AmiModel(theta0=rng.uniform(0, 120),
                             theta_prev=rng.uniform(-0.4, 0.8),
                             theta_set=rng.uniform(0.2, 1.0))
            table = make_sweep(seed=seed, truth_ami=truth)
            model, _ = fit_ami_model(table)
            assert model.theta0 == pytest.approx(truth.theta0, abs=1e-8)
            assert model.theta_prev == pytest.approx(truth.theta_prev, abs=1e-10)
            assert model.theta_set == pytest.approx(truth.theta_set, abs=1e-10)

    def test_degenerate_sweep(self):
        rows = tuple(
            env_row(s, 26.0, 26.0, illum=600.0 - s, lset=600.0)
            for s in range(8)
        )
        with pytest.raises(DegenerateSweep):
            fit_ami_model(table_of(rows))

    @pytest.mark.parametrize("theta_prev, theta0", [(1.05, 0.0), (1.2, 0.0), (-1.05, 1100.0)])
    def test_unstable_fit_refused(self, theta_prev, theta0):
        # A level that follows l' = theta0 + theta_prev * l + setpoint / 10
        # with |theta_prev| > 1 is fitted so: refused, not clipped into some
        # stable model.
        illum, rows = 500.0, []
        for s in range(12):
            lset = 450.0 + (s * 37) % 300
            illum = theta0 + theta_prev * illum + lset / 10.0
            rows.append(env_row(s, 26.0, 26.0, illum=illum, lset=lset))
        with pytest.raises(UnstableFit, match="illuminance fit is unstable: theta_prev = "):
            fit_ami_model(table_of(rows))

    def test_insufficient_samples(self):
        rows = tuple(
            env_row(s, 26.0, 26.0, illum=500.0 + 10 * s, lset=500.0 + 20 * s)
            for s in range(3)
        )
        with pytest.raises(InsufficientData):
            fit_ami_model(table_of(rows))

    def test_worker_averaging(self):
        # Two workers observing the same room must not distort the fit.
        single = make_sweep(seed=6, workers=1)
        double = make_sweep(seed=6, workers=2)
        m1, _ = fit_ami_model(single)
        m2, _ = fit_ami_model(double)
        assert m1.theta_set == pytest.approx(m2.theta_set, abs=1e-12)


# ---------------------------------------------------------------------------
# Row-wise reference implementations of the designs and the environment
# fits.  The columnar code must reproduce them: the DL design bitwise, the
# environment fits to 1e-12 relative (per-step means may sum in another
# order once a step has 8 or more rows).


def reference_dl_design(data, exclude_boundary=True):
    grouped = {}
    for row in rows_of(data):
        grouped.setdefault(row.worker_id, []).append(row)
    features, targets = [], []
    for rows in grouped.values():
        for older, prev, cur in zip(rows, rows[1:], rows[2:]):
            if prev.step_index != older.step_index + 1:
                continue
            if cur.step_index != prev.step_index + 1:
                continue
            if exclude_boundary and cur.dl in (DL_MIN, DL_MAX):
                continue
            d_plus, d_minus = increments(prev.dl, older.dl)
            t_plus, t_minus = increments(cur.temp, prev.temp)
            l_plus, l_minus = increments(cur.illum, prev.illum)
            features.append([prev.dl, d_plus, d_minus, cur.temp, t_plus, t_minus,
                             cur.illum, l_plus, l_minus, cur.effort])
            targets.append(cur.dl)
    X = np.asarray(features, dtype=float).reshape(-1, len(DL_FEATURES))
    return X, np.asarray(targets, dtype=float)


def reference_chain_mask(data):
    """Per pair of neighbours in the worker-grouped row order: is the
    second the same worker's next step?"""
    grouped = {}
    for row in rows_of(data):
        grouped.setdefault(row.worker_id, []).append(row)
    rows = [row for worker_rows in grouped.values() for row in worker_rows]
    return [b.worker_id == a.worker_id and b.step_index == a.step_index + 1
            for a, b in zip(rows, rows[1:])]


def reference_step_environment(data):
    buckets = {}
    for row in rows_of(data):
        buckets.setdefault(row.step_index, []).append(row)
    return [
        (step,
         float(np.mean([r.temp for r in buckets[step]])),
         float(np.mean([r.illum for r in buckets[step]])),
         float(np.mean([r.temp_set for r in buckets[step]])),
         float(np.mean([r.illum_set for r in buckets[step]])))
        for step in sorted(buckets)
    ]


def reference_idt(data):
    """(k_up, k_down, rmse) of the row-wise fit, or the exception it raised."""
    env = reference_step_environment(data)
    raising, lowering = [], []
    for (s0, t0, _, _, _), (s1, t1, _, tset, _) in zip(env, env[1:]):
        if s1 == s0 + 1:
            (raising if tset >= t0 else lowering).append((tset - t0, t1 - t0))
    for name, branch in (("raising", raising), ("lowering", lowering)):
        if len(branch) < 2:
            return InsufficientData(
                f"temperature fit needs >= 2 {name} transitions, got {len(branch)}")
    gains = []
    for name, branch in (("raising", raising), ("lowering", lowering)):
        denom = sum(dp * dp for dp, _ in branch)
        if denom == 0.0:
            return InsufficientData(
                f"temperature fit has no informative {name} transitions "
                "(setpoint always equals the previous temperature)")
        gains.append(min(max(sum(dp * do for dp, do in branch) / denom, 1e-9), 1.0))
    k_up, k_down = gains
    residuals = [do - k_up * dp for dp, do in raising]
    residuals += [do - k_down * dp for dp, do in lowering]
    return k_up, k_down, float(np.sqrt(np.mean(np.square(residuals))))


def reference_ami(data):
    """(theta0, theta_prev, theta_set, rmse) of the row-wise fit, or the
    exception it raised."""
    env = reference_step_environment(data)
    pairs = [((l0, lset), l1) for (s0, _, l0, _, _), (s1, _, l1, _, lset)
             in zip(env, env[1:]) if s1 == s0 + 1]
    if len(pairs) < 3:
        return InsufficientData(f"illuminance fit needs >= 3 samples, got {len(pairs)}")
    X = np.asarray([f for f, _ in pairs])
    y = np.asarray([t for _, t in pairs])
    if np.unique(X[:, 1]).size < 2:
        return DegenerateSweep(
            "illuminance setpoint never varied; sweep the setpoint to identify the response")
    x_mean, y_mean = X.mean(axis=0), y.mean()
    beta = np.linalg.lstsq(X - x_mean, y - y_mean, rcond=None)[0]
    intercept = float(y_mean - x_mean @ beta)
    if abs(beta[0]) >= 1.0:
        return UnstableFit(
            f"illuminance fit is unstable: theta_prev = {float(beta[0])}, |theta_prev| must be < 1")
    rmse = float(np.sqrt(np.mean(np.square(y - (intercept + X @ beta)))))
    return intercept, float(beta[0]), float(beta[1]), rmse


def outcome(fit, data):
    try:
        model, report = fit(data)
    except ValueError as err:
        return err
    if isinstance(model, IdtModel):
        return model.k_up, model.k_down, report.rmse
    return model.theta0, model.theta_prev, model.theta_set, report.rmse


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    for a, b in zip(got, want, strict=True):
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (got, want)


def assert_matches_reference(table):
    for exclude in (True, False):
        X, y = dl_design(table, exclude)
        X_ref, y_ref = reference_dl_design(table, exclude)
        assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
        assert y.shape == y_ref.shape and y.tobytes() == y_ref.tobytes()
    assert not table._chained.flags.writeable
    assert table._chained.tolist() == reference_chain_mask(table)
    environment = table.step_environment()
    again = table.step_environment()
    assert len(again) == len(environment) == 5
    assert all(a is b and not a.flags.writeable for a, b in zip(again, environment))
    steps, *means = environment
    ref = reference_step_environment(table)
    assert steps.tolist() == [e[0] for e in ref]
    for column, got in enumerate(means, start=1):
        np.testing.assert_allclose(got, [e[column] for e in ref], rtol=1e-12, atol=0)
    assert_same_outcome(outcome(fit_idt_coeffs, table), reference_idt(table))
    assert_same_outcome(outcome(fit_ami_model, table), reference_ami(table))


WORKER_NAMES = ("w7", "a", "w10", "m", "w2")
DL_VALUES = st.one_of(st.sampled_from([DL_MIN, DL_MAX]), st.floats(DL_MIN, DL_MAX))


@st.composite
def telemetry_tables(draw):
    """Workers in non-sorted id order, each reporting a random subset of
    steps (so chains have gaps, some workers have fewer than 3 rows and
    some steps have only some workers), interleaved in random order."""
    names = draw(st.permutations(WORKER_NAMES))[: draw(st.integers(1, len(WORKER_NAMES)))]
    queues = {
        name: sorted(draw(st.sets(st.integers(0, 14), max_size=12))) for name in names
    }
    rows = []
    while any(queues.values()):
        name = draw(st.sampled_from([n for n in names if queues[n]]))
        step = queues[name].pop(0)
        rows.append(Row(
            step, name, draw(DL_VALUES), draw(st.floats(0.0, 0.5)),
            draw(st.floats(24.0, 28.0)), draw(st.floats(300.0, 900.0)),
            draw(st.sampled_from([24.5, 25.5, 26.5, 27.5])),
            draw(st.sampled_from([400.0, 550.0, 700.0, 850.0])),
        ))
    return table_of(rows)


class TestColumnarMatchesRowwise:
    @settings(max_examples=200, deadline=None)
    @given(telemetry_tables())
    def test_random_tables(self, table):
        assert_matches_reference(table)

    def test_fleet_with_gaps_and_partial_steps(self):
        # 12 workers per step, so per-step means sum in another order than
        # np.mean; each worker reads the room with its own sensor noise,
        # w3 misses steps 10-11 and w5 stops after 2 rows.
        rng = np.random.default_rng(8)
        rows = [
            r._replace(temp=r.temp + rng.normal(0.0, 0.05), illum=r.illum + rng.normal(0.0, 5.0))
            for r in rows_of(make_sweep(steps=40, workers=12, seed=8, noise_sd=0.05))
            if not (r.worker_id == "w3" and r.step_index in (10, 11))
            and not (r.worker_id == "w5" and r.step_index > 1)
        ]
        assert_matches_reference(table_of(rows))

    def test_more_workers_than_eight_bit_codes_hold(self):
        # 300 workers group through 16-bit codes; a few skip a step.
        rng = np.random.default_rng(3)
        rows = [
            Row(step, f"w{j}", float(rng.uniform(1.0, 5.0)), 0.1, float(rng.uniform(25.0, 27.0)),
                float(rng.uniform(400.0, 800.0)), 26.0 - step % 2, 450.0 + 50.0 * (step % 3))
            for step in range(5) for j in range(300) if (step, j % 7) != (2, 3)
        ]
        table = table_of(rows)
        assert len(table.worker_ids) == 300
        assert_matches_reference(table)


class TestColumnarTable:
    def test_rows_round_trip(self):
        rows = (
            Row(3, "b", 2.0, 0.1, 26.0, 600.0, 26.0, 600.0),
            Row(0, "a", 1.0, 0.0, 25.0, 500.0, 25.5, 450.0),
            Row(4, "b", 5.0, 0.2, 27.0, 700.0, 26.5, 750.0),
        )
        table = table_of(rows)
        assert rows_of(table) == rows and len(table) == 3
        assert table.worker_ids == ("b", "a")
        assert table.worker.tolist() == [0, 1, 0]
        assert not table.dl.flags.writeable

    @pytest.mark.parametrize("column", ["dl", "effort", "temp", "illum", "temp_set", "illum_set"])
    def test_rejects_nonfinite(self, column):
        values = dict(dl=2.0, effort=0.1, temp=26.0, illum=600.0, temp_set=26.0, illum_set=600.0)
        ok = Row(0, "w0", **values)
        bad = Row(1, "w1", **{**values, column: float("nan")})
        with pytest.raises(InvalidTelemetry, match=f"{column} must be finite.*w1, step 1") as info:
            table_of((ok, Row(1, "w0", **values), bad))
        assert info.value.row == 2

    @pytest.mark.parametrize("nonfinite_row", [1, 4])
    def test_first_broken_rule_wins(self, nonfinite_row):
        # w0 repeats step 2 at row 3; a NaN temp sits before it or after
        # it.  The finiteness rule is checked before the step rule, so it
        # is reported either way, at its own row.
        steps = [(0, "w0"), (1, "w0"), (2, "w0"), (2, "w0"), (0, "w1"), (1, "w1")]
        rows = [Row(step, worker, 2.0, 0.1, 26.0, 600.0, 26.0, 600.0) for step, worker in steps]
        rows[nonfinite_row] = rows[nonfinite_row]._replace(temp=float("nan"))
        step, worker = steps[nonfinite_row]
        with pytest.raises(InvalidTelemetry) as info:
            table_of(rows)
        assert str(info.value) == f"temp must be finite, got nan (worker {worker}, step {step})"
        assert info.value.row == nonfinite_row
