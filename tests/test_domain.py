import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alertmpc.cli import parse_scenario_config, shipped_config_path
from alertmpc.domain import (
    BoundsInverted,
    ComfortOutsideBounds,
    ConfigError,
    ControlMode,
    ControlSchedule,
    DlModel,
    AmiModel,
    IdtModel,
    MpcConfig,
    NonFiniteSetting,
    NonPositiveCoefficient,
    StateSnapshot,
    WorkerState,
    DL_FEATURES,
    clamp_dl,
    increments,
)


def shipped_mpc_config(name):
    """The [mpc] settings of a packaged case config, the only case presets."""
    return parse_scenario_config(shipped_config_path(name)).mpc_cfg


def flatten(schedule):
    """solve's decision-vector layout: temperature setpoints first, then illuminance."""
    return np.asarray(schedule.temp_setpoints + schedule.illum_setpoints, dtype=float)


def unflatten(vec):
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1 or vec.size % 2 != 0 or vec.size == 0:
        raise ValueError(f"decision vector must be 1-D with even length, got shape {vec.shape}")
    half = vec.size // 2
    return ControlSchedule(tuple(vec[:half]), tuple(vec[half:]))


def zero_coef(**overrides):
    coef = {name: 0.0 for name in DL_FEATURES}
    coef.update(overrides)
    return coef


class TestWorkerState:
    def test_valid(self):
        w = WorkerState(d_current=2.5, d_plus=0.3, d_minus=0.0, effort=0.1)
        assert w.d_current == 2.5

    def test_dl_out_of_range(self):
        with pytest.raises(ValueError):
            WorkerState(d_current=0.5)
        with pytest.raises(ValueError):
            WorkerState(d_current=5.2)

    def test_both_increments_nonzero(self):
        with pytest.raises(ValueError):
            WorkerState(d_current=2.0, d_plus=0.1, d_minus=0.1)

    def test_negative_fields(self):
        with pytest.raises(ValueError):
            WorkerState(d_current=2.0, d_plus=-0.1)
        with pytest.raises(ValueError):
            WorkerState(d_current=2.0, effort=-0.5)

    @pytest.mark.parametrize("field", ["d_plus", "d_minus", "effort"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_fields(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            WorkerState(d_current=2.0, **{field: value})

    def test_from_history_increment_product_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cur = rng.uniform(1, 5)
            prev = rng.uniform(1, 5)
            w = WorkerState.from_history(cur, prev, effort=0.2)
            assert w.d_plus * w.d_minus == 0.0
            assert w.d_plus - w.d_minus == pytest.approx(cur - prev, abs=1e-12)

    @given(st.floats(1.0, 5.0), st.floats(1.0, 5.0), st.booleans())
    def test_from_history_is_increments_bit_for_bit(self, cur, prev, equal):
        # Equal readings included: max(-0.0, 0.0) would make d_minus -0.0.
        prev = cur if equal else prev
        w = WorkerState.from_history(cur, prev)
        assert (w.d_plus.hex(), w.d_minus.hex()) == tuple(x.hex() for x in increments(cur, prev))
        assert WorkerState.from_history(3.0, 3.0).d_minus.hex() == "0x0.0p+0"


class TestStateSnapshot:
    def test_requires_workers(self):
        with pytest.raises(ValueError):
            StateSnapshot((), 26.0, 600.0)

    def test_ranges(self):
        with pytest.raises(ValueError):
            StateSnapshot((WorkerState(2.0),), -3.0, 600.0)
        with pytest.raises(ValueError):
            StateSnapshot((WorkerState(2.0),), 26.0, 20000.0)


class TestControlSchedule:
    def test_flatten_order(self):
        s = ControlSchedule((25.5, 26.0, 26.0, 25.5), (450.0, 600.0, 750.0, 600.0))
        assert flatten(s).tolist() == [25.5, 26.0, 26.0, 25.5, 450.0, 600.0, 750.0, 600.0]

    def test_unflatten_round_trip(self):
        vec = [25.5, 26.0, 450.0, 750.0]
        s = unflatten(vec)
        assert s.temp_setpoints == (25.5, 26.0)
        assert s.illum_setpoints == (450.0, 750.0)
        assert flatten(s).tolist() == vec

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=16,
        ).filter(lambda v: len(v) % 2 == 0)
    )
    def test_round_trip_property(self, vec):
        s = unflatten(vec)
        assert unflatten(flatten(s)) == s

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ControlSchedule((26.0,), (600.0, 600.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ControlSchedule((), ())

    def test_rejects_odd_vector(self):
        with pytest.raises(ValueError):
            unflatten([1.0, 2.0, 3.0])


class TestModels:
    def test_dl_model_requires_exact_keys(self):
        coef = zero_coef()
        coef.pop("effort")
        with pytest.raises(ValueError, match="effort"):
            DlModel(intercept=0.0, coef=coef)
        coef = zero_coef()
        coef["bogus"] = 1.0
        with pytest.raises(ValueError, match="bogus"):
            DlModel(intercept=0.0, coef=coef)

    def test_dl_model_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DlModel(intercept=float("nan"), coef=zero_coef())

    def test_idt_gain_range(self):
        IdtModel(k_up=1.0, k_down=0.2)
        with pytest.raises(ValueError):
            IdtModel(k_up=0.0, k_down=0.5)
        with pytest.raises(ValueError):
            IdtModel(k_up=0.5, k_down=1.5)

    def test_ami_stability(self):
        AmiModel(theta0=10.0, theta_prev=0.9, theta_set=0.1)
        with pytest.raises(ValueError):
            AmiModel(theta0=10.0, theta_prev=1.0, theta_set=0.1)


class TestMpcConfig:
    def test_defaults_are_valid(self):
        MpcConfig()
        shipped_mpc_config("case1_mpc2.cfg")
        shipped_mpc_config("case2_mpc2.cfg")

    def test_case_factories(self):
        c1 = shipped_mpc_config("case1_mpc2.cfg")
        assert (c1.num_workers, c1.temp_lo, c1.temp_hi) == (5, 25.5, 26.5)
        c2 = shipped_mpc_config("case2_noc.cfg")
        assert (c2.num_workers, c2.temp_lo, c2.temp_hi) == (6, 25.0, 27.0)
        assert c2.mode is ControlMode.NOC

    def test_inverted_bounds(self):
        with pytest.raises(BoundsInverted, match="temp_lo"):
            MpcConfig(temp_lo=27.0, temp_hi=25.0)
        with pytest.raises(BoundsInverted, match="illum_lo"):
            MpcConfig(illum_lo=800.0, illum_hi=700.0)

    def test_comfort_outside_bounds(self):
        with pytest.raises(ComfortOutsideBounds, match="temp_comfort"):
            MpcConfig(temp_comfort=27.5)
        with pytest.raises(ComfortOutsideBounds, match="illum_comfort"):
            MpcConfig(illum_comfort=100.0)

    def test_nonpositive_coefficients(self):
        with pytest.raises(NonPositiveCoefficient, match="p_temp"):
            MpcConfig(p_temp=0.0)
        with pytest.raises(NonPositiveCoefficient, match="p_illum"):
            MpcConfig(p_illum=-1.0)
        with pytest.raises(NonPositiveCoefficient, match="penalty_cap"):
            MpcConfig(penalty_cap=0.0)

    # dataclasses.replace builds a new instance, so it is checked as well.
    @pytest.mark.parametrize("changes, error, match", [
        (dict(temp_lo=99.0), BoundsInverted, "temp_lo 99.0 exceeds temp_hi"),
        (dict(illum_lo=800.0, illum_hi=700.0), BoundsInverted, "illum_lo"),
        (dict(penalty_cap=float("nan")), NonFiniteSetting, "penalty_cap"),
        (dict(temp_comfort=27.5), ComfortOutsideBounds, "temp_comfort"),
        (dict(p_temp=0.0), NonPositiveCoefficient, "p_temp"),
        (dict(num_workers=0), ConfigError, "num_workers"),
        (dict(mode="MPC2"), ConfigError, "mode must be a ControlMode"),
    ], ids=["temp-box", "illum-box", "nan-cap", "comfort", "weight", "workers", "mode"])
    def test_replace_is_checked(self, changes, error, match):
        with pytest.raises(error, match=match):
            dataclasses.replace(MpcConfig(), **changes)

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            MpcConfig(horizon=0)

    FLOAT_FIELDS = ("step_hours", "temp_lo", "temp_hi", "illum_lo", "illum_hi",
                    "temp_comfort", "illum_comfort", "p_temp", "p_illum",
                    "penalty_cap")

    def test_float_field_list_is_complete(self):
        floats = {f.name for f in dataclasses.fields(MpcConfig) if f.type == "float"}
        assert floats == set(self.FLOAT_FIELDS)

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite(self, name, value):
        # A NaN cap makes every excess comparison false and an infinite
        # weight fails every step; both must be refused up front.
        with pytest.raises(NonFiniteSetting, match=name):
            MpcConfig(**{name: value})

    @pytest.mark.parametrize("lo, hi", [("temp_lo", "temp_hi"), ("illum_lo", "illum_hi")])
    def test_rejects_box_wider_than_largest_float(self, lo, hi):
        # Each bound is finite, but hi - lo overflows to inf.
        with pytest.raises(NonFiniteSetting, match=f"{hi} - {lo} must be finite"):
            MpcConfig(**{lo: -1.7e308, hi: 1.7e308})

    # The daemon's window is timedelta(hours=step_hours): 1e-12 h rounds to
    # no microsecond at all, 1e300 h overflows it.
    @pytest.mark.parametrize("value", [1e-12, 1.3e-10, 2.5e10, 1e300])
    def test_rejects_step_hours_without_a_window(self, value):
        with pytest.raises(ConfigError, match=f"step_hours must round to a window .* got {re.escape(str(value))}"):
            MpcConfig(step_hours=value)

    @pytest.mark.parametrize("name, value", [
        ("temp_lo", -0.5), ("temp_hi", 50.5), ("illum_lo", -1.0), ("illum_hi", 20000.0),
    ])
    def test_rejects_box_outside_the_room_range(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} {value} outside the measured range"):
            MpcConfig(**{name: value})


def test_mode_parse():
    assert ControlMode.parse("mpc2") is ControlMode.MPC2
    assert ControlMode.parse(" noc ") is ControlMode.NOC
    with pytest.raises(ConfigError):
        ControlMode.parse("PID")


def test_clamp_dl():
    assert clamp_dl(0.0) == 1.0
    assert clamp_dl(7.0) == 5.0
    assert clamp_dl(3.3) == 3.3
