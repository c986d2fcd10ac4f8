"""Core value types shared by the controller, models, and simulator.

Everything here is an immutable dataclass plus the validation that keeps
the rest of the package honest.  Drowsiness level (DL) lives on a 1-5
scale (1 = fully awake, 5 = extremely drowsy).  Temperatures are degrees
Celsius, illuminances are lux, step lengths are hours.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from datetime import timedelta

import numpy as np

DL_MIN = 1.0
DL_MAX = 5.0

# The measurable room state, in degrees Celsius and lux.  A snapshot, a
# setpoint box, the simulated room's initial and ambient state and each
# daemon reading lie inside it.
TEMP_RANGE = (0.0, 50.0)
ILLUM_RANGE = (0.0, 10000.0)

# The types a decoded JSON number has, for the model file and the daemon's
# stream.  bool is a subclass of int, so match the type exactly.
JSON_NUMBER = (int, float)

# Regressor names for the drowsiness model, in canonical order.
DL_FEATURES = (
    "d_prev",
    "d_plus_prev",
    "d_minus_prev",
    "temp",
    "temp_plus",
    "temp_minus",
    "illum",
    "illum_plus",
    "illum_minus",
    "effort",
)


def clamp_dl(value: float) -> float:
    """Clamp a drowsiness value onto the reportable 1-5 scale."""
    return min(max(value, DL_MIN), DL_MAX)


def increments(x_t: float, x_prev: float) -> tuple[float, float]:
    """Positive and negative parts of the step change x_t - x_prev."""
    delta = x_t - x_prev
    if delta >= 0.0:
        return delta, 0.0
    return 0.0, -delta


def require_in_range(name: str, value: float, bounds: tuple[float, float], error=ValueError) -> None:
    """Raise error naming name unless bounds[0] <= value <= bounds[1]."""
    if not bounds[0] <= value <= bounds[1]:
        raise error(f"{name} {value} outside the measured range [{bounds[0]}, {bounds[1]}]")


class ConfigError(ValueError):
    """Base class for controller configuration rejections."""


class BoundsInverted(ConfigError):
    pass


class ComfortOutsideBounds(ConfigError):
    pass


class NonPositiveCoefficient(ConfigError):
    pass


class NonFiniteSetting(ConfigError):
    pass


class ControlMode(str, enum.Enum):
    NOC = "NOC"
    MPC1 = "MPC1"
    MPC2 = "MPC2"

    @classmethod
    def parse(cls, text: str) -> "ControlMode":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise ConfigError(f"unknown control mode {text!r}") from None


@dataclass(frozen=True)
class WorkerState:
    """Latest measured drowsiness state of one worker.

    d_plus / d_minus are the positive and negative parts of the DL change
    over the previous step, so at most one of them is nonzero.  effort is
    the within-step standard deviation of instant DL readings and proxies
    how actively the worker is fighting sleepiness.
    """

    d_current: float
    d_plus: float = 0.0
    d_minus: float = 0.0
    effort: float = 0.0

    def __post_init__(self):
        if not DL_MIN <= self.d_current <= DL_MAX:
            raise ValueError(
                f"d_current must lie in [{DL_MIN}, {DL_MAX}], got {self.d_current}"
            )
        if not all(0.0 <= x < math.inf for x in (self.d_plus, self.d_minus, self.effort)):  # NaN fails
            raise ValueError("d_plus, d_minus and effort must be finite and nonnegative")
        if self.d_plus != 0.0 and self.d_minus != 0.0:
            raise ValueError("at most one of d_plus/d_minus may be nonzero")

    @classmethod
    def from_history(cls, d_current: float, d_previous: float, effort: float = 0.0):
        """Build a state from two consecutive step-averaged DL readings."""
        d_plus, d_minus = increments(d_current, d_previous)
        return cls(d_current=d_current, d_plus=d_plus, d_minus=d_minus, effort=effort)


@dataclass(frozen=True)
class StateSnapshot:
    """Measured room + worker state at the start of a control interval."""

    workers: tuple[WorkerState, ...]
    temp_current: float
    illum_current: float

    def __post_init__(self):
        object.__setattr__(self, "workers", tuple(self.workers))
        if not self.workers:
            raise ValueError("snapshot needs at least one worker")
        require_in_range("temp_current", self.temp_current, TEMP_RANGE)
        require_in_range("illum_current", self.illum_current, ILLUM_RANGE)


@dataclass(frozen=True)
class ControlSchedule:
    """Setpoint sequence over the horizon: temperatures then illuminances."""

    temp_setpoints: tuple[float, ...]
    illum_setpoints: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "temp_setpoints", tuple(float(x) for x in self.temp_setpoints))
        object.__setattr__(self, "illum_setpoints", tuple(float(x) for x in self.illum_setpoints))
        if len(self.temp_setpoints) != len(self.illum_setpoints):
            raise ValueError("setpoint sequences must have equal length")
        if not self.temp_setpoints:
            raise ValueError("schedule must cover at least one step")

    @property
    def horizon(self) -> int:
        return len(self.temp_setpoints)


@dataclass(frozen=True)
class DlModel:
    """Linear drowsiness regression: intercept + coef . features."""

    intercept: float
    coef: dict[str, float]

    def __post_init__(self):
        keys = set(self.coef)
        expected = set(DL_FEATURES)
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            raise ValueError(f"bad DL coefficient names: missing={missing} extra={extra}")
        values = [self.intercept] + [self.coef[k] for k in DL_FEATURES]
        if not all(np.isfinite(values)):
            raise ValueError("DL model coefficients must be finite")


@dataclass(frozen=True)
class IdtModel:
    """Asymmetric first-order lag of room temperature toward its setpoint."""

    k_up: float
    k_down: float

    def __post_init__(self):
        for name in ("k_up", "k_down"):
            k = getattr(self, name)
            if not 0.0 < k <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {k}")


@dataclass(frozen=True)
class AmiModel:
    """Affine illuminance response to the previous level and the setpoint."""

    theta0: float
    theta_prev: float
    theta_set: float

    def __post_init__(self):
        if not all(np.isfinite([self.theta0, self.theta_prev, self.theta_set])):
            raise ValueError("illuminance coefficients must be finite")
        if abs(self.theta_prev) >= 1.0:
            raise ValueError(f"|theta_prev| must be < 1 for stability, got {self.theta_prev}")


@dataclass(frozen=True)
class ModelSet:
    dl: DlModel
    idt: IdtModel
    ami: AmiModel


@dataclass(frozen=True)
class MpcConfig:
    """Controller tuning: horizon, bounds, comfort targets, penalty weights.

    An instance is valid whenever it exists: constructing one (also by
    dataclasses.replace) raises a ConfigError subclass naming the
    offending field(s).
    """

    horizon: int = 4
    step_hours: float = 0.25
    num_workers: int = 1
    temp_lo: float = 25.5
    temp_hi: float = 26.5
    illum_lo: float = 450.0
    illum_hi: float = 750.0
    temp_comfort: float = 26.0
    illum_comfort: float = 600.0
    p_temp: float = 0.5
    p_illum: float = 1.0 / 150.0
    penalty_cap: float = 2.0
    mode: ControlMode = ControlMode.MPC2

    def __post_init__(self):
        require_finite(self)
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.step_hours <= 0:
            raise ConfigError(f"step_hours must be positive, got {self.step_hours}")
        # The daemon's windows are timedeltas: whole microseconds, up to
        # timedelta.max.
        try:
            window = timedelta(hours=self.step_hours)
        except OverflowError:
            window = timedelta(0)
        if window == timedelta(0):
            raise ConfigError(
                f"step_hours must round to a window of 1 microsecond to "
                f"{timedelta.max.days} days, got {self.step_hours}"
            )
        if self.temp_lo > self.temp_hi:
            raise BoundsInverted(f"temp_lo {self.temp_lo} exceeds temp_hi {self.temp_hi}")
        if self.illum_lo > self.illum_hi:
            raise BoundsInverted(f"illum_lo {self.illum_lo} exceeds illum_hi {self.illum_hi}")
        for lo, hi in (("temp_lo", "temp_hi"), ("illum_lo", "illum_hi")):
            # Finite bounds can still be further apart than the largest float.
            if not math.isfinite(getattr(self, hi) - getattr(self, lo)):
                raise NonFiniteSetting(
                    f"{hi} - {lo} must be finite, got {getattr(self, hi)} - {getattr(self, lo)}"
                )
        for name, bounds in (("temp_lo", TEMP_RANGE), ("temp_hi", TEMP_RANGE),
                             ("illum_lo", ILLUM_RANGE), ("illum_hi", ILLUM_RANGE)):
            require_in_range(name, getattr(self, name), bounds, ConfigError)
        if not self.temp_lo <= self.temp_comfort <= self.temp_hi:
            raise ComfortOutsideBounds(
                f"temp_comfort {self.temp_comfort} outside [{self.temp_lo}, {self.temp_hi}]"
            )
        if not self.illum_lo <= self.illum_comfort <= self.illum_hi:
            raise ComfortOutsideBounds(
                f"illum_comfort {self.illum_comfort} outside [{self.illum_lo}, {self.illum_hi}]"
            )
        if self.p_temp <= 0:
            raise NonPositiveCoefficient(f"p_temp must be positive, got {self.p_temp}")
        if self.p_illum <= 0:
            raise NonPositiveCoefficient(f"p_illum must be positive, got {self.p_illum}")
        if self.penalty_cap <= 0:
            raise NonPositiveCoefficient(f"penalty_cap must be positive, got {self.penalty_cap}")
        if not isinstance(self.mode, ControlMode):
            raise ConfigError(f"mode must be a ControlMode, got {self.mode!r}")


def require_finite(settings) -> None:
    """Raise NonFiniteSetting naming the first float (or float tuple) field
    of a settings dataclass that holds a nan or an infinity."""
    for field in fields(settings):
        value = getattr(settings, field.name)
        values = value if field.type == "tuple[float, ...]" else (value,) if field.type == "float" else ()
        if not all(map(math.isfinite, values)):
            raise NonFiniteSetting(f"{field.name} must be finite, got {value}")


__all__ = [
    "DL_MIN",
    "DL_MAX",
    "TEMP_RANGE",
    "ILLUM_RANGE",
    "JSON_NUMBER",
    "DL_FEATURES",
    "clamp_dl",
    "increments",
    "require_in_range",
    "ConfigError",
    "BoundsInverted",
    "ComfortOutsideBounds",
    "NonPositiveCoefficient",
    "NonFiniteSetting",
    "ControlMode",
    "WorkerState",
    "StateSnapshot",
    "ControlSchedule",
    "DlModel",
    "IdtModel",
    "AmiModel",
    "ModelSet",
    "MpcConfig",
    "require_finite",
]
