"""Prediction models and the horizon rollout used by the controller.

The drowsiness regression consumes the current environment, its one-step
increments, the previous drowsiness level with its lagged increments, and
a per-worker effort term that the rollout holds at its measured value.
Room temperature follows an asymmetric first-order lag toward the
setpoint; illuminance follows a one-step affine response.

The single-step predictors take plain floats; the plant simulator uses
them.  The controller scores a whole optimizer population per call, so
the horizon recursion runs over (P, workers, horizon) arrays, with the
single-schedule rollout, objective and violation as P=1 views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .domain import (
    DL_MAX,
    DL_MIN,
    AmiModel,
    ControlSchedule,
    DlModel,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
)

_FLOAT_MAX = np.finfo(float).max


class ShapeMismatch(ValueError):
    """Schedule or snapshot dimensions disagree with the configuration."""


def increments(x_t: float, x_prev: float) -> tuple[float, float]:
    """Positive and negative parts of the step change x_t - x_prev."""
    delta = x_t - x_prev
    if delta >= 0.0:
        return delta, 0.0
    return 0.0, -delta


def predict_idt(m: IdtModel, temp_prev: float, setpoint: float) -> float:
    """Next room temperature: first-order pull toward the setpoint.

    Raising and lowering use separate gains; a setpoint equal to the
    current temperature counts as raising (and is a fixed point either way).
    """
    k = m.k_up if setpoint >= temp_prev else m.k_down
    return k * setpoint + (1.0 - k) * temp_prev


def predict_ami(m: AmiModel, illum_prev: float, setpoint: float) -> float:
    """Next desk illuminance, clamped at physical zero."""
    level = m.theta0 + m.theta_prev * illum_prev + m.theta_set * setpoint
    return level if level > 0.0 else 0.0


def predict_dl(
    m: DlModel,
    d_prev: float,
    d_plus_prev: float,
    d_minus_prev: float,
    temp: float,
    temp_plus: float,
    temp_minus: float,
    illum: float,
    illum_plus: float,
    illum_minus: float,
    effort: float,
) -> float:
    """One-step drowsiness prediction, clamped onto the 1-5 scale."""
    c = m.coef
    raw = (
        m.intercept
        + c["d_prev"] * d_prev
        + c["d_plus_prev"] * d_plus_prev
        + c["d_minus_prev"] * d_minus_prev
        + c["temp"] * temp
        + c["temp_plus"] * temp_plus
        + c["temp_minus"] * temp_minus
        + c["illum"] * illum
        + c["illum_plus"] * illum_plus
        + c["illum_minus"] * illum_minus
        + c["effort"] * effort
    )
    if raw < DL_MIN:
        return DL_MIN
    if raw > DL_MAX:
        return DL_MAX
    return raw


@dataclass(frozen=True)
class HorizonPrediction:
    """Predicted trajectories over the horizon (step 1 .. horizon).

    temps / illums have one entry per step; dls is indexed
    [worker][step].  Values at step 0 (the measured state) are not
    repeated here.
    """

    temps: tuple[float, ...]
    illums: tuple[float, ...]
    dls: tuple[tuple[float, ...], ...]

    @property
    def horizon(self) -> int:
        return len(self.temps)

    @classmethod
    def from_row(cls, temps: np.ndarray, illums: np.ndarray, dls: np.ndarray) -> HorizonPrediction:
        """One row of rollout_batch's output: (horizon,), (horizon,) and
        (workers, horizon) arrays."""
        return cls(
            tuple(temps.tolist()),
            tuple(illums.tolist()),
            tuple(tuple(path) for path in dls.tolist()),
        )


def rollout_batch(
    models: ModelSet,
    snapshot: StateSnapshot,
    temp_sets: np.ndarray,
    illum_sets: np.ndarray,
    cfg: MpcConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate P setpoint schedules at once across the horizon.

    temp_sets and illum_sets are (P, horizon).  Returns the predicted
    temperatures and illuminances, both (P, horizon), and drowsiness,
    (P, workers, horizon).

    Environment increments are taken along the predicted trajectory,
    anchored at the measured state.  Drowsiness increments are lagged:
    step 1 uses the measured ones from the snapshot, later steps use the
    increments of the model's own clamped predictions.  Effort is frozen
    at each worker's measured value.  Each row equals the scalar
    recursion of predict_idt, predict_ami and predict_dl bit for bit.
    """
    pop, horizon = temp_sets.shape
    if horizon != cfg.horizon:
        raise ShapeMismatch(f"schedules cover {horizon} steps, config expects {cfg.horizon}")
    if len(snapshot.workers) != cfg.num_workers:
        raise ShapeMismatch(
            f"snapshot has {len(snapshot.workers)} workers, config expects {cfg.num_workers}"
        )

    idt = models.idt
    ami = models.ami
    dl = models.dl
    c = dl.coef

    # Room, step-major: row 0 is the measured state.
    temps = np.empty((horizon + 1, pop))
    illums = np.empty((horizon + 1, pop))
    temps[0] = snapshot.temp_current
    illums[0] = snapshot.illum_current
    t_sets = temp_sets.T
    lights = ami.theta_set * illum_sets.T
    for step in range(horizon):
        t_prev = temps[step]
        k = np.where(t_sets[step] >= t_prev, idt.k_up, idt.k_down)
        np.add(k * t_sets[step], (1.0 - k) * t_prev, out=temps[step + 1])
        level = ami.theta0 + ami.theta_prev * illums[step] + lights[step]
        np.maximum(level, 0.0, out=illums[step + 1])

    # The room's terms of predict_dl's sum, in order, per step and row.
    room = (
        c["temp"] * temps[1:, :, None],
        _pair(temps[1:] - temps[:-1], c["temp_plus"], c["temp_minus"])[:, :, None],
        c["illum"] * illums[1:, :, None],
        _pair(illums[1:] - illums[:-1], c["illum_plus"], c["illum_minus"])[:, :, None],
    )

    d_prev, d_plus, d_minus, effort = snapshot.worker_columns
    d_delta = d_plus - d_minus
    effort_term = c["effort"] * effort
    dls = np.empty((horizon, pop, len(snapshot.workers)))
    for step in range(horizon):
        # Left to right in DL_FEATURES order, as predict_dl sums.
        raw = dl.intercept + c["d_prev"] * d_prev
        raw = raw + _pair(d_delta, c["d_plus_prev"], c["d_minus_prev"])
        for term in room:
            raw = raw + term[step]
        raw = raw + effort_term
        d_next = dls[step]
        np.minimum(np.maximum(raw, DL_MIN), DL_MAX, out=d_next)
        d_delta = d_next - d_prev
        d_prev = d_next
    return temps[1:].T, illums[1:].T, dls.transpose(1, 2, 0)


def _pair(delta: np.ndarray, c_plus: float, c_minus: float) -> np.ndarray:
    """The increment pair's two terms of predict_dl's sum, as one term.

    predict_dl adds c_plus * max(delta, 0), then c_minus * max(-delta, 0).
    One of the two is zero and adding zero leaves a sum unchanged, so
    delta times c_plus or -c_minus gives the same sum.
    """
    return delta * np.where(delta >= 0.0, c_plus, -c_minus)


def objective_batch(dls: np.ndarray) -> np.ndarray:
    """Mean predicted drowsiness per row, summed worker by worker, step by step."""
    flat = dls.reshape(dls.shape[0], -1)
    # cumsum adds strictly left to right, as the scalar sum did; sum() and
    # np.add.reduce may add pairwise (they do for a single row).
    return flat.cumsum(axis=1)[:, -1] / flat.shape[1]


def violation_batch(temps: np.ndarray, illums: np.ndarray, cfg: MpcConfig) -> np.ndarray:
    """constraint_violation of each row of (P, horizon) trajectories.

    A total too large for a float (huge comfort weights) saturates at the
    largest float: the search still ranks it as the worst violation, where
    an infinity would stop it as a non-finite evaluation.
    """
    excess = comfort_penalty(temps, illums, cfg) - cfg.penalty_cap
    total = np.where(excess > 0.0, excess, 0.0).cumsum(axis=1)[:, -1]
    return np.minimum(total, _FLOAT_MAX, out=total)


def rollout(
    models: ModelSet,
    snapshot: StateSnapshot,
    schedule: ControlSchedule,
    cfg: MpcConfig,
) -> HorizonPrediction:
    """Propagate one schedule: rollout_batch for a population of one."""
    temps, illums, dls = rollout_batch(
        models,
        snapshot,
        np.array([schedule.temp_setpoints]),
        np.array([schedule.illum_setpoints]),
        cfg,
    )
    return HorizonPrediction.from_row(temps[0], illums[0], dls[0])


def objective(pred: HorizonPrediction) -> float:
    """Mean predicted drowsiness across workers and steps."""
    dls = np.fromiter(chain.from_iterable(pred.dls), dtype=float)
    return float(objective_batch(dls[None, :])[0])


def comfort_penalty(temp, illum, cfg: MpcConfig):
    """Weighted absolute deviation from the comfort point (elementwise on arrays)."""
    return cfg.p_temp * abs(temp - cfg.temp_comfort) + cfg.p_illum * abs(
        illum - cfg.illum_comfort
    )


def constraint_violation(pred: HorizonPrediction, cfg: MpcConfig) -> float:
    """Total excess of the per-step comfort penalty over the cap.

    Zero exactly when every predicted step satisfies the comfort
    constraint.
    """
    temps = np.array([pred.temps], dtype=float)
    illums = np.array([pred.illums], dtype=float)
    return float(violation_batch(temps, illums, cfg)[0])


__all__ = [
    "ShapeMismatch",
    "increments",
    "predict_idt",
    "predict_ami",
    "predict_dl",
    "HorizonPrediction",
    "rollout_batch",
    "objective_batch",
    "violation_batch",
    "rollout",
    "objective",
    "comfort_penalty",
    "constraint_violation",
]
