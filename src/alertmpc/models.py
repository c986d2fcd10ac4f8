"""Prediction models and the horizon rollout used by the controller.

The drowsiness regression consumes the current environment, its one-step
increments, the previous drowsiness level with its lagged increments, and
a per-worker effort term that the rollout holds at its measured value.
Room temperature follows an asymmetric first-order lag toward the
setpoint; illuminance follows a one-step affine response.

The single-step predictors take plain floats; the plant simulator uses
them.  The controller scores a whole optimizer population per call with
one HorizonKernel per solve.  The kernel folds the terms of the
drowsiness sum that depend only on the measured state once, when it is
built.  It then runs the horizon over arrays of every row, worker and
step, in buffers it reuses for each population size.  At each step it
writes the two drowsiness terms that depend on the previous prediction
and adds all eight terms with one np.add.reduce along the term axis.
That axis is never the innermost one, so numpy adds term by term, left
to right, and every row stays bitwise equal to the scalar recursion.
The single-schedule rollout, objective and constraint_violation are
views of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class HorizonKernel:
    """The horizon rollout of one solve, for any number of schedules.

    Built once per solve from the models, the measured state and the
    configuration; solve scores every generation and the final schedule
    with it.  The terms of predict_dl's sum that depend only on the
    snapshot (the intercept, the effort term and step 1's d_prev and
    lagged increment terms) are computed here, once.  Each population
    size gets a workspace on first use, which later calls reuse.

    Environment increments are taken along the predicted trajectory,
    anchored at the measured state.  Drowsiness increments are lagged:
    step 1 uses the measured ones from the snapshot, later steps use the
    increments of the model's own clamped predictions.  Effort is frozen
    at each worker's measured value.  Every row equals the scalar
    recursion of predict_idt, predict_ami and predict_dl bit for bit.
    """

    def __init__(self, models: ModelSet, snapshot: StateSnapshot, cfg: MpcConfig):
        if len(snapshot.workers) != cfg.num_workers:
            raise ShapeMismatch(
                f"snapshot has {len(snapshot.workers)} workers, config expects {cfg.num_workers}"
            )
        self.cfg = cfg
        self.snapshot = snapshot
        idt, ami, c = models.idt, models.ami, models.dl.coef
        d_now, d_plus, d_minus, effort = snapshot.worker_columns
        self._fixed = (
            models.dl.intercept,
            c["d_prev"] * d_now,
            _signed(d_plus - d_minus, c["d_plus_prev"], -c["d_minus_prev"]),
            c["effort"] * effort,
        )
        self._d_now = d_now[:, None]
        self._d_coef = (c["d_prev"], c["d_plus_prev"], -c["d_minus_prev"])
        # Each room quantity's next value is a + b * now: (a, b) is
        # (k * setpoint, 1 - k) for temperature, with k the gain of a rising
        # or a falling move, and (theta0, theta_prev) for illuminance, which
        # then adds theta_set * setpoint and is clamped at zero.  _ab holds
        # k in place of k * setpoint.
        self._ab = np.array(
            [[[k, ami.theta0], [1.0 - k, ami.theta_prev]] for k in (idt.k_up, idt.k_down)]
        )
        self._k = self._ab[:, :1, :1]
        self._theta_set = ami.theta_set
        # predict_dl's coefficients of the room's level, rise and fall
        # (negated, see _signed), each (temperature, illuminance).
        self._room_coef = np.array(
            [
                [c["temp"], c["illum"]],
                [c["temp_plus"], c["illum_plus"]],
                [-c["temp_minus"], -c["illum_minus"]],
            ]
        )[:, :, None, None]
        self._comfort = _comfort_arrays(cfg)
        self._workspaces: dict[int, _Workspace] = {}

    def _run(self, temp_sets: np.ndarray, illum_sets: np.ndarray) -> _Workspace:
        """Roll P schedules, (P, horizon) each, out in the workspace for P."""
        pop, horizon = temp_sets.shape
        if horizon != self.cfg.horizon:
            raise ShapeMismatch(
                f"schedules cover {horizon} steps, config expects {self.cfg.horizon}"
            )
        ws = self._workspaces.get(pop)
        if ws is None:
            ws = self._workspaces[pop] = _Workspace(self, pop)

        t_sets = temp_sets.T
        np.multiply(self._k, t_sets, out=ws.k_sets)
        np.multiply(self._theta_set, illum_sets.T, out=ws.lights)
        room = ws.room_state
        for t_set, light, now, temp, nxt, illum, up, down in zip(
            t_sets, ws.lights, room, room[:, 0], room[1:], room[1:, 1], *ws.ab
        ):
            a, b = np.where(t_set >= temp, up, down)
            np.multiply(b, now, out=nxt)
            np.add(a, nxt, out=nxt)
            np.add(illum, light, out=illum)
            np.maximum(illum, 0.0, out=illum)

        # The room's four terms of predict_dl, every step at once, written
        # out for every worker.
        level, rise, fall = self._room_coef
        np.multiply(level, ws.room_next, out=ws.room_level)
        np.subtract(ws.room_next, ws.room_prev, out=ws.room_delta)
        _signed(ws.room_delta, rise, fall, out=ws.room_inc)

        # Drowsiness, step by step: the two terms that depend on the
        # previous prediction, then all eight summed in one reduction.
        c_prev, c_plus, c_minus = self._d_coef
        sums, raw = ws.sums, ws.raw
        d_before, d_prev = self._d_now, None
        for terms, prev_term, inc_term, d_next in zip(
            ws.padded, ws.prev_terms, ws.inc_terms, ws.dls_by_step
        ):
            if d_prev is not None:
                np.multiply(c_prev, d_prev, out=prev_term)
                _signed(d_prev - d_before, c_plus, c_minus, out=inc_term)
                d_before = d_prev
            np.add.reduce(terms, axis=0, out=sums)
            np.maximum(raw, DL_MIN, out=raw)
            np.minimum(raw, DL_MAX, out=d_next)
            d_prev = d_next
        return ws

    def _scores(self, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
        return _objective(ws.dls), _violation(ws.room, *self._comfort)

    def rollout(self, temp_sets: np.ndarray, illum_sets: np.ndarray):
        """Predicted temperatures and illuminances, (horizon, P) each, and
        drowsiness, (workers, horizon, P), of P schedules.

        temp_sets and illum_sets are (P, horizon).  The returned arrays
        are the workspace's: the next call for the same P overwrites them.
        """
        ws = self._run(temp_sets, illum_sets)
        return ws.room[:, 0], ws.room[:, 1], ws.dls

    def evaluate(self, temp_sets: np.ndarray, illum_sets: np.ndarray):
        """Objective and violation of P schedules, as new (P,) arrays."""
        return self._scores(self._run(temp_sets, illum_sets))

    def predict(self, schedule: ControlSchedule) -> tuple[HorizonPrediction, float, float]:
        """One schedule's prediction, objective and violation."""
        ws = self._run(np.array([schedule.temp_setpoints]), np.array([schedule.illum_setpoints]))
        f, v = self._scores(ws)
        pred = HorizonPrediction(
            tuple(ws.room[:, 0, 0].tolist()),
            tuple(ws.room[:, 1, 0].tolist()),
            tuple(map(tuple, ws.dls[:, :, 0].tolist())),
        )
        return pred, float(f[0]), float(v[0])


class _Workspace:
    """A HorizonKernel's buffers for populations of one size, P.

    room_state is (horizon + 1, 2, P): temperature and illuminance at
    each step, step 0 being the measured state.  padded is
    (horizon, 8, workers, P) plus, for one worker and one row, a spare
    column: predict_dl's terms at each step, in the order predict_dl adds
    them.  The intercept and effort terms and step 1's d_prev and
    increment terms are written here, once.
    """

    def __init__(self, kernel: HorizonKernel, pop: int):
        horizon, workers = kernel.cfg.horizon, kernel.cfg.num_workers
        # np.add.reduce over the term axis adds term by term, left to right,
        # as predict_dl does, because that axis is not the innermost one.
        # With one worker and one row it would be the only axis, and numpy
        # would sum it pairwise; the spare all-zero column prevents that.
        cols = pop + (pop * workers == 1)
        self.padded = np.zeros((horizon, 8, workers, cols))
        terms = self.padded[..., :pop]
        intercept, d_prev, d_inc, effort = kernel._fixed
        terms[:, 0] = intercept
        terms[0, 1] = d_prev[:, None]
        terms[0, 2] = d_inc[:, None]
        terms[:, 7] = effort[:, None]
        self.prev_terms = terms[:, 1]
        self.inc_terms = terms[:, 2]
        # Slots 3 to 6 as (step, quantity, level or increment, worker, row).
        room_terms = self.padded[:, 3:7].reshape(horizon, 2, 2, workers, cols)[..., :pop]
        self.room_level = room_terms[:, :, 0]
        self.room_inc = room_terms[:, :, 1]
        self.sums = np.empty((workers, cols))
        self.raw = self.sums[:, :pop]
        self.dls = np.empty((workers, horizon, pop))
        self.dls_by_step = self.dls.transpose(1, 0, 2)

        self.room_state = np.empty((horizon + 1, 2, pop))
        self.room_state[0, 0] = kernel.snapshot.temp_current
        self.room_state[0, 1] = kernel.snapshot.illum_current
        self.room = self.room_state[1:]
        # Steps 1.. and 0.. with a worker axis, to broadcast over workers.
        self.room_next = self.room_state[1:, :, None]
        self.room_prev = self.room_state[:-1, :, None]
        self.room_delta = np.empty((horizon, 2, 1, pop))
        self.lights = np.empty((horizon, pop))
        # (a, b) per step for a rising and for a falling temperature.
        self.ab = np.empty((2, horizon, 2, 2, pop))
        self.ab[...] = kernel._ab[:, None, :, :, None]
        self.k_sets = self.ab[:, :, 0, 0]


def _signed(delta: np.ndarray, above, below, out=None) -> np.ndarray:
    """delta times above where delta >= 0, else times below.

    With above = c_plus and below = -c_minus this is an increment pair's
    two terms of predict_dl's sum as one term: predict_dl adds
    c_plus * max(delta, 0), then c_minus * max(-delta, 0).  One of the two
    is zero and adding zero leaves a sum unchanged.
    """
    return np.multiply(delta, np.where(delta >= 0.0, above, below), out=out)


def _objective(dls: np.ndarray) -> np.ndarray:
    """Mean drowsiness per row of (..., P) values, added in C order."""
    flat = dls.reshape(-1, dls.shape[-1])
    # cumsum adds strictly in order, as the scalar sum did; sum() and
    # np.add.reduce may add pairwise (they do along the innermost axis).
    return flat.cumsum(axis=0)[-1] / flat.shape[0]


def _comfort_arrays(cfg: MpcConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The comfort point and the penalty weights, (2, 1) each, for a
    (temperature, illuminance) stack, and the penalty cap."""
    comfort, weights = np.array(
        [[[cfg.temp_comfort], [cfg.illum_comfort]], [[cfg.p_temp], [cfg.p_illum]]]
    )
    return comfort, weights, cfg.penalty_cap


def _violation(room: np.ndarray, comfort: np.ndarray, weights: np.ndarray, cap: float):
    """constraint_violation per row of (horizon, 2, P) room trajectories.

    The penalty is comfort_penalty's, one array operation at a time.  A
    total too large for a float (huge comfort weights) saturates at the
    largest float: the search still ranks it as the worst violation, where
    an infinity would stop it as a non-finite evaluation.
    """
    deviation = weights * abs(room - comfort)
    excess = deviation[:, 0] + deviation[:, 1] - cap
    total = np.where(excess > 0.0, excess, 0.0).cumsum(axis=0)[-1]
    return np.minimum(total, _FLOAT_MAX, out=total)


def rollout(
    models: ModelSet,
    snapshot: StateSnapshot,
    schedule: ControlSchedule,
    cfg: MpcConfig,
) -> HorizonPrediction:
    """Propagate one schedule: the kernel for a population of one."""
    return HorizonKernel(models, snapshot, cfg).predict(schedule)[0]


def objective(pred: HorizonPrediction) -> float:
    """Mean predicted drowsiness across workers and steps."""
    return float(_objective(np.array(pred.dls, dtype=float)[..., None])[0])


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
    room = np.array([pred.temps, pred.illums], dtype=float).T[:, :, None]
    return float(_violation(room, *_comfort_arrays(cfg))[0])


__all__ = [
    "ShapeMismatch",
    "increments",
    "predict_idt",
    "predict_ami",
    "predict_dl",
    "HorizonPrediction",
    "HorizonKernel",
    "rollout",
    "objective",
    "comfort_penalty",
    "constraint_violation",
]
