"""Prediction models and the horizon rollout used by the controller.

The drowsiness regression consumes the current environment, its one-step
increments, the previous drowsiness level with its lagged increments, and
a per-worker effort term that the rollout holds at its measured value.
Room temperature follows an asymmetric first-order lag toward the
setpoint; illuminance follows a one-step affine response.

The single-step predictors take plain floats; the plant simulator uses
them.  rollout propagates one schedule with them, step by step, and
objective and constraint_violation are the two scores of its prediction,
summed one float at a time.  NOC scores its one schedule so.

The search scores a whole population, two rows or more, per call with
one HorizonKernel per solve, built for that population's row count.  The
kernel folds the terms of the drowsiness sum that depend only on the
measured state once, when it is built, together with every buffer its
calls write and the views of each step that its loops read and write.
It then runs the horizon over arrays of every row, worker and step in
those buffers, so a call makes only fixed-shape ufunc calls.  At each
step it writes the two drowsiness terms that depend on the previous
prediction and adds all eight terms with one np.add.reduce along the
term axis.  The objective and the violation are each one np.add.reduce
along the rows of a buffer.  None of these axes is the innermost one, so
numpy adds in order, and every row's scores equal those of rollout's
prediction bit for bit.
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

_FLOAT_MAX = float(np.finfo(float).max)


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
    """Next desk illuminance, clamped at physical zero.

    A NaN level (an overflowing model) stays NaN, as in HorizonKernel, so
    the scores it feeds are refused as non-finite.
    """
    level = m.theta0 + m.theta_prev * illum_prev + m.theta_set * setpoint
    return 0.0 if level <= 0.0 else level


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


def _check_workers(snapshot: StateSnapshot, cfg: MpcConfig) -> None:
    if len(snapshot.workers) != cfg.num_workers:
        raise ShapeMismatch(
            f"snapshot has {len(snapshot.workers)} workers, config expects {cfg.num_workers}"
        )


class HorizonKernel:
    """The horizon rollout of one search, for a fixed number of schedules.

    Built once per solve from the models, the measured state, the
    configuration and the number of rows each call scores, two or more;
    solve scores every generation of its search with it.  A call takes
    (rows, horizon) setpoints and refuses any other shape.

    Each row's prediction equals rollout's of that schedule, and its
    scores objective's and constraint_violation's, bit for bit.

    room_state is (horizon + 1, 2, rows): temperature and illuminance at
    each step, step 0 being the measured state.  terms is
    (horizon, 8, workers, rows): predict_dl's terms at each step, in the
    order predict_dl adds them.  The terms that depend only on the
    snapshot (the intercept, the effort term and step 1's d_prev and
    increment terms) are written here, once.  So are the views of each
    step that the room and drowsiness loops read and write.

    No ufunc call broadcasts into, or reads scattered, an operand of
    workers x rows values: numpy would run such a call through buffers of
    that size that it allocates.  So drowsiness is stepped in d_steps,
    one contiguous (workers, rows) block per step, and the room's terms
    are computed for one worker and copied out for all of them.

    Every sum is an np.add.reduce along an axis that is not the innermost
    one, so numpy adds in order, one slice after another: each step's
    terms along their own axis, and both scores down the rows of an
    (n, rows) buffer, the drowsiness, dls as (workers * horizon, rows),
    and the comfort excess, (horizon, rows).  Along the innermost axis
    numpy would sum pairwise, which is why a kernel has two rows or more:
    one schedule is rollout's.
    """

    def __init__(self, models: ModelSet, snapshot: StateSnapshot, cfg: MpcConfig, rows: int):
        horizon, workers = cfg.horizon, cfg.num_workers
        _check_workers(snapshot, cfg)
        if rows < 2:
            raise ShapeMismatch(f"a kernel scores two rows or more, got {rows}; rollout scores one")
        self.shape = rows, horizon
        idt, ami, c = models.idt, models.ami, models.dl.coef
        self._d_coef = (c["d_prev"], c["d_plus_prev"], -c["d_minus_prev"])
        # predict_dl's coefficients of the room's level, rise and fall
        # (negated, see _signed), each (temperature, illuminance).
        room_coef = [[c["temp"], c["illum"]], [c["temp_plus"], c["illum_plus"]],
                     [-c["temp_minus"], -c["illum_minus"]]]
        self._room_coef = tuple(np.array(room_coef)[:, :, None, None])

        self.dls = np.empty((workers, horizon, rows))
        self._dl_rows = self.dls.reshape(-1, rows)
        self._deviation = np.empty((horizon, 2, rows))
        self._excess = np.empty((horizon, rows))
        self._over = np.empty((horizon, rows), dtype=bool)

        d_now, d_plus, d_minus, effort = np.array(
            [(w.d_current, w.d_plus, w.d_minus, w.effort) for w in snapshot.workers]
        ).T
        d_inc = d_plus - d_minus
        _signed(d_inc, c["d_plus_prev"], -c["d_minus_prev"],
                np.empty(workers, dtype=bool), np.empty(workers), out=d_inc)
        self.terms = terms = np.empty((horizon, 8, workers, rows))
        terms[:, 0] = models.dl.intercept
        terms[0, 1] = (c["d_prev"] * d_now)[:, None]
        terms[0, 2] = d_inc[:, None]
        terms[:, 7] = (c["effort"] * effort)[:, None]
        self.raw = np.empty((workers, rows))
        self.d_delta = np.empty((workers, rows))
        self.d_rising = np.empty((workers, rows), dtype=bool)
        self.d_coef = np.empty((workers, rows))
        # Drowsiness by step, the measured level first: each step reads the
        # two before it (step 0 needs neither).  dls gets a copy when all
        # steps are done.
        d_state = np.empty((horizon + 1, workers, rows))
        d_state[0] = d_now[:, None]
        self.d_steps = d_state[1:]
        self.dls_by_step = self.dls.transpose(1, 0, 2)
        d = tuple(d_state)
        self.dl_steps = tuple(zip(terms, terms[:, 1], terms[:, 2], d, (None, *d), d[1:]))

        self.room_state = np.empty((horizon + 1, 2, rows))
        self.room_state[0] = [[snapshot.temp_current], [snapshot.illum_current]]
        self.room = self.room_state[1:]
        # The comfort point and the penalty weights, at every step and row.
        self.comfort, self.weights = np.empty((2, *self.room.shape))
        self.comfort[:, 0], self.comfort[:, 1] = cfg.temp_comfort, cfg.illum_comfort
        self.weights[:, 0], self.weights[:, 1] = cfg.p_temp, cfg.p_illum
        self.cap = cfg.penalty_cap
        # Steps 1.. and 0.. with a worker axis, as the room's terms have.
        self.room_next = self.room_state[1:, :, None]
        self.room_prev = self.room_state[:-1, :, None]
        self.room_delta = np.empty((horizon, 2, 1, rows))
        self.room_rising = np.empty((horizon, 2, 1, rows), dtype=bool)
        self.room_coef = np.empty((horizon, 2, 1, rows))
        # The room's terms for one worker, level then increment, and slots 3
        # to 6 of terms as (step, quantity, level or increment, worker, row).
        once = np.empty((2, horizon, 2, 1, rows))
        self.room_level, self.room_inc = once[0], once[1]
        self.room_terms_once = once.transpose(1, 2, 0, 3, 4)
        self.room_terms = terms[:, 3:7].reshape(horizon, 2, 2, workers, rows)

        # Each room quantity's next value is a + b * now: (a, b) is
        # (k * setpoint, 1 - k) for temperature, with k the gain of a rising
        # or a falling move, and (theta0, theta_prev) for illuminance, which
        # then adds theta_set * setpoint and is clamped at zero.  ab_by_move
        # holds k in place of k * setpoint.
        ab_by_move = np.array([[[k, ami.theta0], [1.0 - k, ami.theta_prev]] for k in (idt.k_up, idt.k_down)])
        self._k = ab_by_move[:, :1, :1]
        self._theta_set = ami.theta_set
        self.t_sets = np.empty((horizon, rows))
        self.lights = np.empty((horizon, rows))
        # (a, b) of temperature and illuminance per step, for a rising and
        # a falling temperature, and the pair a step selects, row by row.
        up_down = np.empty((2, 2, 2, horizon, rows))
        up_down[...] = ab_by_move.transpose(1, 2, 0)[..., None, None]
        self.k_sets = up_down[0, 0]
        self.rising = np.empty(rows, dtype=bool)
        self.ab = np.empty((2, 2, rows))
        self.a, self.b = self.ab[0], self.ab[1]
        up, down = up_down.transpose(2, 3, 0, 1, 4)
        temps, illums = self.room_state[:, 0], self.room_state[1:, 1]
        room = tuple(self.room_state)
        self.room_steps = tuple(zip(self.t_sets, temps, up, down, room, room[1:], illums, self.lights))

    def evaluate(self, temp_sets: np.ndarray, illum_sets: np.ndarray):
        """Objective and violation of (rows, horizon) schedules, as new
        (rows,) arrays.  The predictions stay in room and dls until the
        next call."""
        if temp_sets.shape != self.shape or illum_sets.shape != self.shape:
            raise ShapeMismatch(
                f"schedules are {temp_sets.shape} and {illum_sets.shape}, "
                f"the kernel scores (rows, horizon) = {self.shape}"
            )
        np.copyto(self.t_sets, temp_sets.T)
        np.multiply(self._k, self.t_sets, out=self.k_sets)
        np.multiply(self._theta_set, illum_sets.T, out=self.lights)
        rising, ab, a, b = self.rising, self.ab, self.a, self.b
        for t_set, temp, up, down, now, nxt, illum, light in self.room_steps:
            np.greater_equal(t_set, temp, out=rising)
            np.copyto(ab, down)
            np.copyto(ab, up, where=rising)
            np.multiply(b, now, out=nxt)
            np.add(a, nxt, out=nxt)
            np.add(illum, light, out=illum)
            np.maximum(illum, 0.0, out=illum)

        # The room's four terms of predict_dl, every step at once, then
        # copied out for every worker.
        level, rise, fall = self._room_coef
        np.multiply(level, self.room_next, out=self.room_level)
        np.subtract(self.room_next, self.room_prev, out=self.room_delta)
        _signed(self.room_delta, rise, fall, self.room_rising, self.room_coef, out=self.room_inc)
        np.copyto(self.room_terms, self.room_terms_once)

        # Drowsiness, step by step: the two terms that depend on the
        # previous prediction, then all eight summed in one reduction.
        c_prev, c_plus, c_minus = self._d_coef
        raw, delta, d_rising, d_coef = self.raw, self.d_delta, self.d_rising, self.d_coef
        for terms, prev_term, inc_term, d_prev, d_before, d_next in self.dl_steps:
            if d_before is not None:
                np.multiply(c_prev, d_prev, out=prev_term)
                np.subtract(d_prev, d_before, out=delta)
                _signed(delta, c_plus, c_minus, d_rising, d_coef, out=inc_term)
            np.add.reduce(terms, axis=0, out=raw)
            np.maximum(raw, DL_MIN, out=raw)
            np.minimum(raw, DL_MAX, out=d_next)
        np.copyto(self.dls_by_step, self.d_steps)

        # The objective: each row's mean drowsiness.
        mean = np.add.reduce(self._dl_rows, axis=0)
        np.divide(mean, len(self._dl_rows), out=mean)

        # The violation: comfort_penalty, one array operation at a time.
        # Only the positive excess is summed, from zero: that adds
        # where(excess > 0, excess, 0) row after row.  A total too large for
        # a float (huge comfort weights) saturates at the largest float: the
        # search still ranks it as the worst violation, where an infinity
        # would stop it as a non-finite evaluation.
        deviation, excess = self._deviation, self._excess
        np.subtract(self.room, self.comfort, out=deviation)
        np.absolute(deviation, out=deviation)
        np.multiply(self.weights, deviation, out=deviation)
        np.add(deviation[:, 0], deviation[:, 1], out=excess)
        np.subtract(excess, self.cap, out=excess)
        np.greater(excess, 0.0, out=self._over)
        violation = np.add.reduce(excess, axis=0, where=self._over, initial=0.0)
        return mean, np.minimum(violation, _FLOAT_MAX, out=violation)


def _signed(delta: np.ndarray, above, below, rising: np.ndarray, coef: np.ndarray, out):
    """delta times above where delta >= 0, else times below, into out.

    rising and coef are buffers of delta's shape, for the test and the
    factor it picks.  With above = c_plus and below = -c_minus this is an
    increment pair's two terms of predict_dl's sum as one term:
    predict_dl adds c_plus * max(delta, 0), then c_minus * max(-delta, 0).
    One of the two is zero and adding zero leaves a sum unchanged.
    """
    np.greater_equal(delta, 0.0, out=rising)
    np.copyto(coef, below)
    np.copyto(coef, above, where=rising)
    np.multiply(delta, coef, out=out)


def rollout(
    models: ModelSet, snapshot: StateSnapshot, schedule: ControlSchedule, cfg: MpcConfig
) -> HorizonPrediction:
    """Propagate one schedule with predict_idt, predict_ami and predict_dl.

    Environment increments are taken along the predicted trajectory,
    anchored at the measured state.  Drowsiness increments are lagged:
    step 1 uses the snapshot's, later steps those of the model's own
    clamped predictions.  Effort stays at each worker's measured value.
    """
    _check_workers(snapshot, cfg)
    if schedule.horizon != cfg.horizon:
        raise ShapeMismatch(f"schedule has {schedule.horizon} steps, config horizon is {cfg.horizon}")
    # predict_dl's room arguments at each step: temperature, its rise and
    # fall, illuminance, its rise and fall.
    room, temp, illum = [], snapshot.temp_current, snapshot.illum_current
    for t_set, l_set in zip(schedule.temp_setpoints, schedule.illum_setpoints):
        t_next, l_next = predict_idt(models.idt, temp, t_set), predict_ami(models.ami, illum, l_set)
        room.append((t_next, *increments(t_next, temp), l_next, *increments(l_next, illum)))
        temp, illum = t_next, l_next
    dls = []
    for worker in snapshot.workers:
        d, d_plus, d_minus, path = worker.d_current, worker.d_plus, worker.d_minus, []
        for env in room:
            d_next = predict_dl(models.dl, d, d_plus, d_minus, *env, worker.effort)
            (d_plus, d_minus), d = increments(d_next, d), d_next
            path.append(d)
        dls.append(tuple(path))
    return HorizonPrediction(tuple(r[0] for r in room), tuple(r[3] for r in room), tuple(dls))


def objective(pred: HorizonPrediction) -> float:
    """Mean predicted drowsiness across workers and steps.

    Added worker by worker, then step by step, one float at a time, as
    HorizonKernel adds; sum() would compensate, and could differ.
    """
    total = 0.0
    for path in pred.dls:
        for d in path:
            total += d
    return total / (len(pred.dls) * len(pred.dls[0]))


def comfort_penalty(temp, illum, cfg: MpcConfig):
    """Weighted absolute deviation from the comfort point (elementwise on arrays)."""
    return cfg.p_temp * abs(temp - cfg.temp_comfort) + cfg.p_illum * abs(
        illum - cfg.illum_comfort
    )


def constraint_violation(pred: HorizonPrediction, cfg: MpcConfig) -> float:
    """Total excess of the per-step comfort penalty over the cap.

    Zero exactly when every predicted step satisfies the comfort
    constraint.  The positive excesses are added step by step, from
    zero; a total too large for a float saturates at the largest float.
    """
    total = 0.0
    for temp, illum in zip(pred.temps, pred.illums):
        excess = comfort_penalty(temp, illum, cfg) - cfg.penalty_cap
        if excess > 0.0:
            total += excess
    return min(total, _FLOAT_MAX)


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
