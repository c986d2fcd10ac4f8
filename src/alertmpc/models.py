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
calls write, the views of each step that its loops read and write, and
its constants as arrays.  It then runs the horizon over arrays of every
row, worker and step in those buffers, so a call makes only fixed-shape
ufunc calls, none of them with a mask but the room's choice of a rising
or a falling gain.  Its buffer holds predict_dl's eleven terms: at each
step it writes the three that depend on the previous prediction, the
level and an increment pair, and adds all eleven with one np.add.reduce
along the term axis.  The objective and the violation are each one
np.add.reduce along the rows of a buffer.  None of these axes is the
innermost one, so numpy adds in order, and every row's scores equal
those of rollout's prediction bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    clamp_dl,
    increments,
)

_FLOAT_MAX = float(np.finfo(float).max)


def _operand(value) -> np.ndarray:
    """value as a read-only 0-d float array.  A ufunc converts a Python
    float operand to an array on every call, at about a third of the
    cost of a call on a (workers, rows) block; HorizonKernel passes its
    constants so, converted once."""
    array = np.array(value, dtype=float)
    array.flags.writeable = False
    return array


_ZERO, _DL_MIN, _DL_MAX, _LARGEST = (_operand(x) for x in (0.0, DL_MIN, DL_MAX, _FLOAT_MAX))


class ShapeMismatch(ValueError):
    """Schedule or snapshot dimensions disagree with the configuration."""


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
    return clamp_dl(raw)


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
    (horizon, 11, workers, rows): predict_dl's eleven terms at each step,
    in the order predict_dl adds them.  The terms that depend only on the
    snapshot (the intercept, the effort term and step 1's d_prev,
    d_plus_prev and d_minus_prev terms) are written here, once.  So are
    the views of each step that the room and drowsiness loops read and
    write.

    An increment pair is two adjacent slots of terms, the rise then the
    fall, and needs no mask.  One subtract writes x_t - x_prev into the
    first and x_prev - x_t into the second, reading the two steps once
    in each order through views of the state; one maximum floors both at
    zero; one multiply applies both coefficients.  That gives
    predict_dl's c_plus * x_plus and c_minus * x_minus, since increments
    returns (x_t - x_prev, 0.0) or (0.0, -(x_t - x_prev)), and
    x_prev - x_t is exactly -(x_t - x_prev) in floating point.  Only the
    sign of a zero can differ: for a step change of -0.0 increments
    returns x_plus = -0.0 where np.maximum may give 0.0.  A zero's sign
    changes a sum only while the sum is zero, so it can reach only the
    sign of a raw level of zero, and the clamp onto the 1-5 scale makes
    that 1.0 either way.  A NaN step change makes both slots NaN, where
    predict_dl's x_minus alone is NaN: the sum is NaN either way.  An
    infinite one gives (inf, 0.0) or (0.0, inf), as increments does.  So
    every prediction is predict_dl's bit for bit, and a NaN or an
    infinity spreads as it does there.

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

    @staticmethod
    def nbytes(horizon: int, workers: int, rows: int) -> int:
        """Bytes a kernel of that size allocates while it is built and called,
        at most: float buffers of 13 values per step, worker and row and 33
        per step and row, 3 KB per step for the views its loops read (1.9 KB
        on CPython 3.11 with numpy 2), and 16 KB for its own objects."""
        floats = horizon * rows * (13 * workers + 33) + rows * (3 * workers + 9)
        return 8 * floats + 3072 * horizon + 16384

    def __init__(self, models: ModelSet, snapshot: StateSnapshot, cfg: MpcConfig, rows: int):
        horizon, workers = cfg.horizon, cfg.num_workers
        _check_workers(snapshot, cfg)
        if rows < 2:
            raise ShapeMismatch(f"a kernel scores two rows or more, got {rows}; rollout scores one")
        self.shape = rows, horizon
        idt, ami, c = models.idt, models.ami, models.dl.coef

        self.dls = np.empty((workers, horizon, rows))
        self._dl_rows = self.dls.reshape(-1, rows)
        self._count = _operand(len(self._dl_rows))
        self._deviation = np.empty((horizon, 2, rows))
        self._excess = np.empty((horizon, rows))

        d_now, d_plus, d_minus, effort = np.array(
            [(w.d_current, w.d_plus, w.d_minus, w.effort) for w in snapshot.workers]
        ).T
        self.terms = terms = np.empty((horizon, 11, workers, rows))
        terms[:, 0] = models.dl.intercept
        terms[0, 1] = (c["d_prev"] * d_now)[:, None]
        terms[0, 2] = (c["d_plus_prev"] * d_plus)[:, None]
        terms[0, 3] = (c["d_minus_prev"] * d_minus)[:, None]
        terms[:, 10] = (c["effort"] * effort)[:, None]
        self._c_prev = _operand(c["d_prev"])
        self.d_coef = _pair_coef((2, workers, rows), c["d_plus_prev"], c["d_minus_prev"])
        # Drowsiness by step, the measured level first.  Each step but the
        # first reads the two levels before it as views (earlier, later) and
        # (later, earlier): their difference is its pair's fall and rise,
        # the pair's slots in reverse order.  dls gets a copy when all
        # steps are done.
        d_state = np.empty((horizon + 1, workers, rows))
        d_state[0] = d_now[:, None]
        self.d_steps = d_state[1:]
        self.dls_by_step = self.dls.transpose(1, 0, 2)
        d = tuple(d_state)
        earlier = tuple(d_state[n - 1:n + 1] for n in range(1, horizon))
        self.dl_steps = tuple(zip(
            terms, terms[:, 1], terms[:, 2:4], terms[:, 3:1:-1], d,
            (None, *earlier), (None, *(pair[::-1] for pair in earlier)), d[1:]))

        self.room_state = np.empty((horizon + 1, 2, rows))
        self.room_state[0] = [[snapshot.temp_current], [snapshot.illum_current]]
        self.room = self.room_state[1:]
        # The comfort point and the penalty weights, at every step and row.
        self.comfort, self.weights = np.empty((2, *self.room.shape))
        self.comfort[:, 0], self.comfort[:, 1] = cfg.temp_comfort, cfg.illum_comfort
        self.weights[:, 0], self.weights[:, 1] = cfg.p_temp, cfg.p_illum
        self.cap = _operand(cfg.penalty_cap)
        # The room's terms for one worker, slot first: each quantity's
        # level, then its rise and fall, the pair.  room_terms_once is that
        # as (step, quantity, slot, worker, row), and room_terms slots 4 to
        # 9 of terms so shaped.
        once = np.empty((3, horizon, 2, 1, rows))
        self.room_level, self.room_pair = once[0], once[1:]
        self.room_terms_once = once.transpose(1, 2, 0, 3, 4)
        self.room_terms = terms[:, 4:10].reshape(horizon, 2, 3, workers, rows)
        # Steps 1.. with a worker axis, and the pair's two orders of steps
        # 1.. and 0.., (x_t, x_prev) and (x_prev, x_t), with a slot axis.
        self.room_next = self.room_state[1:, :, None]
        window = sliding_window_view(self.room_state, 2, axis=0)[:, :, None]
        self.room_later = np.moveaxis(window[..., ::-1], -1, 0)
        self.room_earlier = np.moveaxis(window, -1, 0)
        # Coefficients at the full shape of the terms they multiply: numpy
        # runs a multiply by coefficients that broadcast through a buffer
        # that it allocates.
        self._level_coef = np.empty(self.room_level.shape)
        self._level_coef[...] = np.array([c["temp"], c["illum"]])[:, None, None]
        self.room_coef = _pair_coef(self.room_pair.shape, [c["temp_plus"], c["illum_plus"]],
                                    [c["temp_minus"], c["illum_minus"]])

        # Each room quantity's next value is a + b * now: (a, b) is
        # (k * setpoint, 1 - k) for temperature, with k the gain of a rising
        # or a falling move, and (theta0, theta_prev) for illuminance, which
        # then adds theta_set * setpoint and is clamped at zero.  ab_by_move
        # holds k in place of k * setpoint.
        ab_by_move = np.array([[[k, ami.theta0], [1.0 - k, ami.theta_prev]] for k in (idt.k_up, idt.k_down)])
        self._theta_set = _operand(ami.theta_set)
        self.t_sets = np.empty((horizon, rows))
        self.lights = np.empty((horizon, rows))
        # (a, b) of temperature and illuminance per step, for a rising and
        # a falling temperature, and the pair a step selects, row by row.
        up_down = np.empty((2, 2, 2, horizon, rows))
        up_down[...] = ab_by_move.transpose(1, 2, 0)[..., None, None]
        self.k_sets = up_down[0, 0]
        # The gains themselves, at k_sets' full shape, as the pairs'
        # coefficients are.
        self._k = self.k_sets.copy()
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
        # Plain copies assign to a view: np.copyto is a Python-level wrapper.
        self.t_sets[...] = temp_sets.T
        np.multiply(self._k, self.t_sets, out=self.k_sets)
        self.lights[...] = illum_sets.T
        np.multiply(self._theta_set, self.lights, out=self.lights)
        rising, ab, a, b = self.rising, self.ab, self.a, self.b
        for t_set, temp, up, down, now, nxt, illum, light in self.room_steps:
            np.greater_equal(t_set, temp, out=rising)
            ab[...] = down
            np.copyto(ab, up, where=rising)
            np.multiply(b, now, out=nxt)
            np.add(a, nxt, out=nxt)
            np.add(illum, light, out=illum)
            np.maximum(illum, _ZERO, out=illum)

        # The room's six terms of predict_dl, every step at once, then
        # copied out for every worker.
        pair = self.room_pair
        np.multiply(self._level_coef, self.room_next, out=self.room_level)
        np.subtract(self.room_later, self.room_earlier, out=pair)
        np.maximum(pair, _ZERO, out=pair)
        np.multiply(pair, self.room_coef, out=pair)
        self.room_terms[...] = self.room_terms_once

        # Drowsiness, step by step: the three terms that depend on the
        # previous prediction, then all eleven summed in one reduction and
        # clamped onto the 1-5 scale.  The pair's subtract writes its slots
        # backwards, as its second input runs: numpy would run the call
        # through a buffer it allocates if that input alone ran backwards.
        c_prev, coef = self._c_prev, self.d_coef
        for terms, prev_term, pair, reversed_pair, d_prev, earlier, later, d_next in self.dl_steps:
            if earlier is not None:
                np.multiply(c_prev, d_prev, out=prev_term)
                np.subtract(earlier, later, out=reversed_pair)
                np.maximum(pair, _ZERO, out=pair)
                np.multiply(pair, coef, out=pair)
            np.add.reduce(terms, axis=0, out=d_next)
            np.maximum(d_next, _DL_MIN, out=d_next)
            np.minimum(d_next, _DL_MAX, out=d_next)
        self.dls_by_step[...] = self.d_steps

        # The objective: each row's mean drowsiness.
        mean = np.add.reduce(self._dl_rows, axis=0)
        np.divide(mean, self._count, out=mean)

        # The violation: comfort_penalty, one array operation at a time,
        # then each step's excess over the cap, floored at zero, summed
        # down the steps.  fmax, not maximum: a NaN excess counts as none,
        # as constraint_violation's "excess > 0.0" skips it.  The cap is
        # positive, so no excess is -0.0, and the sum equals
        # constraint_violation's from 0.0.  A total too large for a float
        # (huge comfort weights) saturates at the largest float: the
        # search still ranks it as the worst violation, where an infinity
        # would stop it as a non-finite evaluation.
        deviation, excess = self._deviation, self._excess
        np.subtract(self.room, self.comfort, out=deviation)
        np.absolute(deviation, out=deviation)
        np.multiply(self.weights, deviation, out=deviation)
        np.add.reduce(deviation, axis=1, out=excess)
        np.subtract(excess, self.cap, out=excess)
        np.fmax(excess, _ZERO, out=excess)
        violation = np.add.reduce(excess, axis=0)
        return mean, np.minimum(violation, _LARGEST, out=violation)


def _pair_coef(shape, c_plus, c_minus) -> np.ndarray:
    """Coefficients of increment pairs of that shape, slot first: c_plus
    for the rise, c_minus for the fall.  Each is a scalar or holds one
    coefficient per quantity, the third axis from the end."""
    coef = np.empty(shape)
    coef[0], coef[1] = (np.asarray(c)[..., None, None] for c in (c_plus, c_minus))
    return coef


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


def rollout_nbytes(horizon: int, workers: int) -> int:
    """Bytes a rollout of one schedule and its scores allocate, with the
    schedule, at most: 256 per step for the room's values, the tuple that
    holds them and the tuples of the schedule and the prediction, 36 per
    step and worker for a drowsiness and its slots, and 4 KB for the
    objects of one call.  On CPython 3.11 the first two are about 235
    and 32."""
    return horizon * (256 + 36 * workers) + 4096


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
    "rollout_nbytes",
    "objective",
    "comfort_penalty",
    "constraint_violation",
]
