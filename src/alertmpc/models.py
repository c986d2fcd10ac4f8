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
step, in buffers it reuses for each population size, together with the
views of each step that its loops read and write.  So a call makes only
fixed-shape ufunc calls into those buffers.  At each step it writes the
two drowsiness terms that depend on the previous prediction and adds all
eight terms with one np.add.reduce along the term axis.  The objective
and the violation are each one np.add.reduce along the rows of a
buffer.  None of these axes is the innermost one, so numpy adds term by
term and row by row, in order, and every row stays bitwise equal to the
scalar recursion.

rollout is the kernel for one schedule.  objective and
constraint_violation are the plain definitions of the two scores of one
prediction, summed one float at a time in the order the kernel adds, so
each equals the kernel's score of that schedule bit for bit.
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


class HorizonKernel:
    """The horizon rollout of one solve, for any number of schedules.

    Built once per solve from the models, the measured state and the
    configuration; solve scores every generation of its search, or NOC's
    one schedule, with it.  The terms of predict_dl's sum that depend
    only on the snapshot (the intercept, the effort term and step 1's
    d_prev and lagged increment terms) are computed here, once.  Each
    population size gets a workspace on first use, which later calls
    reuse.

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
        d_inc = d_plus - d_minus
        rising, coef = np.empty(d_inc.shape, dtype=bool), np.empty(d_inc.shape)
        _signed(d_inc, c["d_plus_prev"], -c["d_minus_prev"], rising, coef, out=d_inc)
        self._fixed = (models.dl.intercept, c["d_prev"] * d_now, d_inc, c["effort"] * effort)
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
        self._room_coef = tuple(
            np.array(
                [
                    [c["temp"], c["illum"]],
                    [c["temp_plus"], c["illum_plus"]],
                    [-c["temp_minus"], -c["illum_minus"]],
                ]
            )[:, :, None, None]
        )
        self._workspaces: dict[int, _Workspace] = {}

    def _run(self, temp_sets: np.ndarray, illum_sets: np.ndarray) -> _Workspace:
        """Roll P schedules out in the workspace for P.

        temp_sets is (P, horizon); illum_sets is (P, horizon), or
        (1, horizon) for one illuminance schedule shared by every row.
        """
        pop, horizon = temp_sets.shape
        if horizon != self.cfg.horizon:
            raise ShapeMismatch(
                f"schedules cover {horizon} steps, config expects {self.cfg.horizon}"
            )
        ws = self._workspaces.get(pop)
        if ws is None:
            ws = self._workspaces[pop] = _Workspace(self, pop)

        np.copyto(ws.t_sets, temp_sets.T)
        np.multiply(self._k, ws.t_sets, out=ws.k_sets)
        np.multiply(self._theta_set, illum_sets.T, out=ws.lights)
        rising, ab, a, b = ws.rising, ws.ab, ws.a, ws.b
        for t_set, temp, up, down, now, nxt, illum, light in ws.room_steps:
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
        np.multiply(level, ws.room_next, out=ws.room_level)
        np.subtract(ws.room_next, ws.room_prev, out=ws.room_delta)
        _signed(ws.room_delta, rise, fall, ws.room_rising, ws.room_coef, out=ws.room_inc)
        np.copyto(ws.room_terms, ws.room_terms_once)

        # Drowsiness, step by step: the two terms that depend on the
        # previous prediction, then all eight summed in one reduction.
        c_prev, c_plus, c_minus = self._d_coef
        sums, raw, delta, d_rising, d_coef = ws.sums, ws.raw, ws.d_delta, ws.d_rising, ws.d_coef
        for terms, prev_term, inc_term, d_prev, d_before, d_next in ws.dl_steps:
            if d_before is not None:
                np.multiply(c_prev, d_prev, out=prev_term)
                np.subtract(d_prev, d_before, out=delta)
                _signed(delta, c_plus, c_minus, d_rising, d_coef, out=inc_term)
            np.add.reduce(terms, axis=0, out=sums)
            np.maximum(raw, DL_MIN, out=raw)
            np.minimum(raw, DL_MAX, out=d_next)
        np.copyto(ws.dls_by_step, ws.d_steps)
        return ws

    def rollout(self, temp_sets: np.ndarray, illum_sets: np.ndarray):
        """Predicted temperatures and illuminances, (horizon, P) each, and
        drowsiness, (workers, horizon, P), of P schedules.

        temp_sets is (P, horizon) and illum_sets (P, horizon) or, shared
        by every row, (1, horizon).  The returned arrays are the
        workspace's: the next call for the same P overwrites them.
        """
        ws = self._run(temp_sets, illum_sets)
        return ws.room[:, 0], ws.room[:, 1], ws.dls

    def evaluate(self, temp_sets: np.ndarray, illum_sets: np.ndarray):
        """Objective and violation of P schedules, as new (P,) arrays."""
        ws = self._run(temp_sets, illum_sets)
        return ws.objective(), ws.violation()


class _Workspace:
    """A HorizonKernel's buffers for populations of one size, P.

    room_state is (horizon + 1, 2, P): temperature and illuminance at
    each step, step 0 being the measured state.  padded is
    (horizon, 8, workers, P), plus a spare column for one worker and one
    row: predict_dl's terms at each step, in the order predict_dl adds
    them.  The intercept and effort terms and step 1's d_prev and
    increment terms are written here, once.  So are the views of each
    step that the room and drowsiness loops read and write.

    No ufunc call broadcasts into, or reads scattered, an operand of
    workers x P values: numpy would run such a call through buffers of
    that size that it allocates.  So drowsiness is stepped in d_steps,
    one contiguous (workers, P) block per step, and the room's terms are
    computed for one worker and copied out for all of them.

    Both scores are sums over the rows of an (n, cols) buffer: the
    drowsiness, dls_padded as (workers * horizon, cols), and the comfort
    excess, (horizon, cols).  cols is P, plus a spare all-zero column
    when P is 1.  np.add.reduce along axis 0 runs its inner loop along
    the columns, so it adds row after row, in the order the scalar sums
    add.  With a single column that axis would be the inner one and
    numpy would sum it pairwise; the spare column prevents that.
    """

    def __init__(self, kernel: HorizonKernel, pop: int):
        cfg = kernel.cfg
        horizon, workers = cfg.horizon, cfg.num_workers
        self.pop = pop
        score_cols = pop + (pop == 1)
        self.dls_padded = np.zeros((workers, horizon, score_cols))
        self.dls = self.dls_padded[..., :pop]
        self._dl_rows = self.dls_padded.reshape(-1, score_cols)
        self._deviation = np.empty((horizon, 2, pop))
        self._excess_padded = np.zeros((horizon, score_cols))
        self._excess = self._excess_padded[:, :pop]
        self._over_padded = np.zeros((horizon, score_cols), dtype=bool)
        self._over = self._over_padded[:, :pop]

        # np.add.reduce over the term axis adds term by term, left to right,
        # as predict_dl does, because that axis is not the innermost one.
        # With one worker and one row it would be the only axis, and numpy
        # would sum it pairwise; a spare all-zero column prevents that.
        cols = pop + (pop * workers == 1)
        self.padded = np.zeros((horizon, 8, workers, cols))
        terms = self.padded[..., :pop]
        intercept, d_prev, d_inc, effort = kernel._fixed
        terms[:, 0] = intercept
        terms[0, 1] = d_prev[:, None]
        terms[0, 2] = d_inc[:, None]
        terms[:, 7] = effort[:, None]
        self.sums = np.empty((workers, cols))
        self.raw = self.sums[:, :pop]
        self.d_delta = np.empty((workers, pop))
        self.d_rising = np.empty((workers, pop), dtype=bool)
        self.d_coef = np.empty((workers, pop))
        # Drowsiness by step, the measured level first: each step reads the
        # two before it (step 0 needs neither).  dls gets a copy when all
        # steps are done.
        d_state = np.empty((horizon + 1, workers, pop))
        d_state[0] = kernel._d_now
        self.d_steps = d_state[1:]
        self.dls_by_step = self.dls.transpose(1, 0, 2)
        d = tuple(d_state)
        self.dl_steps = tuple(zip(self.padded, terms[:, 1], terms[:, 2], d, (None, *d), d[1:]))

        self.room_state = np.empty((horizon + 1, 2, pop))
        self.room_state[0, 0] = kernel.snapshot.temp_current
        self.room_state[0, 1] = kernel.snapshot.illum_current
        self.room = self.room_state[1:]
        # The comfort point and the penalty weights, at every step and row.
        self.comfort, self.weights = np.empty((2, *self.room.shape))
        self.comfort[:, 0], self.comfort[:, 1] = cfg.temp_comfort, cfg.illum_comfort
        self.weights[:, 0], self.weights[:, 1] = cfg.p_temp, cfg.p_illum
        self.cap = cfg.penalty_cap
        # Steps 1.. and 0.. with a worker axis, as the room's terms have.
        self.room_next = self.room_state[1:, :, None]
        self.room_prev = self.room_state[:-1, :, None]
        self.room_delta = np.empty((horizon, 2, 1, pop))
        self.room_rising = np.empty((horizon, 2, 1, pop), dtype=bool)
        self.room_coef = np.empty((horizon, 2, 1, pop))
        # The room's terms for one worker, level then increment, and padded's
        # slots 3 to 6 as (step, quantity, level or increment, worker, row).
        once = np.empty((2, horizon, 2, 1, pop))
        self.room_level, self.room_inc = once[0], once[1]
        self.room_terms_once = once.transpose(1, 2, 0, 3, 4)
        self.room_terms = self.padded[:, 3:7].reshape(horizon, 2, 2, workers, cols)[..., :pop]

        self.t_sets = np.empty((horizon, pop))
        self.lights = np.empty((horizon, pop))
        # (a, b) of temperature and illuminance per step, for a rising and
        # a falling temperature, and the pair a step selects, row by row.
        up_down = np.empty((2, 2, 2, horizon, pop))
        up_down[...] = kernel._ab.transpose(1, 2, 0)[..., None, None]
        self.k_sets = up_down[0, 0]
        self.rising = np.empty(pop, dtype=bool)
        self.ab = np.empty((2, 2, pop))
        self.a, self.b = self.ab[0], self.ab[1]
        up, down = up_down.transpose(2, 3, 0, 1, 4)
        temps, illums = self.room_state[:, 0], self.room_state[1:, 1]
        room = tuple(self.room_state)
        self.room_steps = tuple(
            zip(self.t_sets, temps, up, down, room, room[1:], illums, self.lights)
        )

    def objective(self) -> np.ndarray:
        """Mean drowsiness of each row, as a new (P,) array."""
        total = np.add.reduce(self._dl_rows, axis=0)[: self.pop]
        return np.divide(total, len(self._dl_rows), out=total)

    def violation(self) -> np.ndarray:
        """constraint_violation of each row, as a new (P,) array.

        The penalty is comfort_penalty's, one array operation at a time.
        Only the positive excess is summed, from zero: that adds
        where(excess > 0, excess, 0) row after row.  A total too large for
        a float (huge comfort weights) saturates at the largest float: the
        search still ranks it as the worst violation, where an infinity
        would stop it as a non-finite evaluation.
        """
        deviation, excess = self._deviation, self._excess
        np.subtract(self.room, self.comfort, out=deviation)
        np.absolute(deviation, out=deviation)
        np.multiply(self.weights, deviation, out=deviation)
        np.add(deviation[:, 0], deviation[:, 1], out=excess)
        np.subtract(excess, self.cap, out=excess)
        np.greater(excess, 0.0, out=self._over)
        total = np.add.reduce(
            self._excess_padded, axis=0, where=self._over_padded, initial=0.0
        )[: self.pop]
        return np.minimum(total, _FLOAT_MAX, out=total)


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
    """Propagate one schedule: the kernel for a population of one."""
    predicted = HorizonKernel(models, snapshot, cfg).rollout(
        np.array([schedule.temp_setpoints]), np.array([schedule.illum_setpoints])
    )
    temps, illums, dls = (x[..., 0].tolist() for x in predicted)
    return HorizonPrediction(tuple(temps), tuple(illums), tuple(map(tuple, dls)))


def objective(pred: HorizonPrediction) -> float:
    """Mean predicted drowsiness across workers and steps.

    Added worker by worker, then step by step, one float at a time, as
    the kernel adds; sum() would compensate, and could differ.
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
