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

HorizonKernel is a search's evaluate callback: one per solve, built for
its population's row count, two or more, and called with each (rows,
columns) population in the layout of cfg's mode.  restrict_to_box walks
the horizon once per solve, in plain floats, over intervals that hold the
room and the drowsiness of every schedule in the setpoint box.  When no
such schedule can break the comfort cap (proved), every violation is +0.0
and the kernel returns None in its place; it also skips the illuminance
floor and either end of the drowsiness scale when no such schedule
reaches them.

The kernel folds the terms of the drowsiness sum that depend only on the
measured state once, when it is built, together with every buffer its
calls write, the views of each step that its loops read and write, and
its constants as arrays.  It then runs the horizon over arrays of every
row, worker and step in those buffers, so a call makes only fixed-shape
ufunc calls, none of them with a mask but the choice of temperature's
rising or falling gain.  Its buffer holds predict_dl's eleven terms: at
each step after the first it writes the three that depend on the
previous prediction, the level and an increment pair, and adds all
eleven with one np.add.reduce along the term axis.  The objective and
the violation are each one np.add.reduce along the rows of a buffer.
None of these axes is the innermost one, so numpy adds in order, and
every row's scores equal those of rollout's prediction bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DL_FEATURES,
    DL_MAX,
    DL_MIN,
    AmiModel,
    ControlMode,
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

# How far HorizonKernel.restrict_to_box widens an interval at each step,
# relative to the size of the values it bounds.  A step's few float
# operations round by a few parts in 1e16 of that size, and DE's first
# population, drawn as lower + u * span, can pass the box's upper bound by
# one unit in the last place, which moves a step's values by about as
# little; this covers both many times over.
_SLACK = 1e-9


def _operands(*values) -> tuple[np.ndarray, ...]:
    """Each value as a read-only 0-d float array, views of one array.  A
    ufunc converts a Python float operand to an array on every call, at
    about a third of the cost of a call on a (workers, rows) block;
    HorizonKernel passes its constants so, converted once."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return tuple(array[i, ...] for i in range(len(values)))


_ZERO, _DL_MIN, _DL_MAX, _LARGEST = _operands(0.0, DL_MIN, DL_MAX, _FLOAT_MAX)

# The ufuncs and the ufunc method HorizonKernel.evaluate calls, bound once.
# At 40 rows a call costs little more than its dispatch: np.add is a
# global and an attribute lookup on every call, and an out= keyword costs
# a keyword parse, so the kernel passes out positionally.  np.maximum,
# np.minimum and np.fmax keep out= as a keyword: numpy 2.4 deprecates a
# third positional argument to the first two.
_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_maximum, _minimum, _fmax = np.maximum, np.minimum, np.fmax
_absolute, _greater_equal, _add_reduce = np.absolute, np.greater_equal, np.add.reduce


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
    solve passes evaluate to de_minimize.  A call takes a population of
    shape (rows, columns): each row's temperature setpoints, then under
    MPC2 its illuminance setpoints.  The other modes hold illuminance at
    illum_comfort, whose theta_set product is written once, here.

    Each row's prediction equals rollout's of that schedule, and its
    scores objective's and constraint_violation's, bit for bit.  After
    restrict_to_box that holds for the schedules inside cfg's setpoint
    box, which are the ones a search scores: proved then says whether
    evaluate returns None as the violation, and floor, bottom and ceiling
    which clamps a call applies: illuminance's at zero and drowsiness's at
    DL_MIN and DL_MAX.  A new kernel proves nothing, applies every clamp
    and always returns violations.

    room_state is (horizon + 1, 2, rows): temperature and illuminance at
    each step, step 0 being the measured state.  terms is
    (horizon, 11, workers, rows): predict_dl's eleven terms at each step,
    in the order predict_dl adds them.  The terms that depend only on the
    snapshot (the intercept, the effort term and step 1's d_prev,
    d_plus_prev and d_minus_prev terms) are written here, once.  So are
    the views of each step that the room and drowsiness loops read and
    write.

    An increment pair is two adjacent slots of terms, the rise then the
    fall, and needs no mask.  x_t - x_prev goes into the first and
    x_prev - x_t into the second, by two subtracts that read the two
    levels forward, as a reversed write would run through a buffer: of
    every step at once for the room, of one step each for drowsiness.
    One maximum floors both slots at zero; one multiply applies both
    coefficients.  That gives
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

    Only the objective can be NaN or infinite, where a prediction
    overflows; de_minimize checks it, once per generation, and refuses
    it.  The violation is always finite and >= 0: each step's excess is
    floored at zero by np.fmax, which counts a NaN excess as none, and
    the sum saturates at the largest float.
    """

    @staticmethod
    def nbytes(horizon: int, workers: int, rows: int) -> int:
        """Bytes a kernel of that size allocates while it is built and called,
        at most: float buffers of 13 values per step, worker and row and 29
        per step and row, 3 KB per step for the views its loops read (1.9 KB
        on CPython 3.11 with numpy 2), and 16 KB for its own objects."""
        floats = horizon * rows * (13 * workers + 29) + rows * (3 * workers + 9)
        return 8 * floats + 3072 * horizon + 16384

    def __init__(self, models: ModelSet, snapshot: StateSnapshot, cfg: MpcConfig, rows: int):
        horizon, workers = cfg.horizon, cfg.num_workers
        _check_workers(snapshot, cfg)
        if rows < 2:
            raise ShapeMismatch(f"a kernel scores two rows or more, got {rows}; rollout scores one")
        self._mpc2 = cfg.mode is ControlMode.MPC2
        self._horizon, self.shape = horizon, (rows, horizon * (1 + self._mpc2))
        self._models, self._snapshot, self._cfg = models, snapshot, cfg
        self.proved, self.floor, self.bottom, self.ceiling = False, True, True, True
        idt, ami, c = models.idt, models.ami, models.dl.coef

        self.dls = np.empty((workers, horizon, rows))
        self._dl_rows = self.dls.reshape(-1, rows)
        self._deviation = np.empty((horizon, 2, rows))
        self._excess = np.empty((horizon, rows))
        self._count, self._c_prev, self.cap, self._theta_set = _operands(
            workers * horizon, c["d_prev"], cfg.penalty_cap, ami.theta_set)

        # Each worker's level, its rise and fall, and effort, one row each.
        self._workers = states = np.array(
            [(w.d_current, w.d_plus, w.d_minus, w.effort) for w in snapshot.workers], float).T
        d_now = states[0]
        self.terms = terms = np.empty((horizon, 11, workers, rows))
        terms[:, 0] = models.dl.intercept
        # Step 1's three terms of the measured levels, and effort's at every step.
        products = np.array([c["d_prev"], c["d_plus_prev"], c["d_minus_prev"], c["effort"]])[:, None] * states
        terms[0, 1:4] = products[:3, :, None]
        terms[:, 10] = products[3, :, None]
        self.d_coef = np.empty((2, workers, rows))
        self.d_coef[0], self.d_coef[1] = c["d_plus_prev"], c["d_minus_prev"]
        # Drowsiness by step, the measured level first.  Step 1 reads only
        # the terms written here; each later step writes its level's term
        # from the level before it, and its pair's rise and fall from the
        # two levels before it.  dls gets a copy when all steps are done.
        d_state = np.empty((horizon + 1, workers, rows))
        d_state[0] = d_now[:, None]
        self.d_steps = d_state[1:]
        self.dls_by_step = self.dls.transpose(1, 0, 2)
        d = tuple(d_state)
        self.dl_first = terms[0], d[1]
        later = terms[1:]
        self.dl_steps = tuple(zip(later, later[:, 1], later[:, 2], later[:, 3], later[:, 2:4], d[1:], d, d[2:]))

        self.room_state = room_state = np.empty((horizon + 1, 2, rows))
        room_state[0] = [[snapshot.temp_current], [snapshot.illum_current]]
        self.room = room_state[1:]
        # The comfort point and the penalty weights, at every step and row.
        comfort = np.empty((2, horizon, 2, rows))
        comfort.transpose(1, 3, 0, 2)[...] = (cfg.temp_comfort, cfg.illum_comfort), (cfg.p_temp, cfg.p_illum)
        self.comfort, self.weights = comfort
        # The room's terms for one worker, slot first: each quantity's
        # level, then its rise and fall, the pair.  room_terms_once is that
        # as (step, quantity, slot, worker, row), and room_terms slots 4 to
        # 9 of terms so shaped.
        once = np.empty((3, horizon, 2, 1, rows))
        self.room_level, self.room_pair = once[0], once[1:]
        self.room_terms_once = once.transpose(1, 2, 0, 3, 4)
        self.room_terms = terms[:, 4:10].reshape(horizon, 2, 3, workers, rows)
        # Steps 1.. and 0.. with a worker axis, x_t and x_prev, and the
        # pair's two slots that take their differences.
        self.room_next, self.room_prev = room_state[1:, :, None], room_state[:-1, :, None]
        self.room_rise, self.room_fall = self.room_pair
        # Coefficients at the full shape of the terms they multiply, in
        # once's layout: numpy runs a multiply by coefficients that
        # broadcast through a buffer that it allocates.
        coef = np.empty(once.shape)
        coef[...] = np.array([[c["temp"], c["illum"]], [c["temp_plus"], c["illum_plus"]],
                              [c["temp_minus"], c["illum_minus"]]])[:, None, :, None, None]
        self._level_coef, self.room_coef = coef[0], coef[1:]

        # Each room quantity's next value is a + b * now: (a, b) is
        # (k * setpoint, 1 - k) for temperature, with k the gain of a rising
        # or a falling move, and (theta0, theta_prev) for illuminance, which
        # then adds theta_set * setpoint and is clamped at zero.  up_down
        # holds temperature's (a, b) per step for a rising and a falling
        # move, with k in place of k * setpoint.
        up_down = np.empty((2, 2, horizon, rows))
        up_down.transpose(2, 3, 0, 1)[...] = [(idt.k_up, idt.k_down), (1.0 - idt.k_up, 1.0 - idt.k_down)]
        self.t_sets = np.empty((horizon, rows))
        # theta_set * setpoint at each step: MPC2's are written by each
        # call, the other modes' illum_comfort's here, once.
        self.lights = np.empty((horizon, rows))
        if not self._mpc2:
            self.lights[...] = ami.theta_set * cfg.illum_comfort
        self.k_sets = up_down[0]
        # The gains themselves, at k_sets' full shape, as the pairs'
        # coefficients are.
        self._k = self.k_sets.copy()
        self.rising = np.empty(rows, dtype=bool)
        # (a, b) of temperature and illuminance.  Illuminance's is the same
        # for a rising and a falling temperature, so it is written here; a
        # step selects temperature's, row by row, into temp_ab.
        self.ab = np.empty((2, 2, rows))
        self.ab[:, 1] = [[ami.theta0], [ami.theta_prev]]
        self.a, self.b = self.ab[0], self.ab[1]
        self.temp_ab = self.ab[:, 0]
        up, down = up_down.transpose(1, 2, 0, 3)
        room = tuple(room_state)
        self.room_steps = tuple(zip(self.t_sets, room_state[:, 0], up, down, room, room[1:],
                                    room_state[1:, 1], self.lights))

    def restrict_to_box(self) -> None:
        """Tell the kernel that every row it will score lies inside cfg's
        setpoint box, as a search's do, and walk the horizon once, in plain
        floats, bounding by intervals what every schedule of that box can
        reach at each step.  proved becomes True when none breaks the
        comfort cap, so every violation, constraint_violation's too, is
        +0.0; floor False when none darkens the room to zero; bottom and
        ceiling False when none takes a worker to DL_MIN, or to DL_MAX.
        A skipped clamp would return its input unchanged, so every row's
        prediction and scores stay rollout's bit for bit.  A bound that is
        not finite (huge weights or coefficients) proves nothing.

        The room.  predict_idt mixes the setpoint and the last temperature
        with a gain in (0, 1], so every predicted temperature lies between
        the lowest and the highest of the measured one, temp_lo and
        temp_hi.  Illuminance is carried through predict_ami's affine map,
        whatever the signs of theta_prev and theta_set, and its clamp at
        zero; MPC2's setpoints span [illum_lo, illum_hi], the other modes'
        are illum_comfort.  Each interval is widened by _SLACK at every
        step, so it holds every rounded prediction, also from a setpoint
        one unit in the last place past the box, and so holds predict_ami's
        level before its clamp wherever its lower end is above zero.

        Comfort.  Rounding is monotonic, so comfort_penalty at the ends of
        the step's intervals farthest from the comfort point, in its order
        of operations, bounds the penalty of every point of them.

        The floor.  np.maximum(x, 0.0) is x, bit for bit, when x > 0.
        Every level is at least theta0 when theta0 > 0 and theta_prev and
        theta_set are not negative, since the measured illuminance and
        every box's setpoints are not (domain's ranges); that needs no
        bound.  Otherwise every level is above zero when the interval's
        lower end is, at every step.

        The drowsiness scale.  Each of predict_dl's eleven terms lies
        between its coefficient times one end of its variable's interval
        and times the other (_bottom, _top).  The room's levels come from
        the step's intervals, its rises and falls from the step's and the
        step before's (_rise).  Step 1 reads the measured levels with
        their rises and falls, and every step effort, over all the
        workers.  Each later step reads the last level and the one before
        it in their clamped intervals: the clamps are monotonic, so a
        level lies between the clamped ends of its raw interval, whichever
        clamps a kernel applies.  The ends add the terms' extremes in
        predict_dl's order, which is the kernel's: rounding is monotonic,
        so they bound the rounded level of every row.
        """
        cfg, dl, ami = self._cfg, self._models.dl, self._models.ami
        theta0, theta_prev, theta_set = ami.theta0, ami.theta_prev, ami.theta_set
        temp_lo, temp_hi, cap = cfg.temp_lo, cfg.temp_hi, cfg.penalty_cap
        t_comfort, l_comfort, p_temp, p_illum = cfg.temp_comfort, cfg.illum_comfort, cfg.p_temp, cfg.p_illum
        illum_sets = (cfg.illum_lo, cfg.illum_hi) if self._mpc2 else (l_comfort, l_comfort)
        # theta_set * setpoint, the same at every step.
        light_lo, light_hi = sorted((theta_set * illum_sets[0], theta_set * illum_sets[1]))
        theta_size, light_size = abs(theta0), max(abs(light_lo), abs(light_hi))
        # DL_FEATURES is the order in which predict_dl adds its terms.
        coefs = [dl.coef[name] for name in DL_FEATURES]
        d, rises, falls, efforts = ((min(values), max(values)) for values in self._workers.tolist())
        # Whether comfort holds, the room stays lit, and the levels stay
        # off the bottom and off the top of the scale, at every step so far.
        proved = lit = bottom = top = True
        t1 = t1_hi = self._snapshot.temp_current
        l1 = l1_hi = self._snapshot.illum_current
        for _ in range(cfg.horizon):
            t0, t0_hi, l0, l0_hi = t1, t1_hi, l1, l1_hi
            t1, t1_hi = min(t0, temp_lo), max(t0_hi, temp_hi)
            slack = _SLACK * max(abs(t1), abs(t1_hi))
            t1, t1_hi = t1 - slack, t1_hi + slack
            prev_lo, prev_hi = theta_prev * l0, theta_prev * l0_hi
            if theta_prev < 0.0:
                prev_lo, prev_hi = prev_hi, prev_lo
            # Rounding errs in proportion to the terms' sizes, not the sum's.
            slack = _SLACK * (theta_size + max(abs(prev_lo), abs(prev_hi)) + light_size)
            if not math.isfinite(slack):
                proved = lit = bottom = top = False
                break
            # No bound is NaN now, so max() compares each pair truly.
            l1 = max(theta0 + prev_lo + light_lo - slack, 0.0)
            l1_hi = max(theta0 + prev_hi + light_hi + slack, 0.0)
            penalty = (p_temp * max(abs(t1 - t_comfort), abs(t1_hi - t_comfort))
                       + p_illum * max(abs(l1 - l_comfort), abs(l1_hi - l_comfort)))
            proved = proved and penalty <= cap
            lit = lit and l1 > 0.0
            if not (bottom or top):
                continue
            intervals = (d, rises, falls, (t1, t1_hi), _rise(t0, t0_hi, t1, t1_hi), _rise(t1, t1_hi, t0, t0_hi),
                         (l1, l1_hi), _rise(l0, l0_hi, l1, l1_hi), _rise(l1, l1_hi, l0, l0_hi), efforts)
            low = high = dl.intercept
            for c, (lo, hi) in zip(coefs, intervals):
                low += _bottom(c, lo, hi)
                high += _top(c, lo, hi)
            if not (math.isfinite(low) and math.isfinite(high)):
                bottom = top = False
                continue
            bottom, top = bottom and low >= DL_MIN, top and high < DL_MAX
            level = min(max(low, DL_MIN), DL_MAX), min(max(high, DL_MIN), DL_MAX)
            rises, falls, d = _rise(*d, *level), _rise(*level, *d), level
        self.proved = proved
        self.floor = not (lit or theta0 > 0.0 and theta_prev >= 0.0 and theta_set >= 0.0)
        self.bottom, self.ceiling = not bottom, not top

    def evaluate(self, pop: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Roll a (rows, columns) population, in shape's layout, over the
        horizon into room and dls, and return each row's mean drowsiness
        and comfort violation as new (rows,) arrays; the violation is
        None once restrict_to_box has proved comfort, and otherwise finite
        and >= 0.  The predictions stay in room and dls until the next
        call."""
        if pop.shape != self.shape:
            raise ShapeMismatch(f"the population is {pop.shape}, the kernel scores {self.shape}")
        # Plain copies assign to a view: np.copyto is a Python-level wrapper.
        sets = pop.T
        self.t_sets[...] = sets[:self._horizon]
        _multiply(self._k, self.t_sets, self.k_sets)
        if self._mpc2:
            self.lights[...] = sets[self._horizon:]
            _multiply(self._theta_set, self.lights, self.lights)
        rising, temp_ab, a, b, floor = self.rising, self.temp_ab, self.a, self.b, self.floor
        greater_equal, copyto, multiply, add, maximum = _greater_equal, np.copyto, _multiply, _add, _maximum
        for t_set, temp, up, down, now, nxt, illum, light in self.room_steps:
            greater_equal(t_set, temp, rising)
            temp_ab[...] = down
            copyto(temp_ab, up, where=rising)
            multiply(b, now, nxt)
            add(a, nxt, nxt)
            add(illum, light, illum)
            if floor:
                maximum(illum, _ZERO, out=illum)

        # The room's six terms of predict_dl, every step at once, then
        # copied out for every worker.
        pair, now, before = self.room_pair, self.room_next, self.room_prev
        _multiply(self._level_coef, now, self.room_level)
        _subtract(now, before, self.room_rise)
        _subtract(before, now, self.room_fall)
        _maximum(pair, _ZERO, out=pair)
        _multiply(pair, self.room_coef, pair)
        self.room_terms[...] = self.room_terms_once

        # Drowsiness, step by step: after step 1, whose terms are all
        # written, the three terms that depend on the previous prediction;
        # then all eleven summed in one reduction and clamped onto the 1-5
        # scale, at each end that restrict_to_box has not shown idle.
        c_prev, coef, bottom, ceiling = self._c_prev, self.d_coef, self.bottom, self.ceiling
        subtract, minimum, add_reduce = _subtract, _minimum, _add_reduce
        terms, d_next = self.dl_first
        add_reduce(terms, 0, None, d_next)
        if bottom:
            maximum(d_next, _DL_MIN, out=d_next)
        if ceiling:
            minimum(d_next, _DL_MAX, out=d_next)
        for terms, prev_term, rise, fall, pair, d_prev, d_before, d_next in self.dl_steps:
            multiply(c_prev, d_prev, prev_term)
            subtract(d_prev, d_before, rise)
            subtract(d_before, d_prev, fall)
            maximum(pair, _ZERO, out=pair)
            multiply(pair, coef, pair)
            add_reduce(terms, 0, None, d_next)
            if bottom:
                maximum(d_next, _DL_MIN, out=d_next)
            if ceiling:
                minimum(d_next, _DL_MAX, out=d_next)
        self.dls_by_step[...] = self.d_steps

        # The objective: each row's mean drowsiness.
        mean = _add_reduce(self._dl_rows, 0)
        _divide(mean, self._count, mean)
        if self.proved:  # every violation would be +0.0: de_minimize reads None so
            return mean, None

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
        _subtract(self.room, self.comfort, deviation)
        _absolute(deviation, deviation)
        _multiply(self.weights, deviation, deviation)
        _add_reduce(deviation, 1, None, excess)
        _subtract(excess, self.cap, excess)
        _fmax(excess, _ZERO, out=excess)
        violation = _add_reduce(excess, 0)
        return mean, _minimum(violation, _LARGEST, out=violation)


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


def _bottom(c: float, lo: float, hi: float) -> float:
    """The smallest rounded product of c and a value in [lo, hi]."""
    return c * lo if c >= 0.0 else c * hi


def _top(c: float, lo: float, hi: float) -> float:
    """The largest rounded product of c and a value in [lo, hi]."""
    return c * hi if c >= 0.0 else c * lo


def _rise(lo0: float, hi0: float, lo1: float, hi1: float) -> tuple[float, float]:
    """The interval of max(x1 - x0, 0.0), rounded, for x0 in [lo0, hi0] and
    x1 in [lo1, hi1]: a rise, or with the intervals swapped a fall."""
    return max(lo1 - hi0, 0.0), max(hi1 - lo0, 0.0)


__all__ = [
    "ShapeMismatch",
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
