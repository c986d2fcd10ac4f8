"""Receding-horizon control built on the prediction models.

solve() turns one measured state into a setpoint schedule.  NOC simply
holds the comfort point; the optimizing modes search the setpoint box by
differential evolution, scoring each generation's objective and
constraint from one batched rollout of the whole population.
step_controller() wraps solve() with the measurement history and the
per-interval seed policy; Controller keeps the loop state (log + last
applied setpoints) for simulator and daemon use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    ControlMode,
    ControlSchedule,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
    validate_config,
)
# rollout, objective and constraint_violation are not called here any more;
# they stay importable from this module because the perfbench trace hooks
# look them up on it.
from .models import (  # noqa: F401
    HorizonPrediction,
    constraint_violation,
    objective,
    objective_batch,
    rollout,
    rollout_batch,
    violation_batch,
)
from .optimizer import DeParams, DeResult, de_minimize


class StaleDataError(RuntimeError):
    """The measurement log has not caught up with the controller clock."""

    def __init__(self, latest_index, clock):
        self.latest_index = latest_index
        self.clock = clock
        super().__init__(
            f"latest recorded step is {latest_index}, interval {clock} needs step {clock - 1}"
        )


@dataclass(frozen=True)
class MpcSolution:
    """One interval's decision: the schedule and its predicted outcome.

    generations_used, evaluations and stop_reason are the optimizer's
    (see DeResult); NOC runs no search and reports 0, 0 and None.
    """

    schedule: ControlSchedule
    predicted: HorizonPrediction
    objective_value: float
    feasible: bool
    applied_setpoints: tuple[float, float]
    generations_used: int = 0
    evaluations: int = 0
    stop_reason: str | None = None


def _predict(
    models: ModelSet, snapshot: StateSnapshot, schedule: ControlSchedule, cfg: MpcConfig
) -> tuple[HorizonPrediction, float, float]:
    """One schedule's prediction, objective and violation.

    Scored straight from a one-row rollout_batch: the same values as
    rollout, objective and constraint_violation, without rebuilding
    arrays from the prediction's tuples.
    """
    temps, illums, dls = rollout_batch(
        models,
        snapshot,
        np.array([schedule.temp_setpoints]),
        np.array([schedule.illum_setpoints]),
        cfg,
    )
    return (
        HorizonPrediction.from_row(temps[0], illums[0], dls[0]),
        float(objective_batch(dls)[0]),
        float(violation_batch(temps, illums, cfg)[0]),
    )


def solve(
    models: ModelSet,
    snapshot: StateSnapshot,
    cfg: MpcConfig,
    de: DeParams = DeParams(),
) -> MpcSolution:
    """Choose the setpoint schedule for the coming horizon.

    NOC returns the constant comfort schedule without touching the
    optimizer.  MPC1 optimizes temperatures with illuminance pinned at
    the comfort value; MPC2 optimizes both.  When no feasible schedule
    is found the least-violating one is returned with feasible false so
    the caller can decide what to apply.
    """
    validate_config(cfg)
    horizon = cfg.horizon

    if cfg.mode is ControlMode.NOC:
        schedule = ControlSchedule(
            (cfg.temp_comfort,) * horizon, (cfg.illum_comfort,) * horizon
        )
        pred, objective_value, violation = _predict(models, snapshot, schedule, cfg)
        return MpcSolution(
            schedule=schedule,
            predicted=pred,
            objective_value=objective_value,
            feasible=violation == 0.0,
            applied_setpoints=(schedule.temp_setpoints[0], schedule.illum_setpoints[0]),
        )

    mpc2 = cfg.mode is ControlMode.MPC2
    lower = np.repeat([cfg.temp_lo, cfg.illum_lo][: 1 + mpc2], horizon)
    upper = np.repeat([cfg.temp_hi, cfg.illum_hi][: 1 + mpc2], horizon)

    def split(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Temperature and illuminance setpoints of each row."""
        if mpc2:
            return pop[:, :horizon], pop[:, horizon:]
        return pop, np.full_like(pop, cfg.illum_comfort)

    def evaluate(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        temps, illums, dls = rollout_batch(models, snapshot, *split(pop), cfg)
        return objective_batch(dls), violation_batch(temps, illums, cfg)

    # params by keyword: the perfbench de_minimize hook reads it from there.
    result: DeResult = de_minimize(evaluate, lower, upper, params=de)

    temp_sets, illum_sets = split(result.best_vector[None, :])
    schedule = ControlSchedule(tuple(temp_sets[0]), tuple(illum_sets[0]))
    pred, objective_value, _ = _predict(models, snapshot, schedule, cfg)
    return MpcSolution(
        schedule=schedule,
        predicted=pred,
        objective_value=objective_value,
        feasible=result.feasible,
        applied_setpoints=(schedule.temp_setpoints[0], schedule.illum_setpoints[0]),
        generations_used=result.generations_used,
        evaluations=result.evaluations,
        stop_reason=result.stop_reason,
    )


@dataclass(frozen=True)
class _StepRecord:
    dl_means: tuple[float, ...]
    dl_sds: tuple[float, ...]
    temp: float
    illum: float


class MeasurementLog:
    """Step-indexed record of averaged measurements feeding the controller.

    Only the steps snapshot() can read are kept: the latest one and, if
    recorded, the step right before it.  So the log stays bounded however
    long it runs.
    """

    def __init__(self):
        self._records: dict[int, _StepRecord] = {}
        self._latest: int | None = None
        self._num_workers: int | None = None

    @property
    def latest_index(self) -> int | None:
        return self._latest

    def __len__(self) -> int:
        return len(self._records)

    def record_step(self, step_index: int, dl_means, dl_sds, temp: float, illum: float):
        """Append one completed interval's averaged measurements."""
        dl_means = tuple(float(x) for x in dl_means)
        dl_sds = tuple(float(x) for x in dl_sds)
        if len(dl_means) != len(dl_sds):
            raise ValueError("dl_means and dl_sds must have matching lengths")
        if not dl_means:
            raise ValueError("a step record needs at least one worker")
        if self._num_workers is None:
            self._num_workers = len(dl_means)
        elif len(dl_means) != self._num_workers:
            raise ValueError(
                f"worker count changed from {self._num_workers} to {len(dl_means)}"
            )
        if self._latest is not None and step_index <= self._latest:
            raise ValueError(
                f"step indices must advance strictly: {step_index} after {self._latest}"
            )
        previous = self._records.get(step_index - 1)
        self._records = {} if previous is None else {step_index - 1: previous}
        self._records[step_index] = _StepRecord(dl_means, dl_sds, float(temp), float(illum))
        self._latest = step_index

    def snapshot(self) -> StateSnapshot:
        """Measured state from the two most recent (consecutive) steps."""
        if self._latest is None or (self._latest - 1) not in self._records:
            raise ValueError(
                "history must contain the two most recent consecutive steps"
            )
        cur = self._records[self._latest]
        prev = self._records[self._latest - 1]
        workers = tuple(
            WorkerState.from_history(d_cur, d_prev, effort)
            for d_cur, d_prev, effort in zip(cur.dl_means, prev.dl_means, cur.dl_sds)
        )
        return StateSnapshot(
            workers=workers, temp_current=cur.temp, illum_current=cur.illum
        )


def step_controller(
    models: ModelSet,
    history: MeasurementLog,
    cfg: MpcConfig,
    de: DeParams,
    clock: int,
) -> MpcSolution:
    """Solve interval `clock`, seeding the optimizer as base seed + clock.

    The interval needs measurements through step clock - 1; older data
    raises StaleDataError so the caller can hold its previous setpoints.
    """
    latest = history.latest_index
    if latest is None or latest < clock - 1:
        raise StaleDataError(latest, clock)
    try:
        snapshot = history.snapshot()
    except ValueError as err:
        # Fresh latest step but the one before it is missing (data gap):
        # the increment features are unavailable, so treat it as stale.
        raise StaleDataError(latest, clock) from err
    de_interval = replace(de, seed=de.seed + clock)
    return solve(models, snapshot, cfg, de_interval)


class Controller:
    """Closed-loop wrapper: owns the log and holds setpoints on stale data."""

    def __init__(self, models: ModelSet, cfg: MpcConfig, de: DeParams = DeParams()):
        validate_config(cfg)
        self.models = models
        self.cfg = cfg
        self.de = de
        self.log = MeasurementLog()
        self.last_applied: tuple[float, float] = (cfg.temp_comfort, cfg.illum_comfort)

    def observe(self, step_index: int, dl_means, dl_sds, temp: float, illum: float):
        self.log.record_step(step_index, dl_means, dl_sds, temp, illum)

    def decide(self, clock: int) -> tuple[tuple[float, float], MpcSolution | None, str]:
        """Setpoints for interval `clock` plus the solution and a status.

        Status is "ok" on a fresh solve and "stale" when the log lags the
        clock, in which case the previous setpoints are held.
        """
        try:
            solution = step_controller(self.models, self.log, self.cfg, self.de, clock)
        except StaleDataError:
            return self.last_applied, None, "stale"
        self.last_applied = solution.applied_setpoints
        return self.last_applied, solution, "ok"


__all__ = [
    "StaleDataError",
    "MpcSolution",
    "solve",
    "MeasurementLog",
    "step_controller",
    "Controller",
]
