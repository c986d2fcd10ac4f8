"""Receding-horizon control built on the prediction models.

solve() turns one measured state into a setpoint schedule.  NOC simply
holds the comfort point and scores it with the plain rollout; the
optimizing modes search the setpoint box by differential evolution.  A
search's callback is its HorizonKernel: solve builds it, tells it the
box once, and reports the search's own scores of the schedule it picks.
How a candidate is scored, and when comfort is proved, is the kernel's.
Controller builds each interval's Decision for the simulator and the
daemon.  It keeps the snapshot its two latest measured steps form,
holds the last applied setpoints while it has none or lags the clock,
or when a solve fails, and otherwise solves seeded as base seed + clock.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .domain import (
    ControlMode,
    ControlSchedule,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
    require_bytes,
)
from .models import HorizonKernel, constraint_violation, objective, rollout, rollout_nbytes
from .optimizer import (
    DeParams,
    DeResult,
    NonFiniteObjective,
    checked_scores,
    de_minimize,
    search_nbytes,
)

@dataclass(frozen=True)
class MpcSolution:
    """One solve's schedule and its predicted scores.

    objective_value and violation are the schedule's predicted mean
    drowsiness and constraint violation, as objective and
    constraint_violation give them for rollout's prediction.
    generations_used, evaluations and stop_reason are the optimizer's (see
    DeResult); NOC runs no search and reports 0, 0 and None.
    """

    schedule: ControlSchedule
    objective_value: float
    violation: float
    generations_used: int = 0
    evaluations: int = 0
    stop_reason: str | None = None

    @property
    def feasible(self) -> bool:
        """True exactly when the schedule's violation is zero."""
        return self.violation == 0.0


def solve(
    models: ModelSet,
    snapshot: StateSnapshot,
    cfg: MpcConfig,
    de: DeParams = DeParams(),
) -> MpcSolution:
    """Choose the setpoint schedule for the coming horizon.

    NOC scores the constant comfort schedule without a search, raising
    NonFiniteObjective on a non-finite score as the search does.  MPC1
    optimizes temperatures with illuminance pinned at the comfort value;
    MPC2 optimizes both.  When no feasible schedule is found the
    least-violating one is returned with feasible false for the caller.
    cfg is not checked again: an MpcConfig is valid whenever it exists.
    """
    horizon = cfg.horizon

    if cfg.mode is ControlMode.NOC:
        schedule = ControlSchedule((cfg.temp_comfort,) * horizon, (cfg.illum_comfort,) * horizon)
        pred = rollout(models, snapshot, schedule, cfg)
        row = np.array([schedule.temp_setpoints + schedule.illum_setpoints])
        f, v = checked_scores(row, [objective(pred)], [constraint_violation(pred, cfg)], np.empty((2, 1), dtype=bool))
        return MpcSolution(schedule, float(f[0]), float(v[0]))

    mpc2 = cfg.mode is ControlMode.MPC2
    lower = np.array([cfg.temp_lo] * horizon + [cfg.illum_lo] * horizon * mpc2)
    upper = np.array([cfg.temp_hi] * horizon + [cfg.illum_hi] * horizon * mpc2)
    # Huge coefficients or comfort weights overflow the kernel's sums, to
    # an infinity or a NaN the search refuses as NonFiniteObjective, or to
    # a violation the kernel saturates.  numpy's warnings on the way would
    # print before the refusal.  The error state is set once per solve,
    # not per kernel call: setting it costs about as much as five ufunc
    # calls.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = HorizonKernel(models, snapshot, cfg, de.population_for(lower.size))
        kernel.restrict_to_box()  # DE scores only schedules inside the box
        # params by keyword: the perfbench de_minimize hook reads it from there.
        result: DeResult = de_minimize(kernel.evaluate, lower, upper, params=de)
    best = result.best_vector.tolist()
    illum_sets = best[horizon:] if mpc2 else [cfg.illum_comfort] * horizon
    schedule = ControlSchedule(best[:horizon], illum_sets)
    search = (result.generations_used, result.evaluations, result.stop_reason)
    return MpcSolution(schedule, result.best_objective, result.best_violation, *search)


def search_bytes(cfg: MpcConfig, de: DeParams) -> int:
    """Bytes a solve under cfg and de allocates, at most: its kernel's and
    its search's.  NOC runs no search; its count is the rollout that
    scores its one schedule, and de does not change it.  A 24-worker
    case-2 search needs about 0.7 MB."""
    if cfg.mode is ControlMode.NOC:
        return rollout_nbytes(cfg.horizon, cfg.num_workers)
    dim = cfg.horizon * (2 if cfg.mode is ControlMode.MPC2 else 1)
    rows = de.population_for(dim)
    return HorizonKernel.nbytes(cfg.horizon, cfg.num_workers, rows) + search_nbytes(rows, dim)


def require_search_fits(cfg: MpcConfig, de: DeParams) -> None:
    """Raise ConfigError when a solve under cfg and de needs more than
    domain.BYTES_CEILING bytes (see search_bytes)."""
    if cfg.mode is ControlMode.NOC:
        what, population = "solve", ""
    else:
        what, population = "search", f" with population_size {de.population_size or 'auto'}"
    require_bytes(f"an {cfg.mode.value} {what} over horizon {cfg.horizon} for {cfg.num_workers} worker(s)"
                  f"{population} needs", search_bytes(cfg, de))


class Decision(NamedTuple):
    """One interval's applied setpoints, its solution (None unless status
    is "ok") and its status; feasible is None without a solution."""

    setpoints: tuple[float, float]
    solution: MpcSolution | None
    status: str

    @property
    def feasible(self) -> bool | None:
        return None if self.solution is None else self.solution.feasible


class Controller:
    """Decides each interval of the closed loop.

    It keeps its latest measured step's index and drowsiness, and as
    snapshot the state that step forms with the step before it, None
    when that step was not observed.  So its state stays bounded however
    long it runs.  It also keeps the last applied setpoints, which it
    holds when it cannot solve.  Its cfg, an MpcConfig, checked itself
    when it was built.
    """

    def __init__(self, models: ModelSet, cfg: MpcConfig, de: DeParams = DeParams()):
        self.models = models
        self.cfg = cfg
        self.de = de
        self.last_applied: tuple[float, float] = (cfg.temp_comfort, cfg.illum_comfort)
        self._latest: tuple[int, tuple[float, ...]] | None = None  # (step_index, dl_means)
        self.snapshot: StateSnapshot | None = None

    def observe(self, step_index: int, dl_means, dl_sds, temp: float, illum: float):
        """Record one completed interval's averaged measurements.

        When the step directly follows the latest one, snapshot becomes
        the state the two form, and otherwise None.  A state that
        WorkerState or StateSnapshot refuses raises their ValueError, with
        the step recorded and snapshot None.
        """
        dl_means = tuple(float(x) for x in dl_means)
        dl_sds = tuple(float(x) for x in dl_sds)
        if len(dl_means) != len(dl_sds):
            raise ValueError("dl_means and dl_sds must have matching lengths")
        # MpcConfig holds num_workers >= 1, so a record without workers fails here.
        if len(dl_means) != self.cfg.num_workers:
            raise ValueError(f"worker count {len(dl_means)} differs from num_workers {self.cfg.num_workers}")
        latest = self._latest
        if latest is not None and step_index <= latest[0]:
            raise ValueError(f"step indices must advance strictly: {step_index} after {latest[0]}")
        self._latest = (step_index, dl_means)
        self.snapshot = None
        if latest is not None and latest[0] == step_index - 1:
            workers = tuple(map(WorkerState.from_history, dl_means, latest[1], dl_sds))
            self.snapshot = StateSnapshot(workers, float(temp), float(illum))

    def restart_history(self) -> None:
        """Forget the observed steps; the last applied setpoints stay."""
        self._latest = self.snapshot = None

    def hold(self, status: str) -> Decision:
        """Keep the last applied setpoints for this interval, unsolved."""
        return Decision(self.last_applied, None, status)

    def decide(self, clock: int) -> Decision:
        """The decision for interval `clock`.

        The interval needs the two consecutive steps ending at clock - 1 or
        later, since the increment features are formed from both.  Then
        it is solved with the optimizer seeded as base seed + clock: "ok",
        or "error" (setpoints held) when a prediction is not finite, the one
        way a solve of a valid config fails.  A history that lags the clock
        or has a gap before its latest step holds the setpoints as "stale".
        """
        if self.snapshot is None or self._latest[0] < clock - 1:
            return self.hold("stale")
        de_interval = replace(self.de, seed=self.de.seed + clock)
        try:
            solution = solve(self.models, self.snapshot, self.cfg, de_interval)
        except NonFiniteObjective:
            return self.hold("error")
        schedule = solution.schedule
        self.last_applied = schedule.temp_setpoints[0], schedule.illum_setpoints[0]
        return Decision(self.last_applied, solution, "ok")


__all__ = [
    "MpcSolution",
    "Decision",
    "search_bytes",
    "require_search_fits",
    "solve",
    "Controller",
]
