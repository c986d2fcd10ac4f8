"""Receding-horizon control built on the prediction models.

solve() turns one measured state into a setpoint schedule.  NOC simply
holds the comfort point and scores it with the plain rollout; the
optimizing modes search the setpoint box by differential evolution, scoring each
generation's objective and constraint from one batched rollout of the
whole population, and report the search's own scores of the schedule
they pick.
Controller builds each interval's Decision for the simulator and the
daemon.  It keeps the last two measured steps itself, holds the last
applied setpoints while that history lags the clock or a solve fails,
and otherwise solves seeded as base seed + clock.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .domain import (
    ConfigError,
    ControlMode,
    ControlSchedule,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
)
from .models import HorizonKernel, constraint_violation, objective, rollout
from .optimizer import (
    BadBounds,
    DeParams,
    DeResult,
    NonFiniteObjective,
    checked_scores,
    de_minimize,
    draw_block_bytes,
)

# The most memory one search may ask for: its kernel's terms buffer plus
# one block of DE draws.  np.empty of more may succeed and the first write
# then meet the out-of-memory killer, not a MemoryError, so a config that
# asks for more is refused where it is built.  A 24-worker case-2 search
# needs about 0.38 MB.
SEARCH_BYTES_CEILING = 2**30


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
        f, v = checked_scores(row, [objective(pred)], [constraint_violation(pred, cfg)])
        return MpcSolution(schedule, float(f[0]), float(v[0]))

    mpc2 = cfg.mode is ControlMode.MPC2
    lower = np.repeat([cfg.temp_lo, cfg.illum_lo][: 1 + mpc2], horizon)
    upper = np.repeat([cfg.temp_hi, cfg.illum_hi][: 1 + mpc2], horizon)
    rows = de.population_for(lower.size)
    kernel = HorizonKernel(models, snapshot, cfg, rows)
    # MPC1's illuminance schedule, the same in every row.
    pinned = np.full((rows, horizon), cfg.illum_comfort)

    def split(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Temperature and illuminance setpoints of each row."""
        if mpc2:
            return pop[:, :horizon], pop[:, horizon:]
        return pop, pinned

    def evaluate(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return kernel.evaluate(*split(pop))

    # params by keyword: the perfbench de_minimize hook reads it from there.
    result: DeResult = de_minimize(evaluate, lower, upper, params=de)
    temp_sets, illum_sets = split(result.best_vector[None, :])
    schedule = ControlSchedule(tuple(temp_sets[0]), tuple(illum_sets[0]))
    search = (result.generations_used, result.evaluations, result.stop_reason)
    return MpcSolution(schedule, result.best_objective, result.best_violation, *search)


def search_bytes(cfg: MpcConfig, de: DeParams) -> tuple[int, int]:
    """Bytes of the kernel's terms buffer and of one DE draw block in a
    solve under cfg and de.  NOC runs no search and needs neither."""
    if cfg.mode is ControlMode.NOC:
        return 0, 0
    dim = cfg.horizon * (2 if cfg.mode is ControlMode.MPC2 else 1)
    rows = de.population_for(dim)
    return HorizonKernel.terms_nbytes(cfg.horizon, cfg.num_workers, rows), draw_block_bytes(rows, dim)


def require_search_fits(cfg: MpcConfig, de: DeParams) -> None:
    """Raise ConfigError when a solve under cfg and de needs more than
    SEARCH_BYTES_CEILING bytes (see search_bytes)."""
    terms, block = search_bytes(cfg, de)
    if terms + block > SEARCH_BYTES_CEILING:
        raise ConfigError(
            f"the search needs {terms} bytes of kernel terms and {block} bytes per DE draw "
            f"block, {terms + block} in all, over the ceiling of {SEARCH_BYTES_CEILING} bytes"
        )


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

    It keeps the measured history a snapshot reads: its latest step and,
    only when that step directly follows it, the step before.  So its
    state stays bounded however long it runs.  It also keeps the last
    applied setpoints, which it holds when it cannot solve.  Its cfg, an
    MpcConfig, checked itself when it was built.
    """

    def __init__(self, models: ModelSet, cfg: MpcConfig, de: DeParams = DeParams()):
        self.models = models
        self.cfg = cfg
        self.de = de
        self.last_applied: tuple[float, float] = (cfg.temp_comfort, cfg.illum_comfort)
        # Each step as (step_index, dl_means, dl_sds, temp, illum).
        self._latest: tuple | None = None
        self._previous: tuple | None = None

    def observe(self, step_index: int, dl_means, dl_sds, temp: float, illum: float):
        """Record one completed interval's averaged measurements."""
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
        self._previous = latest if latest is not None and latest[0] == step_index - 1 else None
        self._latest = (step_index, dl_means, dl_sds, float(temp), float(illum))

    def restart_history(self) -> None:
        """Forget the observed steps; the last applied setpoints stay."""
        self._latest = self._previous = None

    def snapshot(self) -> StateSnapshot:
        """Measured state from the two most recent (consecutive) steps."""
        if self._previous is None:
            raise ValueError("history must contain the two most recent consecutive steps")
        _, dl_means, dl_sds, temp, illum = self._latest
        prev_means = self._previous[1]
        workers = tuple(
            WorkerState.from_history(d_cur, d_prev, effort)
            for d_cur, d_prev, effort in zip(dl_means, prev_means, dl_sds)
        )
        return StateSnapshot(workers=workers, temp_current=temp, illum_current=illum)

    def hold(self, status: str) -> Decision:
        """Keep the last applied setpoints for this interval, unsolved."""
        return Decision(self.last_applied, None, status)

    def decide(self, clock: int) -> Decision:
        """The decision for interval `clock`.

        The interval needs the two consecutive steps ending at clock - 1 or
        later, since the increment features are formed from both.  Then
        it is solved with the optimizer seeded as base seed + clock: "ok",
        or "error" (setpoints held) on NonFiniteObjective or BadBounds.  A
        history that lags the clock or has a gap before its latest step
        holds the setpoints as "stale".
        """
        if self._previous is None or self._latest[0] < clock - 1:
            return self.hold("stale")
        de_interval = replace(self.de, seed=self.de.seed + clock)
        try:
            solution = solve(self.models, self.snapshot(), self.cfg, de_interval)
        except (NonFiniteObjective, BadBounds):
            return self.hold("error")
        schedule = solution.schedule
        self.last_applied = schedule.temp_setpoints[0], schedule.illum_setpoints[0]
        return Decision(self.last_applied, solution, "ok")


__all__ = [
    "MpcSolution",
    "Decision",
    "SEARCH_BYTES_CEILING",
    "search_bytes",
    "require_search_fits",
    "solve",
    "Controller",
]
