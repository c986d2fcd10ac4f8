"""Closed-loop simulator for evaluating control arms on a synthetic room.

The plant lives in the same parametric families as the controller's
models (optionally with different coefficients), plus Gaussian
disturbances, a per-step drowsiness drift profile, and an optional pull
toward outdoor temperature.  Noise streams are derived from (seed, step)
only, so paired runs of different control arms see identical
disturbances: differences in outcomes are attributable to control alone.

Within each step the plant draws a handful of instant drowsiness
readings; their standard deviation is the realized effort, which feeds
the true drowsiness model for that same step.  The step's reported DL is
the model's (disturbed, clamped) step average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (
    AmiModel,
    ControlMode,
    DL_MAX,
    DL_MIN,
    DlModel,
    ILLUM_RANGE,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    TEMP_RANGE,
    WorkerState,
    clamp_dl,
    increments,
    require_bytes,
    require_finite,
    require_in_range,
)
from .identify import TelemetryTable
from .models import comfort_penalty, predict_ami, predict_dl, predict_idt
from .mpc import Controller, require_search_fits
from .optimizer import DeParams

ARMS = (ControlMode.NOC, ControlMode.MPC1, ControlMode.MPC2)


@dataclass(frozen=True)
class PlantConfig:
    """True room + worker dynamics and their disturbance magnitudes."""

    true_idt: IdtModel
    true_ami: AmiModel
    true_dl: DlModel
    idt_noise_sd: float = 0.05
    ami_noise_sd: float = 5.0
    dl_noise_sd: float = 0.05
    effort_sd: float = 0.05
    substeps: int = 4
    drift: tuple[float, ...] = ()
    ambient_pull: float = 0.0
    ambient_temp: float = 30.0
    init_temp: float = 26.0
    init_illum: float = 600.0
    init_dl: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "drift", tuple(float(x) for x in self.drift))
        require_finite(self)
        for name in ("idt_noise_sd", "ami_noise_sd", "dl_noise_sd", "effort_sd", "ambient_pull"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if not DL_MIN <= self.init_dl <= DL_MAX:
            raise ValueError(f"init_dl must lie on the 1-5 scale, got {self.init_dl}")
        for name, bounds in (("init_temp", TEMP_RANGE), ("ambient_temp", TEMP_RANGE),
                             ("init_illum", ILLUM_RANGE)):
            require_in_range(name, getattr(self, name), bounds)

    def drift_at(self, step: int) -> float:
        """Drift profile value at a step; shorter profiles repeat cyclically."""
        if not self.drift:
            return 0.0
        return self.drift[step % len(self.drift)]

    def truth(self) -> ModelSet:
        return ModelSet(dl=self.true_dl, idt=self.true_idt, ami=self.true_ami)


def initial_state(plant: PlantConfig, num_workers: int) -> StateSnapshot:
    """The plant before step 0: every worker at init_dl, at rest."""
    return StateSnapshot((WorkerState(plant.init_dl),) * num_workers, plant.init_temp, plant.init_illum)


def _measured(state: StateSnapshot) -> tuple[tuple[float, ...], tuple[float, ...], float, float]:
    """What Controller.observe reads of a state after the step index: each
    worker's drowsiness and effort, then the temperature and illuminance."""
    workers = state.workers
    return (
        tuple(w.d_current for w in workers),
        tuple(w.effort for w in workers),
        state.temp_current,
        state.illum_current,
    )


class PlantOutOfRange(ValueError):
    """The simulated room left the measured range (TEMP_RANGE, ILLUM_RANGE),
    a worker's effort is not finite (the SD of jitter too large for a
    float), or a worker's drowsiness is not on the 1-5 scale: clamping
    passes a nan through, which a model whose terms overflow produces."""


def step_rng(seed: int, step: int) -> np.random.Generator:
    """Disturbance stream for one step, independent of the control arm."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, step))))


def plant_step(
    plant: PlantConfig,
    state: StateSnapshot,
    setpoints: tuple[float, float],
    seed: int,
    step: int,
    freeze_workers: bool = False,
) -> StateSnapshot:
    """Advance the room over interval step of the run seeded seed.

    The disturbances come from step_rng(seed, step) alone, in a fixed
    draw order (temperature, illuminance, then per worker: instant
    jitter, DL disturbance), and the DL drift is plant.drift_at(step).
    So a step sees the same disturbances whatever controller produced
    the setpoints.  With freeze_workers the room still evolves but each
    worker keeps its drowsiness, at rest (lunch break).  A room that
    leaves the measured range, an effort that is not finite, or a
    drowsiness of nan raises PlantOutOfRange: no snapshot could hold it.
    """
    rng = step_rng(seed, step)
    t_set, l_set = setpoints

    temp = predict_idt(plant.true_idt, state.temp_current, t_set)
    if plant.ambient_pull > 0.0:
        gap = plant.ambient_temp - temp
        temp += max(-plant.ambient_pull, min(plant.ambient_pull, gap))
    temp += rng.normal(0.0, plant.idt_noise_sd)

    illum = predict_ami(plant.true_ami, state.illum_current, l_set)
    illum += rng.normal(0.0, plant.ami_noise_sd)
    if illum < 0.0:
        illum = 0.0
    require_in_range(f"step {step}: plant temperature", temp, TEMP_RANGE, PlantOutOfRange)
    require_in_range(f"step {step}: plant illuminance", illum, ILLUM_RANGE, PlantOutOfRange)

    if freeze_workers:
        return StateSnapshot(tuple(WorkerState(w.d_current) for w in state.workers), temp, illum)

    t_plus, t_minus = increments(temp, state.temp_current)
    l_plus, l_minus = increments(illum, state.illum_current)

    drift = plant.drift_at(step)
    # Each worker's instant jitter, then its DL disturbance, worker after
    # worker: one draw of rows of substeps + 1 values, each the value that
    # drawing them one call at a time gives.  Instant readings scatter
    # around the step average; their SD is the effort and feeds the same
    # step's true model, so telemetry rows satisfy the regression exactly
    # when disturbances are off.  np.std along the rows gives each row's
    # own np.std bit for bit.
    scales = np.empty((len(state.workers), plant.substeps + 1))
    scales[:, :-1], scales[:, -1] = plant.effort_sd, plant.dl_noise_sd
    draws = rng.normal(0.0, scales)
    # A huge effort_sd overflows the jitter's SD to inf or nan, which is
    # refused below; numpy's warnings would print before the refusal.
    with np.errstate(over="ignore", invalid="ignore"):
        efforts = np.std(draws[:, :-1], axis=1).tolist()
    workers: list[WorkerState] = []
    for i, (w, effort, disturbance) in enumerate(zip(state.workers, efforts, draws[:, -1].tolist())):
        if not math.isfinite(effort):
            raise PlantOutOfRange(f"step {step}: plant effort of worker {i} {effort} is not finite")
        base = predict_dl(
            plant.true_dl, w.d_current, w.d_plus, w.d_minus,
            temp, t_plus, t_minus, illum, l_plus, l_minus, effort,
        )
        dl = clamp_dl(base + drift + disturbance)
        require_in_range(f"step {step}: plant drowsiness of worker {i}", dl, (DL_MIN, DL_MAX), PlantOutOfRange)
        workers.append(WorkerState.from_history(dl, w.d_current, effort))
    return StateSnapshot(tuple(workers), temp, illum)


def require_draws_fit(substeps: int, workers: int) -> None:
    """Raise ConfigError when one plant_step would allocate more than
    domain.BYTES_CEILING bytes: three float arrays of workers x
    (substeps + 1), the draws, their scales and np.std's deviations.
    plant_step draws every worker's jitter at once, so a config that
    needs more is refused where it is built."""
    require_bytes(f"a plant step of {substeps} substeps for {workers} worker(s) draws", 24 * workers * (substeps + 1))


def trace_nbytes(steps: int, workers: int) -> int:
    """Bytes the trace of a run of steps steps for workers workers holds,
    at most: 384 per step for its TraceStep, the record's values and its
    slot in the trace, 80 per step and worker for a drowsiness and an
    effort with their tuple slots and the metrics' arrays of them, and
    4 KB for the trace's own objects.  On CPython 3.11 the first two are
    about 180 and 64: TraceStep has slots, so a step keeps no instance
    dict.  run_scenario keeps every step's record, so a config whose trace
    needs more than domain.BYTES_CEILING is refused where it is built.
    Five workers over a 28-step day keep a trace of about 26 KB."""
    return steps * (384 + 80 * workers) + 4096


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one closed-loop run needs.  The controller uses
    controller_models when they are given, else the plant's own models."""

    steps: int
    seed: int
    plant: PlantConfig
    mpc_cfg: MpcConfig
    de: DeParams = DeParams()
    controller_models: ModelSet | None = None
    lunch_start: int | None = None
    lunch_steps: int = 4

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.lunch_start is not None and self.lunch_start < 0:
            raise ValueError(f"lunch_start must be >= 0, got {self.lunch_start}")
        if self.lunch_steps < 0:
            raise ValueError(f"lunch_steps must be >= 0, got {self.lunch_steps}")
        require_search_fits(self.mpc_cfg, self.de)
        workers = self.mpc_cfg.num_workers
        require_draws_fit(self.plant.substeps, workers)
        require_bytes(f"a run of {self.steps} steps for {workers} worker(s) keeps a trace of",
                      trace_nbytes(self.steps, workers))


# The statuses run_scenario records; only "ok" steps ran a solve.
TRACE_STATUSES = ("ok", "stale", "error", "lunch")


@dataclass(frozen=True, slots=True)
class TraceStep:
    step: int
    temp_set: float
    illum_set: float
    temp: float
    illum: float
    penalty: float
    feasible: bool | None  # None on a step without a solve (lunch, error, stale)
    status: str
    dls: tuple[float, ...]
    efforts: tuple[float, ...]


@dataclass(frozen=True)
class SimTrace:
    mode: ControlMode
    seed: int
    num_workers: int
    penalty_cap: float
    temp_comfort: float
    illum_comfort: float
    steps: tuple[TraceStep, ...]

    def __post_init__(self):
        for step in self.steps:
            if not len(step.dls) == len(step.efforts) == self.num_workers:
                raise ValueError(
                    f"step {step.step}: {len(step.dls)} dls and {len(step.efforts)} efforts "
                    f"for {self.num_workers} workers"
                )


@dataclass(frozen=True)
class Metrics:
    mean_dl: float
    comfort_violation_rate: float
    mean_abs_temp_dev: float
    mean_abs_illum_dev: float
    setpoint_change_count: int


def compute_metrics(trace: SimTrace) -> Metrics:
    dls = [d for step in trace.steps for d in step.dls]
    violations = sum(1 for step in trace.steps if step.penalty > trace.penalty_cap)
    changes = sum(
        1
        for prev, cur in zip(trace.steps, trace.steps[1:])
        if (cur.temp_set, cur.illum_set) != (prev.temp_set, prev.illum_set)
    )
    return Metrics(
        mean_dl=float(np.mean(dls)),
        comfort_violation_rate=violations / len(trace.steps),
        mean_abs_temp_dev=float(
            np.mean([abs(s.temp - trace.temp_comfort) for s in trace.steps])
        ),
        mean_abs_illum_dev=float(
            np.mean([abs(s.illum - trace.illum_comfort) for s in trace.steps])
        ),
        setpoint_change_count=changes,
    )


def _in_lunch(sc: ScenarioConfig, step: int) -> bool:
    return (
        sc.lunch_start is not None
        and sc.lunch_start <= step < sc.lunch_start + sc.lunch_steps
    )


def run_scenario(sc: ScenarioConfig) -> tuple[SimTrace, Metrics]:
    """Simulate one working period under the configured control arm.

    The controller history is seeded with two synthetic pre-run steps at
    the initial conditions, so control decisions start at step 0.
    Lunch steps hold the previous setpoints (Controller.hold).  A step
    that takes the room out of the measured range raises PlantOutOfRange.
    """
    plant = sc.plant
    cfg = sc.mpc_cfg
    workers = cfg.num_workers

    models = plant.truth() if sc.controller_models is None else sc.controller_models
    ctl = Controller(models, cfg, sc.de)
    state = initial_state(plant, workers)
    for pre_step in (-2, -1):
        ctl.observe(pre_step, *_measured(state))

    records: list[TraceStep] = []
    for t in range(sc.steps):
        lunch = _in_lunch(sc, t)
        decision = ctl.hold("lunch") if lunch else ctl.decide(t)

        state = plant_step(plant, state, decision.setpoints, sc.seed, t, freeze_workers=lunch)
        dls, efforts, temp, illum = measured = _measured(state)
        ctl.observe(t, *measured)
        records.append(
            TraceStep(
                step=t,
                temp_set=decision.setpoints[0],
                illum_set=decision.setpoints[1],
                temp=temp,
                illum=illum,
                penalty=comfort_penalty(temp, illum, cfg),
                feasible=decision.feasible,
                status=decision.status,
                dls=dls,
                efforts=efforts,
            )
        )

    trace = SimTrace(
        mode=cfg.mode,
        seed=sc.seed,
        num_workers=workers,
        penalty_cap=cfg.penalty_cap,
        temp_comfort=cfg.temp_comfort,
        illum_comfort=cfg.illum_comfort,
        steps=tuple(records),
    )
    return trace, compute_metrics(trace)


def run_open_loop(
    plant: PlantConfig,
    num_workers: int,
    setpoints: list[tuple[float, float]],
    seed: int,
) -> TelemetryTable:
    """Drive the plant with a fixed setpoint sequence and log telemetry.

    This is the identification data collector: sweep the setpoints over
    their ranges and fit models from the returned table.  A step that
    takes the room out of the measured range raises PlantOutOfRange, and
    a step whose draws are too large (require_draws_fit) ConfigError.
    """
    if not setpoints:
        raise ValueError("setpoint sequence must not be empty")
    require_draws_fit(plant.substeps, num_workers)
    state = initial_state(plant, num_workers)
    workers = [f"w{i}" for i in range(num_workers)]
    step, worker_id, dl, effort, temp, illum, temp_set, illum_set = ([] for _ in range(8))
    for t, pair in enumerate(setpoints):
        state = plant_step(plant, state, pair, seed, t)
        dls, efforts, room_temp, room_illum = _measured(state)
        step += [t] * num_workers
        worker_id += workers
        dl += dls
        effort += efforts
        temp += [room_temp] * num_workers
        illum += [room_illum] * num_workers
        temp_set += [pair[0]] * num_workers
        illum_set += [pair[1]] * num_workers
    return TelemetryTable(step, worker_id, dl, effort, temp, illum, temp_set, illum_set)


@dataclass
class ArmComparison:
    """Each arm's run metrics by seed, in the order the runs were added.
    Two arms' runs pair on equal seeds, which saw the same disturbances."""

    runs: dict[str, dict[int, Metrics]] = field(default_factory=dict)

    def add(self, arm: str, seed: int, metrics: Metrics) -> None:
        arm_runs = self.runs.setdefault(arm, {})
        if seed in arm_runs:
            raise ValueError(f"arm {arm} already has a run for seed {seed}")
        arm_runs[seed] = metrics

    @property
    def metrics(self) -> dict[str, tuple[Metrics, ...]]:
        return {arm: tuple(arm_runs.values()) for arm, arm_runs in self.runs.items()}

    def mean_of(self, arm: str, attribute: str) -> float:
        return float(np.mean([getattr(m, attribute) for m in self.runs[arm].values()]))

    def paired(self, arm_a: str, arm_b: str) -> bool:
        """Whether the two arms ran the same seeds."""
        return self.runs[arm_a].keys() == self.runs[arm_b].keys()

    def paired_delta(self, arm_a: str, arm_b: str, attribute: str = "mean_dl"):
        """Per-seed differences attribute(arm_a) - attribute(arm_b), by ascending seed."""
        a, b = self.runs[arm_a], self.runs[arm_b]
        if not self.paired(arm_a, arm_b):
            raise ValueError(f"arms {arm_a} and {arm_b} ran different seeds: {sorted(a)} and {sorted(b)}")
        return tuple(getattr(a[seed], attribute) - getattr(b[seed], attribute) for seed in sorted(a))


def scenario_for_arm(base: ScenarioConfig, mode: ControlMode, seed: int) -> ScenarioConfig:
    return replace(base, seed=seed, mpc_cfg=replace(base.mpc_cfg, mode=mode))


def compare_arms(base: ScenarioConfig, seeds) -> ArmComparison:
    """Run every control arm over the same seeds with shared disturbances.

    The seeds are checked before any run: each may appear once, and at
    least two are needed.
    """
    seeds = tuple(int(s) for s in seeds)
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"seed {seed} is given more than once; each arm runs a seed once")
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds for a comparison, got {len(seeds)}")
    comparison = ArmComparison()
    for mode in ARMS:
        for seed in seeds:
            _, metrics = run_scenario(scenario_for_arm(base, mode, seed))
            comparison.add(mode.value, seed, metrics)
    return comparison


__all__ = [
    "ARMS",
    "PlantConfig",
    "initial_state",
    "PlantOutOfRange",
    "step_rng",
    "plant_step",
    "ScenarioConfig",
    "trace_nbytes",
    "TRACE_STATUSES",
    "TraceStep",
    "SimTrace",
    "Metrics",
    "compute_metrics",
    "run_scenario",
    "run_open_loop",
    "ArmComparison",
    "scenario_for_arm",
    "compare_arms",
]
