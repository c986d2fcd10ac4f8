"""Drowsiness-minimizing setpoint control for office temperature and lighting.

The package predicts worker drowsiness from the indoor environment,
searches the setpoint box for the schedule with the lowest mean predicted
drowsiness subject to a comfort constraint, and ships the surrounding
tooling: model identification from telemetry, a reproducible closed-loop
simulator, and a CLI.
"""

__version__ = "0.1.0"

from .domain import (
    AmiModel,
    ControlMode,
    ControlSchedule,
    DlModel,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
    validate_config,
)
from .identify import (
    TelemetryRow,
    TelemetryTable,
    fit_ami_model,
    fit_dl_model,
    fit_idt_coeffs,
)
from .models import (
    HorizonPrediction,
    comfort_penalty,
    constraint_violation,
    objective,
    rollout,
)
from .mpc import Controller, MeasurementLog, MpcSolution, solve, step_controller
from .optimizer import DeParams, DeResult, de_minimize
from .sim import (
    Metrics,
    PlantConfig,
    ScenarioConfig,
    SimTrace,
    compare_arms,
    run_open_loop,
    run_scenario,
)

__all__ = [
    "__version__",
    "AmiModel",
    "ControlMode",
    "ControlSchedule",
    "DlModel",
    "IdtModel",
    "ModelSet",
    "MpcConfig",
    "StateSnapshot",
    "WorkerState",
    "validate_config",
    "TelemetryRow",
    "TelemetryTable",
    "fit_ami_model",
    "fit_dl_model",
    "fit_idt_coeffs",
    "HorizonPrediction",
    "comfort_penalty",
    "constraint_violation",
    "objective",
    "rollout",
    "Controller",
    "MeasurementLog",
    "MpcSolution",
    "solve",
    "step_controller",
    "DeParams",
    "DeResult",
    "de_minimize",
    "Metrics",
    "PlantConfig",
    "ScenarioConfig",
    "SimTrace",
    "compare_arms",
    "run_open_loop",
    "run_scenario",
]
