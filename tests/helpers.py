"""Builders that only the tests use: telemetry and daemon input recast from
a simulation trace, and a drift profile for a working day."""

import json
from datetime import datetime, timedelta

from alertmpc.domain import MpcConfig
from alertmpc.identify import TelemetryRow, TelemetryTable
from alertmpc.sim import PlantConfig, SimTrace


def trace_to_telemetry(trace: SimTrace) -> TelemetryTable:
    """Recast a closed-loop trace as identification telemetry."""
    rows = [
        TelemetryRow(
            step_index=step.step,
            worker_id=f"w{i}",
            dl=step.dls[i],
            effort=step.efforts[i],
            temp=step.temp,
            illum=step.illum,
            temp_set=step.temp_set,
            illum_set=step.illum_set,
        )
        for step in trace.steps
        for i in range(trace.num_workers)
    ]
    return TelemetryTable(tuple(rows))


def working_day_drift(steps: int = 28, bump: float = 0.08) -> tuple[float, ...]:
    """A mild drowsiness drift peaking after the midpoint of the day."""
    profile = []
    for t in range(steps):
        if steps // 2 <= t < steps // 2 + 6:
            profile.append(bump)
        else:
            profile.append(0.0)
    return tuple(profile)


def replay_stream_lines(
    trace: SimTrace,
    plant: PlantConfig,
    cfg: MpcConfig,
    start: str = "2026-01-05T08:00:00",
) -> list[str]:
    """Recast a simulation trace as a daemon input stream.

    Two leading windows carry the initial conditions (the same synthetic
    history the simulator seeds), then each trace step becomes one window
    with a single record per worker, so window averages reproduce the
    simulator's measurements exactly.  A final marker record closes the
    last step's window.
    """
    window = timedelta(hours=cfg.step_hours)
    origin = datetime.fromisoformat(start)
    lines: list[str] = []

    def emit(w: int, worker: str, dl: float, temp: float, illum: float):
        lines.append(
            json.dumps(
                {
                    "t": (origin + w * window).isoformat(),
                    "worker": worker,
                    "dl": dl,
                    "temp_c": temp,
                    "illum_lx": illum,
                },
                sort_keys=True,
            )
        )

    for w in (0, 1):
        for i in range(trace.num_workers):
            emit(w, f"w{i}", plant.init_dl, plant.init_temp, plant.init_illum)
    for step in trace.steps:
        for i in range(trace.num_workers):
            emit(step.step + 2, f"w{i}", step.dls[i], step.temp, step.illum)
    # closes the final window; its own window never completes
    emit(len(trace.steps) + 2, "w0", plant.init_dl, plant.init_temp, plant.init_illum)
    return lines
