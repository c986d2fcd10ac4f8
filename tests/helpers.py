"""Builders that only the tests use: the path of a shipped config, the
case-1 model set, whether a kernel proves comfort in its box, solve
inputs from which a kernel keeps both its skippable clamps, telemetry tables from rows and back,
telemetry and daemon input recast from a simulation trace, a drift
profile for a working day, a solve that fails on one interval, and a
reference for the daemon's windows."""

import json
from collections import Counter
from datetime import datetime, timedelta
from importlib.resources import files
from typing import NamedTuple

import alertmpc.mpc as mpc_module
from alertmpc.cli import parse_scenario_config
from alertmpc.daemon import _parse_stream_record
from alertmpc.domain import AmiModel, DlModel, IdtModel, ModelSet, MpcConfig
from alertmpc.formats import write_model_set
from alertmpc.models import HorizonKernel
from alertmpc.identify import VALUE_COLUMNS, TelemetryTable
from alertmpc.sim import PlantConfig, SimTrace


def shipped_config_path(name: str) -> str:
    """Filesystem path of a packaged configuration file."""
    return str(files("alertmpc").joinpath("configs", name))


# The shipped case-1 room's true models, the set most tests predict with.
CASE1_MODELS = parse_scenario_config(shipped_config_path("case1_mpc2.cfg")).plant.truth()


def comfort_proved(models: ModelSet, snapshot, cfg: MpcConfig) -> bool:
    """Whether a kernel told cfg's setpoint box proves that no schedule in
    it breaks the comfort cap from snapshot."""
    kernel = HorizonKernel(models, snapshot, cfg, 2)
    kernel.restrict_to_box()
    return kernel.proved


# Models and a snapshot of case 2's six workers from which a solve in the
# case-2 box keeps both clamps that a kernel can skip, and each binds for
# some schedule in the box: the room goes dark after two steps at the
# lowest illuminance setpoint, and warmth lifts the worker at DL 4.9 past
# the 1-5 scale.  A schedule at the highest illuminance keeps comfort, so
# the solve is feasible.  CI's warnings step solves them.
KEPT_CLAMPS_MODELS = ModelSet(
    dl=DlModel(intercept=0.3, coef={
        "d_prev": 0.95, "d_plus_prev": 0.08, "d_minus_prev": -0.04,
        "temp": 0.02, "temp_plus": 0.05, "temp_minus": -0.18,
        "illum": -0.0004, "illum_plus": -0.0011, "illum_minus": 0.0006, "effort": -0.06}),
    idt=IdtModel(k_up=0.3, k_down=0.45),
    ami=AmiModel(theta0=-600.0, theta_prev=0.1, theta_set=1.25),
)
KEPT_CLAMPS_SNAPSHOT = ["worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx"] + [
    f"w{i:02d},{dl},{d_plus},0,0.1,26.2,580" for i, (dl, d_plus) in enumerate(
        [(2.2, 0.1), (2.3, 0.1), (2.4, 0.1), (2.5, 0.1), (2.6, 0.1), (4.9, 0.2)])]


def write_kept_clamps_inputs(directory) -> tuple[str, str]:
    """Write KEPT_CLAMPS_MODELS and KEPT_CLAMPS_SNAPSHOT into directory as
    kept_clamps_model.json and kept_clamps_snapshot.csv; return the two
    paths."""
    model, snapshot = f"{directory}/kept_clamps_model.json", f"{directory}/kept_clamps_snapshot.csv"
    write_model_set(model, KEPT_CLAMPS_MODELS)
    with open(snapshot, "w") as fh:
        fh.write("\n".join(KEPT_CLAMPS_SNAPSHOT) + "\n")
    return model, snapshot


class Row(NamedTuple):
    """One telemetry row, fields in TelemetryTable's column order."""

    step_index: int
    worker_id: str
    dl: float
    effort: float
    temp: float
    illum: float
    temp_set: float
    illum_set: float


def table_of(rows) -> TelemetryTable:
    """The table whose rows are rows: each field becomes a column."""
    rows = tuple(rows)
    return TelemetryTable(*([row[i] for row in rows] for i in range(len(Row._fields))))


def rows_of(table: TelemetryTable) -> tuple[Row, ...]:
    """The table's rows, each value as the Python scalar its column holds."""
    workers = [table.worker_ids[code] for code in table.worker.tolist()]
    values = (getattr(table, name).tolist() for name in VALUE_COLUMNS)
    return tuple(map(Row, table.step.tolist(), workers, *values))


def trace_to_telemetry(trace: SimTrace) -> TelemetryTable:
    """Recast a closed-loop trace as identification telemetry."""
    rows = [
        Row(
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
    return table_of(rows)


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


def solve_failing_at(seed: int, error: Exception):
    """A stand-in for alertmpc.mpc.solve that raises error on the solve
    whose optimizer seed is seed, which Controller.decide sets to base
    seed + clock, and otherwise solves."""
    real_solve = mpc_module.solve

    def solve(models, snapshot, cfg, de):
        if de.seed == seed:
            raise error
        return real_solve(models, snapshot, cfg, de)

    return solve


def daemon_windows_by_number(lines, step_hours: float) -> tuple[dict, list[tuple[str, str]]]:
    """run_daemon's stats and each record's ("t", "status") for a stream
    of one worker under NOC, with every line's window worked out by its
    number: w = (t - origin) // step, origin the first record's t.

    A line that does not parse, or whose t cannot be subtracted from the
    origin (naive against offset), is malformed; one whose window is
    before the latest window seen is late; one whose window would start
    past year 9999 is malformed too.  Every window before the latest
    is closed: window 0 as "warmup", a later one as "ok" when it and the
    window before it hold records (the two-step history), else "stale".
    """
    window = timedelta(hours=step_hours)
    origin = None
    current = 0
    records = Counter()  # window: records in it
    stats = {"records_in": 0, "records_out": 0, "malformed": 0, "late": 0, "errors": 0}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        stats["records_in"] += 1
        try:
            when = _parse_stream_record(line)[0]
            if origin is None:
                origin = when
            w = (when - origin) // window
        except (KeyError, ValueError, TypeError):
            stats["malformed"] += 1
            continue
        if w < current:
            stats["late"] += 1
            continue
        try:
            origin + w * window
        except OverflowError:
            stats["malformed"] += 1
            continue
        current = w
        records[w] += 1
    stats["records_out"] = current
    closed = [
        (
            (origin + (w + 1) * window).isoformat(),
            "warmup" if w == 0 else "ok" if records[w] and records[w - 1] else "stale",
        )
        for w in range(current)
    ]
    return stats, closed
