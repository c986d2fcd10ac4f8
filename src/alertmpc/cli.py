"""Command-line front end: identify, solve, simulate, report, daemon.

File formats are deliberately plain: CSV with a fixed header for
telemetry and traces (floats at 6 significant digits), a versioned JSON
document for model sets, INI-style ``key = value`` sections for
configuration, and newline-delimited JSON for the daemon's measurement
input and setpoint output.  Every command drops a ``<command>_manifest.json``
into its output directory recording the resolved parameters, so any run
can be reproduced exactly.

Exit codes: 0 success, 2 malformed input or configuration, 3 not enough
data to identify a model, 4 no feasible schedule.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import enum
import io
import json
import math
import os
import sys
from array import array
from dataclasses import asdict, is_dataclass, replace
from datetime import datetime, timedelta

import numpy as np

from . import __version__
from .domain import (
    AmiModel,
    ConfigError,
    ControlMode,
    DlModel,
    DL_FEATURES,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
    validate_config,
)
from .identify import (
    DegenerateSweep,
    InsufficientData,
    InvalidTelemetry,
    TelemetryTable,
    VALUE_COLUMNS,
    fit_ami_model,
    fit_dl_model,
    fit_idt_coeffs,
)
from .models import ShapeMismatch
from .mpc import Controller, solve
from .optimizer import DeParams
from .sim import (
    Metrics,
    PlantConfig,
    ScenarioConfig,
    SimTrace,
    TraceStep,
    compute_metrics,
    run_scenario,
    validate_scenario,
)

MODEL_FILE_VERSION = 1

TELEMETRY_HEADER = [
    "step",
    "worker_id",
    "dl",
    "effort",
    "temp_c",
    "illum_lx",
    "temp_set_c",
    "illum_set_lx",
]

SNAPSHOT_HEADER = [
    "worker_id",
    "dl",
    "d_plus",
    "d_minus",
    "effort",
    "temp_c",
    "illum_lx",
]


class CliError(Exception):
    """A user-facing failure with its process exit code."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


def fmt6(x: float) -> str:
    """Render a float at 6 significant digits (CSV convention)."""
    x = float(x)
    if x == 0.0:
        return "0"
    return format(x, ".6g")


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_manifest(out_dir: str, command: str, payload: dict) -> str:
    """Record the resolved run parameters next to the outputs."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command}_manifest.json")
    body = {"command": command, "tool_version": __version__}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(body), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# model files


def write_model_set(path: str, models: ModelSet) -> None:
    doc = {
        "version": MODEL_FILE_VERSION,
        "dl": {"intercept": models.dl.intercept, "coef": dict(models.dl.coef)},
        "idt": {"k_up": models.idt.k_up, "k_down": models.idt.k_down},
        "ami": {
            "theta0": models.ami.theta0,
            "theta_prev": models.ami.theta_prev,
            "theta_set": models.ami.theta_set,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_model_set(path: str) -> ModelSet:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read model file {path}: {err}")
    except json.JSONDecodeError as err:
        raise CliError(f"model file {path} is not valid JSON: {err}")
    if not isinstance(doc, dict) or doc.get("version") != MODEL_FILE_VERSION:
        raise CliError(
            f"model file {path} has unsupported version {doc.get('version')!r}, "
            f"expected {MODEL_FILE_VERSION}"
        )
    try:
        return ModelSet(
            dl=DlModel(
                intercept=float(doc["dl"]["intercept"]),
                coef={k: float(v) for k, v in doc["dl"]["coef"].items()},
            ),
            idt=IdtModel(
                k_up=float(doc["idt"]["k_up"]), k_down=float(doc["idt"]["k_down"])
            ),
            ami=AmiModel(
                theta0=float(doc["ami"]["theta0"]),
                theta_prev=float(doc["ami"]["theta_prev"]),
                theta_set=float(doc["ami"]["theta_set"]),
            ),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise CliError(f"model file {path} is malformed: {err}")


# ---------------------------------------------------------------------------
# telemetry and snapshot CSV


def read_telemetry_csv(path: str) -> TelemetryTable:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot read telemetry {path}: {err}")
    # Typed buffers hold 8 bytes a value where a list of floats holds 32.
    step, line_of_row, worker = array("q"), array("q"), []
    dl, effort, temp, illum, temp_set, illum_set = (array("d") for _ in range(6))
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TELEMETRY_HEADER:
            raise CliError(
                f"{path}: telemetry header must be "
                f"{','.join(TELEMETRY_HEADER)!r}, got {header!r}"
            )
        for record in reader:
            if not record:
                continue
            line_no = reader.line_num  # physical line: quoted fields may span lines
            if len(record) != len(TELEMETRY_HEADER):
                raise CliError(
                    f"{path}:{line_no}: expected {len(TELEMETRY_HEADER)} fields, "
                    f"got {len(record)}"
                )
            try:
                step.append(int(record[0]))
                dl.append(float(record[2]))
                effort.append(float(record[3]))
                temp.append(float(record[4]))
                illum.append(float(record[5]))
                temp_set.append(float(record[6]))
                illum_set.append(float(record[7]))
            except (ValueError, OverflowError) as err:  # OverflowError: step beyond int64
                raise CliError(f"{path}:{line_no}: {err}")
            worker.append(record[1])
            line_of_row.append(line_no)
    try:
        return TelemetryTable.from_columns(step, worker, dl, effort, temp, illum, temp_set, illum_set)
    except InvalidTelemetry as err:
        raise CliError(f"{path}:{line_of_row[err.row]}: {err}")


def write_telemetry_csv(path: str, table: TelemetryTable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TELEMETRY_HEADER)
        for row in table:
            writer.writerow([row.step_index, row.worker_id, *(fmt6(getattr(row, n)) for n in VALUE_COLUMNS)])


def read_snapshot_csv(path: str) -> StateSnapshot:
    """One row per worker plus the shared room temperature/illuminance."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot read snapshot {path}: {err}")
    workers: list[WorkerState] = []
    temp = illum = None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SNAPSHOT_HEADER:
            raise CliError(
                f"{path}: snapshot header must be "
                f"{','.join(SNAPSHOT_HEADER)!r}, got {header!r}"
            )
        for record in reader:
            if not record:
                continue
            line_no = reader.line_num  # physical line: quoted fields may span lines
            if len(record) != len(SNAPSHOT_HEADER):
                raise CliError(
                    f"{path}:{line_no}: expected {len(SNAPSHOT_HEADER)} fields, "
                    f"got {len(record)}"
                )
            try:
                workers.append(
                    WorkerState(
                        d_current=float(record[1]),
                        d_plus=float(record[2]),
                        d_minus=float(record[3]),
                        effort=float(record[4]),
                    )
                )
                row_temp = float(record[5])
                row_illum = float(record[6])
            except ValueError as err:
                raise CliError(f"{path}:{line_no}: {err}")
            if temp is None:
                temp, illum = row_temp, row_illum
            elif (row_temp, row_illum) != (temp, illum):
                raise CliError(
                    f"{path}:{line_no}: temp_c/illum_lx must be identical on every row"
                )
    if not workers:
        raise CliError(f"{path}: snapshot has no worker rows")
    try:
        return StateSnapshot(tuple(workers), temp, illum)
    except ValueError as err:
        raise CliError(f"{path}: {err}")


# ---------------------------------------------------------------------------
# trace and metrics CSV


def write_trace_csv(path: str, trace: SimTrace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# mode={trace.mode.value}\n")
        fh.write(f"# seed={trace.seed}\n")
        fh.write(f"# workers={trace.num_workers}\n")
        fh.write(f"# penalty_cap={fmt6(trace.penalty_cap)}\n")
        fh.write(f"# temp_comfort={fmt6(trace.temp_comfort)}\n")
        fh.write(f"# illum_comfort={fmt6(trace.illum_comfort)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        header = ["step", "temp_set_c", "illum_set_lx", "temp_c", "illum_lx", "penalty", "feasible", "status"]
        for i in range(trace.num_workers):
            header += [f"dl_w{i}", f"effort_w{i}"]
        writer.writerow(header)
        for step in trace.steps:
            record = [
                step.step,
                fmt6(step.temp_set),
                fmt6(step.illum_set),
                fmt6(step.temp),
                fmt6(step.illum),
                fmt6(step.penalty),
                1 if step.feasible else 0,
                step.status,
            ]
            for dl, effort in zip(step.dls, step.efforts):
                record += [fmt6(dl), fmt6(effort)]
            writer.writerow(record)


def read_trace_csv(path: str) -> SimTrace:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot read trace {path}: {err}")
    meta: dict[str, str] = {}
    with fh:
        line = fh.readline()
        while line.startswith("#"):
            try:
                key, value = line[1:].strip().split("=", 1)
            except ValueError:
                raise CliError(f"{path}: malformed metadata line {line.strip()!r}")
            meta[key.strip()] = value.strip()
            line = fh.readline()
        required = {"mode", "seed", "workers", "penalty_cap", "temp_comfort", "illum_comfort"}
        missing = required - set(meta)
        if missing:
            raise CliError(f"{path}: missing trace metadata {sorted(missing)}")
        try:
            mode = ControlMode.parse(meta["mode"])
            seed = int(meta["seed"])
            workers = int(meta["workers"])
        except (ValueError, ConfigError) as err:
            raise CliError(f"{path}: bad trace metadata: {err}")
        expected_header = ["step", "temp_set_c", "illum_set_lx", "temp_c", "illum_lx", "penalty", "feasible", "status"]
        for i in range(workers):
            expected_header += [f"dl_w{i}", f"effort_w{i}"]
        header = next(csv.reader(io.StringIO(line)), None)
        if header != expected_header:
            raise CliError(f"{path}: trace header mismatch, got {header!r}")
        steps: list[TraceStep] = []
        for line_no, record in enumerate(csv.reader(fh), start=len(meta) + 2):
            if not record:
                continue
            if len(record) != len(expected_header):
                raise CliError(
                    f"{path}:{line_no}: expected {len(expected_header)} fields, got {len(record)}"
                )
            try:
                dls = tuple(float(record[8 + 2 * i]) for i in range(workers))
                efforts = tuple(float(record[9 + 2 * i]) for i in range(workers))
                steps.append(
                    TraceStep(
                        step=int(record[0]),
                        temp_set=float(record[1]),
                        illum_set=float(record[2]),
                        temp=float(record[3]),
                        illum=float(record[4]),
                        penalty=float(record[5]),
                        feasible=bool(int(record[6])),
                        status=record[7],
                        dls=dls,
                        efforts=efforts,
                    )
                )
            except ValueError as err:
                raise CliError(f"{path}:{line_no}: {err}")
    try:
        return SimTrace(
            mode=mode,
            seed=seed,
            num_workers=workers,
            penalty_cap=float(meta["penalty_cap"]),
            temp_comfort=float(meta["temp_comfort"]),
            illum_comfort=float(meta["illum_comfort"]),
            steps=tuple(steps),
        )
    except ValueError as err:
        raise CliError(f"{path}: {err}")


def write_metrics_csv(path: str, metrics: Metrics) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        writer.writerow(["mean_dl", fmt6(metrics.mean_dl)])
        writer.writerow(["comfort_violation_rate", fmt6(metrics.comfort_violation_rate)])
        writer.writerow(["mean_abs_temp_dev", fmt6(metrics.mean_abs_temp_dev)])
        writer.writerow(["mean_abs_illum_dev", fmt6(metrics.mean_abs_illum_dev)])
        writer.writerow(["setpoint_change_count", metrics.setpoint_change_count])


# ---------------------------------------------------------------------------
# configuration files


def _load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise CliError(f"cannot read config {path}: {err}")
    except configparser.Error as err:
        raise CliError(f"config {path} is malformed: {err}")
    return parser


def _check_keys(path: str, section: str, present, allowed) -> None:
    unknown = sorted(set(present) - set(allowed))
    if unknown:
        raise CliError(
            f"config {path}: unknown key(s) {unknown} in section [{section}]; "
            f"allowed: {sorted(allowed)}"
        )


def _get_typed(path: str, parser: configparser.ConfigParser, section: str, key: str, kind):
    raw = parser.get(section, key)
    try:
        if kind is bool:
            return parser.getboolean(section, key)
        return kind(raw)
    except ValueError:
        raise CliError(
            f"config {path}: key {key!r} in [{section}] has bad value {raw!r} "
            f"(expected {kind.__name__})"
        )


_MPC_KEYS = {
    "horizon": int,
    "step_hours": float,
    "num_workers": int,
    "temp_lo": float,
    "temp_hi": float,
    "illum_lo": float,
    "illum_hi": float,
    "temp_comfort": float,
    "illum_comfort": float,
    "p_temp": float,
    "p_illum": float,
    "penalty_cap": float,
    "mode": str,
}


def parse_mpc_section(path: str, parser: configparser.ConfigParser) -> MpcConfig:
    if not parser.has_section("mpc"):
        raise CliError(f"config {path}: missing required [mpc] section")
    _check_keys(path, "mpc", parser.options("mpc"), _MPC_KEYS)
    kwargs = {}
    for key, kind in _MPC_KEYS.items():
        if not parser.has_option("mpc", key):
            continue
        if key == "mode":
            try:
                kwargs["mode"] = ControlMode.parse(parser.get("mpc", "mode"))
            except ConfigError as err:
                raise CliError(f"config {path}: {err}")
        else:
            kwargs[key] = _get_typed(path, parser, "mpc", key, kind)
    cfg = MpcConfig(**kwargs)
    try:
        validate_config(cfg)
    except ConfigError as err:
        raise CliError(f"config {path}: {err}")
    return cfg


_DE_KEYS = {
    "population_size": int,
    "mutation_factor": float,
    "crossover_rate": float,
    "max_generations": int,
    "tolerance": float,
    "seed": int,
}


def parse_de_section(path: str, parser: configparser.ConfigParser) -> DeParams:
    if not parser.has_section("de"):
        return DeParams()
    _check_keys(path, "de", parser.options("de"), _DE_KEYS)
    kwargs = {}
    for key, kind in _DE_KEYS.items():
        if not parser.has_option("de", key):
            continue
        if key == "population_size" and parser.get("de", key).strip().lower() == "auto":
            kwargs[key] = None
            continue
        kwargs[key] = _get_typed(path, parser, "de", key, kind)
    try:
        return DeParams(**kwargs)
    except ValueError as err:
        raise CliError(f"config {path}: [de] {err}")


_PLANT_MODEL_KEYS = {
    "k_up": float,
    "k_down": float,
    "theta0": float,
    "theta_prev": float,
    "theta_set": float,
    "dl_intercept": float,
}
_PLANT_DL_KEYS = {f"dl_{name}": float for name in DL_FEATURES}
_PLANT_OTHER_KEYS = {
    "idt_noise_sd": float,
    "ami_noise_sd": float,
    "dl_noise_sd": float,
    "effort_sd": float,
    "substeps": int,
    "drift": str,
    "ambient_pull": float,
    "ambient_temp": float,
    "init_temp": float,
    "init_illum": float,
    "init_dl": float,
}
_PLANT_KEYS = {**_PLANT_MODEL_KEYS, **_PLANT_DL_KEYS, **_PLANT_OTHER_KEYS}

_SCENARIO_KEYS = {
    "steps": int,
    "seed": int,
    "model_mismatch": bool,
    "lunch_start": int,
    "lunch_steps": int,
}


def parse_plant_section(path: str, parser: configparser.ConfigParser) -> PlantConfig:
    if not parser.has_section("plant"):
        raise CliError(f"config {path}: missing required [plant] section")
    _check_keys(path, "plant", parser.options("plant"), _PLANT_KEYS)
    required = ["k_up", "k_down", "theta0", "theta_prev", "theta_set", "dl_intercept"]
    required += sorted(_PLANT_DL_KEYS)
    missing = [k for k in required if not parser.has_option("plant", k)]
    if missing:
        raise CliError(f"config {path}: [plant] missing key(s) {missing}")

    def get(key, kind):
        return _get_typed(path, parser, "plant", key, kind)

    coef = {name: get(f"dl_{name}", float) for name in DL_FEATURES}
    kwargs = {}
    for key, kind in _PLANT_OTHER_KEYS.items():
        if key == "drift" or not parser.has_option("plant", key):
            continue
        kwargs[key] = get(key, kind)
    if parser.has_option("plant", "drift"):
        raw = parser.get("plant", "drift").strip()
        if raw:
            try:
                kwargs["drift"] = tuple(float(tok) for tok in raw.split(","))
            except ValueError:
                raise CliError(
                    f"config {path}: [plant] drift must be comma-separated floats, got {raw!r}"
                )
    try:
        return PlantConfig(
            true_idt=IdtModel(k_up=get("k_up", float), k_down=get("k_down", float)),
            true_ami=AmiModel(
                theta0=get("theta0", float),
                theta_prev=get("theta_prev", float),
                theta_set=get("theta_set", float),
            ),
            true_dl=DlModel(intercept=get("dl_intercept", float), coef=coef),
            **kwargs,
        )
    except ValueError as err:
        raise CliError(f"config {path}: [plant] {err}")


def parse_scenario_config(
    path: str, controller_models: ModelSet | None = None
) -> ScenarioConfig:
    """Assemble a full scenario from [mpc], [de], [plant] and [scenario]."""
    parser = _load_config(path)
    known_sections = {"mpc", "de", "plant", "scenario"}
    unknown = sorted(set(parser.sections()) - known_sections)
    if unknown:
        raise CliError(f"config {path}: unknown section(s) {unknown}")
    cfg = parse_mpc_section(path, parser)
    de = parse_de_section(path, parser)
    plant = parse_plant_section(path, parser)
    if not parser.has_section("scenario"):
        raise CliError(f"config {path}: missing required [scenario] section")
    _check_keys(path, "scenario", parser.options("scenario"), _SCENARIO_KEYS)
    for key in ("steps", "seed"):
        if not parser.has_option("scenario", key):
            raise CliError(f"config {path}: [scenario] missing key {key!r}")
    steps = _get_typed(path, parser, "scenario", "steps", int)
    seed = _get_typed(path, parser, "scenario", "seed", int)
    mismatch = (
        _get_typed(path, parser, "scenario", "model_mismatch", bool)
        if parser.has_option("scenario", "model_mismatch")
        else False
    )
    lunch_start = (
        _get_typed(path, parser, "scenario", "lunch_start", int)
        if parser.has_option("scenario", "lunch_start")
        else None
    )
    lunch_steps = (
        _get_typed(path, parser, "scenario", "lunch_steps", int)
        if parser.has_option("scenario", "lunch_steps")
        else 4
    )
    sc = ScenarioConfig(
        mode=cfg.mode,
        num_workers=cfg.num_workers,
        steps=steps,
        seed=seed,
        plant=plant,
        mpc_cfg=cfg,
        de=de,
        model_mismatch=mismatch,
        controller_models=controller_models,
        lunch_start=lunch_start,
        lunch_steps=lunch_steps,
    )
    try:
        validate_scenario(sc)
    except ValueError as err:
        raise CliError(f"config {path}: {err}")
    return sc


def parse_control_config(path: str) -> tuple[MpcConfig, DeParams]:
    """[mpc] + [de] only, as needed by solve and daemon."""
    parser = _load_config(path)
    unknown = sorted(set(parser.sections()) - {"mpc", "de", "plant", "scenario"})
    if unknown:
        raise CliError(f"config {path}: unknown section(s) {unknown}")
    return parse_mpc_section(path, parser), parse_de_section(path, parser)


def shipped_config_path(name: str) -> str:
    """Filesystem path of a packaged configuration file."""
    from importlib.resources import files

    resource = files("alertmpc").joinpath("configs", name)
    return str(resource)


# ---------------------------------------------------------------------------
# daemon


_decode_json = json.JSONDecoder().raw_decode
_JSON_NUMBER = (int, float)  # bool is a subclass of int, so match the type exactly


def _parse_stream_record(line: str):
    """(when, worker, dl, temp, illum) from one stripped stream line.

    The line must be exactly one JSON object: "t" and "worker" JSON
    strings, "dl", "temp_c" and "illum_lx" JSON numbers (not true/false),
    all finite, dl on the 1-5 scale.  Anything else raises KeyError,
    ValueError or TypeError, including nesting too deep to decode and
    integers too large for a float.
    """
    try:
        doc, end = _decode_json(line)
    except RecursionError:
        raise ValueError("record nested too deeply") from None
    if end != len(line):
        raise ValueError("extra data after the record")
    if type(doc) is not dict:
        raise ValueError("record must be a JSON object")
    t, worker = doc["t"], doc["worker"]
    if type(t) is not str or type(worker) is not str:
        raise TypeError("t and worker must be JSON strings")
    dl, temp, illum = doc["dl"], doc["temp_c"], doc["illum_lx"]
    if not (type(dl) in _JSON_NUMBER and type(temp) in _JSON_NUMBER and type(illum) in _JSON_NUMBER):
        raise TypeError("dl, temp_c and illum_lx must be JSON numbers")
    try:
        dl, temp, illum = float(dl), float(temp), float(illum)
    except OverflowError:
        raise ValueError("measurement too large for a float") from None
    if not (1.0 <= dl <= 5.0):
        raise ValueError(f"dl {dl} outside the 1-5 scale")
    if not (math.isfinite(temp) and math.isfinite(illum)):
        raise ValueError("non-finite measurement")
    return datetime.fromisoformat(t), worker, dl, temp, illum


def _window_stats(buffers) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Mean and standard deviation of each buffer, in buffer order.

    Buffers of equal length are stacked into one (k, n) array and reduced
    along its rows.  Each row is summed pairwise exactly as np.mean and
    np.std sum a lone buffer, so the values are bitwise equal to theirs.
    """
    by_length: dict[int, list[int]] = {}
    for i, buf in enumerate(buffers):
        by_length.setdefault(len(buf), []).append(i)
    means = [0.0] * len(buffers)
    stds = [0.0] * len(buffers)
    for rows in by_length.values():
        block = np.array([buffers[i] for i in rows])
        for i, mean, std in zip(rows, block.mean(axis=1).tolist(), block.std(axis=1).tolist()):
            means[i] = mean
            stds[i] = std
    return tuple(means), tuple(stds)


def run_daemon(models: ModelSet, cfg: MpcConfig, de: DeParams, lines, on_record) -> dict:
    """Consume measurement lines, emitting one setpoint record per interval.

    Records are aggregated over fixed windows of cfg.step_hours anchored
    at the first record's timestamp.  Window 0 only starts the controller
    history (status "warmup").  From window 1 on, which completes the
    two-step history, each completed window w triggers the solve for
    interval w - 1.  Windows missing data hold the previous setpoints
    with status "stale".  Each record also carries the solve's
    "generations" and "stop_reason" (0 and None under NOC, None on warmup
    and stale windows).
    Malformed and out-of-order lines are skipped and counted.
    """
    validate_config(cfg)
    window = timedelta(hours=cfg.step_hours)
    ctl = Controller(models, cfg, de)
    origin = None
    current = 0
    dl_buf: dict[str, list[float]] = {}
    temps: list[float] = []
    illums: list[float] = []
    roster: tuple[str, ...] | None = None
    last_feasible = True
    stats = {"records_in": 0, "records_out": 0, "malformed": 0, "late": 0}

    def close_window(w: int) -> dict:
        nonlocal roster, last_feasible
        distinct = tuple(sorted(dl_buf))
        if roster is None and len(distinct) == cfg.num_workers:
            roster = distinct
        complete = (
            roster is not None
            and temps
            and all(dl_buf.get(wid) for wid in roster)
        )
        if complete:
            means, stds = _window_stats([dl_buf[wid] for wid in roster] + [temps, illums])
            ctl.observe(w - 2, means[:-2], stds[:-2], means[-2], means[-1])
        solution = None
        if w == 0:
            setpoints, status = ctl.last_applied, "warmup"
        else:
            setpoints, solution, status = ctl.decide(w - 1)
            if solution is not None:
                last_feasible = solution.feasible
        return {
            "t": (origin + (w + 1) * window).isoformat(),
            "temp_set_c": setpoints[0],
            "illum_set_lx": setpoints[1],
            "feasible": last_feasible,
            "status": status,
            "generations": None if solution is None else solution.generations_used,
            "stop_reason": None if solution is None else solution.stop_reason,
        }

    for line in lines:
        line = line.strip()
        if not line:
            continue
        stats["records_in"] += 1
        try:
            when, worker, dl, temp, illum = _parse_stream_record(line)
            if origin is None:
                origin = when
            w = (when - origin) // window
        except (KeyError, ValueError, TypeError):
            stats["malformed"] += 1
            continue
        if w < current:
            stats["late"] += 1
            continue
        while current < w:
            record = close_window(current)
            on_record(record)
            stats["records_out"] += 1
            dl_buf.clear()
            temps.clear()
            illums.clear()
            current += 1
        dl_buf.setdefault(worker, []).append(dl)
        temps.append(temp)
        illums.append(illum)
    return stats


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


# ---------------------------------------------------------------------------
# commands


def cmd_identify(args) -> int:
    table = read_telemetry_csv(args.telemetry)
    try:
        dl_model, dl_report = fit_dl_model(
            table, exclude_boundary=not args.keep_boundary, ridge=args.ridge
        )
        idt_model, idt_report = fit_idt_coeffs(table)
        ami_model, ami_report = fit_ami_model(table)
    except (InsufficientData, DegenerateSweep) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    models = ModelSet(dl=dl_model, idt=idt_model, ami=ami_model)
    write_model_set(args.out_model, models)
    for name, report in (("dl", dl_report), ("idt", idt_report), ("ami", ami_report)):
        flag = " condition_warning" if report.condition_warning else ""
        print(f"{name}: rmse={fmt6(report.rmse)} n={report.n_samples}{flag}")
    print(f"model file written to {args.out_model}")
    write_manifest(
        args.out_dir,
        "identify",
        {
            "telemetry": args.telemetry,
            "out_model": args.out_model,
            "keep_boundary": bool(args.keep_boundary),
            "ridge": args.ridge,
            "reports": {
                "dl": dl_report,
                "idt": idt_report,
                "ami": ami_report,
            },
        },
    )
    return 0


def cmd_solve(args) -> int:
    models = read_model_set(args.model)
    cfg, de = parse_control_config(args.config)
    if args.seed is not None:
        de = replace(de, seed=args.seed)
    snapshot = read_snapshot_csv(args.snapshot)
    if len(snapshot.workers) != cfg.num_workers:
        raise CliError(
            f"snapshot has {len(snapshot.workers)} workers, config expects {cfg.num_workers}"
        )
    try:
        solution = solve(models, snapshot, cfg, de)
    except ShapeMismatch as err:
        raise CliError(str(err))
    if args.format == "csv":
        print(f"# objective={fmt6(solution.objective_value)}")
        print(f"# feasible={1 if solution.feasible else 0}")
        print("step,temp_set_c,illum_set_lx")
        for i, (t_set, l_set) in enumerate(
            zip(solution.schedule.temp_setpoints, solution.schedule.illum_setpoints), start=1
        ):
            print(f"{i},{fmt6(t_set)},{fmt6(l_set)}")
    else:
        feas = "yes" if solution.feasible else "NO (least-violating schedule shown)"
        print(f"objective {fmt6(solution.objective_value)}  feasible {feas}")
        for i, (t_set, l_set) in enumerate(
            zip(solution.schedule.temp_setpoints, solution.schedule.illum_setpoints), start=1
        ):
            print(f"step {i}: temp {fmt6(t_set)} C, illum {fmt6(l_set)} lx")
    write_manifest(
        args.out_dir,
        "solve",
        {
            "model": args.model,
            "config": args.config,
            "snapshot": args.snapshot,
            "seed": args.seed,
            "format": args.format,
            "mpc": cfg,
            "de": de,
            "feasible": solution.feasible,
            "objective": solution.objective_value,
        },
    )
    if not solution.feasible:
        print("warning: no feasible schedule within bounds", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    controller_models = read_model_set(args.model) if args.model else None
    sc = parse_scenario_config(args.config, controller_models)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    try:
        validate_scenario(sc)
    except ValueError as err:
        raise CliError(str(err))
    trace, metrics = run_scenario(sc)
    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.csv")
    metrics_path = os.path.join(args.out_dir, "metrics.csv")
    write_trace_csv(trace_path, trace)
    write_metrics_csv(metrics_path, metrics)
    write_manifest(
        args.out_dir,
        "simulate",
        {
            "config": args.config,
            "model": args.model,
            "seed_override": args.seed,
            "scenario": sc,
            "outputs": {"trace": trace_path, "metrics": metrics_path},
        },
    )
    print(
        f"mode={trace.mode.value} seed={trace.seed} steps={len(trace.steps)} "
        f"mean_dl={fmt6(metrics.mean_dl)} "
        f"violation_rate={fmt6(metrics.comfort_violation_rate)}"
    )
    return 0


def cmd_report(args) -> int:
    traces = [read_trace_csv(path) for path in args.traces]
    by_mode: dict[str, list[SimTrace]] = {}
    for trace in traces:
        by_mode.setdefault(trace.mode.value, []).append(trace)
    rows = []
    for mode_name in sorted(by_mode):
        group = by_mode[mode_name]
        per_trace = [compute_metrics(t) for t in group]
        rows.append(
            (
                mode_name,
                len(group),
                float(np.mean([m.mean_dl for m in per_trace])),
                float(np.mean([m.comfort_violation_rate for m in per_trace])),
                float(np.mean([m.mean_abs_temp_dev for m in per_trace])),
                float(np.mean([m.mean_abs_illum_dev for m in per_trace])),
                float(np.mean([m.setpoint_change_count for m in per_trace])),
            )
        )

    deltas = []
    seed_sets = {name: sorted(t.seed for t in group) for name, group in by_mode.items()}
    base = "NOC" if "NOC" in by_mode else None
    for mode_name in sorted(by_mode):
        if base is None or mode_name == base:
            continue
        if seed_sets[mode_name] != seed_sets[base]:
            print(
                f"warning: seed sets of {mode_name} and {base} differ; "
                "paired deltas skipped",
                file=sys.stderr,
            )
            continue
        a = {t.seed: compute_metrics(t).mean_dl for t in by_mode[mode_name]}
        b = {t.seed: compute_metrics(t).mean_dl for t in by_mode[base]}
        per_seed = [a[s] - b[s] for s in seed_sets[base]]
        deltas.append((mode_name, base, float(np.mean(per_seed)), len(per_seed)))

    if args.format == "csv":
        print("kind,arm,metric,value")
        for name, n, mean_dl, viol, tdev, ldev, changes in rows:
            print(f"arm,{name},traces,{n}")
            print(f"arm,{name},mean_dl,{fmt6(mean_dl)}")
            print(f"arm,{name},comfort_violation_rate,{fmt6(viol)}")
            print(f"arm,{name},mean_abs_temp_dev,{fmt6(tdev)}")
            print(f"arm,{name},mean_abs_illum_dev,{fmt6(ldev)}")
            print(f"arm,{name},mean_setpoint_changes,{fmt6(changes)}")
        for name, base_name, delta, n in deltas:
            print(f"delta,{name}-{base_name},mean_dl,{fmt6(delta)}")
    else:
        print(
            f"{'arm':<6} {'traces':>6} {'mean_dl':>9} {'viol_rate':>9} "
            f"{'temp_dev':>9} {'illum_dev':>10} {'setp_chg':>9}"
        )
        for name, n, mean_dl, viol, tdev, ldev, changes in rows:
            print(
                f"{name:<6} {n:>6} {fmt6(mean_dl):>9} {fmt6(viol):>9} "
                f"{fmt6(tdev):>9} {fmt6(ldev):>10} {fmt6(changes):>9}"
            )
        for name, base_name, delta, n in deltas:
            print(
                f"paired mean_dl delta {name}-{base_name}: {fmt6(delta)} "
                f"({n} shared seeds, negative favors {name})"
            )
    write_manifest(
        args.out_dir,
        "report",
        {"traces": list(args.traces), "format": args.format},
    )
    return 0


def cmd_daemon(args) -> int:
    models = read_model_set(args.model)
    cfg, de = parse_control_config(args.config)
    if args.seed is not None:
        de = replace(de, seed=args.seed)

    if args.infile == "-":
        in_fh = sys.stdin
        close_in = False
    else:
        try:
            in_fh = open(args.infile, encoding="utf-8")
        except OSError as err:
            raise CliError(f"cannot read stream {args.infile}: {err}")
        close_in = True
    if args.outfile == "-":
        out_fh = sys.stdout
        close_out = False
    else:
        out_fh = open(args.outfile, "w", encoding="utf-8")
        close_out = True

    def on_record(record: dict):
        out_fh.write(json.dumps(record, sort_keys=True) + "\n")
        out_fh.flush()

    try:
        stats = run_daemon(models, cfg, de, in_fh, on_record)
    finally:
        if close_in:
            in_fh.close()
        if close_out:
            out_fh.close()
    if stats["malformed"] or stats["late"]:
        print(
            f"warning: skipped {stats['malformed']} malformed and "
            f"{stats['late']} late line(s)",
            file=sys.stderr,
        )
    write_manifest(
        args.out_dir,
        "daemon",
        {
            "model": args.model,
            "config": args.config,
            "seed": args.seed,
            "stream": args.infile,
            "stats": stats,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alertmpc",
        description="Drowsiness-minimizing setpoint control for office temperature and lighting.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="fit models from a telemetry CSV")
    p.add_argument("telemetry", help="telemetry CSV file")
    p.add_argument("out_model", help="path for the fitted model JSON")
    p.add_argument("--keep-boundary", action="store_true",
                   help="keep samples whose DL sits on the scale limits")
    p.add_argument("--ridge", type=float, default=0.0, help="ridge strength for the DL fit")
    p.add_argument("--out-dir", default=".", help="directory for the run manifest")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("solve", help="solve one interval from a state snapshot")
    p.add_argument("snapshot", help="snapshot CSV (one row per worker)")
    p.add_argument("--model", required=True, help="model JSON from identify")
    p.add_argument("--config", required=True, help="config file with [mpc] and optional [de]")
    p.add_argument("--seed", type=int, default=None, help="override the optimizer seed")
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    p.add_argument("--out-dir", default=".", help="directory for the run manifest")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run a closed-loop scenario")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--model", default=None,
                   help="controller model JSON (required when model_mismatch is on)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out-dir", default=".", help="directory for trace.csv, metrics.csv, manifest")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="summarize trace CSVs per control arm")
    p.add_argument("traces", nargs="+", help="trace CSV files from simulate")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--out-dir", default=".", help="directory for the run manifest")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("daemon", help="stream measurements in, setpoints out")
    p.add_argument("--model", required=True, help="model JSON from identify")
    p.add_argument("--config", required=True, help="config file with [mpc] and optional [de]")
    p.add_argument("--seed", type=int, default=None, help="override the optimizer base seed")
    p.add_argument("--in", dest="infile", default="-", help="measurement stream (default stdin)")
    p.add_argument("--out", dest="outfile", default="-", help="setpoint stream (default stdout)")
    p.add_argument("--out-dir", default=".", help="directory for the run manifest")
    p.set_defaults(func=cmd_daemon)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
