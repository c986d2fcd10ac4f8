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
import contextlib
import csv
import enum
import functools
import io
import itertools
import json
import math
import os
import sys
import warnings
from array import array
from collections.abc import Callable
from dataclasses import MISSING, Field, asdict, fields, is_dataclass, replace
from datetime import datetime, timedelta
from typing import get_type_hints

import numpy as np

from . import __version__
from .domain import (
    AmiModel,
    ControlMode,
    DlModel,
    DL_FEATURES,
    DL_MAX,
    DL_MIN,
    ILLUM_RANGE,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    TEMP_RANGE,
    WorkerState,
    require_in_range,
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
from .optimizer import BadBounds, DeParams, NonFiniteObjective
from .sim import (
    ArmComparison,
    Metrics,
    PlantConfig,
    PlantOutOfRange,
    ScenarioConfig,
    SimTrace,
    TraceStep,
    compute_metrics,
    run_scenario,
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


@contextlib.contextmanager
def _refused(lead: str, errors=ValueError):
    """Turn an error of type errors raised in the block, a refused value,
    into a CliError whose message is lead followed by the error's."""
    try:
        yield
    except errors as err:
        raise CliError(f"{lead}{err}")


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
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": MODEL_FILE_VERSION, **asdict(models)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


_JSON_NUMBER = (int, float)  # bool is a subclass of int, so match the type exactly


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key raises KeyError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise KeyError(f"repeated key among {[key for key, _ in pairs]}")
    return doc


def _from_json(kind, value, name: str):
    """value, the JSON value named name in a model file, as the type kind
    that write_model_set's declaration gives it: a dataclass takes an
    object of exactly its fields, a float a number, DlModel.coef's dict an
    object of numbers."""
    if kind is float:
        if type(value) not in _JSON_NUMBER:
            raise TypeError(f"{name} must be a number, got {type(value).__name__}")
        return float(value)
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, got {type(value).__name__}")
    if not is_dataclass(kind):  # dict[str, float]
        return {key: _from_json(float, item, key) for key, item in value.items()}
    hints = get_type_hints(kind)
    if value.keys() != hints.keys():
        raise ValueError(f"{name} must hold the keys {sorted(hints)}, got {sorted(value)}")
    return kind(**{key: _from_json(hint, value[key], key) for key, hint in hints.items()})


def read_model_set(path: str) -> ModelSet:
    """The model set in a file that write_model_set wrote: each object
    holds exactly the keys written there, each once."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise CliError(f"cannot read model file {path}: {err}")
    except ValueError as err:  # a JSONDecodeError, or bytes that are not UTF-8
        raise CliError(f"model file {path} is not valid JSON: {err}")
    except KeyError as err:
        raise CliError(f"model file {path} is malformed: {err.args[0]}")
    if not isinstance(doc, dict):
        raise CliError(f"model file {path} must hold a JSON object, got {type(doc).__name__}")
    version = doc.pop("version", None)
    if type(version) is not int or version != MODEL_FILE_VERSION:
        raise CliError(
            f"model file {path} has unsupported version {version!r}, expected {MODEL_FILE_VERSION}"
        )
    with _refused(f"model file {path} is malformed: ", (TypeError, ValueError, OverflowError)):
        return _from_json(ModelSet, doc, "the model set")


# ---------------------------------------------------------------------------
# telemetry and snapshot CSV


class _CsvFile:
    """A CSV file read with the rules every CSV reader here shares.

    Opening it raises CliError "cannot read <what> <path>".  In a with
    block, text that is not UTF-8 and a record the csv module refuses (a
    field longer than csv.field_size_limit(), say) raise a CliError naming
    the path and, for the record, its physical line.
    """

    def __init__(self, path: str, what: str):
        try:
            self.fh = open(path, newline="", encoding="utf-8")
        except OSError as err:
            raise CliError(f"cannot read {what} {path}: {err}")
        self.path, self.what = path, what
        self.reader = csv.reader(self.fh)
        self.lines_before = 0  # lines read before the reader's first: metadata lines

    def __enter__(self) -> "_CsvFile":
        return self

    def __exit__(self, kind, err, tb) -> None:
        self.fh.close()
        if isinstance(err, UnicodeDecodeError):
            raise CliError(f"{self.path}: not UTF-8 text ({err.reason})")
        if isinstance(err, csv.Error):
            raise CliError(f"{self.path}:{self.lines_before + self.reader.line_num}: {err}")

    def metadata_lines(self) -> list[str]:
        """The leading lines that start with "#"."""
        lines = []
        for line in self.fh:
            if not line.startswith("#"):
                self.reader = csv.reader(itertools.chain([line], self.fh))
                break
            lines.append(line)
        self.lines_before = len(lines)
        return lines

    def header(self, width: int, names: Callable[[], list[str]]) -> None:
        """Read the header record, which must be the width names that
        names() returns.  A record of another length is refused before
        names() is called, so a width read from the file costs nothing."""
        self.width = width
        got = next(self.reader, None)
        if got is None or len(got) != width:
            raise CliError(f"{self.path}: {self.what} header mismatch, expected {width} fields, got {got!r}")
        expected = names()
        if got != expected:
            raise CliError(
                f"{self.path}: {self.what} header mismatch, expected "
                f"{','.join(expected)!r}, got {got!r}"
            )

    def records(self, convert):
        """(physical line, convert(record)) for each non-blank record past
        the header; a ValueError or OverflowError of convert names the line."""
        for record in self.reader:
            if not record:
                continue
            line = self.lines_before + self.reader.line_num  # quoted fields may span lines
            if len(record) != self.width:
                raise CliError(f"{self.path}:{line}: expected {self.width} fields, got {len(record)}")
            try:
                yield line, convert(record)
            except (ValueError, OverflowError) as err:
                raise CliError(f"{self.path}:{line}: {err}")


# One telemetry row as np.loadtxt reads it: fields in TELEMETRY_HEADER order.
_TELEMETRY_DTYPE = np.dtype(
    [("step", np.int64), ("worker_id", object), *((name, np.float64) for name in VALUE_COLUMNS)]
)

# The ASCII separators FS, GS, RS and US: numpy strips them from around a
# number as whitespace, where int() and float() refuse the field.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _numpy_may_differ(raw) -> bool:
    """Whether np.loadtxt may have read the binary file raw otherwise than
    the csv module: raw holds a _NUMPY_ONLY_SPACE byte, or a run of more
    than csv.field_size_limit() bytes without a comma, which could be a
    number field the csv module refuses as too long.
    """
    limit = csv.field_size_limit()
    # A comma-free run longer than limit holds a whole block of this size,
    # if the blocks start just past a comma.
    block = limit // 2 + 1
    run = 0  # comma-free bytes at the end of the chunks so far
    raw.seek(0)
    for chunk in iter(functools.partial(raw.read, 1 << 20), b""):
        if any(sep in chunk for sep in _NUMPY_ONLY_SPACE):
            return True
        first, last = chunk.find(b","), chunk.rfind(b",")
        if first < 0:
            run += len(chunk)
        elif run + first > limit:
            return True
        else:
            for start in range(first + 1, last - block + 1, block):
                if chunk.find(b",", start, start + block) < 0:
                    if chunk.find(b",", start + block) - chunk.rfind(b",", 0, start) - 1 > limit:
                        return True
            run = len(chunk) - 1 - last
        if run > limit:
            return True
    return False


def read_telemetry_csv(path: str) -> TelemetryTable:
    """The validated telemetry table in the CSV file at path.

    The body is parsed in one np.loadtxt call.  Where numpy's reading
    could differ from the row reader's, the file is read again row by
    row: when numpy refuses it or warns (numpy refuses 1_5 and non-ASCII
    digits, which int() and float() accept), when _numpy_may_differ,
    when a worker id is longer than csv.field_size_limit(), and when the
    table fails validation.  So the accepted grammar is the row reader's,
    and every error names its physical line.
    """
    with _CsvFile(path, "telemetry") as csv_file:
        csv_file.header(len(TELEMETRY_HEADER), lambda: TELEMETRY_HEADER)
        try:
            with warnings.catch_warnings():
                # A warning means numpy read some text its own way (numpy 1.x
                # reads an int64 "1.0" with a DeprecationWarning) ...
                warnings.simplefilter("error")
                # ... but a header-only file is an empty table, as the row reader returns.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                body = np.loadtxt(
                    csv_file.fh, dtype=_TELEMETRY_DTYPE, delimiter=",", quotechar='"',
                    comments=None, ndmin=1,
                )
            table = TelemetryTable(*(body[name] for name in _TELEMETRY_DTYPE.names))
        except (ValueError, Warning):  # InvalidTelemetry and UnicodeDecodeError are ValueErrors
            table = None
        # loadtxt has read the file to its end, so its bytes can be scanned again.
        if not (
            table is None
            or any(len(worker) > csv.field_size_limit() for worker in table.worker_ids)
            or _numpy_may_differ(csv_file.fh.buffer)
        ):
            return table
    return _read_telemetry_rows(path)


def _read_telemetry_rows(path: str) -> TelemetryTable:
    """read_telemetry_csv one record at a time, naming the physical line of an error."""
    # Typed buffers hold 8 bytes a value where a list of floats holds 32.
    step, line_of_row, worker = array("q"), array("q"), []
    values = [array("d") for _ in VALUE_COLUMNS]

    def append(record: list[str]) -> None:
        step.append(int(record[0]))  # OverflowError beyond int64
        for column, text in zip(values, record[2:]):
            column.append(float(text))
        worker.append(record[1])

    with _CsvFile(path, "telemetry") as csv_file:
        csv_file.header(len(TELEMETRY_HEADER), lambda: TELEMETRY_HEADER)
        for line, _ in csv_file.records(append):
            line_of_row.append(line)
    try:
        return TelemetryTable(step, worker, *values)
    except InvalidTelemetry as err:
        raise CliError(f"{path}:{line_of_row[err.row]}: {err}")


def write_telemetry_csv(path: str, table: TelemetryTable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TELEMETRY_HEADER)
        workers = [table.worker_ids[code] for code in table.worker.tolist()]
        values = ([fmt6(x) for x in getattr(table, name).tolist()] for name in VALUE_COLUMNS)
        writer.writerows(zip(table.step.tolist(), workers, *values))


def _snapshot_row(record: list[str]) -> tuple[WorkerState, tuple[float, float]]:
    temp, illum = float(record[5]), float(record[6])
    require_in_range("temp_c", temp, TEMP_RANGE)
    require_in_range("illum_lx", illum, ILLUM_RANGE)
    return WorkerState(*map(float, record[1:5])), (temp, illum)


def read_snapshot_csv(path: str) -> StateSnapshot:
    """One row per worker plus the shared room temperature/illuminance."""
    workers: list[WorkerState] = []
    room = None
    with _CsvFile(path, "snapshot") as csv_file:
        csv_file.header(len(SNAPSHOT_HEADER), lambda: SNAPSHOT_HEADER)
        for line, (worker, row_room) in csv_file.records(_snapshot_row):
            workers.append(worker)
            if room is None:
                room = row_room
            elif row_room != room:
                raise CliError(f"{path}:{line}: temp_c/illum_lx must be identical on every row")
    if not workers:
        raise CliError(f"{path}: snapshot has no worker rows")
    return StateSnapshot(tuple(workers), *room)


# ---------------------------------------------------------------------------
# trace and metrics CSV


def _bounded(low: float, high: float = math.inf):
    """A converter of a named field's text to a finite float in [low, high]."""
    def convert(name: str, text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and low <= value <= high):
            raise ValueError(f"{name} must be finite and lie in [{low}, {high}], got {text}")
        return value
    return convert


def _at_least(low: int):
    """A converter of a named field's text to an integer >= low."""
    def convert(name: str, text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        return value
    return convert


# A trace, in file order: its metadata lines "# key=value", then the
# columns of a step record, each with the SimTrace or TraceStep field it
# holds and the converter of its text.  A step record ends in dl_w<i>,
# effort_w<i> for each worker.
_TRACE_METADATA = {
    "mode": ("mode", lambda name, text: ControlMode.parse(text)),
    "seed": ("seed", _at_least(0)),
    "workers": ("num_workers", _at_least(1)),
    "penalty_cap": ("penalty_cap", _bounded(0.0)),
    "temp_comfort": ("temp_comfort", _bounded(*TEMP_RANGE)),
    "illum_comfort": ("illum_comfort", _bounded(*ILLUM_RANGE)),
}
_TRACE_COLUMNS = {
    "step": ("step", lambda name, text: int(text)),
    "temp_set_c": ("temp_set", _bounded(*TEMP_RANGE)),
    "illum_set_lx": ("illum_set", _bounded(*ILLUM_RANGE)),
    "temp_c": ("temp", _bounded(*TEMP_RANGE)),
    "illum_lx": ("illum", _bounded(*ILLUM_RANGE)),
    "penalty": ("penalty", _bounded(0.0)),
    # _trace_step checks these two together.
    "feasible": ("feasible", lambda name, text: None if text == "" else text == "1"),
    "status": ("status", lambda name, text: text),
}
# The statuses run_scenario records; only "ok" steps ran a solve.
_TRACE_STATUSES = ("ok", "stale", "error", "lunch")
_TRACE_DL = _bounded(DL_MIN, DL_MAX)
_TRACE_EFFORT = _bounded(0.0)


def _cell(value) -> str:
    """A value as a CSV cell: a float at fmt6, a flag 0 or 1, None empty,
    a mode by its value, an int by str."""
    if isinstance(value, bool):  # before int, as bool is a subclass of int
        return str(int(value))
    if isinstance(value, float):
        return fmt6(value)
    if value is None:
        return ""
    return value.value if isinstance(value, enum.Enum) else str(value)


def _trace_header(workers: int) -> list[str]:
    return [*_TRACE_COLUMNS, *(f"{name}_w{i}" for i in range(workers) for name in ("dl", "effort"))]


def write_trace_csv(path: str, trace: SimTrace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(
            f"# {key}={_cell(getattr(trace, field))}\n" for key, (field, _) in _TRACE_METADATA.items()
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_trace_header(trace.num_workers))
        for step in trace.steps:
            record = [_cell(getattr(step, field)) for field, _ in _TRACE_COLUMNS.values()]
            for dl, effort in zip(step.dls, step.efforts):
                record += [fmt6(dl), fmt6(effort)]
            writer.writerow(record)


def _trace_step(record: list[str]) -> TraceStep:
    cells = dict(zip(_TRACE_COLUMNS, record))
    feasible, status = cells["feasible"], cells["status"]
    if status not in _TRACE_STATUSES:
        raise ValueError(f"status must be one of {', '.join(_TRACE_STATUSES)}, got {status!r}")
    if status == "ok" and feasible not in ("0", "1"):
        raise ValueError(f"feasible must be 0 or 1 on an ok step, got {feasible!r}")
    if status != "ok" and feasible != "":
        raise ValueError(f"feasible must be empty on a {status} step, got {feasible!r}")
    step = {field: convert(name, cells[name]) for name, (field, convert) in _TRACE_COLUMNS.items()}
    workers = record[len(_TRACE_COLUMNS):]
    dls = tuple(_TRACE_DL(f"dl_w{i}", text) for i, text in enumerate(workers[::2]))
    efforts = tuple(_TRACE_EFFORT(f"effort_w{i}", text) for i, text in enumerate(workers[1::2]))
    return TraceStep(**step, dls=dls, efforts=efforts)


def read_trace_csv(path: str) -> SimTrace:
    """A trace that write_trace_csv wrote.  A field that cannot be such a
    trace's (a non-finite number, a reading or setpoint outside the
    measured range, a dl off the 1-5 scale, a negative effort, penalty or
    seed, a status run_scenario does not record, a feasible flag on a step
    that is not ok or none on one that is, a step not numbered 0, 1, 2,
    ... in file order) is a CliError naming the file and its line, and so
    is a metadata key that is not a trace's or that repeats."""
    values, pending = {}, dict(_TRACE_METADATA)  # pending: the keys not read yet
    with _CsvFile(path, "trace") as csv_file:
        for number, line in enumerate(csv_file.metadata_lines(), start=1):
            key, sep, text = line[1:].partition("=")
            if not sep:
                raise CliError(f"{path}:{number}: malformed metadata line {line.strip()!r}")
            key = key.strip()
            if key not in pending:
                raise CliError(f"{path}:{number}: trace metadata key {key!r} is unknown or repeated")
            field, convert = pending.pop(key)
            with _refused(f"{path}:{number}: bad trace metadata: "):
                values[field] = convert(key, text.strip())
        if pending:
            raise CliError(f"{path}: missing trace metadata {list(pending)}")
        workers = values["num_workers"]
        csv_file.header(len(_TRACE_COLUMNS) + 2 * workers, lambda: _trace_header(workers))
        steps = []
        for line, step in csv_file.records(_trace_step):
            if step.step != len(steps):
                raise CliError(f"{path}:{line}: step must be {len(steps)}, got {step.step}")
            steps.append(step)
    if not steps:
        raise CliError(f"{path}: trace has no step rows")
    return SimTrace(steps=tuple(steps), **values)


def write_metrics_csv(path: str, metrics: Metrics) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        writer.writerows([f.name, _cell(getattr(metrics, f.name))] for f in fields(metrics))


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
    unknown = sorted(set(parser.sections()) - set(_SECTIONS))
    if parser.defaults():  # configparser would copy these keys into every section
        unknown.append(parser.default_section)
    if unknown:
        raise CliError(f"config {path}: unknown section(s) {unknown}")
    return parser


# How a value is read, by the declared type of the field it sets.  A field
# of any other type (a nested dataclass or model set) takes no key.
_READERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "bool": lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
    "ControlMode": ControlMode.parse,
    "tuple[float, ...]": lambda raw: tuple(float(tok) for tok in raw.split(",")) if raw else (),
}

# The dataclasses whose fields each section's keys set, with the prefix
# their keys carry.
_SECTIONS = {
    "mpc": ((MpcConfig, ""),),
    "de": ((DeParams, ""),),
    "plant": ((IdtModel, ""), (AmiModel, ""), (DlModel, "dl_"), (PlantConfig, "")),
    "scenario": ((ScenarioConfig, ""),),
}


def _section_keys(section: str) -> dict[str, tuple[int, Field, str | None, str]]:
    """Key -> (i, field, entry, type) for each key of a section.

    i indexes the section's dataclasses.  DlModel.coef, the one dict
    field, takes a float key per drowsiness feature, named by entry;
    entry is None for every other field.
    """
    keys = {}
    for i, (cls, prefix) in enumerate(_SECTIONS[section]):
        for f in fields(cls):
            if f.type == "dict[str, float]":
                keys.update({prefix + name: (i, f, name, "float") for name in DL_FEATURES})
            elif f.type in _READERS:
                keys[prefix + f.name] = (i, f, None, f.type)
    return keys


def _read_section(path: str, parser, section: str, required: bool) -> list[dict]:
    """Keyword arguments for each dataclass of a section, from its keys."""
    kwargs: list[dict] = [{} for _ in _SECTIONS[section]]
    if not parser.has_section(section):
        if required:
            raise CliError(f"config {path}: missing required [{section}] section")
        return kwargs
    try:
        values = dict(parser.items(section))
    except configparser.Error as err:
        raise CliError(f"config {path} is malformed: {err}")
    keys = _section_keys(section)
    unknown = sorted(set(values) - set(keys))
    if unknown:
        raise CliError(
            f"config {path}: unknown key(s) {unknown} in section [{section}]; "
            f"allowed: {sorted(keys)}"
        )
    missing = [
        key
        for key, (_, f, _, _) in keys.items()
        if key not in values and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise CliError(f"config {path}: [{section}] missing key(s) {missing}")
    for key, (i, f, entry, kind) in keys.items():
        if key not in values:
            continue
        raw = values[key]
        if raw.lower() == f.metadata.get("config_none"):
            value = None
        else:
            try:
                value = _READERS[kind](raw)
            except (KeyError, ValueError):  # KeyError: not a boolean spelling
                raise CliError(
                    f"config {path}: key {key!r} in [{section}] has bad value {raw!r} "
                    f"(expected {kind})"
                )
        if entry is None:
            kwargs[i][f.name] = value
        else:
            kwargs[i].setdefault(f.name, {})[entry] = value
    return kwargs


def _control_config(path: str, parser) -> tuple[MpcConfig, DeParams]:
    (mpc,) = _read_section(path, parser, "mpc", required=True)
    with _refused(f"config {path}: "):
        cfg = MpcConfig(**mpc)
    (de,) = _read_section(path, parser, "de", required=False)
    with _refused(f"config {path}: [de] "):
        return cfg, DeParams(**de)


def parse_scenario_config(
    path: str, controller_models: ModelSet | None = None
) -> ScenarioConfig:
    """Assemble a full scenario from [mpc], [de], [plant] and [scenario];
    controller_models are simulate's --model."""
    parser = _load_config(path)
    cfg, de = _control_config(path, parser)
    idt, ami, dl, rest = _read_section(path, parser, "plant", required=True)
    with _refused(f"config {path}: [plant] "):
        plant = PlantConfig(
            true_idt=IdtModel(**idt), true_ami=AmiModel(**ami), true_dl=DlModel(**dl), **rest
        )
    (scenario,) = _read_section(path, parser, "scenario", required=True)
    with _refused(f"config {path}: "):
        return ScenarioConfig(
            plant=plant, mpc_cfg=cfg, de=de, controller_models=controller_models, **scenario
        )


def parse_control_config(path: str) -> tuple[MpcConfig, DeParams]:
    """[mpc] + [de] only, as needed by solve and daemon."""
    return _control_config(path, _load_config(path))


def shipped_config_path(name: str) -> str:
    """Filesystem path of a packaged configuration file."""
    from importlib.resources import files

    return str(files("alertmpc").joinpath("configs", name))


# ---------------------------------------------------------------------------
# daemon


# The C scanner that JSONDecoder.raw_decode wraps, called without the wrapper.
_scan_json = json.JSONDecoder().scan_once


def _parse_stream_record(line: str):
    """(when, worker, dl, temp, illum) from one stripped stream line.

    The line must be exactly one JSON object: "t" and "worker" JSON
    strings, "dl", "temp_c" and "illum_lx" JSON numbers (not true/false),
    dl on the 1-5 scale, temp_c and illum_lx in TEMP_RANGE and
    ILLUM_RANGE.  Anything else raises KeyError,
    ValueError or TypeError, including nesting too deep to decode and
    integers too large for a float.
    """
    try:
        doc, end = _scan_json(line, 0)
    except StopIteration:  # no JSON value starts the line
        raise ValueError("expecting a JSON value") from None
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
    if not (DL_MIN <= dl <= DL_MAX):
        raise ValueError(f"dl {dl} outside the 1-5 scale")
    # One comparison chain rather than two require_in_range calls: this
    # runs on every stream line.
    if not (TEMP_RANGE[0] <= temp <= TEMP_RANGE[1] and ILLUM_RANGE[0] <= illum <= ILLUM_RANGE[1]):
        raise ValueError(f"temp_c {temp} or illum_lx {illum} outside the measured range")
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
        block = np.array([buffers[i] for i in rows], dtype=float)
        for i, mean, std in zip(rows, block.mean(axis=1).tolist(), block.std(axis=1).tolist()):
            means[i] = mean
            stds[i] = std
    return tuple(means), tuple(stds)


def run_daemon(models: ModelSet, cfg: MpcConfig, de: DeParams, lines, on_record) -> dict:
    """Consume measurement lines, emitting one setpoint record per interval.

    Records are aggregated over fixed windows of cfg.step_hours anchored
    at the first record's timestamp: a record belongs to window
    (t - origin) // step, so one on a boundary opens the later window, and
    one before the current window is late.  Window 0 only starts the
    controller history (status "warmup").  From window 1 on, which
    completes the two-step history, each completed window w triggers the
    solve for interval w - 1.  Windows missing data hold the previous
    setpoints with status "stale".  The roster is the names of the latest window
    that named exactly cfg.num_workers workers; a window counts as data
    when every roster worker has a record in it, and a new roster starts
    the two-step history afresh.  Each record carries "feasible",
    "generations" and "stop_reason" (None without a solve; 0 and None
    under NOC).  A failed solve is held as "error" and counted in "errors".
    Malformed and out-of-order lines are skipped and counted; a line whose
    window would start past year 9999 is malformed.
    """
    window = timedelta(hours=cfg.step_hours)
    ctl = Controller(models, cfg, de)
    origin = None
    current = 0
    # The current window's bounds [start, end).  Two comparisons place a
    # record between them; only a record outside them works out its
    # window number.  end is None before the first record and when the
    # window ends past datetime.max.
    start = end = None
    dl_buf: dict[str, list[float]] = {}
    temps: list[float] = []
    illums: list[float] = []
    roster: tuple[str, ...] | None = None
    records_in = malformed = late = 0
    stats = {"records_in": 0, "records_out": 0, "malformed": 0, "late": 0, "errors": 0}

    def close_window(w: int) -> dict:
        nonlocal roster
        distinct = tuple(sorted(dl_buf))
        if len(distinct) == cfg.num_workers and distinct != roster:
            # The roster is missing from this window, which names exactly
            # num_workers workers: they become the roster.  The history
            # logged under the old names goes, so that no worker's readings
            # are paired with another's.
            roster = distinct
            ctl.restart_history()
        complete = (
            roster is not None
            and temps
            and all(dl_buf.get(wid) for wid in roster)
        )
        if complete:
            means, stds = _window_stats([dl_buf[wid] for wid in roster] + [temps, illums])
            ctl.observe(w - 2, means[:-2], stds[:-2], means[-2], means[-1])
        decision = ctl.hold("warmup") if w == 0 else ctl.decide(w - 1)
        solution = decision.solution
        stats["errors"] += decision.status == "error"
        return {
            "t": (origin + (w + 1) * window).isoformat(),
            "temp_set_c": decision.setpoints[0],
            "illum_set_lx": decision.setpoints[1],
            "feasible": decision.feasible,
            "status": decision.status,
            "generations": None if solution is None else solution.generations_used,
            "stop_reason": None if solution is None else solution.stop_reason,
        }

    for line in lines:
        line = line.strip()
        if not line:
            continue
        records_in += 1
        try:
            when, worker, dl, temp, illum = _parse_stream_record(line)
            # A naive timestamp against offset bounds, or the reverse,
            # raises TypeError in the comparison as in the subtraction.
            inside = end is not None and start <= when < end
            if not inside:
                if origin is None:
                    origin = when
                w = (when - origin) // window
        except (KeyError, ValueError, TypeError):
            malformed += 1
            continue
        if not inside:
            if w < current:
                late += 1
                continue
            try:
                w_start = origin + w * window
            except OverflowError:  # the window starts past year 9999
                malformed += 1
                continue
            while current < w:
                record = close_window(current)
                on_record(record)
                stats["records_out"] += 1
                dl_buf.clear()
                temps.clear()
                illums.clear()
                current += 1
            start = w_start
            try:
                end = start + window
            except OverflowError:
                end = None  # every later record works out its window number
        buf = dl_buf.get(worker)
        if buf is None:
            dl_buf[worker] = [dl]
        else:
            buf.append(dl)
        temps.append(temp)
        illums.append(illum)
    stats.update(records_in=records_in, malformed=malformed, late=late)
    return stats


# ---------------------------------------------------------------------------
# commands


def _override_seed(settings, seed: int | None):
    """settings (a DeParams or a ScenarioConfig) with its seed replaced by
    --seed, when that is given."""
    if seed is None:
        return settings
    with _refused("--seed: "):
        return replace(settings, seed=seed)


def _open_stream(path: str, mode: str, std):
    """The file at path, or the standard stream std for "-".  Input is read
    with errors="surrogateescape" (stdin through a wrapper of its own), so a
    line that is not UTF-8 reaches _utf8_lines instead of stopping the read."""
    errors = "surrogateescape" if mode == "r" else None
    if path == "-":
        if errors:
            return io.TextIOWrapper(std.buffer, encoding="utf-8", errors=errors)
        return contextlib.nullcontext(std)
    try:
        return open(path, mode, encoding="utf-8", errors=errors)
    except OSError as err:
        verb = "read" if mode == "r" else "write"
        raise CliError(f"cannot {verb} stream {path}: {err}")


# Stands in for a stream line that is not UTF-8: run_daemon counts it
# malformed, as it does not parse, and never reads the line's bytes.
_NOT_UTF8 = "<not UTF-8>"


def _utf8_lines(fh):
    """fh's lines, each one that is not strictly UTF-8 replaced by _NOT_UTF8.
    Under errors="surrogateescape" just the bytes that are not UTF-8 decode
    to lone surrogates, which do not encode."""
    for line in fh:
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            line = _NOT_UTF8
        yield line


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
    reports = {"dl": dl_report, "idt": idt_report, "ami": ami_report}
    for name, report in reports.items():
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
            "reports": reports,
        },
    )
    return 0


def cmd_solve(args) -> int:
    models = read_model_set(args.model)
    cfg, de = parse_control_config(args.config)
    de = _override_seed(de, args.seed)
    snapshot = read_snapshot_csv(args.snapshot)
    with _refused("", (ShapeMismatch, NonFiniteObjective, BadBounds)):
        solution = solve(models, snapshot, cfg, de)
    schedule = solution.schedule
    steps = enumerate(zip(schedule.temp_setpoints, schedule.illum_setpoints), start=1)
    if args.format == "csv":
        print(f"# objective={fmt6(solution.objective_value)}")
        print(f"# feasible={1 if solution.feasible else 0}")
        print("step,temp_set_c,illum_set_lx")
        for i, (t_set, l_set) in steps:
            print(f"{i},{fmt6(t_set)},{fmt6(l_set)}")
    else:
        feas = "yes" if solution.feasible else "NO (least-violating schedule shown)"
        print(f"objective {fmt6(solution.objective_value)}  feasible {feas}")
        for i, (t_set, l_set) in steps:
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
    sc = _override_seed(parse_scenario_config(args.config, controller_models), args.seed)
    with _refused(f"config {args.config}: ", PlantOutOfRange):
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


# The Metrics fields report averages per arm, in column order, and their
# names in its CSV output.
_REPORT_METRICS = {
    "mean_dl": "mean_dl",
    "comfort_violation_rate": "comfort_violation_rate",
    "mean_abs_temp_dev": "mean_abs_temp_dev",
    "mean_abs_illum_dev": "mean_abs_illum_dev",
    "setpoint_change_count": "mean_setpoint_changes",
}


def cmd_report(args) -> int:
    comparison = ArmComparison()
    for path in args.traces:
        trace = read_trace_csv(path)
        with _refused(f"{path}: "):  # a repeated (mode, seed)
            comparison.add(trace.mode.value, trace.seed, compute_metrics(trace))
    arms = sorted(comparison.runs)
    means = {arm: [fmt6(comparison.mean_of(arm, name)) for name in _REPORT_METRICS] for arm in arms}
    base = "NOC"
    deltas = []  # (arm, mean of its paired mean_dl deltas against base, shared seeds)
    for arm in arms:
        if arm == base or base not in comparison.runs:
            continue
        if not comparison.paired(arm, base):
            print(f"warning: seed sets of {arm} and {base} differ; paired deltas skipped", file=sys.stderr)
            continue
        per_seed = comparison.paired_delta(arm, base)
        deltas.append((arm, fmt6(np.mean(per_seed)), len(per_seed)))

    if args.format == "csv":
        print("kind,arm,metric,value")
        for arm in arms:
            print(f"arm,{arm},traces,{len(comparison.runs[arm])}")
            for name, mean in zip(_REPORT_METRICS.values(), means[arm]):
                print(f"arm,{arm},{name},{mean}")
        for arm, delta, _ in deltas:
            print(f"delta,{arm}-{base},mean_dl,{delta}")
    else:
        row = "{:<6} {:>6} {:>9} {:>9} {:>9} {:>10} {:>9}".format
        print(row("arm", "traces", "mean_dl", "viol_rate", "temp_dev", "illum_dev", "setp_chg"))
        for arm in arms:
            print(row(arm, len(comparison.runs[arm]), *means[arm]))
        for arm, delta, n in deltas:
            print(f"paired mean_dl delta {arm}-{base}: {delta} ({n} shared seeds, negative favors {arm})")
    write_manifest(
        args.out_dir,
        "report",
        {"traces": list(args.traces), "format": args.format},
    )
    return 0


def cmd_daemon(args) -> int:
    models = read_model_set(args.model)
    cfg, de = parse_control_config(args.config)
    de = _override_seed(de, args.seed)

    def on_record(record: dict):
        out_fh.write(json.dumps(record, sort_keys=True) + "\n")
        out_fh.flush()

    # Nested, so --in is closed again when --out cannot be opened.
    with _open_stream(args.infile, "r", sys.stdin) as in_fh:
        with _open_stream(args.outfile, "w", sys.stdout) as out_fh:
            stats = run_daemon(models, cfg, de, _utf8_lines(in_fh), on_record)
    if stats["malformed"] or stats["late"] or stats["errors"]:
        print(
            f"warning: skipped {stats['malformed']} malformed and {stats['late']} late "
            f"line(s); {stats['errors']} window(s) held on a solver error",
            file=sys.stderr,
        )
    write_manifest(
        args.out_dir,
        "daemon",
        {
            "model": args.model,
            "config": args.config,
            "seed": args.seed,
            "mpc": cfg,
            "de": de,
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
                   help="controller model JSON; without it the controller uses the plant's models")
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
