"""The files the commands read and write, each declared once.

File formats are deliberately plain: CSV with a fixed header for
telemetry, snapshots and traces (floats at 6 significant digits), a
two-column CSV for metrics, and a versioned JSON document for model sets.
A file that cannot be read, or that breaks its format, is a CliError
naming the file and, for a record, its line; so is an output path that
cannot be written.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import functools
import itertools
import json
import math
import warnings
from array import array
from collections.abc import Callable
from dataclasses import asdict, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from .domain import (
    ControlMode,
    DL_MAX,
    DL_MIN,
    ILLUM_RANGE,
    JSON_NUMBER,
    ModelSet,
    StateSnapshot,
    TEMP_RANGE,
    WorkerState,
    require_in_range,
)
from .identify import InvalidTelemetry, TelemetryTable, VALUE_COLUMNS
from .sim import Metrics, SimTrace, TraceStep

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


@contextlib.contextmanager
def _writing(path: str, newline: str | None = None):
    """The file at path, opened to write UTF-8 text; an OSError in opening
    or writing it is a CliError "cannot write <path>: ..."."""
    with _refused(f"cannot write {path}: ", OSError), open(
        path, "w", newline=newline, encoding="utf-8"
    ) as fh:
        yield fh


def fmt6(x: float) -> str:
    """Render a float at 6 significant digits (CSV convention)."""
    x = float(x)
    if x == 0.0:
        return "0"
    return format(x, ".6g")


# ---------------------------------------------------------------------------
# model files


def write_model_set(path: str, models: ModelSet) -> None:
    with _writing(path) as fh:
        json.dump({"version": MODEL_FILE_VERSION, **asdict(models)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        if type(value) not in JSON_NUMBER:
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
    with _writing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TELEMETRY_HEADER)
        workers = [table.worker_ids[code] for code in table.worker.tolist()]
        values = ([fmt6(x) for x in getattr(table, name).tolist()] for name in VALUE_COLUMNS)
        writer.writerows(zip(table.step.tolist(), workers, *values))


def _snapshot_row(record: list[str]) -> tuple[str, WorkerState, tuple[float, float]]:
    temp, illum = float(record[5]), float(record[6])
    require_in_range("temp_c", temp, TEMP_RANGE)
    require_in_range("illum_lx", illum, ILLUM_RANGE)
    return record[0], WorkerState(*map(float, record[1:5])), (temp, illum)


def read_snapshot_csv(path: str) -> StateSnapshot:
    """One row per worker, each worker_id once, plus the shared room
    temperature/illuminance."""
    workers: list[WorkerState] = []
    line_of: dict[str, int] = {}  # worker_id -> the line that names it
    room = None
    with _CsvFile(path, "snapshot") as csv_file:
        csv_file.header(len(SNAPSHOT_HEADER), lambda: SNAPSHOT_HEADER)
        for line, (worker_id, worker, row_room) in csv_file.records(_snapshot_row):
            if worker_id in line_of:
                raise CliError(f"{path}:{line}: worker_id {worker_id!r} repeats line {line_of[worker_id]}")
            line_of[worker_id] = line
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
    with _writing(path, newline="") as fh:
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
    with _writing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        writer.writerows([f.name, _cell(getattr(metrics, f.name))] for f in fields(metrics))

