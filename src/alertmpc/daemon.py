"""The streaming daemon: measurement lines in, one setpoint record per window out.

The input is newline-delimited JSON, one measurement a line; run_daemon
aggregates it over fixed windows and hands each closed window to a
Controller.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import numpy as np

from .domain import DL_MAX, DL_MIN, ILLUM_RANGE, JSON_NUMBER, TEMP_RANGE, ModelSet, MpcConfig
from .mpc import Controller
from .optimizer import DeParams


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
    if not (type(dl) in JSON_NUMBER and type(temp) in JSON_NUMBER and type(illum) in JSON_NUMBER):
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


class Window:
    """The daemon's open window: its readings and the roster they are read against.

    dls maps each worker named in the window to its dl readings; temps
    and illums hold the room readings of every record.  close() clears
    the three in place, so a reader may bind them to locals once.  The
    roster is the names of the latest closed window that named exactly
    num_workers workers, None before there was one.
    """

    def __init__(self, num_workers: int):
        self.num_workers = num_workers
        self.dls: dict[str, list[float]] = {}
        self.temps: list[float] = []
        self.illums: list[float] = []
        self.roster: tuple[str, ...] | None = None

    def close(self) -> tuple[bool, tuple | None]:
        """Clear the window's readings, returning (new roster, observation).

        new roster: the window named exactly num_workers workers other than
        the roster, and they became it.  The history logged under the old
        names must then restart, so that no worker's readings are paired
        with another's.  observation: Controller.observe's dl means, dl
        standard deviations, temperature and illuminance over the roster,
        or None when a roster worker has no reading in the window.
        """
        dls, temps, illums = self.dls, self.temps, self.illums
        names = tuple(sorted(dls))
        new_roster = len(names) == self.num_workers and names != self.roster
        if new_roster:
            self.roster = names
        roster = self.roster
        observation = None
        if roster is not None and all(dls.get(wid) for wid in roster):
            means, stds = _window_stats([dls[wid] for wid in roster] + [temps, illums])
            observation = (means[:-2], stds[:-2], means[-2], means[-1])
        dls.clear()
        temps.clear()
        illums.clear()
        return new_roster, observation


def _setpoint_record(end: datetime, decision) -> dict:
    """The output record of the window that ends at end."""
    solution = decision.solution
    return {
        "t": end.isoformat(),
        "temp_set_c": decision.setpoints[0],
        "illum_set_lx": decision.setpoints[1],
        "feasible": decision.feasible,
        "status": decision.status,
        "generations": None if solution is None else solution.generations_used,
        "stop_reason": None if solution is None else solution.stop_reason,
    }


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
    step = timedelta(hours=cfg.step_hours)
    ctl = Controller(models, cfg, de)
    window = Window(cfg.num_workers)
    dl_buf, temps, illums = window.dls, window.temps, window.illums  # cleared in place
    origin = None
    current = 0
    # The current window's bounds [start, end).  Two comparisons place a
    # record between them; only a record outside them works out its
    # window number.  end is None before the first record and when the
    # window ends past datetime.max.
    start = end = None
    records_in = malformed = late = errors = 0

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
                w = (when - origin) // step
        except (KeyError, ValueError, TypeError):
            malformed += 1
            continue
        if not inside:
            if w < current:
                late += 1
                continue
            try:
                w_start = origin + w * step
            except OverflowError:  # the window starts past year 9999
                malformed += 1
                continue
            while current < w:
                new_roster, observation = window.close()
                if new_roster:
                    ctl.restart_history()
                if observation is not None:
                    ctl.observe(current - 2, *observation)
                decision = ctl.hold("warmup") if current == 0 else ctl.decide(current - 1)
                errors += decision.status == "error"
                on_record(_setpoint_record(origin + (current + 1) * step, decision))
                current += 1
            start = w_start
            try:
                end = start + step
            except OverflowError:
                end = None  # every later record works out its window number
        buf = dl_buf.get(worker)
        if buf is None:
            dl_buf[worker] = [dl]
        else:
            buf.append(dl)
        temps.append(temp)
        illums.append(illum)
    return dict(records_in=records_in, records_out=current, malformed=malformed, late=late, errors=errors)


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
