"""Seeded input generators for the benchmark workloads.

Nothing here imports alertmpc: the program under test only ever sees the
generated inputs (scenario seeds, daemon stream lines, a model file and a
telemetry CSV).  The same seed always yields the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta

# Ground-truth coefficients, equal to the [plant] section of the shipped
# configs.  The identification workload must recover them from its CSV.
TRUTH_DL = {
    "intercept": 0.14,
    "coef": {
        "d_prev": 0.8,
        "d_plus_prev": 0.08,
        "d_minus_prev": -0.04,
        "temp": 0.02,
        "temp_plus": 0.05,
        "temp_minus": -0.18,
        "illum": -0.0004,
        "illum_plus": -0.0011,
        "illum_minus": 0.0006,
        "effort": -0.06,
    },
}
TRUTH_IDT = {"k_up": 0.3, "k_down": 0.45}
TRUTH_AMI = {"theta0": 30.0, "theta_prev": 0.1, "theta_set": 0.85}

STREAM_ORIGIN = datetime(2026, 1, 5, 8, 0, 0)
WINDOW = timedelta(minutes=15)


def model_document() -> dict:
    """The truth as a version-1 model file."""
    return {"version": 1, "dl": TRUTH_DL, "idt": TRUTH_IDT, "ami": TRUTH_AMI}


def scenario_seeds(seed: int, count: int) -> list[int]:
    """Distinct scenario seeds for the paired arm comparison."""
    return random.Random(seed).sample(range(1_000_000), count)


@dataclass(frozen=True)
class StreamPlan:
    """A daemon input stream and what the daemon must make of it.

    closing[i] is true when lines[i] is the first valid record of a new
    window, so consuming it makes run_daemon emit the windows before it.
    expected_status[w] is the status window w must be emitted with.
    """

    lines: tuple[str, ...]
    closing: tuple[bool, ...]
    expected_status: tuple[str, ...]
    gap_window: int
    malformed: int
    late: int
    wellformed: int


_MALFORMED = (
    '{"t": "2026-01-05T08:00:00", "worker": "w0", "dl": 2.0',
    '[1, 2, 3]',
    '{"t": "yesterday", "worker": "w0", "dl": 2.0, "temp_c": 26.0, "illum_lx": 600.0}',
    '{"t": "2026-01-05T08:00:00", "worker": "w0", "temp_c": 26.0, "illum_lx": 600.0}',
    '{"t": "2026-01-05T08:00:00", "worker": "w0", "dl": 7.5, "temp_c": 26.0, "illum_lx": 600.0}',
    '{"t": "2026-01-05T08:00:00", "worker": "w0", "dl": NaN, "temp_c": 26.0, "illum_lx": 600.0}',
)


def _record(when: datetime, worker: str, dl: float, temp: float, illum: float) -> str:
    return json.dumps(
        {
            "t": when.isoformat(),
            "worker": worker,
            "dl": round(dl, 4),
            "temp_c": round(temp, 3),
            "illum_lx": round(illum, 2),
        }
    )


def daemon_stream(
    seed: int,
    workers: int,
    readings: int,
    windows: int,
    malformed_share: float,
    late_share: float,
) -> StreamPlan:
    """Measurement lines for `windows` closed windows plus one closing marker.

    Each worker reports `readings` times per window.  One window in the
    middle carries no data (the gap), which must make that window and the
    next one stale.  Malformed and late lines are injected after the first
    record of a window, never in window 0, so they neither set the stream
    origin nor close a window.
    """
    if windows < 6:
        raise ValueError("a stream needs at least 6 windows to place the gap")
    rng = random.Random(seed)
    gap = rng.randrange(2, windows - 3)
    names = [f"w{i:02d}" for i in range(workers)]
    dls = [rng.uniform(1.8, 3.2) for _ in names]
    temp = 26.0
    illum = 600.0
    per_window = workers * readings
    spacing = WINDOW / per_window

    lines: list[str] = []
    closing: list[bool] = []
    malformed = late = 0
    for w in range(windows + 1):
        if w == gap:
            continue
        temp = min(max(temp + rng.gauss(0.0, 0.15), 25.4), 26.6)
        illum = min(max(illum + rng.gauss(0.0, 30.0), 480.0), 720.0)
        marker = w == windows
        count = 1 if marker else per_window
        start = STREAM_ORIGIN + w * WINDOW
        for k in range(count):
            i = k % workers
            dls[i] = min(max(dls[i] + rng.gauss(0.0, 0.05), 1.2), 4.8)
            lines.append(
                _record(
                    start + k * spacing,
                    names[i],
                    dls[i],
                    temp + rng.gauss(0.0, 0.02),
                    illum + rng.gauss(0.0, 2.0),
                )
            )
            closing.append(k == 0 and w > 0)
            if w == 0 or marker:
                continue
            if rng.random() < malformed_share:
                lines.append(rng.choice(_MALFORMED))
                closing.append(False)
                malformed += 1
            if rng.random() < late_share:
                back = start - WINDOW / 2
                lines.append(_record(back, names[i], dls[i], temp, illum))
                closing.append(False)
                late += 1

    status = ["warmup"] + ["ok"] * (windows - 1)
    status[gap] = status[gap + 1] = "stale"
    return StreamPlan(
        lines=tuple(lines),
        closing=tuple(closing),
        expected_status=tuple(status),
        gap_window=gap,
        malformed=malformed,
        late=late,
        wellformed=len(lines) - malformed,
    )


TELEMETRY_HEADER = "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx"


def telemetry_rows(seed: int, workers: int, steps: int) -> list[str]:
    """CSV lines (header first) of a fleet driven by random setpoints.

    The room and every worker follow the truth models with small process
    noise, so least squares on these rows recovers the truth closely.
    """
    rng = random.Random(seed)
    c = TRUTH_DL["coef"]
    k_up, k_down = TRUTH_IDT["k_up"], TRUTH_IDT["k_down"]
    th0, thp, ths = TRUTH_AMI["theta0"], TRUTH_AMI["theta_prev"], TRUTH_AMI["theta_set"]

    temp, illum = 26.0, 600.0
    dl = [rng.uniform(2.0, 3.0) for _ in range(workers)]
    d_plus = [0.0] * workers
    d_minus = [0.0] * workers
    out = [TELEMETRY_HEADER]
    for step in range(steps):
        t_set = rng.uniform(24.0, 28.0)
        l_set = rng.uniform(400.0, 800.0)
        k = k_up if t_set >= temp else k_down
        new_temp = k * t_set + (1.0 - k) * temp + rng.gauss(0.0, 0.01)
        new_illum = th0 + thp * illum + ths * l_set + rng.gauss(0.0, 1.0)
        t_inc = new_temp - temp
        l_inc = new_illum - illum
        t_plus, t_minus = max(t_inc, 0.0), max(-t_inc, 0.0)
        l_plus, l_minus = max(l_inc, 0.0), max(-l_inc, 0.0)
        for i in range(workers):
            effort = rng.uniform(0.0, 0.3)
            new = (
                TRUTH_DL["intercept"]
                + c["d_prev"] * dl[i]
                + c["d_plus_prev"] * d_plus[i]
                + c["d_minus_prev"] * d_minus[i]
                + c["temp"] * new_temp
                + c["temp_plus"] * t_plus
                + c["temp_minus"] * t_minus
                + c["illum"] * new_illum
                + c["illum_plus"] * l_plus
                + c["illum_minus"] * l_minus
                + c["effort"] * effort
                + rng.gauss(0.0, 0.03)
            )
            inc = new - dl[i]
            d_plus[i], d_minus[i] = max(inc, 0.0), max(-inc, 0.0)
            dl[i] = new
            out.append(
                f"{step},w{i:02d},{new:.7g},{effort:.6g},{new_temp:.7g},"
                f"{new_illum:.7g},{t_set:.7g},{l_set:.7g}"
            )
        temp, illum = new_temp, new_illum
    return out
