"""The simulator as the daemon's oracle.

A small closed loop is simulated, its trace is replayed as a measurement
stream carrying the disturbances the daemon is documented to tolerate,
and the daemon must apply the simulator's setpoints step for step.

Each window holds one reading per worker, each with the step's room
reading.  With one or two workers the window's room means are exactly
the simulator's readings (the mean of two equal floats is that float;
of three it need not be), so the daemon solves from the simulator's own
state.
"""

import io
import json
from datetime import datetime, timedelta

from hypothesis import given, settings, strategies as st

from alertmpc.daemon import _utf8_lines, run_daemon
from alertmpc.domain import ControlMode, MpcConfig
from alertmpc.optimizer import DeParams
from alertmpc.sim import PlantConfig, ScenarioConfig, run_scenario

from helpers import CASE1_MODELS

ORIGIN = datetime(2026, 1, 5, 8, 0, 0)
WINDOW_SECONDS = 900

# Lines that are not one record.  The second is a whole record, but its
# time has an offset, which the naive stream's windows cannot compare with.
MALFORMED = [
    b"not json",
    b'{"t": "2026-01-05T08:00:00+00:00", "worker": "w0", "dl": 2.0, "temp_c": 26.0, "illum_lx": 600.0}',
    b'{"t": "2026-01-05T08:00:00", "worker": "w0", "dl": 6.0, "temp_c": 26.0, "illum_lx": 600.0}',
    b'{"t": "2026-01-05T08:00:00", "worker": "w0", "dl": true, "temp_c": 26.0, "illum_lx": 600.0}',
    b'{"worker": "w0", "dl": 2.0, "temp_c": 26.0, "illum_lx": 600.0}',
    b'{"t": "2026-01-05T08:00:00", "worker": "w0", "dl": 2.0, "temp_c": 26.0, "illum_lx": 600.0} x',
    b"[1, 2]",
]
# Lines that are not UTF-8.  Decoded leniently the first would be a record
# of worker "w\udce9", in window 0.
NOT_UTF8 = [
    b'{"t": "2026-01-05T08:00:00", "worker": "w\xe9", "dl": 2.0, "temp_c": 26.0, "illum_lx": 600.0}',
    b'{"t": "\xe9"}',
    b"\xff\xfe",
]
BLANK = [b"", b"   ", b"\t"]


def record(seconds: int, worker: str, dl: float, temp: float, illum: float) -> bytes:
    when = ORIGIN + timedelta(seconds=seconds)
    doc = {"t": when.isoformat(), "worker": worker, "dl": dl, "temp_c": temp, "illum_lx": illum}
    return json.dumps(doc).encode()


scenarios = st.tuples(
    st.sampled_from([1, 2]),  # workers
    st.integers(1, 3),  # horizon
    st.integers(3, 8),  # steps
    st.sampled_from(list(ControlMode)),
    st.integers(0, 2**16),  # scenario and search seed
)


@settings(max_examples=50, deadline=None)
@given(scenarios, st.randoms(use_true_random=False))
def test_daemon_applies_the_simulators_setpoints(scenario, rnd):
    workers, horizon, steps, mode, seed = scenario
    m = CASE1_MODELS
    plant = PlantConfig(true_idt=m.idt, true_ami=m.ami, true_dl=m.dl, substeps=1)
    cfg = MpcConfig(mode=mode, horizon=horizon, num_workers=workers)
    de = DeParams(population_size=8, max_generations=4, seed=seed)
    trace, _ = run_scenario(ScenarioConfig(steps=steps, seed=seed, plant=plant, mpc_cfg=cfg, de=de))

    # Windows 0 and 1 hold the initial state, as the simulator's two
    # pre-steps do; window t + 2 holds step t; one record opens window
    # steps + 2, which closes the last step's window.
    at_rest = [(plant.init_dl, plant.init_temp, plant.init_illum)] * workers
    readings = [at_rest, at_rest]
    readings += [[(dl, s.temp, s.illum) for dl in s.dls] for s in trace.steps]
    readings.append(at_rest[:1])

    lines: list[bytes] = []
    late = 0
    for w, window in enumerate(readings):
        start = w * WINDOW_SECONDS
        offsets = [rnd.randrange(WINDOW_SECONDS) for _ in window]
        order = list(range(len(window)))
        rnd.shuffle(order)
        if w == 0:
            offsets[order[0]] = 0  # the stream's first line sets the origin
        batch = [record(start + offsets[i], f"w{i}", *window[i]) for i in order]
        # After a window's first record, a record for any earlier window is late.
        for _ in range(rnd.randrange(3) if w > 0 else 0):
            late_line = record(rnd.randrange(start), f"w{rnd.randrange(workers)}",
                               rnd.uniform(1.0, 5.0), rnd.uniform(20.0, 30.0), rnd.uniform(300.0, 900.0))
            batch.insert(rnd.randrange(1, len(batch) + 1), late_line)
            late += 1
        lines += batch

    junk = [rnd.choice(MALFORMED) for _ in range(rnd.randrange(4))]
    junk += [rnd.choice(NOT_UTF8) for _ in range(rnd.randrange(3))]
    malformed = len(junk)
    junk += [rnd.choice(BLANK) for _ in range(rnd.randrange(3))]
    for line in junk:
        lines.insert(rnd.randrange(1, len(lines) + 1), line)

    stream = io.TextIOWrapper(io.BytesIO(b"\n".join(lines) + b"\n"), encoding="utf-8", errors="surrogateescape")
    records = []
    stats = run_daemon(plant.truth(), cfg, de, _utf8_lines(stream), records.append)

    assert stats == {
        "records_in": sum(1 for line in lines if line.strip()),
        "records_out": steps + 2,
        "malformed": malformed,
        "late": late,
        "errors": 0,
    }
    assert records[0]["status"] == "warmup"
    for record_out, step in zip(records[1:], trace.steps):
        assert (record_out["status"], record_out["feasible"], record_out["temp_set_c"], record_out["illum_set_lx"]) == (
            step.status, step.feasible, step.temp_set, step.illum_set)
