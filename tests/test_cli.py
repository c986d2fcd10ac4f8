import ast
import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import alertmpc.cli as cli_module
import alertmpc.daemon as daemon_module
import alertmpc.formats as formats_module
import alertmpc.mpc as mpc_module
import alertmpc.sim as sim_module
from alertmpc.cli import main, parse_control_config, parse_scenario_config
from alertmpc.daemon import Window, _parse_stream_record, _window_stats
from alertmpc.formats import (
    SNAPSHOT_HEADER,
    CliError,
    fmt6,
    read_model_set,
    read_snapshot_csv,
    read_telemetry_csv,
    read_trace_csv,
    write_model_set,
    write_telemetry_csv,
    write_trace_csv,
)
from alertmpc.domain import (
    DL_FEATURES,
    DL_MAX,
    DL_MIN,
    ILLUM_RANGE,
    TEMP_RANGE,
    AmiModel,
    ControlMode,
    ControlSchedule,
    DlModel,
    IdtModel,
    ModelSet,
    MpcConfig,
    StateSnapshot,
    WorkerState,
)
from alertmpc.identify import VALUE_COLUMNS, fit_ami_model, fit_dl_model, fit_idt_coeffs
from alertmpc.models import HorizonKernel, constraint_violation, rollout
from alertmpc.mpc import Controller, solve
from alertmpc.optimizer import DeParams, NonFiniteObjective
from alertmpc.sim import (
    ARMS,
    PlantConfig,
    SimTrace,
    TraceStep,
    compare_arms,
    run_open_loop,
    run_scenario,
    scenario_for_arm,
    trace_nbytes,
)

from helpers import (
    CASE1_MODELS,
    KEPT_CLAMPS_MODELS,
    daemon_windows_by_number,
    replay_stream_lines,
    rows_of,
    shipped_config_path,
    solve_failing_at,
    table_of,
    write_kept_clamps_inputs,
)

TRUTH = CASE1_MODELS

CONTROL_CFG = """\
[mpc]
mode = mpc2
horizon = 2
num_workers = 1

[de]
population_size = 10
max_generations = 8
seed = 77
"""

PLANT_SECTION = """\
[plant]
k_up = 0.3
k_down = 0.45
theta0 = 30.0
theta_prev = 0.1
theta_set = 0.85
dl_intercept = 0.14
dl_d_prev = 0.8
dl_d_plus_prev = 0.08
dl_d_minus_prev = -0.04
dl_temp = 0.02
dl_temp_plus = 0.05
dl_temp_minus = -0.18
dl_illum = -0.0004
dl_illum_plus = -0.0011
dl_illum_minus = 0.0006
dl_effort = -0.06
idt_noise_sd = 0.03
ami_noise_sd = 3.0
dl_noise_sd = 0.03
effort_sd = 0.05
substeps = 1
init_temp = 26.5
init_illum = 520
init_dl = 2.2
"""

SCENARIO_CFG = CONTROL_CFG + "\n" + PLANT_SECTION + """
[scenario]
steps = 4
seed = 11
"""

SNAPSHOT_CSV = """\
worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx
w0,2.4,0.1,0,0.12,26.8,540
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def put(tmp_path, name, text):
    """Write text to tmp_path/name with its line endings untouched (CRLF stays CRLF)."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def sweep_plant():
    return PlantConfig(
        true_idt=TRUTH.idt, true_ami=TRUTH.ami, true_dl=TRUTH.dl,
        idt_noise_sd=0.0, ami_noise_sd=0.0, dl_noise_sd=0.0,
        effort_sd=0.08, substeps=4,
        init_temp=26.5, init_illum=520.0, init_dl=2.2,
    )


def sweep_setpoints(steps=60):
    return [
        (25.5 if (i // 3) % 2 == 0 else 26.8, 450.0 + (i * 37) % 300)
        for i in range(steps)
    ]


class TestFmt6:
    def test_examples(self):
        assert fmt6(600.0) == "600"
        assert fmt6(0.0) == "0"
        assert fmt6(-0.0) == "0"
        assert fmt6(26.5) == "26.5"
        assert fmt6(1.0 / 150.0) == "0.00666667"

    def test_parse_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(rng.uniform(-1e4, 1e4))
            assert float(fmt6(x)) == pytest.approx(x, rel=1e-5)

    def test_stable_after_one_round_trip(self):
        for x in (2.1234567890123, -0.00012345678, 599.9999999):
            once = fmt6(x)
            assert fmt6(float(once)) == once


FINITE = st.floats(allow_nan=False, allow_infinity=False)

MODEL_SETS = st.builds(
    ModelSet,
    dl=st.builds(DlModel, intercept=FINITE, coef=st.fixed_dictionaries({name: FINITE for name in DL_FEATURES})),
    idt=st.builds(IdtModel, k_up=st.floats(0.0, 1.0, exclude_min=True),
                  k_down=st.floats(0.0, 1.0, exclude_min=True)),
    ami=st.builds(AmiModel, theta0=FINITE, theta_prev=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                  theta_set=FINITE),
)

# Edits of one member of a model file: its value replaced by a JSON text,
# or the member deleted, repeated, or joined by a key no writer writes.
MODEL_MUTATIONS = ["true", "null", '"0.3"', "1e400", "[]", "{}", "delete", "repeat", "add"]


def json_members(doc):
    """(object, index) of each member of doc, a JSON document loaded as
    nested lists of (key, value) pairs."""
    for i, (_, value) in enumerate(doc):
        yield doc, i
        if isinstance(value, list):
            yield from json_members(value)


def json_text(doc) -> str:
    """The JSON text of such a document, whose other values are JSON texts."""
    if isinstance(doc, list):
        return "{" + ", ".join(f"{json.dumps(key)}: {json_text(value)}" for key, value in doc) + "}"
    return doc


def mutated_model_text(text: str, member: int, mutation: str) -> str:
    """text, a model file's text, with one member edited by mutation."""
    doc = json.loads(text, object_pairs_hook=list, parse_float=str, parse_int=str)
    members = list(json_members(doc))
    obj, i = members[member % len(members)]
    if mutation == "delete":
        del obj[i]
    elif mutation == "repeat":
        obj.insert(i + 1, obj[i])
    elif mutation == "add":
        obj.insert(i, ("bogus", "1"))
    else:
        obj[i] = (obj[i][0], mutation)
    return json_text(doc)


class TestModelFiles:
    @settings(max_examples=50, deadline=None)
    @given(models=MODEL_SETS)
    def test_any_model_set_reads_back_equal(self, tmp_path_factory, models):
        path = str(tmp_path_factory.mktemp("model") / "m.json")
        write_model_set(path, models)
        assert read_model_set(path) == models

    def test_nan_coefficient_is_exit_2(self, workdir, capsys):
        model = str(workdir / "m.json")
        write_model_set(model, TRUTH)
        doc = json.loads(Path(model).read_text())
        doc["ami"]["theta0"] = float("nan")
        Path(model).write_text(json.dumps(doc))  # json spells it NaN
        argv = ["solve", put(workdir, "snap.csv", SNAPSHOT_CSV), "--model", model,
                "--config", put(workdir, "c.cfg", CONTROL_CFG)]
        assert main(argv + ["--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: model file {model} is malformed: illuminance coefficients must be finite\n"
        )

    # The members are numbered depth first, in file order: 0 is "ami",
    # 8 "dl.coef.d_prev", 19 "idt.k_up" and 20 "version".
    @settings(max_examples=60, deadline=None)
    @given(models=MODEL_SETS, member=st.integers(0, 20), mutation=st.sampled_from(MODEL_MUTATIONS))
    @example(models=TRUTH, member=19, mutation="repeat")
    @example(models=TRUTH, member=20, mutation="add")
    @example(models=TRUTH, member=8, mutation="repeat")
    def test_any_edited_member_is_refused_or_reads_back(self, tmp_path_factory, models, member, mutation):
        directory = tmp_path_factory.mktemp("model")
        path = str(directory / "m.json")
        write_model_set(path, models)
        edited = mutated_model_text(Path(path).read_text(), member, mutation)
        put(directory, "m.json", edited)
        try:
            back = read_model_set(path)
        except CliError as err:
            assert path in str(err)
            return
        again = str(directory / "again.json")
        write_model_set(again, back)
        assert read_model_set(again) == back
        # What was read is all the file holds: each key once, none the writer lacks.
        sorted_pairs = functools.partial(json.loads, object_pairs_hook=sorted)
        assert sorted_pairs(edited) == sorted_pairs(Path(again).read_text())

    @pytest.mark.parametrize("edit", ["repeated k_up", "repeated coef", "unknown top-level key",
                                      "unknown model key"])
    def test_keys_no_writer_writes_are_refused(self, tmp_path, capsys, edit):
        path = str(tmp_path / "m.json")
        write_model_set(path, TRUTH)
        text = Path(path).read_text()
        old, new = {
            "repeated k_up": ('"k_up"', '"k_up": 0.2, "k_up"'),
            "repeated coef": ('"coef"', '"coef": {}, "coef"'),
            "unknown top-level key": ('"version"', '"bogus": 1, "version"'),
            "unknown model key": ('"k_up"', '"k_middle": 0.2, "k_up"'),
        }[edit]
        put(tmp_path, "m.json", text.replace(old, new))
        with pytest.raises(CliError, match=re.escape(f"model file {path} is malformed: ")):
            read_model_set(path)
        snap = put(tmp_path, "snap.csv", SNAPSHOT_CSV)
        cfg = put(tmp_path, "control.cfg", CONTROL_CFG)
        assert main(["solve", snap, "--model", path, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert path in capsys.readouterr().err

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model_set(path, TRUTH)
        assert read_model_set(path) == TRUTH

    def test_rejects_wrong_version(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model_set(path, TRUTH)
        doc = json.loads(Path(path).read_text())
        doc["version"] = 99
        Path(path).write_text(json.dumps(doc))
        with pytest.raises(CliError, match="version"):
            read_model_set(path)

    def test_rejects_bad_json(self, tmp_path):
        path = put(tmp_path, "m.json", "{not json")
        with pytest.raises(CliError, match="not valid JSON"):
            read_model_set(path)

    def test_rejects_missing_block(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model_set(path, TRUTH)
        doc = json.loads(Path(path).read_text())
        del doc["idt"]
        Path(path).write_text(json.dumps(doc))
        with pytest.raises(CliError, match="malformed"):
            read_model_set(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
            read_model_set(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("case", [
        "top-level array", "coef list", "coef string", "not utf-8", "true coefficient",
        "true intercept", "string gain", "int too large for a float", "true version",
    ])
    def test_rejects_malformed_documents(self, tmp_path, case):
        path = tmp_path / "m.json"
        write_model_set(str(path), TRUTH)
        doc = json.loads(path.read_text())
        if case == "top-level array":
            doc = [doc]
        elif case == "coef list":
            doc["dl"]["coef"] = list(doc["dl"]["coef"].values())
        elif case == "coef string":
            doc["dl"]["coef"] = "d_prev"
        elif case == "true coefficient":
            doc["dl"]["coef"]["effort"] = True
        elif case == "true intercept":
            doc["dl"]["intercept"] = True
        elif case == "string gain":
            doc["idt"]["k_up"] = "0.3"
        elif case == "int too large for a float":
            doc["ami"]["theta0"] = 10 ** 400
        elif case == "true version":
            doc["version"] = True
        data = json.dumps(doc).encode()
        if case == "not utf-8":
            data = data[:-1] + b', "note": "caf\xe9"}'
        path.write_bytes(data)
        with pytest.raises(CliError, match=re.escape(str(path))):
            read_model_set(str(path))


class TestTelemetryCsv:
    def test_second_write_is_byte_identical(self, tmp_path):
        table = run_open_loop(sweep_plant(), 2, sweep_setpoints(20), seed=9)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_telemetry_csv(p1, table)
        write_telemetry_csv(p2, read_telemetry_csv(p1))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_open_loop_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "t.csv"
        write_telemetry_csv(str(path), run_open_loop(sweep_plant(), 2, sweep_setpoints(20), seed=9))
        data = path.read_bytes()
        assert data.count(b"\n") == 41  # the header and 40 rows
        assert hashlib.sha256(data).hexdigest() == (
            "693e8de85cf8ad3c947aeecdcaf58d4e773b26f1e7d111a8ca7188f06673f034"
        )

    def test_header_mismatch(self, tmp_path):
        path = put(tmp_path, "t.csv", "step,worker\n0,w0\n")
        with pytest.raises(CliError, match="header"):
            read_telemetry_csv(path)

    def test_header_with_one_wrong_name_is_exit_2(self, workdir, capsys):
        header = "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set"
        path = put(workdir, "t.csv", header + "\n0,w0,2.0,0.1,26.0,600,26,600\n")
        assert main(["identify", path, str(workdir / "m.json"), "--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: telemetry header mismatch, expected "
            f"'{header}_lx', got {header.split(',')!r}\n"
        )

    def test_bad_float_reports_line(self, tmp_path):
        path = put(tmp_path, "t.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   "0,w0,2.0,0.1,26.0,600,26,600\n"
                   "1,w0,oops,0.1,26.0,600,26,600\n")
        with pytest.raises(CliError, match="t.csv:3"):
            read_telemetry_csv(path)

    def test_lines_counted_past_quoted_newline(self, tmp_path):
        # Row 2's worker id spans physical lines 2-3, so the bad float sits
        # on physical line 4 although it is the file's third CSV record.
        path = put(tmp_path, "t.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   '0,"w\n0",2.0,0.1,26.0,600,26,600\n'
                   '1,"w\n0",oops,0.1,26.0,600,26,600\n')
        with pytest.raises(CliError, match=r"t\.csv:5:"):
            read_telemetry_csv(path)
        path = put(tmp_path, "u.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   '0,"w\n0",2.0,0.1,26.0,600,26,600\n'
                   "1,w1,oops,0.1,26.0,600,26,600\n")
        with pytest.raises(CliError, match=r"u\.csv:4:"):
            read_telemetry_csv(path)
        # Table-level checks name the physical line too: a dl off the scale.
        path = put(tmp_path, "v.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   '0,"w\n0",2.0,0.1,26.0,600,26,600\n'
                   "1,w1,9.0,0.1,26.0,600,26,600\n")
        with pytest.raises(CliError, match=r"v\.csv:4:"):
            read_telemetry_csv(path)

    def test_step_beyond_int64_reports_line(self, tmp_path):
        path = put(tmp_path, "t.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   "0,w0,2.0,0.1,26.0,600,26,600\n"
                   "99999999999999999999,w0,2.0,0.1,26.0,600,26,600\n")
        with pytest.raises(CliError, match="t.csv:3"):
            read_telemetry_csv(path)

    def test_field_count(self, tmp_path):
        path = put(tmp_path, "t.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   "0,w0,2.0\n")
        with pytest.raises(CliError, match="expected 8 fields"):
            read_telemetry_csv(path)

    @pytest.mark.parametrize("column, value", [
        ("dl", "nan"), ("effort", "nan"), ("temp_c", "nan"),
        ("illum_lx", "inf"), ("temp_set_c", "-inf"), ("illum_set_lx", "nan"),
    ])
    def test_nonfinite_value_reports_line_and_column(self, workdir, capsys, column, value):
        header = "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx"
        fields = dict(zip(header.split(","), "1,w0,2.1,0.1,26.0,600,26,600".split(",")))
        fields[column] = value
        path = put(workdir, "t.csv",
                   f"{header}\n0,w0,2.0,0.1,26.0,600,26,600\n" + ",".join(fields.values()) + "\n")
        name = column.removesuffix("_c").removesuffix("_lx")
        with pytest.raises(CliError, match=f"t.csv:3: {name} must be finite"):
            read_telemetry_csv(path)
        rc = main(["identify", path, str(workdir / "m.json"), "--out-dir", str(workdir)])
        assert rc == 2
        assert "t.csv:3" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value, message", [
        ("temp_c", "999", "temp must lie in [0.0, 50.0], got 999.0"),
        ("temp_c", "1e300", "temp must lie in [0.0, 50.0], got 1e+300"),
        ("illum_lx", "-5", "illum must lie in [0.0, 10000.0], got -5.0"),
        ("temp_set_c", "1e200", "temp_set must lie in [0.0, 50.0], got 1e+200"),
        ("illum_set_lx", "10000.5", "illum_set must lie in [0.0, 10000.0], got 10000.5"),
    ])
    def test_out_of_range_value_reports_line(self, workdir, capsys, column, value, message):
        header = "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx"
        fields = dict(zip(header.split(","), "1,w0,2.1,0.1,26.0,600,26,600".split(",")))
        fields[column] = value
        path = put(workdir, "t.csv",
                   f"{header}\n0,w0,2.0,0.1,26.0,600,26,600\n" + ",".join(fields.values()) + "\n")
        model = workdir / "m.json"
        rc = main(["identify", path, str(model), "--out-dir", str(workdir)])
        assert rc == 2
        assert f"t.csv:3: {message} (worker w0, step 1)" in capsys.readouterr().err
        assert not model.exists()

    def test_reversed_steps(self, tmp_path):
        path = put(tmp_path, "t.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   "1,w0,2.0,0.1,26.0,600,26,600\n"
                   "0,w0,2.1,0.1,26.0,600,26,600\n")
        with pytest.raises(CliError, match="strictly increasing"):
            read_telemetry_csv(path)


TELEMETRY_HEADER_LINE = "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx"


def telemetry_outcome(read, path):
    """What a telemetry reader makes of path: the table, floats by float.hex, or its error."""
    try:
        table = read(path)
    except CliError as err:
        return "error", str(err)
    columns = [[x.hex() for x in getattr(table, name).tolist()] for name in VALUE_COLUMNS]
    return "table", table.step.tolist(), table.worker.tolist(), table.worker_ids, columns


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


# Number spellings the two parsers could read differently: Python-only
# ones (1_0, non-ASCII digits, ideographic space), the ASCII separators
# numpy strips as whitespace, non-finite values and junk.
ODD_NUMBERS = ["1_0", "٢", "3　", "\x1f3", "3\x1c", "nan", "inf", "-inf", "1e400",
               "", "x", " 2.5 ", "+2", "2.", ".5"]
ODD_STEPS = ["99999999999999999999", "-99999999999999999999", "1_0", " 7 ", "+2", "1.0", "", "\x1e1"]
MALFORMED_ROWS = ["0,w0,2.0", "0,w0,2.0,0.1,26,600,26,600,", '0,"w0,2.0,0.1,26,600,26,600',
                  "0,w0,2.0,0.1,26,600,26,600,1"]


@st.composite
def telemetry_texts(draw):
    """Telemetry CSV text: mostly valid rows, with odd spellings, ids and line breaks mixed in."""
    def number(low, high):
        if draw(st.integers(0, 29)) == 0:
            return draw(st.sampled_from(ODD_NUMBERS))
        return repr(draw(st.floats(low, high)))

    ids = st.one_of(st.sampled_from(["w0", "w1", " w0", "w#1", ""]),
                    st.text(alphabet='w01,\n\r" #', max_size=4).map(quoted))
    text = TELEMETRY_HEADER_LINE + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    for i in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 49)) == 0:
            row = draw(st.sampled_from(MALFORMED_ROWS))
        else:
            step = draw(st.sampled_from(ODD_STEPS)) if draw(st.integers(0, 29)) == 0 else str(i)
            row = ",".join([step, draw(ids), number(1.0, 5.0), number(0.0, 1.0),
                            *(number(0.0, 1e3) for _ in range(4))])
        odd_breaks = ["\n\n", "\r\n\r\n", "\n \n", "\n\t\n"]  # blank and whitespace-only lines
        breaks = odd_breaks if draw(st.integers(0, 9)) == 0 else ["\n", "\r\n"]
        text += row + draw(st.sampled_from(breaks))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


class TestTelemetryFastPath:
    """read_telemetry_csv parses with np.loadtxt; _read_telemetry_rows is the reference."""

    @settings(max_examples=300, deadline=None)
    @given(text=telemetry_texts())
    @example(text=TELEMETRY_HEADER_LINE + "\n0,w0,\x1f2.0,0.1,26,600,26,600\n")
    @example(text=TELEMETRY_HEADER_LINE + '\n0,"w\n0",1_5,0.1,26,600,26,600\n')
    @example(text=TELEMETRY_HEADER_LINE + '\r\n0,"a,""b""",2.0,0.1,26,600,26,600\r\n')
    @example(text=TELEMETRY_HEADER_LINE)
    def test_agrees_with_row_reader(self, tmp_path_factory, text):
        path = put(tmp_path_factory.mktemp("telemetry"), "t.csv", text)
        assert telemetry_outcome(read_telemetry_csv, path) == telemetry_outcome(
            formats_module._read_telemetry_rows, path)

    def test_well_formed_file_never_reaches_row_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        ids = ['"w,0"', '"w""1"', '"w\n2"', "w3"]
        lines = [TELEMETRY_HEADER_LINE]
        for step in range(500):
            for worker in ids:
                values = [rng.uniform(1.0, 5.0), rng.uniform(0.0, 0.3),
                          *rng.uniform([24.0, 400.0, 24.0, 400.0], [28.0, 700.0, 28.0, 700.0])]
                lines.append(",".join([str(step), worker, *(repr(float(v)) for v in values)]))
        lines.insert(1000, "")
        path = put(tmp_path, "t.csv", "\r\n".join(lines) + "\r\n")
        expected = telemetry_outcome(formats_module._read_telemetry_rows, path)

        def refuse(path):
            raise AssertionError(f"{path} was read row by row")

        monkeypatch.setattr(formats_module, "_read_telemetry_rows", refuse)
        assert telemetry_outcome(read_telemetry_csv, path) == expected
        assert len(expected[1]) == 2000
        assert expected[3] == ("w,0", 'w"1', "w\n2", "w3")

    def test_header_only_file_is_an_empty_table_without_warning(self, tmp_path):
        path = put(tmp_path, "t.csv", TELEMETRY_HEADER_LINE + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = read_telemetry_csv(path)
        assert len(table) == 0 and table.worker_ids == ()


SNAPSHOT_ROWS = [["w0", "2.4", "0.1", "0", "0.12", "26.8", "540"],
                 ["w1", "3.0", "0", "0.2", "0.05", "26.8", "540"]]

# Field texts for snapshot edits: numbers in and out of range and odd spellings.
SNAPSHOT_FIELD_TEXTS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-0.1", "1e400", "0", "0.5", "5.5", "60", "2e4", "1,2"]),
    st.text(alphabet="0123456789.-+e ", max_size=6),
)


class TestSnapshotCsv:
    @settings(max_examples=80, deadline=None)
    @given(row=st.integers(0, 1), field=st.integers(0, 6), text=SNAPSHOT_FIELD_TEXTS)
    @example(row=0, field=2, text="nan")
    def test_any_edited_field_is_refused_or_in_range(self, tmp_path_factory, row, field, text):
        rows = [list(r) for r in SNAPSHOT_ROWS]
        rows[row][field] = text
        path = put(tmp_path_factory.mktemp("snapshot"), "s.csv",
                   "".join(",".join(r) + "\n" for r in [SNAPSHOT_HEADER, *rows]))
        try:
            snap = read_snapshot_csv(path)
        except CliError as err:
            assert re.match(re.escape(path) + r":\d+: ", str(err)), err
            return
        assert TEMP_RANGE[0] <= snap.temp_current <= TEMP_RANGE[1]
        assert ILLUM_RANGE[0] <= snap.illum_current <= ILLUM_RANGE[1]
        for worker in snap.workers:
            assert DL_MIN <= worker.d_current <= DL_MAX
            assert all(0.0 <= x < float("inf") for x in (worker.d_plus, worker.d_minus, worker.effort))

    @pytest.mark.parametrize("row", ["w0,2.0,nan,0,0.1,26,600", "w0,2.0,0,0,inf,26,600"])
    def test_rejects_nonfinite_worker_fields(self, tmp_path, row):
        path = put(tmp_path, "s.csv", "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n" + row + "\n")
        with pytest.raises(CliError, match=r"s\.csv:2: d_plus, d_minus and effort must be finite"):
            read_snapshot_csv(path)

    def test_room_outside_the_measured_range_names_its_line(self, tmp_path):
        path = put(tmp_path, "s.csv", "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n"
                                      "w0,2.0,0,0,0.1,60,600\n")
        with pytest.raises(CliError, match=r"s\.csv:2: temp_c 60\.0 outside the measured range"):
            read_snapshot_csv(path)

    def test_parses_workers_and_room(self, tmp_path):
        path = put(tmp_path, "s.csv",
                   "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n"
                   "w0,2.4,0.1,0,0.12,26.8,540\n"
                   "w1,3.0,0,0.2,0.05,26.8,540\n")
        snap = read_snapshot_csv(path)
        assert len(snap.workers) == 2
        assert snap.temp_current == 26.8
        assert snap.workers[1].d_minus == 0.2

    def test_room_must_match_across_rows(self, tmp_path):
        path = put(tmp_path, "s.csv",
                   "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n"
                   "w0,2.4,0.1,0,0.12,26.8,540\n"
                   "w1,3.0,0,0.2,0.05,27.0,540\n")
        with pytest.raises(CliError, match="identical on every row"):
            read_snapshot_csv(path)

    def test_rejects_invalid_worker(self, tmp_path):
        path = put(tmp_path, "s.csv",
                   "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n"
                   "w0,7.5,0,0,0.1,26.8,540\n")
        with pytest.raises(CliError, match="s.csv:2"):
            read_snapshot_csv(path)

    def test_lines_counted_past_quoted_newline(self, tmp_path):
        path = put(tmp_path, "s.csv",
                   "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n"
                   '"w\n0",2.4,0.1,0,0.12,26.8,540\n'
                   "w1,7.5,0,0,0.1,26.8,540\n")
        with pytest.raises(CliError, match=r"s\.csv:4:"):
            read_snapshot_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = put(tmp_path, "s.csv",
                   "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n")
        with pytest.raises(CliError, match="no worker rows"):
            read_snapshot_csv(path)

    def test_repeated_worker_id_names_its_line(self, workdir, capsys):
        # Two rows of w0 used to be scored as two workers.
        snap = put(workdir, "s.csv",
                   "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n"
                   "w0,2.4,0.1,0,0.12,26.8,540\n"
                   "w0,3.0,0,0.2,0.05,26.8,540\n")
        with pytest.raises(CliError, match=r"s\.csv:3: worker_id 'w0' repeats line 2$"):
            read_snapshot_csv(snap)
        model = str(workdir / "m.json")
        write_model_set(model, TRUTH)
        cfg = put(workdir, "control.cfg", CONTROL_CFG.replace("num_workers = 1", "num_workers = 2"))
        rc = main(["solve", snap, "--model", model, "--config", cfg, "--out-dir", str(workdir)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {snap}:3: worker_id 'w0' repeats line 2\n")
        assert not (workdir / "solve_manifest.json").exists()


@st.composite
def sim_traces(draw):
    """A trace as run_scenario could record it: feasible is a flag exactly on ok steps."""
    workers = draw(st.integers(1, 3))
    temps, illums = st.floats(*TEMP_RANGE), st.floats(*ILLUM_RANGE)
    nonnegative = st.floats(0.0, allow_infinity=False)
    per_worker = functools.partial(st.lists, min_size=workers, max_size=workers)
    steps = []
    for i in range(draw(st.integers(1, 4))):
        status = draw(st.sampled_from(["ok", "stale", "error", "lunch"]))
        steps.append(TraceStep(
            i, draw(temps), draw(illums), draw(temps), draw(illums), draw(nonnegative),
            draw(st.booleans()) if status == "ok" else None, status,
            tuple(draw(per_worker(st.floats(DL_MIN, DL_MAX)))), tuple(draw(per_worker(nonnegative))),
        ))
    return SimTrace(draw(st.sampled_from(ControlMode)), draw(st.integers(0, 2**64)), workers,
                    draw(nonnegative), draw(temps), draw(illums), tuple(steps))


# Field texts for trace edits: numbers in and out of range, odd spellings
# of numbers and flags, statuses and metadata keys, a comma.
TRACE_FIELD_TEXTS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "1e400", "0", "1", "2", " 1", "+1", "01", "true", "MPC1",
                     "noc", "ok", "stale", "lunch", "error", "bogus", "mode", "seed", "workers",
                     "penalty_cap", "temp_comfort", "illum_comfort", "1,2"]),
    st.text(alphabet="0123456789.-+e ", max_size=6),
)

SMALL_TRACE = SimTrace(ControlMode.MPC2, 7, 1, 2.0, 26.0, 600.0, (
    TraceStep(0, 26.0, 600.0, 26.43, 598.7, 0.2236, True, "ok", (2.123456789,), (0.05,)),
    TraceStep(1, 25.5, 750.0, 25.8, 700.0, 0.1, None, "stale", (2.4,), (0.0,)),
))


class TestTraceCsv:
    @settings(max_examples=40, deadline=None)
    @given(trace=sim_traces())
    def test_any_trace_writes_back_byte_identical(self, tmp_path_factory, trace):
        directory = tmp_path_factory.mktemp("trace")
        first, second = str(directory / "a.csv"), str(directory / "b.csv")
        write_trace_csv(first, trace)
        write_trace_csv(second, read_trace_csv(first))
        assert Path(first).read_bytes() == Path(second).read_bytes()

    # line and field pick one field of the file past its header: a
    # metadata line's key (field 0) or value, or a cell of a step record.
    @settings(max_examples=60, deadline=None)
    @given(trace=sim_traces(), line=st.integers(0, 9), field=st.integers(0, 13), text=TRACE_FIELD_TEXTS)
    @example(trace=SMALL_TRACE, line=1, field=0, text="mode")  # a repeated key
    @example(trace=SMALL_TRACE, line=0, field=0, text="bogus")  # an unknown key
    def test_any_edited_field_is_refused_or_reads_back(self, tmp_path_factory, trace, line, field, text):
        directory = tmp_path_factory.mktemp("trace")
        path = str(directory / "r.csv")
        write_trace_csv(path, trace)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        i = [i for i in range(len(lines)) if i != 6][line % (len(lines) - 1)]  # line 6 is the header
        if i < 6:
            fields = list(lines[i][2:].partition("=")[::2])
            fields[field % 2] = text
            lines[i] = f"# {fields[0]}={fields[1]}"
        else:
            fields = lines[i].split(",")
            fields[field % len(fields)] = text
            lines[i] = ",".join(fields)
        put(directory, "r.csv", "\n".join(lines) + "\n")
        try:
            back = read_trace_csv(path)
        except CliError as err:
            if i == 2 and field % 2 and "header mismatch" in str(err):
                return  # another worker count, which the header refutes
            assert re.match(re.escape(path) + (r":\d+: " if i < 6 else f":{i + 1}: "), str(err)), err
            return
        again = str(directory / "again.csv")
        write_trace_csv(again, back)
        assert read_trace_csv(again) == back

    @pytest.mark.parametrize("old, new, line, message", [
        ("# seed=7\n", "# seed=7\n# seed=1\n", 3, "trace metadata key 'seed' is unknown or repeated"),
        ("# mode=MPC2\n", "# bogus=1\n# mode=MPC2\n", 1, "trace metadata key 'bogus' is unknown or repeated"),
    ], ids=["repeated-key", "unknown-key"])
    def test_metadata_keys_no_writer_writes_are_refused(self, tmp_path, capsys, old, new, line, message):
        path = put(tmp_path, "r.csv", trace_text().replace(old, new))
        with pytest.raises(CliError, match=re.escape(f"{path}:{line}: {message}")):
            read_trace_csv(path)
        assert main(["report", path, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")

    def small_trace(self):
        steps = (
            TraceStep(0, 26.0, 600.0, 26.43, 598.7, 0.2236, True, "ok",
                      (2.123456789,), (0.05,)),
            TraceStep(1, 25.5, 750.0, 26.01, 640.2, 0.273, False, "ok",
                      (2.3,), (0.0,)),
            TraceStep(2, 25.5, 750.0, 25.8, 700.0, 0.1, None, "stale",
                      (2.4,), (0.0,)),
        )
        return SimTrace(ControlMode.MPC2, 7, 1, 2.0, 26.0, 600.0, steps)

    def test_round_trip_fields(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, self.small_trace())
        back = read_trace_csv(path)
        assert back.mode is ControlMode.MPC2
        assert back.seed == 7
        assert back.steps[1].feasible is False
        assert back.steps[2].status == "stale"
        assert back.steps[2].feasible is None
        assert back.steps[0].dls[0] == pytest.approx(2.123456789, rel=1e-5)

    def test_second_write_is_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_trace_csv(p1, self.small_trace())
        write_trace_csv(p2, read_trace_csv(p1))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_missing_metadata(self, tmp_path):
        path = put(tmp_path, "trace.csv",
                   "# mode=MPC2\nstep,temp_set_c\n")
        with pytest.raises(CliError, match="missing trace metadata"):
            read_trace_csv(path)

    def test_metadata_line_without_equals_is_exit_2(self, workdir, capsys):
        path = put(workdir, "r.csv", trace_text().replace("# seed=7\n", "# seed 7\n"))
        assert main(["report", path, "--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: malformed metadata line '# seed 7'\n"

    def test_header_mismatch(self, tmp_path):
        path = put(tmp_path, "trace.csv",
                   "# mode=MPC2\n# seed=0\n# workers=1\n# penalty_cap=2\n"
                   "# temp_comfort=26\n# illum_comfort=600\n"
                   "step,bogus\n")
        with pytest.raises(CliError, match="header mismatch"):
            read_trace_csv(path)

    @pytest.mark.parametrize("value", ["2", "-1", " 1", "+1", "01", "", "true"])
    def test_feasible_must_be_0_or_1(self, tmp_path, value):
        path = put(tmp_path, "r.csv", trace_text().replace(",1,ok,", f",{value},ok,"))
        with pytest.raises(CliError, match=r"r\.csv:8: feasible must be 0 or 1"):
            read_trace_csv(path)

    @pytest.mark.parametrize("status", ["lunch", "error", "stale"])
    def test_feasible_may_be_empty_on_a_step_that_is_not_ok(self, tmp_path, status):
        path = put(tmp_path, "r.csv", trace_text().replace(",1,ok,", f",,{status},"))
        (step,) = read_trace_csv(path).steps
        assert (step.feasible, step.status) == (None, status)

    # What simulate cannot write: a status it does not record, a feasible
    # flag on a step without a solve, steps not numbered 0, 1, 2, ...
    @pytest.mark.parametrize("old, new, message", [
        (",1,ok,", ",1,bogus,", r":8: status must be one of ok, stale, error, lunch, got 'bogus'"),
        (",1,ok,", ",1,OK,", r":8: status must be one of ok, stale, error, lunch, got 'OK'"),
        (",1,ok,", ",1,warmup,", r":8: status must be one of ok, stale, error, lunch, got 'warmup'"),
        (",1,ok,", ",1,lunch,", r":8: feasible must be empty on a lunch step, got '1'"),
        (",1,ok,", ",0,stale,", r":8: feasible must be empty on a stale step, got '0'"),
        ("\n0,26,", "\n-3,26,", r":8: step must be 0, got -3"),
    ], ids=["bogus-status", "upper-case-status", "daemon-status", "feasible-on-lunch",
            "feasible-on-stale", "negative-step"])
    def test_steps_simulate_cannot_write_are_refused(self, tmp_path, capsys, old, new, message):
        text = trace_text()
        assert text.count(old) == 1
        path = put(tmp_path, "r.csv", text.replace(old, new))
        with pytest.raises(CliError, match=re.escape(path) + message):
            read_trace_csv(path)
        assert main(["report", path, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:8: ")

    @pytest.mark.parametrize("numbers, line, message", [
        ((0, 2, 3), 9, "step must be 1, got 2"),
        ((0, 1, 1), 10, "step must be 2, got 1"),
        ((1, 0, 2), 8, "step must be 0, got 1"),
    ], ids=["skipped", "repeated", "swapped"])
    def test_steps_are_numbered_in_file_order(self, tmp_path, numbers, line, message):
        text = self.small_trace_text(tmp_path)
        lines = text.splitlines(keepends=True)
        for i, number in enumerate(numbers):
            lines[7 + i] = f"{number}," + lines[7 + i].split(",", 1)[1]
        path = put(tmp_path, "r.csv", "".join(lines))
        with pytest.raises(CliError, match=re.escape(f"{path}:{line}: {message}")):
            read_trace_csv(path)

    def small_trace_text(self, tmp_path):
        path = str(tmp_path / "small.csv")
        write_trace_csv(path, self.small_trace())
        return Path(path).read_text(encoding="utf-8")

    # Each case edits one field of trace_text()'s one-step trace: a
    # non-finite number, a reading or setpoint outside the measured range,
    # a dl off the 1-5 scale, a negative effort, penalty or seed.
    @pytest.mark.parametrize("old, new, message", [
        (",26.4,598.7,", ",nan,598.7,", r":8: temp_c must be finite"),
        (",26.4,598.7,", ",1e6,598.7,", r":8: temp_c must be finite and lie in \[0.0, 50.0\]"),
        (",26.4,598.7,", ",26.4,inf,", r":8: illum_lx must be finite"),
        ("0,26,600,", "0,-1,600,", r":8: temp_set_c must be finite and lie in \[0.0, 50.0\]"),
        ("0,26,600,", "0,26,1e5,", r":8: illum_set_lx must be finite and lie in \[0.0, 10000.0\]"),
        (",0.22,1,", ",-0.1,1,", r":8: penalty must be finite and lie in \[0.0, inf\]"),
        (",0.22,1,", ",nan,1,", r":8: penalty must be finite"),
        ("ok,2.1,0.05", "ok,9,0.05", r":8: dl_w0 must be finite and lie in \[1.0, 5.0\]"),
        ("ok,2.1,0.05", "ok,0.5,0.05", r":8: dl_w0 must be finite and lie in \[1.0, 5.0\]"),
        ("ok,2.1,0.05", "ok,2.1,-1", r":8: effort_w0 must be finite and lie in \[0.0, inf\]"),
        ("ok,2.1,0.05", "ok,2.1,inf", r":8: effort_w0 must be finite"),
        ("# seed=7", "# seed=-5", r":2: bad trace metadata: seed must be >= 0, got -5"),
        ("# penalty_cap=2", "# penalty_cap=nan", r":4: bad trace metadata: penalty_cap must be finite"),
        ("# temp_comfort=26", "# temp_comfort=1e6", r":5: bad trace metadata: temp_comfort must be finite"),
    ], ids=["nan-temp", "huge-temp", "inf-illum", "cold-temp-set", "bright-illum-set", "negative-penalty",
            "nan-penalty", "dl-above-5", "dl-below-1", "negative-effort", "inf-effort", "negative-seed",
            "nan-penalty-cap", "huge-temp-comfort"])
    def test_impossible_fields_are_refused(self, tmp_path, capsys, old, new, message):
        text = trace_text()
        assert text.count(old) == 1
        path = put(tmp_path, "r.csv", text.replace(old, new))
        with pytest.raises(CliError, match=re.escape(path) + message):
            read_trace_csv(path)
        assert main(["report", path, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    @pytest.mark.parametrize("workers, message", [
        ("-1", "bad trace metadata: workers must be >= 1, got -1"),
        ("0", "bad trace metadata: workers must be >= 1, got 0"),
        # The header names one worker, so it has 10 fields.
        ("100000", "trace header mismatch, expected 200008 fields"),
    ], ids=["negative", "zero", "wider-than-header"])
    def test_workers_metadata_is_checked(self, tmp_path, workers, message):
        path = put(tmp_path, "r.csv", trace_text().replace("# workers=1\n", f"# workers={workers}\n"))
        with pytest.raises(CliError, match=message) as err:
            read_trace_csv(path)
        assert len(str(err.value)) < 1000


HUGE_FIELD = "x" * 200_000  # longer than csv.field_size_limit()


def trace_text():
    """A one-step trace file's text; the step's status is "ok"."""
    return (
        "# mode=MPC2\n# seed=7\n# workers=1\n# penalty_cap=2\n"
        "# temp_comfort=26\n# illum_comfort=600\n"
        "step,temp_set_c,illum_set_lx,temp_c,illum_lx,penalty,feasible,status,dl_w0,effort_w0\n"
        "0,26,600,26.4,598.7,0.22,1,ok,2.1,0.05\n"
    )


UNREADABLE_FILES = {
    # reader: (file name, text with a field placeholder {}, physical line of it)
    "telemetry": (read_telemetry_csv, "t.csv",
                  TELEMETRY_HEADER_LINE + "\n0,w{},2.0,0.1,26,600,26,600\n"
                  # a bad float, so the np.loadtxt path refuses the file
                  "1,w0,x,0.1,26,600,26,600\n", 2),
    "snapshot": (read_snapshot_csv, "s.csv",
                 "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\nw{},2.4,0,0,0.1,26.8,540\n", 2),
    "trace": (read_trace_csv, "r.csv", trace_text().replace(",ok,", ",ok{},"), 8),
}


def telemetry_row(worker="w0", dl="2.0"):
    return TELEMETRY_HEADER_LINE + f"\n0,{worker},{dl},0.1,26,600,26,600\n"


# Files with a field longer than csv.field_size_limit(): (reader, file name,
# text, physical line on which the field passes the limit).
OVER_LIMIT_FILES = {
    kind: (reader, name, text.format(HUGE_FIELD), line)
    for kind, (reader, name, text, line) in UNREADABLE_FILES.items()
}
# Telemetry that np.loadtxt reads whole, so only the limit check keeps the
# fast path from accepting it.
OVER_LIMIT_FILES.update({
    f"telemetry-{kind}": (read_telemetry_csv, "t.csv", text, line)
    for kind, text, line in [
        ("long-id", telemetry_row(worker="w" + HUGE_FIELD), 2),
        ("leading-zeros", telemetry_row(dl="0" * 200_000 + "2.0"), 2),
        ("leading-spaces", telemetry_row(dl=" " * 200_000 + "2.0"), 2),
        ("quoted-id-over-lines", telemetry_row(worker=quoted("\n".join(["x" * 1000] * 200))), 132),
        ("quoted-id-with-commas", telemetry_row(worker=quoted("\n".join(["x," * 500] * 200))), 132),
        ("quoted-number-over-lines", telemetry_row(dl=quoted("\n".join([" " * 1000] * 200) + "2.0")), 132),
    ]
})


class TestUnreadableText:
    @pytest.mark.parametrize("kind", sorted(UNREADABLE_FILES))
    def test_not_utf8_is_named_error(self, tmp_path, kind):
        reader, name, text, _ = UNREADABLE_FILES[kind]
        path = tmp_path / name
        path.write_bytes(text.format("\xe9").encode("latin-1"))
        with pytest.raises(CliError, match=f"{name}: not UTF-8 text"):
            reader(str(path))

    @pytest.mark.parametrize("kind", sorted(OVER_LIMIT_FILES))
    def test_field_over_csv_limit_names_line(self, tmp_path, kind):
        reader, name, text, line = OVER_LIMIT_FILES[kind]
        path = put(tmp_path, name, text)
        with pytest.raises(CliError, match=f"{name}:{line}: field larger than field limit"):
            reader(path)

    def test_fields_at_csv_limit_load_without_row_reader(self, tmp_path, monkeypatch):
        limit = csv.field_size_limit()
        worker = "w" * limit
        path = put(tmp_path, "t.csv", TELEMETRY_HEADER_LINE + f"\n0,{worker},"
                   + "0" * (limit - 3) + "2.0,0.1,26,600,26,600\n")
        monkeypatch.setattr(formats_module, "_read_telemetry_rows", None)  # a fall-back would fail
        table = read_telemetry_csv(path)
        assert table.worker_ids == (worker,) and table.dl.tolist() == [2.0]

    def test_identify_exit_code(self, workdir, capsys):
        _, name, text, _ = UNREADABLE_FILES["telemetry"]
        (workdir / name).write_bytes(text.format("\xe9").encode("latin-1"))
        assert main(["identify", name, "m.json", "--out-dir", str(workdir)]) == 2
        assert f"error: {name}: not UTF-8 text" in capsys.readouterr().err


def longest_comma_free_run(data: bytes) -> int:
    return max(len(run) for run in data.split(b","))


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(st.sampled_from([b",", b"x", b"\n", b"xxxxx"]), max_size=60),
       limit=st.integers(0, 30))
def test_run_scan_matches_longest_comma_free_run(chunks, limit):
    data = b"".join(chunks)
    old = csv.field_size_limit(limit)
    try:
        assert formats_module._numpy_may_differ(io.BytesIO(data)) == (longest_comma_free_run(data) > limit)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("extra", [0, 1])
def test_run_scan_carries_a_run_across_read_chunks(extra):
    # A run of limit + extra bytes that starts before the 1 MiB read boundary and ends after it.
    limit = csv.field_size_limit()
    start = (1 << 20) - limit // 2
    data = b"1," * (start // 2) + b"x" * (limit + extra) + b",1\n"
    assert longest_comma_free_run(data) == limit + extra
    assert formats_module._numpy_may_differ(io.BytesIO(data)) == bool(extra)


class TestConfigParsing:
    def test_control_config_defaults(self, tmp_path):
        cfg, de = parse_control_config(put(tmp_path, "c.cfg", CONTROL_CFG))
        assert cfg.mode is ControlMode.MPC2
        assert cfg.horizon == 2
        assert cfg.temp_comfort == 26.0          # defaulted
        assert cfg.p_illum == pytest.approx(1.0 / 150.0)
        assert de.population_size == 10
        assert de.seed == 77

    def test_de_section_optional(self, tmp_path):
        _, de = parse_control_config(put(tmp_path, "c.cfg", "[mpc]\nmode = noc\nnum_workers = 1\n"))
        assert de.population_size is None
        assert de.max_generations == 200

    def test_population_auto(self, tmp_path):
        _, de = parse_control_config(
            put(tmp_path, "c.cfg", "[mpc]\nmode = mpc2\n[de]\npopulation_size = auto\n"))
        assert de.population_size is None

    def test_unknown_key_rejected(self, tmp_path):
        path = put(tmp_path, "c.cfg", "[mpc]\nmode = mpc2\ntypo_key = 3\n")
        with pytest.raises(CliError, match="typo_key"):
            parse_control_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = put(tmp_path, "c.cfg", "[mpc]\nmode = mpc2\n[extras]\nx = 1\n")
        with pytest.raises(CliError, match="extras"):
            parse_control_config(path)

    def test_bad_value_type(self, tmp_path):
        path = put(tmp_path, "c.cfg", "[mpc]\nmode = mpc2\nhorizon = soon\n")
        with pytest.raises(CliError, match="horizon"):
            parse_control_config(path)

    def test_semantic_validation(self, tmp_path):
        path = put(tmp_path, "c.cfg", "[mpc]\nmode = mpc2\ntemp_lo = 27\ntemp_hi = 25\n")
        with pytest.raises(CliError, match="temp_lo"):
            parse_control_config(path)

    @pytest.mark.parametrize("key, value, message", [
        ("steps", "0", "steps must be >= 1, got 0"),
        ("seed", "-1", "seed must be >= 0, got -1"),
        ("lunch_start", "-1", "lunch_start must be >= 0, got -1"),
        ("lunch_steps", "-1", "lunch_steps must be >= 0, got -1"),
    ])
    def test_bad_scenario_value(self, workdir, capsys, key, value, message):
        scenario = {"steps": "4", "seed": "11", key: value}
        lines = "".join(f"{name} = {text}\n" for name, text in scenario.items())
        path = put(workdir, "s.cfg", f"{CONTROL_CFG}\n{PLANT_SECTION}\n[scenario]\n{lines}")
        with pytest.raises(CliError, match=re.escape(f"config {path}: {message}")):
            parse_scenario_config(path)
        assert main(["simulate", "--config", path, "--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err == f"error: config {path}: {message}\n"

    @pytest.mark.parametrize("line,field", [
        ("penalty_cap = nan", "penalty_cap"),
        ("p_temp = inf", "p_temp"),
        ("[de]\ntolerance = nan", "tolerance"),
    ])
    def test_nonfinite_settings_rejected(self, tmp_path, line, field):
        path = put(tmp_path, "c.cfg", f"[mpc]\nmode = mpc2\n{line}\n")
        with pytest.raises(CliError, match=field):
            parse_control_config(path)

    @pytest.mark.parametrize("line, field", [
        ("init_temp = nan", "init_temp"),
        ("idt_noise_sd = inf", "idt_noise_sd"),
        ("drift = 0.1, nan", "drift"),
    ])
    def test_nonfinite_plant_settings_rejected(self, tmp_path, line, field):
        text = re.sub(rf"(?m)^{field} = .*\n", "", SCENARIO_CFG)
        text = text.replace("[plant]\n", f"[plant]\n{line}\n")
        with pytest.raises(CliError, match=f"{field} must be finite"):
            parse_scenario_config(put(tmp_path, "s.cfg", text))

    def test_bad_mode(self, tmp_path):
        path = put(tmp_path, "c.cfg", "[mpc]\nmode = pid\n")
        with pytest.raises(CliError, match="pid"):
            parse_control_config(path)

    def test_scenario_config(self, tmp_path):
        sc = parse_scenario_config(put(tmp_path, "s.cfg", SCENARIO_CFG))
        assert sc.steps == 4
        assert sc.seed == 11
        assert sc.plant.substeps == 1
        assert sc.plant.true_dl == TRUTH.dl
        assert sc.lunch_start is None

    def test_scenario_requires_scenario_section(self, tmp_path):
        path = put(tmp_path, "s.cfg", CONTROL_CFG + "\n" + PLANT_SECTION)
        with pytest.raises(CliError, match="scenario"):
            parse_scenario_config(path)

    def test_scenario_requires_plant(self, tmp_path):
        path = put(tmp_path, "s.cfg", CONTROL_CFG + "\n[scenario]\nsteps = 4\nseed = 1\n")
        with pytest.raises(CliError, match="plant"):
            parse_scenario_config(path)

    def test_plant_missing_coefficient(self, tmp_path):
        broken = SCENARIO_CFG.replace("dl_effort = -0.06\n", "")
        path = put(tmp_path, "s.cfg", broken)
        with pytest.raises(CliError, match="dl_effort"):
            parse_scenario_config(path)

    def test_drift_list_parsing(self, tmp_path):
        cfg_text = SCENARIO_CFG.replace("[scenario]", "drift = 0.0, 0.1, 0.0\n\n[scenario]")
        sc = parse_scenario_config(put(tmp_path, "s.cfg", cfg_text))
        assert sc.plant.drift == (0.0, 0.1, 0.0)

    def test_drift_bad_token(self, tmp_path):
        cfg_text = SCENARIO_CFG.replace("[scenario]", "drift = 0.0, wat\n\n[scenario]")
        with pytest.raises(CliError, match="drift"):
            parse_scenario_config(put(tmp_path, "s.cfg", cfg_text))

    def test_inline_comments_stripped(self, tmp_path):
        path = put(tmp_path, "c.cfg", "[mpc]\nmode = mpc2  # main arm\nhorizon = 3 ; short\n")
        cfg, _ = parse_control_config(path)
        assert cfg.horizon == 3

    @pytest.mark.parametrize("parse, text", [
        (parse_control_config, "[DEFAULT]\nhorizon = 3\n[mpc]\nmode = mpc2\n"),
        (parse_scenario_config, "[DEFAULT]\nseed = 3\n" + SCENARIO_CFG),
    ])
    def test_default_section_rejected(self, tmp_path, parse, text):
        with pytest.raises(CliError, match=r"unknown section\(s\) \['DEFAULT'\]"):
            parse(put(tmp_path, "c.cfg", text))

    def test_unreadable_config_is_exit_2(self, workdir, capsys):
        missing = str(workdir / "missing.cfg")
        assert main(["simulate", "--config", missing, "--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {missing}: [Errno 2] No such file or directory: {missing!r}\n"
        )

    def test_config_configparser_refuses_is_exit_2(self, workdir, capsys):
        cfg = put(workdir, "c.cfg", "[mpc]\nmode = mpc2\n[mpc]\nhorizon = 3\n")
        assert main(["simulate", "--config", cfg, "--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"error: config {cfg} is malformed: While reading from {cfg!r} [line  3]: "
            "section 'mpc' already exists\n"
        )

    def test_zero_step_hours_is_exit_2(self, workdir, capsys):
        model = str(workdir / "m.json")
        write_model_set(model, TRUTH)
        cfg = put(workdir, "c.cfg", CONTROL_CFG.replace("num_workers = 1\n", "num_workers = 1\nstep_hours = 0\n"))
        argv = ["solve", put(workdir, "snap.csv", SNAPSHOT_CSV), "--model", model, "--config", cfg]
        assert main(argv + ["--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err == f"error: config {cfg}: step_hours must be positive, got 0.0\n"

    @pytest.mark.parametrize("section, keys", [
        ("mpc", {"horizon", "step_hours", "num_workers", "temp_lo", "temp_hi", "illum_lo",
                 "illum_hi", "temp_comfort", "illum_comfort", "p_temp", "p_illum",
                 "penalty_cap", "mode"}),
        ("de", {"population_size", "mutation_factor", "crossover_rate", "max_generations",
                "tolerance", "seed"}),
        ("plant", {"k_up", "k_down", "theta0", "theta_prev", "theta_set", "dl_intercept",
                   "dl_d_prev", "dl_d_plus_prev", "dl_d_minus_prev", "dl_temp",
                   "dl_temp_plus", "dl_temp_minus", "dl_illum", "dl_illum_plus",
                   "dl_illum_minus", "dl_effort", "idt_noise_sd", "ami_noise_sd",
                   "dl_noise_sd", "effort_sd", "substeps", "drift", "ambient_pull",
                   "ambient_temp", "init_temp", "init_illum", "init_dl"}),
        ("scenario", {"steps", "seed", "lunch_start", "lunch_steps"}),
    ])
    def test_accepted_keys_per_section(self, tmp_path, section, keys):
        text = SCENARIO_CFG.replace(f"[{section}]\n", f"[{section}]\ntypo_key = 1\n")
        with pytest.raises(CliError, match="typo_key") as exc:
            parse_scenario_config(put(tmp_path, "s.cfg", text))
        allowed = ast.literal_eval(str(exc.value).split("allowed: ", 1)[1])
        assert set(allowed) == keys

    def test_every_reader_serves_a_field(self):
        # A reader whose type no section field declares is dead code.
        declared = {f.type for classes in cli_module._SECTIONS.values()
                    for cls, _ in classes for f in fields(cls)}
        assert set(cli_module._READERS) <= declared


CONTROL_BASE = {
    "mpc": {"mode": "mpc2", "horizon": "2", "num_workers": "1"},
    "de": {"population_size": "8", "max_generations": "4", "seed": "3"},
}
CONTROL_KEYS = {
    "mpc": ("horizon", "step_hours", "num_workers", "temp_lo", "temp_hi", "illum_lo",
            "illum_hi", "temp_comfort", "illum_comfort", "p_temp", "p_illum",
            "penalty_cap", "mode", "typo_key"),
    "de": ("population_size", "mutation_factor", "crossover_rate", "max_generations",
           "tolerance", "seed", "typo_key"),
}
# Keys that size the search; their values stay small so no example
# allocates much or runs long.
SIZE_KEYS = {"horizon", "num_workers", "population_size", "max_generations"}
ODD_VALUES = st.sampled_from(
    ["", "auto", "AUTO", "x", "nan", "inf", "-inf", "yes", "off", "1e3", "0x10",
     "1_0", "mpc1", "NOC", "MPC2 ", "pid", "%", "%%", "%(horizon)s", "0.1, 0.2"])


@st.composite
def mutated_control_config(draw):
    """The small base control config with one key set, added or dropped."""
    sections = {name: dict(keys) for name, keys in CONTROL_BASE.items()}
    section = draw(st.sampled_from(sorted(CONTROL_KEYS)))
    key = draw(st.sampled_from(CONTROL_KEYS[section]))
    if key in SIZE_KEYS:
        values = st.one_of(st.integers(-2, 12).map(str), ODD_VALUES)
    else:
        values = st.one_of(
            st.floats().map(repr),
            st.integers(-10**6, 10**6).map(str),
            ODD_VALUES,
            st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8),
        )
    value = draw(st.none() | values)
    if value is None:
        sections[section].pop(key, None)
    else:
        sections[section][key] = value
    return control_config_text(sections)


def control_config_text(sections) -> str:
    """The config file of sections, {section: {key: value text}}."""
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )


@settings(max_examples=150, deadline=None)
@given(text=mutated_control_config())
# A comfort weight whose penalty overflows: every search meets the
# saturated violation, and no solve may be proved feasible in advance.
@example(text=control_config_text(
    {"mpc": dict(CONTROL_BASE["mpc"], p_illum="1.7e308"), "de": CONTROL_BASE["de"]}))
def test_any_control_config_is_rejected_or_solves_inside_the_box(tmp_path_factory, text):
    path = put(tmp_path_factory.mktemp("cfg"), "c.cfg", text)
    try:
        cfg, de = parse_control_config(path)
    except CliError:
        return
    workers = tuple(WorkerState(d_current=2.5) for _ in range(cfg.num_workers))
    snap = StateSnapshot(workers, 26.0, 600.0)
    solution = solve(TRUTH, snap, cfg, de)
    temps = np.array(solution.schedule.temp_setpoints)
    illums = np.array(solution.schedule.illum_setpoints)
    assert len(temps) == cfg.horizon
    assert np.all(np.isfinite(temps)) and np.all(np.isfinite(illums))
    assert np.all((cfg.temp_lo <= temps) & (temps <= cfg.temp_hi))
    assert np.all((cfg.illum_lo <= illums) & (illums <= cfg.illum_hi))
    # The reported violation is the schedule's, also when the search ran
    # on the objective alone.
    assert solution.violation == constraint_violation(rollout(TRUTH, snap, solution.schedule, cfg), cfg)


# A model whose drowsiness rollout overflows, and a setpoint box wider
# than the largest float.
OVERFLOWING_MODELS = ModelSet(dl=DlModel(intercept=0.0, coef=dict(TRUTH.dl.coef, d_prev=1e308, temp=-1e308)),
                              idt=TRUTH.idt, ami=TRUTH.ami)
WIDE_BOX_CONFIG = control_config_text(
    {"mpc": dict(CONTROL_BASE["mpc"], temp_lo="-1.7e308", temp_hi="1.7e308"), "de": CONTROL_BASE["de"]})


@settings(max_examples=80, deadline=None)
@given(models=st.sampled_from([TRUTH, OVERFLOWING_MODELS]) | MODEL_SETS, member=st.integers(0, 20),
       mutation=st.none() | st.sampled_from(MODEL_MUTATIONS), workers=st.integers(1, 2),
       row=st.integers(0, 1), field=st.integers(0, 6), text=st.none() | SNAPSHOT_FIELD_TEXTS,
       control=mutated_control_config())
@example(models=TRUTH, member=0, mutation=None, workers=1, row=0, field=0, text=None,
         control=WIDE_BOX_CONFIG)
@example(models=OVERFLOWING_MODELS, member=0, mutation=None, workers=1, row=0, field=0, text=None,
         control=control_config_text(CONTROL_BASE))
@example(models=TRUTH, member=0, mutation=None, workers=2, row=1, field=0, text="w0",
         control=control_config_text(CONTROL_BASE))  # a repeated worker_id
def test_solve_ends_in_an_exit_code(tmp_path_factory, models, member, mutation, workers, row, field, text,
                                    control):
    """A near-valid model file, snapshot and control config, each edited
    independently: solve succeeds (0), refuses them (2) or finds no
    feasible schedule (4), and raises nothing."""
    directory = tmp_path_factory.mktemp("solve")
    model = str(directory / "m.json")
    write_model_set(model, models)
    if mutation is not None:
        put(directory, "m.json", mutated_model_text(Path(model).read_text(), member, mutation))
    rows = [list(r) for r in SNAPSHOT_ROWS[:workers]]
    if text is not None:
        rows[row % workers][field] = text
    snap = put(directory, "s.csv", "".join(",".join(r) + "\n" for r in [SNAPSHOT_HEADER, *rows]))
    cfg = put(directory, "c.cfg", control)
    argv = ["solve", snap, "--model", model, "--config", cfg, "--out-dir", str(directory / "out")]
    assert main(argv) in (0, 2, 4)


def edit_cell(text: str, line: int, field: int, cell: str) -> str:
    """text with one cell of one line set to cell.  A metadata line
    "# key=value" has two cells, the key and the value; any other line's
    cells are its comma-separated fields."""
    lines = text.splitlines()
    i = line % len(lines)
    if lines[i].startswith("#"):
        cells = list(lines[i][2:].partition("=")[::2])
        cells[field % 2] = cell
        lines[i] = f"# {cells[0]}={cells[1]}"
    else:
        cells = lines[i].split(",")
        cells[field % len(cells)] = cell
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


# Field texts for telemetry edits: steps, worker ids and readings in and
# out of range, odd spellings of numbers, a column name, a comma.
TELEMETRY_FIELD_TEXTS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "1", "2", "1e400", "1e18",
                     "9223372036854775808", "0.5", "5", "5.5", "60", "2e4", "w0", "w1", "w9",
                     "step", "illum_lx", "1,2", '"']),
    st.text(alphabet="0123456789.-+e ", max_size=6),
)


@settings(max_examples=60, deadline=None)
@example(line=10, field=3, text="1e200", dropped=None, keep_boundary=False, ridge="0.5")
@given(line=st.integers(0, 40), field=st.integers(0, 7), text=st.none() | TELEMETRY_FIELD_TEXTS,
       dropped=st.none() | st.integers(0, 40), keep_boundary=st.booleans(),
       ridge=st.sampled_from(["0", "0.5", "1e308", "-1", "nan", "inf"]))
def test_identify_ends_in_an_exit_code(tmp_path_factory, line, field, text, dropped, keep_boundary, ridge):
    """A near-valid telemetry file, one cell edited or one line dropped,
    and any --ridge: identify succeeds (0), refuses them (2) or cannot fit
    (3), and raises nothing."""
    directory = tmp_path_factory.mktemp("identify")
    path = str(directory / "t.csv")
    write_telemetry_csv(path, run_open_loop(sweep_plant(), 2, sweep_setpoints(20), seed=9))
    content = Path(path).read_text()
    if text is not None:
        content = edit_cell(content, line, field, text)
    if dropped is not None:
        lines = content.splitlines(keepends=True)
        del lines[dropped % len(lines)]
        content = "".join(lines)
    put(directory, "t.csv", content)
    argv = ["identify", path, str(directory / "m.json"), "--ridge", ridge, "--out-dir", str(directory / "out")]
    if keep_boundary:
        argv.append("--keep-boundary")
    assert main(argv) in (0, 2, 3)


@st.composite
def report_traces(draw):
    """One to three traces as simulate writes them, their seeds drawn from
    three so that arms pair and (mode, seed) may repeat."""
    return [replace(draw(sim_traces()), seed=draw(st.integers(0, 2))) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None)
@given(traces=report_traces(), edited=st.integers(0, 2), line=st.integers(0, 12), field=st.integers(0, 13),
       text=st.none() | TRACE_FIELD_TEXTS, fmt=st.sampled_from(["csv", "text"]))
def test_report_ends_in_an_exit_code(tmp_path_factory, traces, edited, line, field, text, fmt):
    """Near-valid trace files, one cell of one of them edited: report
    succeeds (0) or refuses them (2), and raises nothing."""
    directory = tmp_path_factory.mktemp("report")
    paths = []
    for i, trace in enumerate(traces):
        path = str(directory / f"r{i}.csv")
        write_trace_csv(path, trace)
        paths.append(path)
    if text is not None:
        path = paths[edited % len(paths)]
        put(directory, Path(path).name, edit_cell(Path(path).read_text(), line, field, text))
    assert main(["report", *paths, "--format", fmt, "--out-dir", str(directory / "out")]) in (0, 2)


class TestShippedConfigs:
    NAMES = ("case1_mpc2.cfg", "case1_mpc1.cfg", "case1_noc.cfg",
             "case2_mpc2.cfg", "case2_noc.cfg")

    def test_all_parse(self):
        for name in self.NAMES:
            sc = parse_scenario_config(shipped_config_path(name))
            assert sc.steps == 28
            assert len(sc.plant.drift) == 28

    def test_case1_values(self):
        sc = parse_scenario_config(shipped_config_path("case1_mpc2.cfg"))
        cfg = sc.mpc_cfg
        assert cfg.mode is ControlMode.MPC2
        assert cfg.num_workers == 5
        assert (cfg.temp_lo, cfg.temp_hi) == (25.5, 26.5)
        assert cfg.p_illum == 1.0 / 150.0

    def test_case2_values(self):
        sc = parse_scenario_config(shipped_config_path("case2_mpc2.cfg"))
        cfg = sc.mpc_cfg
        assert cfg.num_workers == 6
        assert (cfg.temp_lo, cfg.temp_hi) == (25.0, 27.0)

    @pytest.mark.parametrize("names", [
        ("case1_noc.cfg", "case1_mpc1.cfg", "case1_mpc2.cfg"),
        ("case2_noc.cfg", "case2_mpc2.cfg"),
    ])
    def test_presets_of_a_case_differ_only_in_mode(self, names):
        # Each case's room is written out once per arm; nothing but the
        # mode may drift between the copies.
        configs = [parse_scenario_config(shipped_config_path(name)) for name in names]
        assert len({sc.mpc_cfg.mode for sc in configs}) == len(names)
        as_noc = [replace(sc, mpc_cfg=replace(sc.mpc_cfg, mode=ControlMode.NOC)) for sc in configs]
        assert all(sc == as_noc[0] for sc in as_noc[1:])

    # sha256 of write_trace_csv's output for each shipped config at seed 1:
    # a change that alters any decision or reading of these runs shows here.
    TRACE_SHA256 = {
        "case1_mpc1.cfg": "232bdfdf58f939d64974054bd80e6e0cbd345be96071c88483d800559d9d5f46",
        "case1_mpc2.cfg": "7a4d9f28bfdd95b934d05abc99552c2d97c9489f3cd2ebcf2408bd4071c70420",
        "case1_noc.cfg": "9a4185ba80fe62797ea26fa24a2e4e71c58006abd5854a6f767589fd621058c5",
        "case2_mpc2.cfg": "4206c2bf538427f0b41a502d4f6e590e42c2ebaa62b2508b04496006bb25e668",
        "case2_noc.cfg": "ec8bf55452505471c3bd8a08cd76b2160762d24c47cf573902367eeadeb3a64a",
    }

    @pytest.mark.parametrize("name", sorted(TRACE_SHA256))
    def test_trace_at_seed_1_is_pinned(self, tmp_path, name):
        sc = replace(parse_scenario_config(shipped_config_path(name)), seed=1)
        trace, _ = run_scenario(sc)
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TRACE_SHA256[name]

    # The same pin for case2_mpc2.cfg at penalty_cap 0.05, seed 1, by mode.
    # No kernel proves comfort on any of its solves, so every search
    # scores violations, a path no shipped config takes; MPC1 ends one
    # step infeasible and MPC2 two.
    UNPROVED_TRACE_SHA256 = {
        "MPC1": ("38439cb7583020edcaed3e47b69d0ba6068a9040ad9d4ea909135ddd3bdbf3d2", 1),
        "MPC2": ("308ff1bd6d0d0df3d75fd9e2ca816c54e7a854d0799b1c07219142b9e015014e", 2),
    }

    @pytest.mark.parametrize("mode", sorted(UNPROVED_TRACE_SHA256))
    def test_unproved_trace_at_seed_1_is_pinned(self, tmp_path, monkeypatch, mode):
        proofs = []

        def spy(kernel, real=HorizonKernel.restrict_to_box):
            real(kernel)
            proofs.append(kernel.proved)

        monkeypatch.setattr(HorizonKernel, "restrict_to_box", spy)
        sc = parse_scenario_config(shipped_config_path("case2_mpc2.cfg"))
        cfg = replace(sc.mpc_cfg, penalty_cap=0.05, mode=ControlMode(mode))
        trace, _ = run_scenario(replace(sc, seed=1, mpc_cfg=cfg))
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), trace)
        digest, infeasible = self.UNPROVED_TRACE_SHA256[mode]
        assert proofs == [False] * len(trace.steps)
        assert sum(step.feasible is False for step in trace.steps) == infeasible
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", NAMES)
    def test_traces_read_back(self, tmp_path, name):
        # read_trace_csv's field checks accept every trace simulate writes.
        for seed in range(1, 6):
            trace, _ = run_scenario(replace(parse_scenario_config(shipped_config_path(name)), seed=seed))
            path = str(tmp_path / f"trace_{seed}.csv")
            write_trace_csv(path, trace)
            back = read_trace_csv(path)
            assert (back.seed, len(back.steps)) == (seed, len(trace.steps))


class TestIdentifyCommand:
    def telemetry_file(self, tmp_path, steps=60):
        table = run_open_loop(sweep_plant(), 2, sweep_setpoints(steps), seed=9)
        path = str(tmp_path / "telemetry.csv")
        write_telemetry_csv(path, table)
        return path

    def test_end_to_end(self, workdir, capsys):
        telem = self.telemetry_file(workdir)
        model_path = str(workdir / "fitted.json")
        rc = main(["identify", telem, model_path, "--out-dir", str(workdir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dl: rmse=" in out and "ami: rmse=" in out
        fitted = read_model_set(model_path)
        # CSV rounds to 6 significant digits, so allow for that, then pin
        # the fit exactly against the library on the same rounded table.
        assert fitted.idt.k_up == pytest.approx(0.3, abs=1e-3)
        assert fitted.dl.coef["d_prev"] == pytest.approx(0.8, abs=0.01)
        table = read_telemetry_csv(telem)
        dl_ref, _ = fit_dl_model(table)
        idt_ref, _ = fit_idt_coeffs(table)
        ami_ref, _ = fit_ami_model(table)
        assert fitted == ModelSet(dl=dl_ref, idt=idt_ref, ami=ami_ref)
        assert (workdir / "identify_manifest.json").exists()

    def test_keep_boundary_fits_on_scale_limit_samples(self, workdir, capsys):
        # Every seventh reading sits on a scale limit: the default fit drops
        # those targets, and --keep-boundary keeps them.
        table = read_telemetry_csv(self.telemetry_file(workdir))
        rows = [row._replace(dl=(DL_MIN, DL_MAX)[row.step_index % 2]) if row.step_index % 7 == 3 else row
                for row in rows_of(table)]
        telem = str(workdir / "boundary.csv")
        write_telemetry_csv(telem, table_of(rows))
        samples = {}
        for flag in ([], ["--keep-boundary"]):
            out_dir = workdir / ("keep" if flag else "default")
            assert main(["identify", telem, str(out_dir / "m.json"), "--out-dir", str(out_dir)] + flag) == 0
            samples[bool(flag)] = int(re.search(r"^dl: rmse=\S+ n=(\d+)", capsys.readouterr().out, re.M)[1])
            manifest = json.loads((out_dir / "identify_manifest.json").read_text())
            assert manifest["keep_boundary"] is bool(flag)
        on_limit = sum(row.step_index % 7 == 3 and row.step_index >= 2 for row in rows)
        assert samples[True] == samples[False] + on_limit

    def test_insufficient_data_exit_code(self, workdir, capsys):
        telem = self.telemetry_file(workdir, steps=5)
        rc = main(["identify", telem, str(workdir / "m.json"),
                   "--out-dir", str(workdir)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_unstable_illuminance_fit_exit_code(self, workdir, capsys):
        # Readings whose illuminance grows 5% a step, whatever the setpoint:
        # the least-squares theta_prev is about 1.05, which no model holds.
        table = read_telemetry_csv(self.telemetry_file(workdir))
        rows = [row._replace(illum=400.0 * 1.05**row.step_index) for row in rows_of(table)]
        telem = str(workdir / "growing.csv")
        write_telemetry_csv(telem, table_of(rows))
        model = workdir / "m.json"
        rc = main(["identify", telem, str(model), "--out-dir", str(workdir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: illuminance fit is unstable: theta_prev = 1.05")
        assert err.endswith(", |theta_prev| must be < 1\n")
        assert not model.exists()
        assert not (workdir / "identify_manifest.json").exists()

    @pytest.mark.parametrize("efforts, ridge", [({10: "1e200"}, ["--ridge", "0.5"]),
                                                ({10: "1e308", 12: "1e308"}, [])])
    def test_overflowing_fit_exit_code(self, workdir, capfd, efforts, ridge):
        # Effort readings that the telemetry accepts but whose squares or
        # sum overflow the drowsiness fit: it cannot fit, says so on one
        # line, and neither numpy nor LAPACK prints anything.
        path = workdir / "t.csv"
        write_telemetry_csv(str(path), run_open_loop(sweep_plant(), 2, sweep_setpoints(20), seed=9))
        content = path.read_text()
        for line, text in efforts.items():
            content = edit_cell(content, line, 3, text)
        put(workdir, "t.csv", content)
        model = workdir / "m.json"
        rc = main(["identify", str(path), str(model), *ridge, "--out-dir", str(workdir)])
        out, err = capfd.readouterr()
        assert rc == 3
        assert out == ""
        assert err.startswith("error: drowsiness fit overflows: ") and err.count("\n") == 1
        assert not model.exists()
        assert not (workdir / "identify_manifest.json").exists()

    def test_fit_whose_solution_is_not_finite_exit_code(self, workdir, capfd):
        # A worker and a room that never change but for the lights, which
        # flicker between 0 and 1e-300 lx.  Centering leaves the level and
        # temperature columns as constant roundings, powers of two apart,
        # so the ridge of 1e-300 vanishes beside their Gram block, which
        # is singular but for the lights' subnormal terms: the solve
        # returns infinite and NaN coefficients, which the fit refuses.
        rows = "".join(f"{k},w,3.7,0,26.1,{k % 2}e-300,26.1,{k % 2}e-300\n" for k in range(15))
        path = put(workdir, "t.csv", "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n" + rows)
        model = workdir / "m.json"
        rc = main(["identify", path, str(model), "--ridge", "1e-300", "--out-dir", str(workdir)])
        out, err = capfd.readouterr()
        assert (rc, out) == (3, "")
        assert err == "error: drowsiness fit overflows: its coefficients or RMSE are not finite\n"
        assert not model.exists()

    def test_singular_ridged_fit_exit_code(self, workdir):
        # One worker at a constant DL and temperature, effort cycling 0-0.3
        # and the lights 500-520 lx: a ridge of 1e-100 vanishes beside the
        # Gram matrix, which LAPACK finds singular.  Whether that or the
        # non-finite coefficients refuse it depends on LAPACK's rounding,
        # so only the message's first words are pinned.  The command runs
        # as a user runs it, with every warning an error.
        rows = "".join(f"{k},w,3.7,{k % 4 / 10},26.1,{500 + 10 * (k % 3)},26.1,{500 + 10 * (k % 3)}\n"
                       for k in range(14))
        path = put(workdir, "t.csv", "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n" + rows)
        model = workdir / "m.json"
        env = {**os.environ, "PYTHONPATH": str(Path(cli_module.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "alertmpc", "identify", path, str(model),
             "--ridge", "1e-100", "--out-dir", str(workdir)],
            capture_output=True, text=True, env=env, timeout=120)
        assert (run.returncode, run.stdout) == (3, "")
        assert run.stderr.startswith("error: drowsiness fit ") and run.stderr.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("ridge", ["-1", "nan", "inf"])
    def test_bad_ridge_is_usage_error(self, workdir, capsys, ridge):
        telem = self.telemetry_file(workdir)
        model = workdir / "m.json"
        rc = main(["identify", telem, str(model), "--ridge", ridge, "--out-dir", str(workdir)])
        assert rc == 2
        want = f"error: --ridge: ridge must be finite and >= 0, got {float(ridge)}\n"
        assert capsys.readouterr().err == want
        assert not model.exists()
        assert not (workdir / "identify_manifest.json").exists()

    def test_missing_file_exit_code(self, workdir, capsys):
        rc = main(["identify", str(workdir / "nope.csv"), str(workdir / "m.json"),
                   "--out-dir", str(workdir)])
        assert rc == 2


class TestSolveCommand:
    def setup_files(self, tmp_path):
        model = put(tmp_path, "m.json", "")
        write_model_set(model, TRUTH)
        cfg = put(tmp_path, "control.cfg", CONTROL_CFG)
        snap = put(tmp_path, "snap.csv", SNAPSHOT_CSV)
        return model, cfg, snap

    def test_csv_output(self, workdir, capsys):
        model, cfg, snap = self.setup_files(workdir)
        rc = main(["solve", snap, "--model", model, "--config", cfg,
                   "--out-dir", str(workdir)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# objective=")
        assert lines[1] == "# feasible=1"
        assert lines[2] == "step,temp_set_c,illum_set_lx"
        assert len(lines) == 5  # horizon 2
        for i, line in enumerate(lines[3:], start=1):
            step, t_set, l_set = line.split(",")
            assert int(step) == i
            assert 25.5 <= float(t_set) <= 26.5
            assert 450.0 <= float(l_set) <= 750.0

    def test_deterministic_stdout(self, workdir, capsys):
        model, cfg, snap = self.setup_files(workdir)
        main(["solve", snap, "--model", model, "--config", cfg,
              "--out-dir", str(workdir)])
        first = capsys.readouterr().out
        main(["solve", snap, "--model", model, "--config", cfg,
              "--out-dir", str(workdir)])
        assert capsys.readouterr().out == first

    def test_text_format(self, workdir, capsys):
        model, cfg, snap = self.setup_files(workdir)
        rc = main(["solve", snap, "--model", model, "--config", cfg,
                   "--format", "text", "--out-dir", str(workdir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective" in out and "step 1:" in out

    def test_worker_count_mismatch(self, workdir, capsys):
        model, cfg, _ = self.setup_files(workdir)
        snap = put(workdir, "snap2.csv",
                   "worker_id,dl,d_plus,d_minus,effort,temp_c,illum_lx\n"
                   "w0,2.4,0.1,0,0.12,26.8,540\n"
                   "w1,2.0,0,0,0.05,26.8,540\n")
        rc = main(["solve", snap, "--model", model, "--config", cfg,
                   "--out-dir", str(workdir)])
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_infeasible_exit_code(self, workdir, capsys):
        # Lights stuck bright: every schedule blows the comfort cap.
        stuck = ModelSet(dl=TRUTH.dl, idt=TRUTH.idt,
                         ami=AmiModel(theta0=2000.0, theta_prev=0.0, theta_set=0.0))
        model = str(workdir / "stuck.json")
        write_model_set(model, stuck)
        cfg = put(workdir, "control.cfg", CONTROL_CFG)
        snap = put(workdir, "snap.csv", SNAPSHOT_CSV)
        rc = main(["solve", snap, "--model", model, "--config", cfg,
                   "--out-dir", str(workdir)])
        assert rc == 4
        captured = capsys.readouterr()
        assert "# feasible=0" in captured.out
        assert "no feasible schedule" in captured.err

    def test_kept_clamps_inputs_solve_with_both_clamps(self, workdir, monkeypatch):
        # The inputs CI's warnings step solves: each clamp binds for a
        # schedule in the case-2 box, the kernel keeps both, and the
        # solve succeeds without a warning.
        clamps = []

        def spy(kernel, real=HorizonKernel.restrict_to_box):
            real(kernel)
            clamps.append((kernel.floor, kernel.ceiling))

        monkeypatch.setattr(HorizonKernel, "restrict_to_box", spy)
        model, snap = write_kept_clamps_inputs(workdir)
        config = shipped_config_path("case2_mpc2.cfg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", snap, "--model", model, "--config", config, "--out-dir", str(workdir)])
        assert rc == 0 and clamps == [(True, True)]
        cfg, _ = parse_control_config(config)
        snapshot = read_snapshot_csv(snap)
        dark = rollout(KEPT_CLAMPS_MODELS, snapshot, ControlSchedule((cfg.temp_lo,) * 4, (cfg.illum_lo,) * 4), cfg)
        warm = rollout(KEPT_CLAMPS_MODELS, snapshot, ControlSchedule((cfg.temp_hi,) * 4, (cfg.illum_hi,) * 4), cfg)
        assert 0.0 in dark.illums and 5.0 in warm.dls[-1]

    def test_box_wider_than_largest_float_is_config_error(self, workdir, capsys):
        model, _, snap = self.setup_files(workdir)
        cfg = put(workdir, "wide.cfg", CONTROL_CFG.replace(
            "num_workers = 1", "num_workers = 1\ntemp_lo = -1.7e308\ntemp_hi = 1.7e308"))
        rc = main(["solve", snap, "--model", model, "--config", cfg,
                   "--out-dir", str(workdir)])
        assert rc == 2
        assert "temp_hi - temp_lo must be finite" in capsys.readouterr().err

    # NOC scores its one schedule without a search, and fails the same way.
    @pytest.mark.parametrize("mode", ["mpc2", "noc"])
    def test_nonfinite_objective_is_usage_error(self, workdir, capsys, mode):
        # Coefficients this large overflow the drowsiness rollout to nan.
        coef = dict(TRUTH.dl.coef, d_prev=1e308, temp=-1e308)
        huge = ModelSet(dl=DlModel(intercept=0.0, coef=coef), idt=TRUTH.idt, ami=TRUTH.ami)
        model = str(workdir / "huge.json")
        write_model_set(model, huge)
        cfg = put(workdir, "control.cfg", CONTROL_CFG.replace("mode = mpc2", f"mode = {mode}"))
        snap = put(workdir, "snap.csv", SNAPSHOT_CSV)
        rc = main(["solve", snap, "--model", model, "--config", cfg,
                   "--out-dir", str(workdir)])
        assert rc == 2
        assert "error: objective returned nan" in capsys.readouterr().err


class TestSimulateCommand:
    def test_outputs_and_determinism(self, workdir, capsys):
        cfg = put(workdir, "scenario.cfg", SCENARIO_CFG)
        d1, d2 = str(workdir / "run1"), str(workdir / "run2")
        assert main(["simulate", "--config", cfg, "--out-dir", d1]) == 0
        summary = capsys.readouterr().out
        assert "mode=MPC2" in summary and "mean_dl=" in summary
        assert main(["simulate", "--config", cfg, "--out-dir", d2]) == 0
        for name in ("trace.csv", "metrics.csv"):
            a = Path(d1, name).read_bytes()
            b = Path(d2, name).read_bytes()
            assert a == b, name
        manifest = json.loads(Path(d1, "simulate_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["scenario"]["seed"] == 11

    def test_seed_override(self, workdir, capsys):
        cfg = put(workdir, "scenario.cfg", SCENARIO_CFG)
        d1, d2 = str(workdir / "a"), str(workdir / "b")
        main(["simulate", "--config", cfg, "--out-dir", d1])
        main(["simulate", "--config", cfg, "--seed", "29", "--out-dir", d2])
        capsys.readouterr()
        t1 = Path(d1, "trace.csv").read_text()
        t2 = Path(d2, "trace.csv").read_text()
        assert "# seed=11" in t1 and "# seed=29" in t2

    def test_model_mismatch_key_is_refused(self, workdir, capsys):
        # --model alone picks the controller's models; the key that used to
        # say so is an unknown key now.
        text = SCENARIO_CFG.replace("seed = 11", "seed = 11\nmodel_mismatch = true")
        cfg = put(workdir, "scenario.cfg", text)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(workdir / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown key(s) ['model_mismatch'] in section [scenario]" in err, err
        assert not (workdir / "out").exists()

    def test_model_sets_the_controller_models(self, workdir, capsys, monkeypatch):
        used = []

        class Spy(Controller):
            def __init__(self, models, cfg, de):
                used.append(models)
                super().__init__(models, cfg, de)

        monkeypatch.setattr(sim_module, "Controller", Spy)
        cfg = put(workdir, "scenario.cfg", SCENARIO_CFG)
        other = replace(TRUTH, dl=replace(TRUTH.dl, intercept=0.3))
        model = str(workdir / "m.json")
        write_model_set(model, other)
        assert main(["simulate", "--config", cfg, "--model", model, "--out-dir", str(workdir / "a")]) == 0
        assert main(["simulate", "--config", cfg, "--out-dir", str(workdir / "b")]) == 0
        capsys.readouterr()
        assert used == [other, parse_scenario_config(cfg).plant.truth()]

    @pytest.mark.parametrize("values, field", [
        ({"illum_hi": 20000, "illum_comfort": 15000, "init_illum": 15000}, "illum_hi"),
        ({"temp_lo": -5}, "temp_lo"),
        ({"init_illum": 15000}, "init_illum"),
        ({"init_temp": 60}, "init_temp"),
        ({"ambient_temp": 55}, "ambient_temp"),
    ])
    def test_state_outside_the_room_range_is_config_error(self, workdir, capsys, values, field):
        text = Path(shipped_config_path("case1_mpc2.cfg")).read_text()
        for key, value in values.items():
            text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert n == 1
        cfg = put(workdir, "room.cfg", text)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(workdir)])
        assert rc == 2
        assert f"{field} {float(values[field])} outside the measured range" in capsys.readouterr().err

    def test_plant_leaving_the_measured_range_is_refused(self, workdir, capsys):
        text = Path(shipped_config_path("case1_noc.cfg")).read_text()
        for key, value in {"theta_prev": 0.5, "illum_hi": 10000, "illum_comfort": 9000, "init_illum": 9000}.items():
            text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert n == 1
        cfg = put(workdir, "bright.cfg", text)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(workdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: config {re.escape(cfg)}: step \d+: plant illuminance \S+ outside the measured range "
            r"\[0\.0, 10000\.0\]\n", err
        ), err
        assert not (workdir / "trace.csv").exists()

    # The MPC2 kernel meets the same overflow in its rollouts.
    @pytest.mark.parametrize("mode", ["NOC", "MPC2"])
    def test_plant_drowsiness_of_nan_is_refused(self, workdir, capsys, mode):
        # The temperature and illuminance terms overflow to +inf and -inf,
        # their sum is nan, and clamping passes nan through.
        text = Path(shipped_config_path("case1_noc.cfg")).read_text()
        for key, value in {"dl_temp": 1e308, "dl_illum": -1e308, "mode": mode}.items():
            text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert n == 1
        cfg = put(workdir, "nan.cfg", text)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(workdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: config {cfg}: step 0: plant drowsiness of worker 0 nan outside the measured range "
            "[1.0, 5.0]\n"
        ), err
        assert not (workdir / "trace.csv").exists()

    # np.std of the jitter overflows to inf, or to nan once a draw itself does.
    @pytest.mark.parametrize("mode", ["NOC", "MPC2"])
    @pytest.mark.parametrize("effort_sd, effort", [("1e200", "inf"), ("1e308", "nan")])
    def test_plant_effort_that_is_not_finite_is_refused(self, workdir, capsys, mode, effort_sd, effort):
        text = Path(shipped_config_path("case1_noc.cfg")).read_text()
        for key, value in {"effort_sd": effort_sd, "mode": mode}.items():
            text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert n == 1
        cfg = put(workdir, "effort.cfg", text)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(workdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: config {cfg}: step 0: plant effort of worker 0 {effort} is not finite\n", err
        assert not (workdir / "trace.csv").exists()

    def test_trace_reads_back(self, workdir, capsys):
        cfg = put(workdir, "scenario.cfg", SCENARIO_CFG)
        out = str(workdir / "out")
        main(["simulate", "--config", cfg, "--out-dir", out])
        capsys.readouterr()
        trace = read_trace_csv(os.path.join(out, "trace.csv"))
        assert len(trace.steps) == 4
        assert trace.num_workers == 1


def synth_trace(mode, seed, dl_level):
    steps = tuple(
        TraceStep(step=t, temp_set=26.0, illum_set=600.0, temp=26.0,
                  illum=600.0, penalty=0.0, feasible=True, status="ok",
                  dls=(dl_level,), efforts=(0.1,))
        for t in range(3)
    )
    return SimTrace(ControlMode(mode), seed, 1, 2.0, 26.0, 600.0, steps)


# report's whole output on TestReportCommand's traces, byte for byte.
REPORT_TEXT_ROWS = """\
arm    traces   mean_dl viol_rate  temp_dev  illum_dev  setp_chg
MPC2        2       2.4         0         0          0         0
NOC         2       3.1         0         0          0         0
"""
REPORT_TEXT_DELTA = "paired mean_dl delta MPC2-NOC: -0.7 (2 shared seeds, negative favors MPC2)\n"
REPORT_CSV_ROWS = """\
kind,arm,metric,value
arm,MPC2,traces,2
arm,MPC2,mean_dl,2.4
arm,MPC2,comfort_violation_rate,0
arm,MPC2,mean_abs_temp_dev,0
arm,MPC2,mean_abs_illum_dev,0
arm,MPC2,mean_setpoint_changes,0
arm,NOC,traces,2
arm,NOC,mean_dl,3.1
arm,NOC,comfort_violation_rate,0
arm,NOC,mean_abs_temp_dev,0
arm,NOC,mean_abs_illum_dev,0
arm,NOC,mean_setpoint_changes,0
"""
REPORT_CSV_DELTA = "delta,MPC2-NOC,mean_dl,-0.7\n"
REPORT_SEED_WARNING = "warning: seed sets of MPC2 and NOC differ; paired deltas skipped\n"


def oversize(text):
    """text with a search too big to allocate: 24 workers over a 100000-step horizon."""
    return (text.replace("horizon = 2\nnum_workers = 1", "horizon = 100000\nnum_workers = 24")
                .replace("population_size = 10", "population_size = 80"))


@pytest.mark.parametrize("command", ["simulate", "solve", "daemon"])
def test_oversize_search_is_refused(workdir, capsys, command):
    # Refused when the config is read: nothing of its size is allocated.
    model = put(workdir, "m.json", "")
    write_model_set(model, TRUTH)
    out = str(workdir / "out")
    argv = {
        "simulate": ["simulate", "--config", put(workdir, "s.cfg", oversize(SCENARIO_CFG))],
        "solve": ["solve", put(workdir, "snap.csv", SNAPSHOT_CSV), "--model", model,
                  "--config", put(workdir, "c.cfg", oversize(CONTROL_CFG))],
        "daemon": ["daemon", "--model", model, "--config", put(workdir, "c.cfg", oversize(CONTROL_CFG)),
                   "--in", put(workdir, "in.jsonl", "")],
    }[command]
    assert main(argv + ["--out-dir", out]) == 2
    cfg = argv[argv.index("--config") + 1]
    assert capsys.readouterr().err == (
        f"error: config {cfg}: an MPC2 search over horizon 100000 for 24 worker(s) with "
        "population_size 80 needs 27640149888 bytes, over the ceiling of 1073741824 bytes\n"
    )
    assert not Path(out).exists()


def test_long_search_over_one_worker_is_refused_before_it_is_built(workdir, capsys, monkeypatch):
    # Its kernel is small; DE's (rows, dimension) buffers are not.
    text = (SCENARIO_CFG.replace("horizon = 2", "horizon = 50000")
                        .replace("population_size = 10", "population_size = 80"))
    cfg = put(workdir, "s.cfg", text)

    def must_not_run(sc):
        raise AssertionError("an oversize scenario ran")

    monkeypatch.setattr(cli_module, "run_scenario", must_not_run)
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg, "--out-dir", str(workdir / "out")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        f"error: config {cfg}: an MPC2 search over horizon 50000 for 1 worker(s) with "
        "population_size 80 needs 4252105728 bytes, over the ceiling of 1073741824 bytes\n"
    )
    assert peak < 2**20  # nothing of the search's size was built


def test_run_too_long_to_trace_is_refused(workdir, capsys, monkeypatch):
    # The trace's size is computed from steps and the worker count; the
    # run never starts.
    cfg = put(workdir, "s.cfg", SCENARIO_CFG.replace("steps = 4", "steps = 1000000000000"))

    def must_not_run(sc):
        raise AssertionError("an oversize scenario ran")

    monkeypatch.setattr(cli_module, "run_scenario", must_not_run)
    out = str(workdir / "out")
    assert main(["simulate", "--config", cfg, "--out-dir", out]) == 2
    assert capsys.readouterr().err == (
        f"error: config {cfg}: a run of 1000000000000 steps for 1 worker(s) keeps a trace of "
        f"{trace_nbytes(10**12, 1)} bytes, over the ceiling of 1073741824 bytes\n"
    )
    assert not Path(out).exists()


def test_plant_step_too_large_to_draw_is_refused(workdir, capsys, monkeypatch):
    # One step's draws are computed from substeps and the worker count;
    # the run never starts.
    text = SCENARIO_CFG.replace("substeps = 1", "substeps = 100000000").replace("num_workers = 1", "num_workers = 24")
    cfg = put(workdir, "s.cfg", text)

    def must_not_run(sc):
        raise AssertionError("a scenario with oversize draws ran")

    monkeypatch.setattr(cli_module, "run_scenario", must_not_run)
    out = str(workdir / "out")
    assert main(["simulate", "--config", cfg, "--out-dir", out]) == 2
    assert capsys.readouterr().err == (
        f"error: config {cfg}: a plant step of 100000000 substeps for 24 worker(s) draws "
        f"{24 * 24 * (10**8 + 1)} bytes, over the ceiling of 1073741824 bytes\n"
    )
    assert not Path(out).exists()


class TestReportCommand:
    def write_traces(self, tmp_path, mpc2_seeds=(0, 1)):
        paths = []
        for seed, dl in zip((0, 1), (3.0, 3.2)):
            p = str(tmp_path / f"noc_{seed}.csv")
            write_trace_csv(p, synth_trace("NOC", seed, dl))
            paths.append(p)
        for seed, dl in zip(mpc2_seeds, (2.5, 2.3)):
            p = str(tmp_path / f"mpc2_{seed}.csv")
            write_trace_csv(p, synth_trace("MPC2", seed, dl))
            paths.append(p)
        return paths

    def test_text_report_with_paired_delta(self, workdir, capsys):
        paths = self.write_traces(workdir)
        rc = main(["report", *paths, "--out-dir", str(workdir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paired mean_dl delta MPC2-NOC: -0.7" in out
        assert "NOC" in out and "MPC2" in out

    def test_csv_report(self, workdir, capsys):
        paths = self.write_traces(workdir)
        rc = main(["report", *paths, "--format", "csv", "--out-dir", str(workdir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kind,arm,metric,value" in out
        assert "arm,NOC,mean_dl,3.1" in out
        assert "arm,MPC2,mean_dl,2.4" in out
        assert "delta,MPC2-NOC,mean_dl,-0.7" in out

    def test_seed_mismatch_skips_delta(self, workdir, capsys):
        paths = self.write_traces(workdir, mpc2_seeds=(0, 2))
        rc = main(["report", *paths, "--out-dir", str(workdir)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "seed sets" in captured.err
        assert "paired mean_dl delta" not in captured.out

    def test_unreadable_trace(self, workdir, capsys):
        rc = main(["report", str(workdir / "nope.csv"), "--out-dir", str(workdir)])
        assert rc == 2

    @pytest.mark.parametrize("repeat", ["noc_0.csv", "other_noc_0.csv"])
    def test_repeated_mode_and_seed_is_refused(self, workdir, capsys, repeat):
        """The same file twice, or a second NOC trace of seed 0 (of another case, say)."""
        paths = self.write_traces(workdir)
        write_trace_csv(str(workdir / "other_noc_0.csv"), synth_trace("NOC", 0, 2.0))
        rc = main(["report", *paths, str(workdir / repeat), "--out-dir", str(workdir)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {workdir / repeat}: arm NOC already has a run for seed 0\n")

    def test_trace_without_step_rows_is_refused(self, workdir, capsys):
        path = str(workdir / "empty.csv")
        write_trace_csv(path, replace(synth_trace("NOC", 0, 3.0), steps=()))
        rc = main(["report", path, "--out-dir", str(workdir)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: trace has no step rows\n"

    @pytest.mark.parametrize("old, new, count", [
        (",ok,", ",bogus,", 28),  # every step's status
        ("\n0,", "\n-3,", 1),  # step 0 renumbered before step 1
    ], ids=["bogus-status", "step-minus-3"])
    def test_shipped_trace_simulate_cannot_write_is_refused(self, workdir, capsys, old, new, count):
        trace, _ = run_scenario(replace(parse_scenario_config(shipped_config_path("case1_noc.cfg")), seed=1))
        path = str(workdir / "trace.csv")
        write_trace_csv(path, trace)
        text = Path(path).read_text(encoding="utf-8")
        assert text.count(old) == count
        Path(path).write_text(text.replace(old, new), encoding="utf-8")
        assert main(["report", path, "--out-dir", str(workdir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:8: ")

    def test_agrees_with_compare_arms(self, workdir, capsys):
        base = parse_scenario_config(put(workdir, "scenario.cfg", SCENARIO_CFG))
        seeds = (0, 1)
        paths = []
        for mode in ARMS:
            for seed in seeds:
                trace, _ = run_scenario(scenario_for_arm(base, mode, seed))
                paths.append(str(workdir / f"{mode.value}_{seed}.csv"))
                write_trace_csv(paths[-1], trace)
        assert main(["report", *paths, "--format", "csv", "--out-dir", str(workdir)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        cmp = compare_arms(base, seeds)
        expected = []  # ("kind,arm,metric", value)
        for arm in sorted(cmp.metrics):
            expected.append((f"arm,{arm},traces", len(seeds)))
            for attribute, name in (
                ("mean_dl", "mean_dl"), ("comfort_violation_rate", "comfort_violation_rate"),
                ("mean_abs_temp_dev", "mean_abs_temp_dev"), ("mean_abs_illum_dev", "mean_abs_illum_dev"),
                ("setpoint_change_count", "mean_setpoint_changes"),
            ):
                expected.append((f"arm,{arm},{name}", cmp.mean_of(arm, attribute)))
        for arm in ("MPC1", "MPC2"):
            expected.append((f"delta,{arm}-NOC,mean_dl", np.mean(cmp.paired_delta(arm, "NOC"))))
        assert header == "kind,arm,metric,value"
        assert [line.rsplit(",", 1)[0] for line in lines] == [key for key, _ in expected]
        # A trace holds each reading at 6 significant digits, so report's
        # figures may differ from compare_arms' by that rounding: 5e-6 of the
        # largest reading (DL at most 5, a mean_dl delta twice that;
        # temperatures under 40 C, illuminance under 1000 lx here), plus
        # fmt6's own (rel).  Counts and rates agree exactly.
        tolerance = {"mean_dl": 5e-5, "mean_abs_temp_dev": 2e-4, "mean_abs_illum_dev": 5e-3}
        for line, (key, value) in zip(lines, expected):
            abs_tol = tolerance.get(key.rsplit(",", 1)[1], 0.0)
            assert float(line.rsplit(",", 1)[1]) == pytest.approx(value, rel=1e-5, abs=abs_tol), line

    @pytest.mark.parametrize("mpc2_seeds, fmt, out, err", [
        ((0, 1), "text", REPORT_TEXT_ROWS + REPORT_TEXT_DELTA, ""),
        ((0, 1), "csv", REPORT_CSV_ROWS + REPORT_CSV_DELTA, ""),
        ((0, 2), "text", REPORT_TEXT_ROWS, REPORT_SEED_WARNING),
        ((0, 2), "csv", REPORT_CSV_ROWS, REPORT_SEED_WARNING),
    ])
    def test_output_is_pinned(self, workdir, capsys, mpc2_seeds, fmt, out, err):
        paths = self.write_traces(workdir, mpc2_seeds=mpc2_seeds)
        rc = main(["report", *paths, "--format", fmt, "--out-dir", str(workdir)])
        assert rc == 0
        assert capsys.readouterr() == (out, err)


# Lines that once escaped the daemon's malformed-line handling: nesting
# deep enough to exhaust the decoder's recursion limit, and integers too
# large for a float in each measurement field.
DEEP_LINE = "[" * 100000 + "]" * 100000
NINES = "9" * 400
OVERFLOW_LINES = [
    '{"t": "2026-01-05T08:00:00", "worker": "w0", "dl": %s, '
    '"temp_c": %s, "illum_lx": %s}' % values
    for values in ((NINES, "26.0", "600.0"), ("2.0", NINES, "600.0"), ("2.0", "26.0", NINES))
]
RECORD_FIELDS = ("t", "worker", "dl", "temp_c", "illum_lx")


def stream_doc(**changes):
    doc = {"t": "2026-01-05T08:00:00", "worker": "w0", "dl": 2.0,
           "temp_c": 26.0, "illum_lx": 600.0}
    doc.update(changes)
    return doc


def reference_parse(line: str):
    """The daemon's record grammar read with json.loads: one JSON object,
    t and worker JSON strings, dl/temp_c/illum_lx JSON numbers (not bool),
    dl on the 1-5 scale, temp_c in 0-50 and illum_lx in 0-10000."""
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("not an object")
    t, worker = doc["t"], doc["worker"]
    if not (isinstance(t, str) and isinstance(worker, str)):
        raise TypeError("t and worker must be strings")
    values = []
    for key in ("dl", "temp_c", "illum_lx"):
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{key} must be a number")
        values.append(float(value))
    dl, temp, illum = values
    if not (1.0 <= dl <= 5.0 and 0.0 <= temp <= 50.0 and 0.0 <= illum <= 10000.0):
        raise ValueError("out of range")
    return datetime.fromisoformat(t), worker, dl, temp, illum


def parse_outcome(parse, line):
    """parse(line)'s result, or None when it rejects the line."""
    try:
        return parse(line)
    except (KeyError, ValueError, TypeError):
        return None


json_leaves = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(),
    st.integers(min_value=10**308, max_value=10**400), st.text(max_size=6),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
well_typed_records = st.fixed_dictionaries({
    "t": st.datetimes().map(datetime.isoformat),
    "worker": st.text(max_size=8),
    "dl": st.floats(0.5, 5.5) | st.integers(0, 6),
    "temp_c": st.floats(-1.0, 51.0) | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-10**6, 10**6),
    "illum_lx": st.floats(-1.0, 10001.0) | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(0, 10**6),
})


class TestStreamRecord:
    """_parse_stream_record takes a line already stripped by run_daemon."""

    @pytest.mark.parametrize("line", [DEEP_LINE] + OVERFLOW_LINES,
                             ids=["deep", "dl", "temp_c", "illum_lx"])
    def test_pathological_line_is_value_error(self, line):
        with pytest.raises(ValueError):
            _parse_stream_record(line)

    @pytest.mark.parametrize("field, value", [
        ("dl", True), ("dl", "2.0"), ("temp_c", False), ("temp_c", "26"),
        ("illum_lx", None), ("illum_lx", [600]), ("worker", None),
        ("worker", 0), ("worker", ["w0"]), ("t", 1767600000), ("t", None),
    ])
    def test_fields_are_not_coerced(self, field, value):
        with pytest.raises((KeyError, ValueError, TypeError)):
            _parse_stream_record(json.dumps(stream_doc(**{field: value})))

    def test_repeated_key_reads_its_last_value(self):
        # Documented in the README: the last value wins, and only it is
        # checked.  A change to this is a change to the stream format.
        head = '{"t": "2026-01-05T08:00:00", "worker": "w0", '
        tail = ', "temp_c": 26, "illum_lx": 600}'
        assert _parse_stream_record(head + '"dl": 9, "dl": 2.0' + tail)[2] == 2.0
        assert _parse_stream_record(head + '"worker": "w1", "dl": 2.0' + tail)[1] == "w1"
        with pytest.raises(ValueError, match="dl 9.0 outside the 1-5 scale"):
            _parse_stream_record(head + '"dl": 2.0, "dl": 9' + tail)

    def test_integer_numbers_read_as_floats(self):
        when, worker, dl, temp, illum = _parse_stream_record(
            json.dumps(stream_doc(dl=2, temp_c=26, illum_lx=583)))
        assert (when, worker) == (datetime(2026, 1, 5, 8), "w0")
        assert [(type(v), v) for v in (dl, temp, illum)] == [
            (float, 2.0), (float, 26.0), (float, 583.0)]

    @pytest.mark.parametrize("line", [
        json.dumps(stream_doc()) + " x",
        json.dumps(stream_doc()) + "{}",
        "\ufeff" + json.dumps(stream_doc()),
        "[" + json.dumps(stream_doc()) + "]",
        "",
    ])
    def test_whole_line_must_be_one_object(self, line):
        with pytest.raises(ValueError):
            _parse_stream_record(line)

    @staticmethod
    def assert_parsed_or_rejected(line):
        try:
            when, worker, dl, temp, illum = _parse_stream_record(line)
        except (KeyError, ValueError, TypeError):
            return
        assert isinstance(when, datetime)
        assert type(worker) is str
        for value in (dl, temp, illum):
            assert type(value) is float
        assert 1.0 <= dl <= 5.0 and 0.0 <= temp <= 50.0 and 0.0 <= illum <= 10000.0

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_text_parses_or_is_rejected(self, text):
        self.assert_parsed_or_rejected(text.strip())

    @settings(max_examples=300, deadline=None)
    @given(well_typed_records,
           st.dictionaries(st.sampled_from(RECORD_FIELDS) | st.text(max_size=4),
                           json_values, max_size=3),
           st.sets(st.sampled_from(RECORD_FIELDS), max_size=2))
    def test_any_object_parses_or_is_rejected(self, base, overrides, dropped):
        doc = {**base, **overrides}
        for key in dropped:
            doc.pop(key, None)
        self.assert_parsed_or_rejected(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(well_typed_records,
           st.sampled_from(["", " ", "\t", "\r\n", "\ufeff", "\x0b", "\u00a0", "\u2028"]),
           st.sampled_from(["", " ", "\t\n", "\ufeff", "\u00a0"]),
           st.sampled_from(["", " x", "}", "{}", ",", "0", "\ufeff", " []"]),
           st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", " : ")]),
           st.booleans())
    def test_matches_json_loads_reference(self, doc, lead, trail, garbage, separators, ascii_only):
        raw = lead + json.dumps(doc, separators=separators, ensure_ascii=ascii_only) + garbage + trail
        line = raw.strip()  # as run_daemon hands it over
        assert parse_outcome(_parse_stream_record, line) == parse_outcome(reference_parse, line)


class TestWindowStats:
    def test_bitwise_equal_to_per_buffer_reductions(self):
        rng = np.random.default_rng(5)
        lengths = [n for n in range(1, 301) for _ in range(3)] + [40] * 24
        rng.shuffle(lengths)
        buffers = [[round(x, 4) for x in rng.normal(2.5, 0.7, n).tolist()] for n in lengths]
        means, stds = _window_stats(buffers)
        assert len(means) == len(stds) == len(buffers)
        for buf, mean, std in zip(buffers, means, stds):
            assert type(mean) is float and type(std) is float
            assert mean.hex() == float(np.mean(buf)).hex()
            assert std.hex() == float(np.std(buf)).hex()


class TestWindow:
    """The daemon's open window: the roster rule and one observation or none."""

    @staticmethod
    def fill(window, readings, room=(26.0, 600.0)):
        """Record each (worker, dl) of readings, each with the room's readings."""
        for worker, dl in readings:
            window.dls.setdefault(worker, []).append(dl)
            window.temps.append(room[0])
            window.illums.append(room[1])

    def test_roster_is_set_kept_and_replaced(self):
        window = Window(2)
        assert window.roster is None
        self.fill(window, [("w1", 2.0), ("w0", 3.0), ("w0", 4.0)])
        assert window.close() == (True, ((3.5, 2.0), (0.5, 0.0), 26.0, 600.0))
        assert window.roster == ("w0", "w1")
        self.fill(window, [("w0", 2.0), ("w1", 2.5)])
        new_roster, observation = window.close()
        assert not new_roster and observation is not None
        # A window that names exactly two other workers replaces the roster,
        # which tells run_daemon to restart the history.
        self.fill(window, [("w0", 2.0), ("w2", 2.5)])
        assert window.close() == (True, ((2.0, 2.5), (0.0, 0.0), 26.0, 600.0))
        assert window.roster == ("w0", "w2")

    def test_close_clears_the_buffers_in_place(self):
        window = Window(1)
        dls, temps, illums = window.dls, window.temps, window.illums
        self.fill(window, [("w0", 2.0)])
        window.close()
        assert (dls, temps, illums) == ({}, [], [])
        assert window.dls is dls and window.temps is temps and window.illums is illums

    def test_incomplete_window_gives_no_observation(self):
        window = Window(2)
        self.fill(window, [("w0", 2.0)])
        assert window.close() == (False, None)  # no roster yet
        assert window.close() == (False, None)  # no readings at all
        self.fill(window, [("w0", 2.0), ("w1", 2.0)])
        assert window.close()[0]
        # w1 is missing: the roster stays, and the window is no observation.
        self.fill(window, [("w0", 2.0), ("w0", 2.2)])
        assert window.close() == (False, None)
        # Three names are not a roster; the roster's two are observed.
        self.fill(window, [("w0", 2.0), ("w1", 3.0), ("w9", 5.0)])
        assert window.close() == (False, ((2.0, 3.0), (0.0, 0.0), 26.0, 600.0))
        assert window.roster == ("w0", "w1")


def record_solutions(monkeypatch) -> list:
    """Patch Controller.decide to append each decision's solution (None
    when it ran no solve) to the list returned."""
    solutions = []
    decide = Controller.decide

    def recording_decide(self, clock):
        result = decide(self, clock)
        solutions.append(result[1])
        return result

    monkeypatch.setattr(Controller, "decide", recording_decide)
    return solutions


class TestDaemonCommand:
    def files(self, tmp_path):
        model = str(tmp_path / "m.json")
        write_model_set(model, TRUTH)
        cfg = put(tmp_path, "scenario.cfg", SCENARIO_CFG)
        return model, cfg

    @pytest.mark.parametrize("step_hours", ["1e-12", "1e300"])
    def test_step_hours_without_a_window_is_refused(self, workdir, capsys, step_hours):
        # A window that rounds to zero used to end in a ZeroDivisionError on
        # the first record, one too long for a timedelta in an OverflowError.
        model, _ = self.files(workdir)
        text = Path(shipped_config_path("case1_noc.cfg")).read_text()
        cfg = put(workdir, "c.cfg", text.replace("step_hours = 0.25", f"step_hours = {step_hours}"))
        stream = put(workdir, "stream.jsonl", "".join(
            json.dumps({"t": f"2026-01-05T08:{minute:02d}:00", "worker": f"w{w}", "dl": 2.0,
                        "temp_c": 26.0, "illum_lx": 600.0}) + "\n"
            for minute in (0, 20, 40) for w in range(5)))
        rc = main(["daemon", "--model", model, "--config", cfg, "--in", stream,
                   "--out", str(workdir / "out.jsonl"), "--out-dir", str(workdir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg}: step_hours must round to a window"), err

    def test_out_dash_writes_the_records_to_stdout(self, workdir, capsys):
        model, _ = self.files(workdir)
        stream = put(workdir, "stream.jsonl", "".join(
            json.dumps(stream_doc(t=f"2026-01-05T{hour:02d}:{minute:02d}:00")) + "\n"
            for hour in (8, 9) for minute in (0, 20, 40)))
        argv = ["daemon", "--model", model, "--config", put(workdir, "c.cfg", CONTROL_CFG),
                "--in", stream, "--out-dir", str(workdir)]
        assert main(argv + ["--out", str(workdir / "out.jsonl")]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 6  # the windows from 08:00 to 09:15
        assert out == (workdir / "out.jsonl").read_text()

    def test_replays_simulation_decisions_exactly(self, workdir, capsys):
        model, cfg_path = self.files(workdir)
        sc = parse_scenario_config(cfg_path)
        trace, _ = run_scenario(sc)
        stream = put(workdir, "stream.jsonl",
                     "\n".join(replay_stream_lines(trace, sc.plant, sc.mpc_cfg)) + "\n")
        out_path = str(workdir / "setpoints.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
        # one warmup record, then one decision per trace step plus a final
        # decision for the interval after the last step
        assert len(records) == len(trace.steps) + 2
        assert records[0]["status"] == "warmup"
        for record, step in zip(records[1:], trace.steps):
            assert step.status == "ok"
            assert (record["status"], record["feasible"], record["temp_set_c"], record["illum_set_lx"]) == (
                step.status, step.feasible, step.temp_set, step.illum_set)
        assert records[-1]["status"] == "ok"

    def test_failed_solve_is_held_in_both_loops(self, workdir, capsys, monkeypatch):
        # The solve at clock 1 fails: the simulator and the daemon replaying
        # its trace both hold it as "error" and solve again at clock 2.
        model, cfg_path = self.files(workdir)
        sc = parse_scenario_config(cfg_path)
        monkeypatch.setattr(mpc_module, "solve", solve_failing_at(
            sc.de.seed + 1, NonFiniteObjective("objective returned nan")))
        trace, _ = run_scenario(sc)
        assert [step.status for step in trace.steps] == ["ok", "error", "ok", "ok"]
        assert trace.steps[1].feasible is None
        assert trace.steps[1].temp_set == trace.steps[0].temp_set
        stream = put(workdir, "stream.jsonl",
                     "\n".join(replay_stream_lines(trace, sc.plant, sc.mpc_cfg)) + "\n")
        out_path = str(workdir / "setpoints.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        assert "1 window(s) held on a solver error" in capsys.readouterr().err
        records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
        assert len(records) == len(trace.steps) + 2
        for record, step in zip(records[1:], trace.steps):
            assert (record["status"], record["feasible"], record["temp_set_c"], record["illum_set_lx"]) == (
                step.status, step.feasible, step.temp_set, step.illum_set)
        assert records[-1]["status"] == "ok"

    def test_malformed_lines_counted(self, workdir, capsys):
        model, cfg_path = self.files(workdir)
        lines = [
            "this is not json",
            json.dumps({"t": "2026-01-05T08:00:00", "worker": "w0",
                        "dl": 9.0, "temp_c": 26.0, "illum_lx": 600.0}),
            json.dumps({"t": "2026-01-05T08:00:00", "worker": "w0",
                        "dl": 2.0, "temp_c": 26.0, "illum_lx": 600.0}),
            json.dumps({"t": "2026-01-05T08:20:00", "worker": "w0",
                        "dl": 2.1, "temp_c": 26.0, "illum_lx": 600.0}),
        ]
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "2 malformed" in err

    @pytest.mark.parametrize("bad", [DEEP_LINE] + OVERFLOW_LINES,
                             ids=["deep", "dl", "temp_c", "illum_lx"])
    def test_pathological_line_counted_as_malformed(self, workdir, capsys, bad):
        model, cfg_path = self.files(workdir)
        lines = [json.dumps(stream_doc()), bad,
                 json.dumps(stream_doc(t="2026-01-05T08:20:00"))]
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        assert "skipped 1 malformed and 0 late" in capsys.readouterr().err
        assert [json.loads(line)["status"] for line in Path(out_path).read_text().splitlines()] == ["warmup"]

    @pytest.mark.parametrize("mode", ["mpc2", "noc"])
    def test_nonfinite_objective_is_held_as_error(self, workdir, capsys, mode):
        # Coefficients this large overflow the drowsiness rollout to nan.
        coef = dict(TRUTH.dl.coef, d_prev=1e308, temp=-1e308)
        model = str(workdir / "huge.json")
        write_model_set(model, ModelSet(dl=DlModel(0.0, coef), idt=TRUTH.idt, ami=TRUTH.ami))
        cfg_path = put(workdir, "scenario.cfg", SCENARIO_CFG.replace("mode = mpc2", f"mode = {mode}"))
        lines = [json.dumps(stream_doc(t=f"2026-01-05T08:{15 * w:02d}:00")) for w in range(3)]
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        assert "1 window(s) held on a solver error" in capsys.readouterr().err
        # Window 1 completes the two-step history, so its solve is the first.
        records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
        assert [(r["status"], r["feasible"]) for r in records] == [("warmup", None), ("error", None)]
        assert (records[1]["temp_set_c"], records[1]["illum_set_lx"]) == (26.0, 600.0)
        manifest = json.loads((workdir / "daemon_manifest.json").read_text())
        assert manifest["stats"]["errors"] == 1

    def test_late_lines_counted(self, workdir, capsys):
        model, cfg_path = self.files(workdir)

        def rec(ts, dl):
            return json.dumps({"t": ts, "worker": "w0", "dl": dl,
                               "temp_c": 26.0, "illum_lx": 600.0})

        lines = [
            rec("2026-01-05T08:00:00", 2.0),
            rec("2026-01-05T08:15:00", 2.1),
            rec("2026-01-05T08:30:00", 2.2),
            rec("2026-01-05T08:01:00", 2.3),   # back into window 0
            rec("2026-01-05T08:45:00", 2.2),
        ]
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        assert "1 late" in capsys.readouterr().err

    def test_gap_windows_hold_setpoints(self, workdir, capsys):
        model, cfg_path = self.files(workdir)

        def rec(ts, dl):
            return json.dumps({"t": ts, "worker": "w0", "dl": dl,
                               "temp_c": 26.2, "illum_lx": 590.0})

        # windows 0,1,2 have data, 3 and 4 are silent, 5 and 6 resume
        lines = [
            rec("2026-01-05T08:00:00", 2.0),
            rec("2026-01-05T08:15:00", 2.0),
            rec("2026-01-05T08:30:00", 2.1),
            rec("2026-01-05T09:15:00", 2.3),
            rec("2026-01-05T09:30:00", 2.4),
            rec("2026-01-05T09:45:00", 2.4),   # closes window 6
        ]
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
        statuses = [r["status"] for r in records]
        assert statuses == ["warmup", "ok", "ok", "stale", "stale", "stale", "ok"]
        held = records[2]
        for stale in records[3:6]:
            assert stale["temp_set_c"] == held["temp_set_c"]
            assert stale["illum_set_lx"] == held["illum_set_lx"]

    @pytest.mark.parametrize("mode", ["mpc2", "noc"])
    def test_records_carry_search_diagnostics(self, workdir, capsys, monkeypatch, mode):
        model, _ = self.files(workdir)
        cfg_path = put(workdir, "control.cfg",
                       CONTROL_CFG.replace("mode = mpc2", f"mode = {mode}"))
        solutions = record_solutions(monkeypatch)

        def rec(ts):
            return json.dumps(stream_doc(t=ts, temp_c=26.2, illum_lx=590.0))

        # windows 0,1,2 have data, 3 is silent, 4 and 5 resume, 6 closes 5
        times = ["08:00", "08:15", "08:30", "09:00", "09:15", "09:30"]
        stream = put(workdir, "stream.jsonl",
                     "\n".join(rec(f"2026-01-05T{hm}:00") for hm in times) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
        assert [r["status"] for r in records] == ["warmup", "ok", "ok", "stale", "stale", "ok"]
        assert len(solutions) == len(records) - 1
        for record, solution in zip(records, [None] + solutions):
            if solution is None:
                assert record["generations"] is None and record["stop_reason"] is None
            else:
                assert record["generations"] == solution.generations_used
                assert record["stop_reason"] == solution.stop_reason
        ok = [r for r in records if r["status"] == "ok"]
        if mode == "noc":
            assert all(r["generations"] == 0 and r["stop_reason"] is None for r in ok)
        else:
            assert all(r["generations"] > 0 and r["stop_reason"] in ("tolerance", "budget")
                       for r in ok)

    @pytest.mark.parametrize("resume", [False, True], ids=["gap", "gap_then_data"])
    def test_feasible_is_null_without_a_solve(self, workdir, capsys, monkeypatch, resume):
        # case1_mpc2.cfg's five workers fill window 0; windows 1-3 are
        # silent and window 4 logs a step without its predecessor, so
        # eleven lines end on four stale windows.  With resume, windows 5
        # and 6 complete the history and are solved.
        model = str(workdir / "m.json")
        write_model_set(model, TRUTH)
        solutions = record_solutions(monkeypatch)
        origin = datetime(2026, 1, 5, 8)

        def window(w, workers=range(5)):
            t = (origin + w * timedelta(minutes=15)).isoformat()
            return [json.dumps(stream_doc(t=t, worker=f"w{i}")) for i in workers]

        lines = window(0) + window(4) + window(5, [0])
        if resume:
            lines += window(5, range(1, 5)) + window(6) + window(7, [0])
        assert len(lines) == (21 if resume else 11)
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", shipped_config_path("case1_mpc2.cfg"),
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
        statuses = ["warmup"] + ["stale"] * 4 + ["ok", "ok"] * resume
        assert [r["status"] for r in records] == statuses
        assert len(solutions) == len(records) - 1
        for record, solution in zip(records, [None] + solutions):
            if record["status"] == "ok":
                assert type(record["feasible"]) is bool and record["feasible"] == solution.feasible
            else:
                assert solution is None and record["feasible"] is None

    @pytest.mark.parametrize("field, value", [
        ("temp_c", 60.0), ("temp_c", -0.5), ("illum_lx", 10000.5), ("illum_lx", 20000),
    ])
    def test_reading_outside_the_room_range_is_malformed(self, workdir, capsys, field, value):
        # Window 2's only line is out of range: the window is skipped as
        # missing data, not decided on.
        model, cfg_path = self.files(workdir)
        lines = [json.dumps(stream_doc(t=f"2026-01-05T{hm}:00", **({field: value} if w == 2 else {})))
                 for w, hm in enumerate(["08:00", "08:15", "08:30", "08:45", "09:00", "09:15"])]
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        assert "skipped 1 malformed and 0 late" in capsys.readouterr().err
        statuses = [json.loads(line)["status"] for line in Path(out_path).read_text().splitlines()]
        assert statuses == ["warmup", "ok", "stale", "stale", "ok"]

    def test_mistyped_first_window_does_not_fix_the_roster(self, workdir, capsys):
        # Window 0 carries w1x for w1, and every later window the right
        # names: window 1 elects w0, w1 and starts a new history.
        model, _ = self.files(workdir)
        cfg_path = put(workdir, "control.cfg",
                       CONTROL_CFG.replace("num_workers = 1", "num_workers = 2"))
        lines = []
        for w in range(6):
            t = (datetime(2026, 1, 5, 8) + w * timedelta(minutes=15)).isoformat()
            for worker in ("w0", "w1x" if w == 0 else "w1"):
                lines.append(json.dumps(stream_doc(t=t, worker=worker, dl=2.0 + 0.1 * w)))
        stream = put(workdir, "stream.jsonl", "\n".join(lines) + "\n")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        statuses = [json.loads(line)["status"] for line in Path(out_path).read_text().splitlines()]
        assert statuses == ["warmup", "stale", "ok", "ok", "ok"]

    def test_two_worker_replay_matches_simulation(self, workdir, capsys):
        # Ten windows of a stream whose names never change: the roster
        # stays w0, w1 and the daemon applies the simulator's setpoints.
        model = str(workdir / "m.json")
        write_model_set(model, TRUTH)
        cfg_path = put(workdir, "scenario.cfg", SCENARIO_CFG.replace(
            "num_workers = 1", "num_workers = 2").replace("steps = 4", "steps = 8"))
        sc = parse_scenario_config(cfg_path)
        trace, _ = run_scenario(sc)
        stream = put(workdir, "stream.jsonl",
                     "\n".join(replay_stream_lines(trace, sc.plant, sc.mpc_cfg)) + "\n")
        out_path = str(workdir / "setpoints.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        records = [json.loads(line) for line in Path(out_path).read_text().splitlines()]
        assert len(records) == 10
        assert [r["status"] for r in records] == ["warmup"] + ["ok"] * 9
        for record, step in zip(records[1:], trace.steps):
            assert (record["temp_set_c"], record["illum_set_lx"]) == (step.temp_set, step.illum_set)

    def test_empty_stream(self, workdir, capsys):
        model, cfg_path = self.files(workdir)
        stream = put(workdir, "stream.jsonl", "")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        assert Path(out_path).read_text() == ""

    @pytest.mark.parametrize("seed_args, seed", [([], 77), (["--seed", "5"], 5)], ids=["config-seed", "--seed"])
    def test_manifest_records_the_effective_configuration(self, workdir, capsys, seed_args, seed):
        model, cfg_path = self.files(workdir)
        stream = put(workdir, "stream.jsonl", "")
        rc = main(["daemon", "--model", model, "--config", cfg_path, "--in", stream,
                   "--out", str(workdir / "out.jsonl"), "--out-dir", str(workdir), *seed_args])
        assert rc == 0
        manifest = json.loads((workdir / "daemon_manifest.json").read_text())
        cfg, de = parse_control_config(cfg_path)
        assert MpcConfig(**{**manifest["mpc"], "mode": ControlMode(manifest["mpc"]["mode"])}) == cfg
        assert DeParams(**manifest["de"]) == replace(de, seed=seed)
        assert manifest["seed"] == (int(seed_args[1]) if seed_args else None)

    def test_missing_stream_file(self, workdir, capsys):
        model, cfg_path = self.files(workdir)
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", str(workdir / "absent.jsonl"),
                   "--out", str(workdir / "out.jsonl"),
                   "--out-dir", str(workdir)])
        assert rc == 2

    def test_unwritable_out_file(self, workdir, capsys, monkeypatch):
        model, cfg_path = self.files(workdir)
        stream = put(workdir, "stream.jsonl", "")
        opened = []

        def tracking_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(cli_module, "open", tracking_open, raising=False)
        bad_out = str(workdir / "absent_dir" / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", bad_out, "--out-dir", str(workdir)])
        assert rc == 2
        assert f"cannot write stream {bad_out}" in capsys.readouterr().err
        assert opened and all(fh.closed for fh in opened)


class TestDaemonStreamBytes:
    """A stream line that is not UTF-8 is malformed, and the stream goes on."""

    GOOD = json.dumps(stream_doc(t="2026-01-05T08:00:00")).encode() + b"\n"
    # The second line holds the Latin-1 byte 0xe9; the fourth names a worker "w\xe9".
    STREAM = GOOD + b'{"t": "\xe9"}\n' + GOOD + GOOD.replace(b'"w0"', b'"w\xe9"')

    def run(self, workdir, capsys, in_args):
        model = str(workdir / "m.json")
        write_model_set(model, TRUTH)
        out = workdir / "out.jsonl"
        rc = main(["daemon", "--model", model, "--config", shipped_config_path("case1_noc.cfg"),
                   *in_args, "--out", str(out), "--out-dir", str(workdir)])
        assert rc == 0
        assert "skipped 2 malformed and 0 late line(s)" in capsys.readouterr().err
        stats = json.loads((workdir / "daemon_manifest.json").read_text())["stats"]
        assert stats == {"records_in": 4, "records_out": 0, "malformed": 2, "late": 0, "errors": 0}
        assert out.read_text() == ""

    def test_from_a_file(self, workdir, capsys):
        (workdir / "stream.jsonl").write_bytes(self.STREAM)
        self.run(workdir, capsys, ["--in", str(workdir / "stream.jsonl")])

    def test_from_stdin(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.STREAM), encoding="utf-8"))
        self.run(workdir, capsys, ["--in", "-"])


def test_window_starting_past_year_9999_is_malformed():
    # As an instant the second line is a day after the first, but its
    # window would start past year 9999 in the first line's offset.
    cfg, de = parse_control_config(shipped_config_path("case1_noc.cfg"))
    lines = [json.dumps(stream_doc(t=t)) for t in ("9999-12-31T23:50:00+14:00", "9999-12-31T23:50:00-10:00")]
    records = []
    stats = daemon_module.run_daemon(TRUTH, cfg, de, lines, records.append)
    assert stats == {"records_in": 2, "records_out": 0, "malformed": 1, "late": 0, "errors": 0}
    assert records == []


# How a generated stream line writes its time: naive, or at one of these offsets.
STREAM_ZONES = [None, timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                timezone(timedelta(hours=-8)), timezone(timedelta(hours=14))]
# Where a line lies against the boundary of its window.
BOUNDARY_SHIFTS = {"on": timedelta(0), "before": timedelta(microseconds=-1),
                   "after": timedelta(microseconds=1)}

stream_events = st.lists(st.tuples(
    st.sampled_from([0, 0, 1, 1, 3, -1]),  # windows moved on from the line before
    st.sampled_from([*BOUNDARY_SHIFTS, "inside"]),
    st.sampled_from(STREAM_ZONES),
    st.sampled_from(["record"] * 4 + ["junk", "blank"]),
), max_size=25)


class TestDaemonWindows:
    """run_daemon's window assignment against daemon_windows_by_number."""

    @staticmethod
    def run(lines, step_hours):
        cfg = MpcConfig(mode=ControlMode.NOC, horizon=2, num_workers=1, step_hours=step_hours)
        records = []
        stats = daemon_module.run_daemon(TRUTH, cfg, DeParams(), lines, records.append)
        return stats, [(r["t"], r["status"]) for r in records]

    @staticmethod
    def line(when):
        return json.dumps(stream_doc(t=when.isoformat()))

    @settings(max_examples=100, deadline=None)
    @given(st.datetimes(min_value=datetime(1970, 1, 2), max_value=datetime(2100, 1, 1)),
           st.sampled_from(STREAM_ZONES),
           st.sampled_from([0.25, 1 / 3600, 7.5]),
           stream_events)
    def test_matches_window_numbers(self, origin, origin_zone, step_hours, events):
        window = timedelta(hours=step_hours)
        origin = origin.replace(tzinfo=timezone.utc)

        def written(instant, zone):
            return instant.replace(tzinfo=None) if zone is None else instant.astimezone(zone)

        lines = [self.line(written(origin, origin_zone))]
        k = 0
        for moved, where, zone, kind in events:
            k += moved
            start = origin + k * window
            when = start + window / 2 if where == "inside" else start + BOUNDARY_SHIFTS[where]
            lines.append({"record": self.line(written(when, zone)), "junk": "not json", "blank": "  "}[kind])
        assert self.run(lines, step_hours) == daemon_windows_by_number(lines, step_hours)

    @pytest.mark.parametrize("times", [
        [datetime.max - timedelta(minutes=5)],
        [datetime.max - timedelta(minutes=15) + timedelta(microseconds=1), datetime.max],
        [datetime.max.replace(tzinfo=timezone.utc) - timedelta(minutes=5),
         datetime.max.replace(tzinfo=timezone(timedelta(hours=-1))) - timedelta(minutes=62)],
    ], ids=["one-line", "two-lines", "two-offset-lines"])
    def test_first_record_within_one_window_of_datetime_max(self, times):
        lines = [self.line(when) for when in times]
        stats, records = self.run(lines, 0.25)
        assert (stats, records) == daemon_windows_by_number(lines, 0.25)
        assert (stats["records_in"], stats["malformed"], stats["late"], records) == (len(times), 0, 0, [])


@pytest.mark.parametrize("command", ["solve", "daemon", "simulate"])
def test_negative_seed_is_usage_error(workdir, capsys, command):
    model = str(workdir / "m.json")
    write_model_set(model, TRUTH)
    cfg = put(workdir, "control.cfg", CONTROL_CFG)
    # solve and daemon override the [de] seed, simulate the [scenario] one;
    # all three refuse a negative seed in the same words.
    if command == "solve":
        argv = ["solve", put(workdir, "snap.csv", SNAPSHOT_CSV)]
    elif command == "daemon":
        argv = ["daemon", "--in", put(workdir, "stream.jsonl", "")]
    else:
        argv = ["simulate"]
        cfg = put(workdir, "scenario.cfg", SCENARIO_CFG)
    rc = main(argv + ["--model", model, "--config", cfg, "--seed", "-1",
                      "--out-dir", str(workdir)])
    assert rc == 2
    assert "error: --seed: seed must be >= 0, got -1\n" in capsys.readouterr().err


def test_broken_pipe_on_stdout_ends_with_0(workdir, monkeypatch):
    # The reader of stdout has gone, as when a pipe's reader exits early.
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    model = str(workdir / "m.json")
    write_model_set(model, TRUTH)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    argv = ["solve", put(workdir, "snap.csv", SNAPSHOT_CSV), "--model", model,
            "--config", put(workdir, "c.cfg", CONTROL_CFG), "--out-dir", str(workdir)]
    assert main(argv) == 0


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required arguments
    assert exc.value.code == 2


class TestUnwritableOutput:
    """An output path that cannot be written is exit 2, naming the path,
    and a refused --out-dir leaves no output behind."""

    def argv(self, workdir, command) -> list[str]:
        model = str(workdir / "m.json")
        write_model_set(model, TRUTH)
        if command == "identify":
            return ["identify", TestIdentifyCommand().telemetry_file(workdir), str(workdir / "fit.json")]
        if command == "solve":
            return ["solve", put(workdir, "snap.csv", SNAPSHOT_CSV), "--model", model,
                    "--config", put(workdir, "control.cfg", CONTROL_CFG)]
        if command == "simulate":
            return ["simulate", "--config", put(workdir, "scenario.cfg", SCENARIO_CFG)]
        if command == "report":
            trace = str(workdir / "noc.csv")
            write_trace_csv(trace, synth_trace("NOC", 0, 3.0))
            return ["report", trace]
        stream = put(workdir, "stream.jsonl", json.dumps(stream_doc()) + "\n")
        return ["daemon", "--model", model, "--config", put(workdir, "scenario.cfg", SCENARIO_CFG),
                "--in", stream, "--out", str(workdir / "out.jsonl")]

    @pytest.mark.parametrize("command", ["identify", "solve", "simulate", "report", "daemon"])
    def test_out_dir_that_is_a_file(self, workdir, capsys, command):
        argv = self.argv(workdir, command)
        out_dir = put(workdir, "afile", "")
        before = sorted(workdir.iterdir())
        assert main([*argv, "--out-dir", out_dir]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {out_dir}: "), err
        assert err.count("\n") == 1
        assert sorted(workdir.iterdir()) == before

    def test_model_path_in_a_missing_directory(self, workdir, capsys):
        telemetry = TestIdentifyCommand().telemetry_file(workdir)
        model = str(workdir / "nodir" / "m.json")
        assert main(["identify", telemetry, model, "--out-dir", str(workdir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {model}: "), err
        assert not (workdir / "nodir").exists()
        assert not (workdir / "identify_manifest.json").exists()
