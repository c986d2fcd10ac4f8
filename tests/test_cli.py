import json
import math
import os
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alertmpc.cli import (
    CliError,
    _parse_stream_record,
    _window_stats,
    fmt6,
    main,
    parse_control_config,
    parse_scenario_config,
    read_model_set,
    read_snapshot_csv,
    read_telemetry_csv,
    read_trace_csv,
    replay_stream_lines,
    shipped_config_path,
    write_model_set,
    write_telemetry_csv,
    write_trace_csv,
)
from alertmpc.domain import (
    AmiModel,
    ControlMode,
    DlModel,
    IdtModel,
    ModelSet,
)
from alertmpc.identify import fit_ami_model, fit_dl_model, fit_idt_coeffs
from alertmpc.mpc import Controller
from alertmpc.sim import (
    PlantConfig,
    SimTrace,
    TraceStep,
    run_open_loop,
    run_scenario,
)

TRUTH = ModelSet(
    dl=DlModel(intercept=0.14, coef={
        "d_prev": 0.8, "d_plus_prev": 0.08, "d_minus_prev": -0.04,
        "temp": 0.02, "temp_plus": 0.05, "temp_minus": -0.18,
        "illum": -0.0004, "illum_plus": -0.0011, "illum_minus": 0.0006,
        "effort": -0.06,
    }),
    idt=IdtModel(k_up=0.3, k_down=0.45),
    ami=AmiModel(theta0=30.0, theta_prev=0.1, theta_set=0.85),
)

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
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model_set(path, TRUTH)
        assert read_model_set(path) == TRUTH

    def test_rejects_wrong_version(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model_set(path, TRUTH)
        doc = json.loads(open(path).read())
        doc["version"] = 99
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CliError, match="version"):
            read_model_set(path)

    def test_rejects_bad_json(self, tmp_path):
        path = put(tmp_path, "m.json", "{not json")
        with pytest.raises(CliError, match="not valid JSON"):
            read_model_set(path)

    def test_rejects_missing_block(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model_set(path, TRUTH)
        doc = json.loads(open(path).read())
        del doc["idt"]
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CliError, match="malformed"):
            read_model_set(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError, match="cannot read"):
            read_model_set(str(tmp_path / "absent.json"))


class TestTelemetryCsv:
    def test_second_write_is_byte_identical(self, tmp_path):
        table = run_open_loop(sweep_plant(), 2, sweep_setpoints(20), seed=9)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_telemetry_csv(p1, table)
        write_telemetry_csv(p2, read_telemetry_csv(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_header_mismatch(self, tmp_path):
        path = put(tmp_path, "t.csv", "step,worker\n0,w0\n")
        with pytest.raises(CliError, match="header"):
            read_telemetry_csv(path)

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

    def test_reversed_steps(self, tmp_path):
        path = put(tmp_path, "t.csv",
                   "step,worker_id,dl,effort,temp_c,illum_lx,temp_set_c,illum_set_lx\n"
                   "1,w0,2.0,0.1,26.0,600,26,600\n"
                   "0,w0,2.1,0.1,26.0,600,26,600\n")
        with pytest.raises(CliError, match="strictly increasing"):
            read_telemetry_csv(path)


class TestSnapshotCsv:
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


class TestTraceCsv:
    def small_trace(self):
        steps = (
            TraceStep(0, 26.0, 600.0, 26.43, 598.7, 0.2236, True, "ok",
                      (2.123456789,), (0.05,)),
            TraceStep(1, 25.5, 750.0, 26.01, 640.2, 0.273, False, "stale",
                      (2.3,), (0.0,)),
        )
        return SimTrace(ControlMode.MPC2, 7, 1, 2.0, 26.0, 600.0, steps)

    def test_round_trip_fields(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_trace_csv(path, self.small_trace())
        back = read_trace_csv(path)
        assert back.mode is ControlMode.MPC2
        assert back.seed == 7
        assert back.steps[1].status == "stale"
        assert back.steps[1].feasible is False
        assert back.steps[0].dls[0] == pytest.approx(2.123456789, rel=1e-5)

    def test_second_write_is_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_trace_csv(p1, self.small_trace())
        write_trace_csv(p2, read_trace_csv(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_missing_metadata(self, tmp_path):
        path = put(tmp_path, "trace.csv",
                   "# mode=MPC2\nstep,temp_set_c\n")
        with pytest.raises(CliError, match="missing trace metadata"):
            read_trace_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = put(tmp_path, "trace.csv",
                   "# mode=MPC2\n# seed=0\n# workers=1\n# penalty_cap=2\n"
                   "# temp_comfort=26\n# illum_comfort=600\n"
                   "step,bogus\n")
        with pytest.raises(CliError, match="header mismatch"):
            read_trace_csv(path)


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

    def test_insufficient_data_exit_code(self, workdir, capsys):
        telem = self.telemetry_file(workdir, steps=5)
        rc = main(["identify", telem, str(workdir / "m.json"),
                   "--out-dir", str(workdir)])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

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


class TestSimulateCommand:
    def test_outputs_and_determinism(self, workdir, capsys):
        cfg = put(workdir, "scenario.cfg", SCENARIO_CFG)
        d1, d2 = str(workdir / "run1"), str(workdir / "run2")
        assert main(["simulate", "--config", cfg, "--out-dir", d1]) == 0
        summary = capsys.readouterr().out
        assert "mode=MPC2" in summary and "mean_dl=" in summary
        assert main(["simulate", "--config", cfg, "--out-dir", d2]) == 0
        for name in ("trace.csv", "metrics.csv"):
            a = open(os.path.join(d1, name), "rb").read()
            b = open(os.path.join(d2, name), "rb").read()
            assert a == b, name
        manifest = json.load(open(os.path.join(d1, "simulate_manifest.json")))
        assert manifest["command"] == "simulate"
        assert manifest["scenario"]["seed"] == 11

    def test_seed_override(self, workdir, capsys):
        cfg = put(workdir, "scenario.cfg", SCENARIO_CFG)
        d1, d2 = str(workdir / "a"), str(workdir / "b")
        main(["simulate", "--config", cfg, "--out-dir", d1])
        main(["simulate", "--config", cfg, "--seed", "29", "--out-dir", d2])
        capsys.readouterr()
        t1 = open(os.path.join(d1, "trace.csv")).read()
        t2 = open(os.path.join(d2, "trace.csv")).read()
        assert "# seed=11" in t1 and "# seed=29" in t2

    def test_mismatch_requires_model(self, workdir, capsys):
        text = SCENARIO_CFG.replace("seed = 11", "seed = 11\nmodel_mismatch = true")
        cfg = put(workdir, "scenario.cfg", text)
        rc = main(["simulate", "--config", cfg, "--out-dir", str(workdir)])
        assert rc == 2
        assert "controller_models" in capsys.readouterr().err

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
    all finite, dl on the 1-5 scale."""
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
    if not (all(math.isfinite(v) for v in values) and 1.0 <= dl <= 5.0):
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
    "temp_c": st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-10**6, 10**6),
    "illum_lx": st.floats(allow_nan=False, allow_infinity=False)
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
            assert type(value) is float and math.isfinite(value)
        assert 1.0 <= dl <= 5.0

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


class TestDaemonCommand:
    def files(self, tmp_path):
        model = str(tmp_path / "m.json")
        write_model_set(model, TRUTH)
        cfg = put(tmp_path, "scenario.cfg", SCENARIO_CFG)
        return model, cfg

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
        records = [json.loads(line) for line in open(out_path)]
        # one warmup record, then one decision per trace step plus a final
        # decision for the interval after the last step
        assert len(records) == len(trace.steps) + 2
        assert records[0]["status"] == "warmup"
        for record, step in zip(records[1:], trace.steps):
            assert record["status"] == "ok"
            assert record["temp_set_c"] == step.temp_set
            assert record["illum_set_lx"] == step.illum_set
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
        assert [json.loads(line)["status"] for line in open(out_path)] == ["warmup"]

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
        records = [json.loads(line) for line in open(out_path)]
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
        solutions = []
        decide = Controller.decide

        def recording_decide(self, clock):
            result = decide(self, clock)
            solutions.append(result[1])
            return result

        monkeypatch.setattr(Controller, "decide", recording_decide)

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
        records = [json.loads(line) for line in open(out_path)]
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

    def test_empty_stream(self, workdir, capsys):
        model, cfg_path = self.files(workdir)
        stream = put(workdir, "stream.jsonl", "")
        out_path = str(workdir / "out.jsonl")
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", stream, "--out", out_path, "--out-dir", str(workdir)])
        assert rc == 0
        assert open(out_path).read() == ""

    def test_missing_stream_file(self, workdir, capsys):
        model, cfg_path = self.files(workdir)
        rc = main(["daemon", "--model", model, "--config", cfg_path,
                   "--in", str(workdir / "absent.jsonl"),
                   "--out", str(workdir / "out.jsonl"),
                   "--out-dir", str(workdir)])
        assert rc == 2


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing required arguments
    assert exc.value.code == 2
