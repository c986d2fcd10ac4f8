"""Command-line front end: identify, solve, simulate, report, daemon.

Configuration is read from INI-style ``key = value`` sections, each key
the name of a field of the dataclass its section builds.  The files the
commands read and write are declared in formats, and the streaming
daemon lives in daemon.  Every command drops a ``<command>_manifest.json``
into its output directory recording the resolved parameters, so any run
can be reproduced exactly.

Exit codes: 0 success, 2 malformed input or configuration, or an output
that cannot be written, 3 not enough data to identify a model, 4 no
feasible schedule.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import os
import sys
from dataclasses import MISSING, Field, asdict, fields, replace

import numpy as np

from . import __version__
from .daemon import _utf8_lines, run_daemon
from .domain import (
    AmiModel,
    ControlMode,
    DlModel,
    DL_FEATURES,
    IdtModel,
    ModelSet,
    MpcConfig,
)
from .formats import (
    CliError,
    _refused,
    _writing,
    fmt6,
    read_model_set,
    read_snapshot_csv,
    read_telemetry_csv,
    read_trace_csv,
    write_metrics_csv,
    write_model_set,
    write_trace_csv,
)
from .identify import (
    BadRidge,
    DegenerateSweep,
    InsufficientData,
    UnstableFit,
    fit_ami_model,
    fit_dl_model,
    fit_idt_coeffs,
)
from .models import ShapeMismatch
from .mpc import require_search_fits, solve
from .optimizer import DeParams, NonFiniteObjective
from .sim import (
    ArmComparison,
    PlantConfig,
    PlantOutOfRange,
    ScenarioConfig,
    compute_metrics,
    run_scenario,
)


def make_out_dir(out_dir: str) -> None:
    """Make the output directory, as a command does before its first output,
    so that one which cannot be made leaves no output behind."""
    with _refused(f"cannot write {out_dir}: ", OSError):
        os.makedirs(out_dir, exist_ok=True)


def write_manifest(out_dir: str, command: str, payload: dict) -> str:
    """Record the resolved run parameters next to the outputs."""
    path = os.path.join(out_dir, f"{command}_manifest.json")
    body = {"command": command, "tool_version": __version__}
    body.update(payload)
    with _writing(path) as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=asdict)
        fh.write("\n")
    return path


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
            except ValueError:
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
    """[mpc] + [de] only, as needed by solve and daemon.  They build no
    ScenarioConfig, which checks its search's size itself, so this checks it."""
    cfg, de = _control_config(path, _load_config(path))
    with _refused(f"config {path}: "):
        require_search_fits(cfg, de)
    return cfg, de


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


def cmd_identify(args) -> int:
    table = read_telemetry_csv(args.telemetry)
    try:
        dl_model, dl_report = fit_dl_model(
            table, exclude_boundary=not args.keep_boundary, ridge=args.ridge
        )
        idt_model, idt_report = fit_idt_coeffs(table)
        ami_model, ami_report = fit_ami_model(table)
    except (InsufficientData, DegenerateSweep, UnstableFit) as err:
        raise CliError(str(err), exit_code=3)
    except BadRidge as err:
        raise CliError(f"--ridge: {err}")
    models = ModelSet(dl=dl_model, idt=idt_model, ami=ami_model)
    make_out_dir(args.out_dir)
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
    with _refused("", (ShapeMismatch, NonFiniteObjective)):
        solution = solve(models, snapshot, cfg, de)
    schedule = solution.schedule
    steps = enumerate(zip(schedule.temp_setpoints, schedule.illum_setpoints), start=1)
    make_out_dir(args.out_dir)
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
    make_out_dir(args.out_dir)
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

    make_out_dir(args.out_dir)
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

    make_out_dir(args.out_dir)
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
