"""Layered benchmark of alertmpc, driven through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  One process does all the work, with numpy's BLAS held to one
thread.  Every workload is a closed loop: the next unit of work starts
when the previous one returns (for the daemon, the feeder hands over the
next line only when run_daemon asks for it).  So the benchmark reports
work per second at a stated input size, not a rate sweep.

With --trace 0 the last stdout line carries the end-to-end metrics.  Their
times are brought to a reference host speed with the yardstick kernel
(perfbench/yardstick.py), timed right before and after each operation on
the same CPU, so that a neighbour slowing the shared host for a while
does not read as a change of alertmpc; the raw wall-clock figures are
printed on '#' lines.  With --trace 1 each unit runs once with the
package's public functions wrapped in spans and once untraced; the
per-layer metrics come from the spans, which are written under
.perfbench_out/, and the tracing overhead from the difference.
Lines before the last one, prefixed with '#', give the machine facts,
the seed and the workload-specific figures named in each metric's notes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from yardstick import REFERENCE_S, Yardstick, scale  # noqa: E402

clock = time.perf_counter

SETUP_REPEATS = 11
MIN_UNITS = 2


@dataclass
class Outcome:
    """One unit of work: a paired seed, a daemon pass or an identify pass.

    busy_s is wall time without the yardstick's own, reference_s the same
    time at reference speed.  timings holds (seconds, factor) per
    operation whose latency is reported.
    """

    busy_s: float = 0.0
    reference_s: float = 0.0
    work: int = 0
    attempted: int = 0
    failed: int = 0
    timings: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digest: str = ""
    extra: dict = field(default_factory=dict)


def _shipped(name: str) -> str:
    return str(SRC / "alertmpc" / "configs" / name)


@contextmanager
def timed_calls(stick, samples: list, module: str = "alertmpc.mpc", attr: str = "Controller.decide"):
    """Time each call of module.attr between two yardstick samples.

    Appends (seconds, factor) to samples.  Wraps nothing when stick is
    None or the function no longer exists; the caller then falls back
    to coarser timing.
    """
    try:
        owner, name = spans.resolve(module, attr)
    except (ImportError, AttributeError):
        owner = None
    if stick is None or owner is None:
        yield
        return
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)

    def timed(*args, **kwargs):
        before = stick.measure()
        t = clock()
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = clock() - t
            samples.append((elapsed, scale(before, stick.measure())))

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, original)


class Idle:
    """Stands in for the yardstick in traced runs: runs nothing, reads as reference speed."""

    spent = 0.0

    def measure(self) -> float:
        return REFERENCE_S

    def mark(self) -> int:
        return 0

    def scale_since(self, mark: int) -> float:
        return 1.0


def at_reference(busy_s: float, ops: list, factor: float) -> float:
    """busy_s at reference speed.

    Each timed operation in ops, (seconds, factor), is scaled by the
    yardstick around it; the time between them by the unit's factor.
    """
    return sum(s * f for s, f in ops) + (busy_s - sum(s for s, _ in ops)) * factor


class Workload:
    """A seeded workload: unit(k) runs and checks the k-th unit of work."""

    rate_name = ""
    op_name = ""
    setup_args: list = []

    def unit(self, k: int, stick) -> Outcome:
        """Run unit k; with a Yardstick, time its operations at reference speed.

        stick is None in traced runs, which time nothing themselves.
        """
        raise NotImplementedError

    def final_checks(self, outcomes) -> list[str]:
        """Checks over the whole run, after every unit's own checks."""
        return []

    def report(self, outcomes) -> dict:
        """Workload-specific figures: name -> (value, unit)."""
        return {}


class ArmsCase1(Workload):
    """Paired NOC / MPC1 / MPC2 closed-loop runs on the shipped case-1 config."""

    rate_name = "sim_steps_per_s: closed-loop intervals of all arms"
    op_name = "decide_ms: one MPC2 Controller.decide"
    setup_args = ["--scenario", _shipped("case1_mpc2.cfg")]
    prefix_steps = 2

    def __init__(self, seed: int):
        import alertmpc.cli as cli
        import alertmpc.sim as sim

        self.sim = sim
        self.base = cli.parse_scenario_config(_shipped("case1_mpc2.cfg"))
        self.seeds = gen.scenario_seeds(seed, 1000)

    @staticmethod
    def _steps(trace, count=None) -> list:
        return [dataclasses.astuple(s) for s in trace.steps[:count]]

    def unit(self, k: int, stick) -> Outcome:
        sim = self.sim
        out = Outcome()
        seed = self.seeds[k]
        traces = {}
        mean_dl = {}
        timer = stick or Idle()
        mark = timer.mark()
        ops: list = []
        for mode in sim.ARMS:
            sc = sim.scenario_for_arm(self.base, mode, seed)
            decides: list = []
            before = timer.measure()
            spent = timer.spent
            t0 = clock()
            with timed_calls(stick, decides):
                trace, metrics = sim.run_scenario(sc)
            elapsed = clock() - t0 - (timer.spent - spent)
            after = timer.measure()
            ops += decides
            out.busy_s += elapsed
            out.work += len(trace.steps)
            out.attempted += len(trace.steps)
            out.failed += sum(
                1
                for s in trace.steps
                if s.status != "ok" or not s.feasible or (mode.value == "MPC2" and s.penalty > trace.penalty_cap)
            )
            if mode.value == "MPC2":
                out.timings += decides or [(elapsed / len(trace.steps), scale(before, after))]
                out.extra["mpc2_violation_rate"] = metrics.comfort_violation_rate
            traces[mode.value] = self._steps(trace)
            mean_dl[mode.value] = metrics.mean_dl
            rerun, _ = sim.run_scenario(dataclasses.replace(sc, steps=self.prefix_steps))
            out.problems += checks.check_prefix(
                checks.digest(self._steps(trace, self.prefix_steps)),
                checks.digest(self._steps(rerun)),
                f"seed {seed} {mode.value}",
            )
        out.reference_s = at_reference(out.busy_s, ops, timer.scale_since(mark))
        out.extra["dl_reduction"] = mean_dl["NOC"] - mean_dl["MPC2"]
        out.extra["mpc2_wins"] = mean_dl["MPC2"] < mean_dl["NOC"]
        out.digest = checks.digest(traces)
        return out

    def final_checks(self, outcomes) -> list[str]:
        done = [o for o in outcomes if "dl_reduction" in o.extra]
        return checks.check_arm_runs(
            [o.extra["mpc2_violation_rate"] for o in done],
            sum(1 for o in done if o.extra["mpc2_wins"]),
            len(done),
        )

    def report(self, outcomes) -> dict:
        reductions = [o.extra["dl_reduction"] for o in outcomes if "dl_reduction" in o.extra]
        return {
            "dl_reduction": (statistics.fmean(reductions) if reductions else float("nan"), "DL"),
            "paired_seeds": (len(reductions), "count"),
        }


class DaemonFloor(Workload):
    """run_daemon in MPC2 mode over generated streams, one pass per unit.

    Each stream carries three readings per worker per window, about 1%
    malformed and 0.5% late lines and one gap window.  Units take the
    streams in turn, so a run's decisions depend less on the content of
    one stream, and a stream's second pass must repeat its first.
    """

    rate_name = "records_per_s: lines consumed by run_daemon"
    op_name = "decide_ms: line closing a window to its on_record, MPC2 solve"
    config = "case2_mpc2.cfg"
    workers = 24  # the shipped case-2 room has six
    readings = 3
    windows = 14
    streams = 4
    # False: an op runs from the line closing a window to its on_record.
    # True: from the line after the previous on_record, so it spans the window's lines.
    whole_window = False

    @property
    def setup_args(self) -> list:
        return ["--control", _shipped(self.config), "--model", str(WORK / "model.json")]

    def __init__(self, seed: int):
        import alertmpc.cli as cli

        self.cli = cli
        cfg, self.de = cli.parse_control_config(_shipped(self.config))
        self.cfg = dataclasses.replace(cfg, num_workers=self.workers)
        self.models = cli.read_model_set(str(WORK / "model.json"))
        self.box = (self.cfg.temp_lo, self.cfg.temp_hi, self.cfg.illum_lo, self.cfg.illum_hi)
        self.plans = [
            gen.daemon_stream(
                seed * self.streams + i, self.workers, self.readings, self.windows,
                malformed_share=0.01, late_share=0.005,
            )
            for i in range(self.streams)
        ]
        self.first_digests: dict[int, str] = {}

    def unit(self, k: int, stick) -> Outcome:
        plan = self.plans[k % self.streams]
        records: list[dict] = []
        latencies: list[tuple] = []
        state = {"t": 0.0, "fresh": False, "before": 0.0}
        timer = stick or Idle()
        mark = timer.mark()

        def feed():
            for line, closes in zip(plan.lines, plan.closing):
                if (not state["fresh"]) if self.whole_window else closes:
                    state["before"] = timer.measure()
                    state["fresh"] = True
                    state["t"] = clock()
                yield line

        def on_record(record: dict):
            if state["fresh"]:
                elapsed = clock() - state["t"]
                latencies.append((len(records), elapsed, state["before"], timer.measure()))
                state["fresh"] = False
            records.append(record)

        timer.measure()
        spent = timer.spent
        t0 = clock()
        stats = self.cli.run_daemon(self.models, self.cfg, self.de, feed(), on_record)
        out = Outcome(busy_s=clock() - t0 - (timer.spent - spent), work=len(plan.lines))
        timer.measure()
        ops = [(s, scale(b, a)) for _, s, b, a in latencies]
        out.reference_s = at_reference(out.busy_s, ops, timer.scale_since(mark))
        out.timings = [
            op for (w, *_), op in zip(latencies, ops) if w < len(plan.expected_status) and plan.expected_status[w] == "ok"
        ]
        out.attempted = len(plan.expected_status) + plan.wellformed
        out.failed = (
            len(checks.window_problems(plan, records, self.box))
            + abs(stats["malformed"] - plan.malformed)
            + abs(stats["late"] - plan.late)
        )
        out.digest = checks.digest(records)
        first = self.first_digests.setdefault(k % self.streams, out.digest)
        out.problems = checks.check_daemon(plan, records, stats, self.box, first)
        return out

    def report(self, outcomes) -> dict:
        plans = self.plans
        return {
            "streams": (len(plans), "count"),
            "stream_records": (sum(len(p.lines) for p in plans), "count"),
            "stream_windows": (sum(len(p.expected_status) for p in plans), "count"),
            "injected_malformed": (sum(p.malformed for p in plans), "count"),
            "injected_late": (sum(p.late for p in plans), "count"),
        }


class IngestDense(DaemonFloor):
    """run_daemon in NOC mode over a dense stream, pass after pass.

    Forty readings per worker per window over a hundred windows: JSON
    parsing, windowing and aggregation with no DE at all.
    """

    op_name = "window_ms: a window's lines through its on_record, NOC (parsing and aggregation)"
    config = "case2_noc.cfg"
    readings = 40
    windows = 100
    streams = 1
    whole_window = True


class IdentifyFleet(Workload):
    """read_telemetry_csv and the three fits on a synthesized fleet CSV."""

    rate_name = "rows_per_s: telemetry rows read and fitted"
    op_name = "identify_ms: read_telemetry_csv plus the three fits"
    workers = 24
    steps = 4200

    def __init__(self, seed: int):
        import alertmpc.cli as cli
        import alertmpc.identify as identify

        self.cli = cli
        self.identify = identify
        self.path = WORK / "telemetry.csv"
        self.path.write_text("\n".join(gen.telemetry_rows(seed, self.workers, self.steps)) + "\n")
        self.truth = checks.flatten_models(gen.TRUTH_DL, gen.TRUTH_IDT, gen.TRUTH_AMI)

    def unit(self, k: int, stick) -> Outcome:
        ident = self.identify
        out = Outcome(attempted=3)
        timer = stick or Idle()
        phases: list = []

        def timed(call, *args):
            """call(*args) between two yardstick samples; (seconds, factor) goes to phases."""
            before = timer.measure()
            t = clock()
            try:
                return call(*args)
            finally:
                phases.append((clock() - t, scale(before, timer.measure())))

        table = timed(self.cli.read_telemetry_csv, str(self.path))
        fitted = {}
        for name, fit in (("dl", ident.fit_dl_model), ("idt", ident.fit_idt_coeffs), ("ami", ident.fit_ami_model)):
            try:
                fitted[name], _ = timed(fit, table)
            except Exception as err:  # a fit that raises counts as failed, the run goes on
                out.failed += 1
                out.problems.append(f"fit {name} raised {type(err).__name__}: {err}")
        out.busy_s = sum(s for s, _ in phases)
        out.reference_s = sum(s * f for s, f in phases)
        out.work = len(table)
        out.timings = [(out.busy_s, out.reference_s / out.busy_s)]
        if len(fitted) == 3:
            coefs = checks.flatten_models(fitted["dl"], fitted["idt"], fitted["ami"])
            bad = checks.check_fits(coefs, self.truth)
            out.failed += len({p.split(".", 1)[0] for p in bad})
            out.problems += bad
            out.digest = checks.digest({k: repr(v) for k, v in coefs.items()})
        return out


WORKLOADS = {
    "arms_case1": ArmsCase1,
    "daemon_floor": DaemonFloor,
    "ingest_dense": IngestDense,
    "identify_fleet": IdentifyFleet,
}


def run_unit(workload, k: int, stick) -> Outcome:
    try:
        return workload.unit(k, stick)
    except Exception:  # the run reports the failure instead of dying
        return Outcome(attempted=1, failed=1, problems=[traceback.format_exc(limit=4)])


def run_loop(workload, seconds: float) -> tuple[list[Outcome], Outcome]:
    """Untraced units within `seconds`, the first of them a warm-up.

    The warm-up unit is checked like the others but not timed.  A unit
    starts only while one as long as the last still ends in time, and at
    least MIN_UNITS are timed.
    """
    stick = Yardstick()
    t0 = clock()
    warmup = run_unit(workload, 0, stick)
    last = clock() - t0
    outcomes: list[Outcome] = []
    while len(outcomes) < MIN_UNITS or clock() - t0 + last < seconds:
        t = clock()
        outcomes.append(run_unit(workload, len(outcomes) + 1, stick))
        last = clock() - t
    return outcomes, warmup


def measure_setup(args: list[str]) -> dict[str, float]:
    """Median of SETUP_REPEATS fresh set-ups, after one untimed warm-up.

    Each set-up is brought to reference speed by the yardstick timed
    right before and after its process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    stick = Yardstick()
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        before = stick.measure()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        factor = scale(before, stick.measure())
        parts = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append({key: value * factor for key, value in parts.items()})
    samples = samples[1:]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    The percentile is capped at p95: on a shared host, a p99 over a thousand
    ops of a few milliseconds is set by a dozen preemptions of the process.
    Below 20 samples the percentile would not reach the median, so the
    median is reported, labelled p50.
    """
    s = sorted(values)
    n = len(s)
    if n < 20:
        return statistics.median(s), 50.0, n
    beyond = max(10, n // 20)
    return s[n - beyond - 1], 100.0 * (n - beyond) / n, n


def info(line: str):
    print(f"# {line}")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, outcomes, warmup, setup) -> tuple[dict, list[str], int, int]:
    """The end-to-end metrics of the timed units; the warm-up unit counts only in the checks."""
    checked = [warmup] + outcomes
    attempted = sum(o.attempted for o in checked)
    failed = sum(o.failed for o in checked)
    timed = [o for o in outcomes if o.busy_s > 0]
    rates = sorted(o.work / o.reference_s for o in timed)
    wall_rates = sorted(o.work / o.busy_s for o in timed)
    latencies = [1e3 * s * f for o in outcomes for s, f in o.timings]
    wall_latencies = [1e3 * s for o in outcomes for s, _ in o.timings]
    problems = [p for o in checked for p in o.problems] + workload.final_checks(checked)
    p50 = statistics.median(latencies)
    tail_ms, pct, n = tail(latencies)
    wall_tail_ms = tail(wall_latencies)[0]
    speeds = [o.reference_s / o.busy_s for o in timed]
    setup_s = setup["import_s"] + setup["config_s"] + setup["model_s"]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": metric(1.0 - failed / attempted, "share"),
        "work_per_s": metric(statistics.median(rates), "1/s"),
        "op_ms_p50": metric(p50, "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
    }
    info(f"work_per_s is {workload.rate_name}; median of {len(rates)} units, at reference speed")
    info(f"unit rates min {rates[0]:.6g} max {rates[-1]:.6g} 1/s")
    info(f"op_ms is {workload.op_name}, at reference speed")
    info(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} attempted, warm-up unit included)")
    info(f"op latency p50 = {p50:.4f} ms, p{pct:.1f} = {tail_ms:.4f} ms over n={n} samples")
    info(
        f"wall clock: work_per_s {statistics.median(wall_rates):.6g} 1/s, op_ms p50 "
        f"{statistics.median(wall_latencies):.4f} ms, p{pct:.1f} {wall_tail_ms:.4f} ms; "
        f"host speed factor per unit min {min(speeds):.4f} median {statistics.median(speeds):.4f} "
        f"max {max(speeds):.4f}"
    )
    for key, (value, unit) in workload.report(outcomes).items():
        info(f"{key} = {value:.6g} {unit}")
    return metrics, problems, attempted, failed


def traced(name, workload, seconds, seed, setup) -> tuple[dict, list[str], int, int]:
    """Each unit runs traced, then again untraced, within `seconds`.

    Interleaving the two keeps slow drifts of the machine out of the
    overhead figure.
    """
    tracer = spans.Tracer()
    traced_out: list[Outcome] = []
    plain_out: list[Outcome] = []
    traced_wall = plain_wall = 0.0
    t0 = clock()
    last = 0.0
    while not traced_out or clock() - t0 + last < seconds:
        t_pair = clock()
        k = len(traced_out)
        tracer.install()
        try:
            t = clock()
            traced_out.append(tracer.span("bench.unit", run_unit, workload, k, None))
            traced_wall += clock() - t
        finally:
            tracer.uninstall()
        t = clock()
        plain_out.append(run_unit(workload, k, None))
        plain_wall += clock() - t
        last = clock() - t_pair
    problems = [p for o in traced_out + plain_out for p in o.problems]
    problems += workload.final_checks(traced_out)
    for k, (a, b) in enumerate(zip(traced_out, plain_out)):
        if a.digest != b.digest:
            problems.append(f"unit {k}: traced and untraced outputs differ")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(str(span_file))

    metrics = {}
    for key, (value, unit, reason) in spans.layer_metrics(tracer, traced_wall).items():
        metrics[key] = metric(value, unit)
        if reason is not None:
            metrics[key]["absent"] = reason
            info(f"{key} absent: {reason}")
    metrics["cli.config_parse_ms"] = metric(1e3 * setup["config_s"], "ms")
    metrics["cli.model_load_ms"] = metric(1e3 * setup["model_s"], "ms")
    metrics["setup.import_s"] = metric(setup["import_s"], "s")
    metrics["trace.overhead_share"] = metric(traced_wall / plain_wall - 1.0, "share")
    metrics["trace.units"] = metric(len(traced_out), "count")
    info(f"traced {len(traced_out)} units in {traced_wall:.3f} s, untraced in {plain_wall:.3f} s")
    info(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    outcomes = traced_out + plain_out
    return (
        metrics,
        problems,
        sum(o.attempted for o in outcomes),
        sum(o.failed for o in outcomes),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alertmpc" / "__init__.py").is_file():
        print(f"error: no alertmpc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alertmpc
    import numpy

    if Path(alertmpc.__file__).resolve().parent != (SRC / "alertmpc").resolve():
        print(f"error: imported alertmpc from {alertmpc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # One CPU for this process and the set-up processes it starts, so the
    # yardstick always shares the CPU, and the neighbour, of the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    try:
        (WORK / "model.json").write_text(json.dumps(gen.model_document(), indent=2))
        workload = WORKLOADS[args.workload](args.seed)
        setup = measure_setup(workload.setup_args)
        info(
            f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} platform={platform.platform()}"
        )
        info(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            metrics, problems, attempted, failed = traced(
                args.workload, workload, args.seconds, args.seed, setup
            )
        else:
            outcomes, warmup = run_loop(workload, args.seconds)
            if not any(o.busy_s > 0 and o.timings for o in outcomes):
                for problem in (outcomes or [warmup])[0].problems:
                    info(f"check failed: {problem}")
                print("error: no unit of work completed", file=sys.stderr)
                return 1
            metrics, problems, attempted, failed = end_to_end(workload, outcomes, warmup, setup)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for problem in problems[:20]:
        info(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
