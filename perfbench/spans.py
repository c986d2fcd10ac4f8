"""Span tracing of alertmpc's public functions, from outside the package.

Each hook replaces a function at the attribute its callers look it up
through (for example ``alertmpc.mpc.rollout``, which ``solve`` reads from
its module globals), so the program itself is unchanged.  A hook whose
target no longer exists is recorded as absent with the reason; the
metrics that need it are then reported as absent instead of failing the
run.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

# Span record fields, kept as a list for speed: name, start, end, parent
# index (-1 for a root), decision id (-1 outside any decision), note.
NAME, START, END, PARENT, DECISION, NOTE = range(6)


def _de_note(args, kwargs, result):
    params = args[4] if len(args) > 4 else kwargs.get("params")
    budget = getattr(params, "max_generations", None)
    return (result.generations_used, result.feasible, result.generations_used == budget)


def _status_note(args, kwargs, result):
    return result[2]


def _len_note(args, kwargs, result):
    return len(result)


def _stats_note(args, kwargs, result):
    return dict(result)


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    attr: str  # "name" or "Class.name"
    note: Callable | None = None
    new_decision: bool = False


HOOKS = (
    Hook("models.rollout", "alertmpc.mpc", "rollout"),
    Hook("models.objective", "alertmpc.mpc", "objective"),
    Hook("models.violation", "alertmpc.mpc", "constraint_violation"),
    Hook("optimizer.de_minimize", "alertmpc.mpc", "de_minimize", _de_note),
    Hook("mpc.solve", "alertmpc.mpc", "solve"),
    Hook("mpc.decide", "alertmpc.mpc", "Controller.decide", _status_note, True),
    Hook("mpc.observe", "alertmpc.mpc", "Controller.observe"),
    Hook("sim.plant_step", "alertmpc.sim", "plant_step"),
    Hook("sim.run_scenario", "alertmpc.sim", "run_scenario"),
    Hook("cli.run_daemon", "alertmpc.cli", "run_daemon", _stats_note),
    Hook("cli.read_telemetry_csv", "alertmpc.cli", "read_telemetry_csv", _len_note),
    Hook("identify.fit_dl", "alertmpc.identify", "fit_dl_model"),
    Hook("identify.fit_idt", "alertmpc.identify", "fit_idt_coeffs"),
    Hook("identify.fit_ami", "alertmpc.identify", "fit_ami_model"),
)


def resolve(module: str, attr: str):
    """(owner object, attribute name) for a hook target; raises if missing."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, name)
    return owner, name


class Tracer:
    """Records nested spans around hooked functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._decision = -1
        self._decisions = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None, new_decision=False):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer_decision = self._decision
            if new_decision:
                self._decision = self._decisions
                self._decisions += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self._decision, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[NOTE] = note(args, kwargs, result)
                return result
            finally:
                record[END] = clock()
                stack.pop()
                self._decision = outer_decision

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, hooks=HOOKS):
        for hook in hooks:
            try:
                owner, attr = resolve(hook.module, hook.attr)
            except (ImportError, AttributeError) as err:
                self.absent[hook.span] = f"{hook.module}.{hook.attr} not found: {err}"
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(hook.span, getattr(owner, attr), hook.note, hook.new_decision))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, decision, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, decision]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# Per-layer metric name -> (unit, span names it needs).
LAYER_METRICS = {
    "models.eval_calls": ("count", ("models.rollout", "optimizer.de_minimize")),
    "models.eval_us": ("us", ("models.rollout", "models.objective", "models.violation", "optimizer.de_minimize")),
    "optimizer.solves": ("count", ("optimizer.de_minimize",)),
    "optimizer.generations_mean": ("count", ("optimizer.de_minimize",)),
    "optimizer.evals_per_solve": ("count", ("models.rollout", "optimizer.de_minimize")),
    "optimizer.budget_stop_share": ("share", ("optimizer.de_minimize",)),
    "optimizer.feasible_share": ("share", ("optimizer.de_minimize",)),
    "optimizer.self_ms_per_solve": ("ms", ("optimizer.de_minimize", "models.rollout", "models.objective", "models.violation")),
    "mpc.solve_ms_p50": ("ms", ("mpc.solve",)),
    "mpc.solve_self_ms": ("ms", ("mpc.solve", "optimizer.de_minimize")),
    "mpc.stale_decisions": ("count", ("mpc.decide",)),
    "sim.plant_step_us": ("us", ("sim.plant_step",)),
    "sim.self_s": ("s", ("sim.run_scenario", "mpc.decide")),
    "cli.daemon_self_us_per_record": ("us", ("cli.run_daemon", "mpc.decide", "mpc.observe")),
    "cli.daemon_windows": ("count", ("cli.run_daemon",)),
    "cli.daemon_stale_windows": ("count", ("cli.run_daemon",)),
    "cli.daemon_rejected_records": ("count", ("cli.run_daemon",)),
    "cli.read_telemetry_us_per_row": ("us", ("cli.read_telemetry_csv",)),
    "identify.fit_dl_s": ("s", ("identify.fit_dl",)),
    "identify.fit_idt_s": ("s", ("identify.fit_idt",)),
    "identify.fit_ami_s": ("s", ("identify.fit_ami",)),
}

# Layers whose self time shares are reported; "bench" is the harness.
LAYERS = ("models", "optimizer", "mpc", "sim", "cli", "identify", "bench")


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float | None, str, str | None]]:
    """name -> (value, unit, absent reason or None) from the recorded spans.

    Ratios over an empty set (no solves in an identification run, say)
    read 0: the layer did no work in that workload.
    """
    spans = tracer.spans
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def under(i: int, ancestor: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == ancestor:
                return True
            p = spans[p][PARENT]
        return False

    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)

    def child_time(i: int, names) -> float:
        return sum(dur[j] for j in children.get(i, ()) if spans[j][NAME] in names)

    def get(name: str) -> list[int]:
        return by_name.get(name, [])

    models = ("models.rollout", "models.objective", "models.violation")
    evals = [i for i in get("models.rollout") if under(i, "optimizer.de_minimize")]
    model_in_de = sum(dur[i] for n in models for i in get(n) if under(i, "optimizer.de_minimize"))
    solves = get("optimizer.de_minimize")
    notes = [spans[i][NOTE] for i in solves]
    de_time = sum(dur[i] for i in solves)
    runs = get("cli.run_daemon")
    stats = [spans[i][NOTE] for i in runs]
    records_in = sum(s["records_in"] for s in stats)
    daemon_self = sum(dur[i] - child_time(i, ("mpc.decide", "mpc.observe")) for i in runs)
    reads = get("cli.read_telemetry_csv")
    rows = sum(spans[i][NOTE] for i in reads)
    stale_windows = sum(
        1
        for i in runs
        for j in children.get(i, ())
        if spans[j][NAME] == "mpc.decide" and spans[j][NOTE] == "stale"
    )

    values = {
        "models.eval_calls": len(evals),
        "models.eval_us": 1e6 * model_in_de / len(evals) if evals else 0.0,
        "optimizer.solves": len(solves),
        "optimizer.generations_mean": _mean([n[0] for n in notes]),
        "optimizer.evals_per_solve": len(evals) / len(solves) if solves else 0.0,
        "optimizer.budget_stop_share": _mean([1.0 if n[2] else 0.0 for n in notes]),
        "optimizer.feasible_share": _mean([1.0 if n[1] else 0.0 for n in notes]),
        "optimizer.self_ms_per_solve": 1e3 * (de_time - model_in_de) / len(solves) if solves else 0.0,
        "mpc.solve_ms_p50": 1e3 * statistics.median([dur[i] for i in get("mpc.solve")]) if get("mpc.solve") else 0.0,
        "mpc.solve_self_ms": 1e3 * _mean([dur[i] - child_time(i, ("optimizer.de_minimize",)) for i in get("mpc.solve")]),
        "mpc.stale_decisions": sum(1 for i in get("mpc.decide") if spans[i][NOTE] == "stale"),
        "sim.plant_step_us": 1e6 * _mean([dur[i] for i in get("sim.plant_step")]),
        "sim.self_s": _mean([dur[i] - child_time(i, ("mpc.decide",)) for i in get("sim.run_scenario")]),
        "cli.daemon_self_us_per_record": 1e6 * daemon_self / records_in if records_in else 0.0,
        "cli.daemon_windows": sum(s["records_out"] for s in stats),
        "cli.daemon_stale_windows": stale_windows,
        "cli.daemon_rejected_records": sum(s["malformed"] + s["late"] for s in stats),
        "cli.read_telemetry_us_per_row": 1e6 * sum(dur[i] for i in reads) / rows if rows else 0.0,
        "identify.fit_dl_s": _mean([dur[i] for i in get("identify.fit_dl")]),
        "identify.fit_idt_s": _mean([dur[i] for i in get("identify.fit_idt")]),
        "identify.fit_ami_s": _mean([dur[i] for i in get("identify.fit_ami")]),
    }
    out: dict[str, tuple[float | None, str, str | None]] = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        missing = [tracer.absent[n] for n in needs if n in tracer.absent]
        if missing:
            out[name] = (None, unit, "; ".join(missing))
        else:
            out[name] = (float(values[name]), unit, None)

    shares = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s[NAME].split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + own[i]
    for layer in LAYERS:
        out[f"self_share.{layer}"] = (shares[layer] / wall_s, "share", None)
    return out
