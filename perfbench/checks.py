"""Output checks, run on every repetition of every workload.

Each check returns a list of problems; an empty list means the output is
correct.  The checks read plain values (dicts, floats, strings) so the
benchmark's tests can hand them deliberately wrong outputs.
"""

from __future__ import annotations

import hashlib
import json

# Largest accepted |fitted - truth| per coefficient of the identification
# workload, a few times the error seen at 1e5 rows with the generator's
# noise levels.
FIT_TOLERANCE = {
    "dl.intercept": 0.05,
    "dl.d_prev": 0.01,
    "dl.d_plus_prev": 0.01,
    "dl.d_minus_prev": 0.01,
    "dl.temp": 0.002,
    "dl.temp_plus": 0.01,
    "dl.temp_minus": 0.01,
    "dl.illum": 2e-5,
    "dl.illum_plus": 2e-5,
    "dl.illum_minus": 2e-5,
    "dl.effort": 0.01,
    "idt.k_up": 0.005,
    "idt.k_down": 0.005,
    "ami.theta0": 1.0,
    "ami.theta_prev": 0.005,
    "ami.theta_set": 0.005,
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check_arm_runs(mpc2_violation_rates, wins: int, pairs: int) -> list[str]:
    """MPC2 never breaks the comfort cap and beats NOC in most pairs."""
    problems = [
        f"MPC2 run {k} has comfort_violation_rate {rate}"
        for k, rate in enumerate(mpc2_violation_rates)
        if rate != 0
    ]
    if 2 * wins <= pairs:
        problems.append(f"MPC2 beat NOC in only {wins} of {pairs} pairs")
    return problems


def check_prefix(full_digest: str, rerun_digest: str, label: str) -> list[str]:
    if full_digest != rerun_digest:
        return [f"{label}: rerun of the first steps gave a different trace"]
    return []


def window_problems(plan, records, box) -> list[str]:
    """One problem per window emitted with the wrong status, out of the box
    or infeasible, plus one if the window count differs from the plan."""
    t_lo, t_hi, l_lo, l_hi = box
    problems = []
    if len(records) != len(plan.expected_status):
        problems.append(f"{len(records)} windows emitted, the plan has {len(plan.expected_status)}")
    for w, (r, want) in enumerate(zip(records, plan.expected_status)):
        if r["status"] != want:
            problems.append(f"window {w}: status {r['status']}, plan {want}")
        elif not (t_lo <= r["temp_set_c"] <= t_hi and l_lo <= r["illum_set_lx"] <= l_hi):
            problems.append(f"window {w}: setpoints {r['temp_set_c']}, {r['illum_set_lx']} outside the box")
        elif want == "ok" and not r["feasible"]:
            problems.append(f"window {w}: decision infeasible")
    return problems


def check_daemon(plan, records, stats, box, first_digest=None) -> list[str]:
    """Windows, fault counts and repeatability of one daemon pass."""
    problems = window_problems(plan, records, box)
    expected = {
        "records_in": len(plan.lines),
        "records_out": len(plan.expected_status),
        "malformed": plan.malformed,
        "late": plan.late,
    }
    for key, want in expected.items():
        if stats.get(key) != want:
            problems.append(f"daemon reported {key}={stats.get(key)}, generator injected {want}")
    if first_digest is not None and digest(records) != first_digest:
        problems.append("output records differ from the first pass over the same stream")
    return problems


def check_fits(fitted: dict, truth: dict) -> list[str]:
    """Coefficients further from the truth than FIT_TOLERANCE allows."""
    return [
        f"{k}: fitted {fitted[k]:.6g}, truth {truth[k]:.6g}, tolerance {FIT_TOLERANCE[k]:g}"
        for k in truth
        if not abs(fitted[k] - truth[k]) <= FIT_TOLERANCE[k]
    ]


def flatten_models(dl, idt, ami) -> dict[str, float]:
    """Coefficients of (DlModel, IdtModel, AmiModel) or of model-file dicts."""
    get = (lambda obj, key: obj[key]) if isinstance(dl, dict) else getattr
    out = {"dl.intercept": get(dl, "intercept")}
    out.update({f"dl.{k}": v for k, v in get(dl, "coef").items()})
    out.update({f"idt.{k}": get(idt, k) for k in ("k_up", "k_down")})
    out.update({f"ami.{k}": get(ami, k) for k in ("theta0", "theta_prev", "theta_set")})
    return out
