"""Model identification from logged telemetry.

All three fits are ordinary least squares on lagged telemetry columns.
The drowsiness regression needs three consecutive steps per sample (the
lagged DL increments reach two steps back); the environment fits need
two.  Designs are centered before solving, so rank-deficient data yields
the minimum-norm coefficient vector with the intercept carrying the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import DL_FEATURES, DL_MAX, DL_MIN, AmiModel, DlModel, IdtModel

# Fitted lag gains are clipped into this range to stay physical.
_K_FLOOR = 1e-9


class InsufficientData(ValueError):
    """Too few usable samples to identify the requested model."""


class DegenerateSweep(ValueError):
    """The excitation never varied, so the model is unidentifiable."""


@dataclass(frozen=True)
class TelemetryRow:
    """One logged interval of one worker; TelemetryTable validates it."""

    step_index: int
    worker_id: str
    dl: float
    effort: float
    temp: float
    illum: float
    temp_set: float
    illum_set: float


VALUE_COLUMNS = ("dl", "effort", "temp", "illum", "temp_set", "illum_set")


class InvalidTelemetry(ValueError):
    """A telemetry row failed validation; row is its index in the table."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class TelemetryTable:
    """Validated telemetry stream held as columns: one row per worker per step.

    step is int64; worker holds each row's index into worker_ids, which
    lists the worker ids in order of first appearance; dl, effort, temp,
    illum, temp_set and illum_set are float64.  All arrays are read-only.
    Every value must be finite, dl must lie on the DL scale, effort must
    be >= 0, and each worker's step indices must strictly increase.
    """

    def __init__(self, rows):
        rows = tuple(rows)
        self._load(*([getattr(r, f) for r in rows] for f in ("step_index", "worker_id", *VALUE_COLUMNS)))

    @classmethod
    def from_columns(cls, step, worker_id, *values) -> "TelemetryTable":
        """Build a table from per-row sequences, values in VALUE_COLUMNS order."""
        table = cls.__new__(cls)
        table._load(step, worker_id, *values)
        return table

    def _load(self, step, worker_id, *values) -> None:
        self.worker_ids = tuple(dict.fromkeys(worker_id))
        codes = {w: i for i, w in enumerate(self.worker_ids)}
        self.worker = np.fromiter(map(codes.__getitem__, worker_id), np.int64, count=len(worker_id))
        self.step = np.array(step, dtype=np.int64)
        for name, column in zip(VALUE_COLUMNS, values):
            setattr(self, name, np.array(column, dtype=float))
        # Rows grouped by worker (in first-appearance order), in row order within each.
        self._by_worker = np.argsort(self.worker, kind="stable")
        self._validate()
        for array in (self.worker, self.step, self._by_worker, *self._values()):
            array.flags.writeable = False

    def _values(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in VALUE_COLUMNS]

    def _validate(self) -> None:
        g, worker, step = self._by_worker, self.worker, self.step
        repeated = np.zeros(len(step), dtype=bool)  # indexed by row, as every mask below
        repeated[g[1:]] = (worker[g[1:]] == worker[g[:-1]]) & (step[g[1:]] <= step[g[:-1]])
        checks = [(~np.isfinite(v), v, f"{n} must be finite") for n, v in zip(VALUE_COLUMNS, self._values())]
        checks += [
            ((self.dl < DL_MIN) | (self.dl > DL_MAX), self.dl, f"dl must lie in [{DL_MIN}, {DL_MAX}]"),
            (self.effort < 0, self.effort, "effort must be >= 0"),
            (repeated, step, "step indices must be strictly increasing per worker"),
        ]
        for bad, column, message in checks:
            if bad.any():
                row = int(np.argmax(bad))
                where = f"worker {self.worker_ids[worker[row]]}, step {step[row]}"
                raise InvalidTelemetry(f"{message}, got {column[row]} ({where})", row)

    def __len__(self) -> int:
        return len(self.step)

    def __iter__(self):
        workers = [self.worker_ids[c] for c in self.worker.tolist()]
        return map(TelemetryRow, self.step.tolist(), workers, *(v.tolist() for v in self._values()))

    @cached_property
    def rows(self) -> tuple[TelemetryRow, ...]:
        return tuple(self)

    def step_environment(self) -> tuple[np.ndarray, ...]:
        """Sorted step indices and, per step, the worker-averaged temp,
        illum, temp_set and illum_set."""
        steps, at, counts = np.unique(self.step, return_inverse=True, return_counts=True)
        columns = (self.temp, self.illum, self.temp_set, self.illum_set)
        return (steps, *(np.bincount(at, weights=c) / counts for c in columns))


@dataclass(frozen=True)
class FitReport:
    rmse: float
    n_samples: int
    condition_warning: bool = False


def _centered_lstsq(X: np.ndarray, y: np.ndarray, ridge: float):
    """Least squares on mean-centered data.

    Returns (intercept, coefficients, rank of the centered design).  With
    a rank-deficient design the coefficient vector is the minimum-norm
    solution and the intercept absorbs the sample mean.
    """
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    xc = X - x_mean
    yc = y - y_mean
    if ridge > 0.0:
        gram = xc.T @ xc + ridge * np.eye(X.shape[1])
        beta = np.linalg.solve(gram, xc.T @ yc)
        rank = np.linalg.matrix_rank(xc)
    else:
        beta, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=None)
    intercept = float(y_mean - x_mean @ beta)
    return intercept, beta, int(rank)


def _rmse(residuals: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(residuals))))


def _parts(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts, elementwise as models.increments."""
    return np.where(delta >= 0, delta, 0.0), np.where(delta >= 0, 0.0, -delta)


def dl_design(
    data: TelemetryTable, exclude_boundary: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (columns in DL_FEATURES order) and target vector.

    A sample needs three consecutive step indices for its worker; gaps
    break the chain.  With exclude_boundary, samples whose target sits on
    the scale limits are dropped since the clamp censors them.  Samples
    come grouped by worker in order of first appearance, then in row order.
    """
    g, step, dl = data._by_worker, data.step, data.dl
    older, prev, cur = g[:-2], g[1:-1], g[2:]
    keep = (data.worker[older] == data.worker[cur]) & (step[prev] == step[older] + 1) & (step[cur] == step[prev] + 1)
    if exclude_boundary:
        keep &= (dl[cur] != DL_MIN) & (dl[cur] != DL_MAX)
    older, prev, cur = older[keep], prev[keep], cur[keep]
    temp, illum = data.temp[cur], data.illum[cur]
    X = np.column_stack((
        dl[prev], *_parts(dl[prev] - dl[older]),
        temp, *_parts(temp - data.temp[prev]),
        illum, *_parts(illum - data.illum[prev]),
        data.effort[cur],
    ))
    return X, dl[cur]


def fit_dl_model(
    data: TelemetryTable, exclude_boundary: bool = True, ridge: float = 0.0
) -> tuple[DlModel, FitReport]:
    """Identify the drowsiness regression from telemetry."""
    X, y = dl_design(data, exclude_boundary)
    n_params = len(DL_FEATURES) + 1
    if len(y) < n_params:
        raise InsufficientData(
            f"drowsiness fit needs >= {n_params} usable samples, got {len(y)}"
        )
    intercept, beta, rank = _centered_lstsq(X, y, ridge)
    residuals = y - (intercept + X @ beta)
    model = DlModel(intercept=intercept, coef=dict(zip(DL_FEATURES, (float(b) for b in beta))))
    report = FitReport(
        rmse=_rmse(residuals),
        n_samples=len(y),
        condition_warning=rank < len(DL_FEATURES),
    )
    return model, report


def fit_idt_coeffs(data: TelemetryTable) -> tuple[IdtModel, FitReport]:
    """Identify the temperature lag gains, one per direction.

    Each consecutive step pair contributes one transition; a setpoint at
    or above the previous temperature counts as raising.  The per-branch
    gain has a closed form; results outside (0, 1] are clipped and
    flagged via condition_warning.
    """
    steps, temp, _, temp_set, _ = data.step_environment()
    pair = steps[1:] == steps[:-1] + 1
    t0, t1, tset = temp[:-1][pair], temp[1:][pair], temp_set[1:][pair]
    dp, do = tset - t0, t1 - t0  # commanded and observed moves
    raising = tset >= t0
    for name, mask in (("raising", raising), ("lowering", ~raising)):
        if np.count_nonzero(mask) < 2:
            raise InsufficientData(
                f"temperature fit needs >= 2 {name} transitions, got {np.count_nonzero(mask)}"
            )

    clipped = False

    def branch_gain(mask: np.ndarray, name: str) -> float:
        nonlocal clipped
        # Python's sum over the per-transition products keeps the row-wise
        # fit's left-to-right summation, so a near-cancelling sum repeats it.
        denom = sum((dp[mask] * dp[mask]).tolist())
        if denom == 0.0:
            raise InsufficientData(
                f"temperature fit has no informative {name} transitions "
                "(setpoint always equals the previous temperature)"
            )
        k = sum((dp[mask] * do[mask]).tolist()) / denom
        if not _K_FLOOR <= k <= 1.0:
            clipped = True
            k = min(max(k, _K_FLOOR), 1.0)
        return k

    k_up = branch_gain(raising, "raising")
    k_down = branch_gain(~raising, "lowering")
    model = IdtModel(k_up=k_up, k_down=k_down)
    report = FitReport(
        rmse=_rmse(do - np.where(raising, k_up, k_down) * dp),
        n_samples=len(dp),
        condition_warning=clipped,
    )
    return model, report


def fit_ami_model(data: TelemetryTable) -> tuple[AmiModel, FitReport]:
    """Identify the illuminance response by least squares."""
    steps, _, illum, _, illum_set = data.step_environment()
    pair = steps[1:] == steps[:-1] + 1
    X = np.column_stack((illum[:-1][pair], illum_set[1:][pair]))
    y = illum[1:][pair]
    if len(y) < 3:
        raise InsufficientData(
            f"illuminance fit needs >= 3 samples, got {len(y)}"
        )
    if np.unique(X[:, 1]).size < 2:
        raise DegenerateSweep(
            "illuminance setpoint never varied; sweep the setpoint to identify the response"
        )
    intercept, beta, rank = _centered_lstsq(X, y, ridge=0.0)
    residuals = y - (intercept + X @ beta)
    model = AmiModel(theta0=intercept, theta_prev=float(beta[0]), theta_set=float(beta[1]))
    report = FitReport(
        rmse=_rmse(residuals),
        n_samples=len(y),
        condition_warning=rank < 2,
    )
    return model, report


__all__ = [
    "InsufficientData",
    "DegenerateSweep",
    "InvalidTelemetry",
    "TelemetryRow",
    "TelemetryTable",
    "VALUE_COLUMNS",
    "FitReport",
    "dl_design",
    "fit_dl_model",
    "fit_idt_coeffs",
    "fit_ami_model",
]
