"""Model identification from logged telemetry.

Telemetry is a TelemetryTable, built from its columns and held as them.
All three fits are ordinary least squares on lagged telemetry columns.
The drowsiness regression needs three consecutive steps per sample (the
lagged DL increments reach two steps back); the environment fits need
two.  Designs are centered before solving, so rank-deficient data yields
the minimum-norm coefficient vector with the intercept carrying the mean.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

import numpy as np

from .domain import DL_FEATURES, DL_MAX, DL_MIN, ILLUM_RANGE, TEMP_RANGE, AmiModel, DlModel, IdtModel

# Fitted lag gains are clipped into this range to stay physical.
_K_FLOOR = 1e-9


class InsufficientData(ValueError):
    """Too few usable samples to identify the requested model."""


class DegenerateSweep(ValueError):
    """The excitation never varied, so the model is unidentifiable."""


class UnstableFit(ValueError):
    """The fitted response diverges: |theta_prev| >= 1 in the illuminance
    fit, which no AmiModel may hold."""


class BadRidge(ValueError):
    """The ridge strength of a fit is negative or not finite."""


class OverflowingFit(ValueError):
    """Finite telemetry overflows the drowsiness fit's arithmetic, or
    leaves its ridged Gram matrix singular in floating point."""


VALUE_COLUMNS = ("dl", "effort", "temp", "illum", "temp_set", "illum_set")
# The range each bounded value column must lie in.
_RANGES = {"dl": (DL_MIN, DL_MAX), "temp": TEMP_RANGE, "illum": ILLUM_RANGE,
           "temp_set": TEMP_RANGE, "illum_set": ILLUM_RANGE}


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
    Every value must be finite, dl must lie on the DL scale, temp and
    temp_set in TEMP_RANGE, illum and illum_set in ILLUM_RANGE, effort
    must be >= 0, and each worker's step indices must strictly increase.

    The one constructor takes the table's columns: per-row sequences of
    step indices, worker ids, and the values in VALUE_COLUMNS order.
    What the fits share is derived once and kept: the chain mask that
    validation leaves, and what step_environment() returns.
    """

    def __init__(self, step, worker_id, dl, effort, temp, illum, temp_set, illum_set):
        # Each id's code is the count of ids seen before its first row.
        codes = collections.defaultdict(itertools.count().__next__)
        self.worker = np.fromiter(map(codes.__getitem__, worker_id), np.int64, count=len(worker_id))
        self.worker_ids = tuple(codes)
        self.step = np.array(step, dtype=np.int64)
        for name, column in zip(VALUE_COLUMNS, (dl, effort, temp, illum, temp_set, illum_set)):
            setattr(self, name, np.array(column, dtype=float))
        # Rows grouped by worker (in first-appearance order), in row order within each.
        # A stable sort has one answer; numpy finds it by radix sort, much
        # faster than on int64, when the codes fit in 8 or 16 bits.
        self._by_worker = np.argsort(
            self.worker.astype(np.min_scalar_type(len(self.worker_ids))), kind="stable"
        )
        # _chained[k]: row k + 1 of the worker-grouped order is the same worker's next step.
        self._chained = self._validate()
        self._environment = None
        for array in (self.worker, self.step, self._by_worker, self._chained, *self._values()):
            array.flags.writeable = False

    def _values(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in VALUE_COLUMNS]

    def _validate(self) -> np.ndarray:
        """Raise InvalidTelemetry for the first broken rule, at its first
        row; return the chain mask."""
        g, worker, step = self._by_worker, self.worker, self.step
        grouped_worker, grouped_step = worker[g], step[g]
        same = grouped_worker[1:] == grouped_worker[:-1]
        repeated = np.zeros(len(step), dtype=bool)  # indexed by row, as every mask below
        repeated[g[1:]] = same & (grouped_step[1:] <= grouped_step[:-1])
        checks = [(~np.isfinite(v), v, f"{n} must be finite") for n, v in zip(VALUE_COLUMNS, self._values())]
        for name, (lo, hi) in _RANGES.items():
            v = getattr(self, name)
            checks.append(((v < lo) | (v > hi), v, f"{name} must lie in [{lo}, {hi}]"))
        checks += [
            (self.effort < 0, self.effort, "effort must be >= 0"),
            (repeated, step, "step indices must be strictly increasing per worker"),
        ]
        for bad, column, message in checks:
            if bad.any():
                row = int(np.argmax(bad))
                where = f"worker {self.worker_ids[worker[row]]}, step {step[row]}"
                raise InvalidTelemetry(f"{message}, got {column[row]} ({where})", row)
        return same & (grouped_step[1:] == grouped_step[:-1] + 1)

    def __len__(self) -> int:
        return len(self.step)

    def step_environment(self) -> tuple[np.ndarray, ...]:
        """Sorted step indices and, per step, the worker-averaged temp,
        illum, temp_set and illum_set; read-only, computed on the first call."""
        if self._environment is None:
            steps, at, counts = np.unique(self.step, return_inverse=True, return_counts=True)
            columns = (self.temp, self.illum, self.temp_set, self.illum_set)
            environment = (steps, *(np.bincount(at, weights=c) / counts for c in columns))
            for array in environment:
                array.flags.writeable = False
            self._environment = environment
        return self._environment


@dataclass(frozen=True)
class FitReport:
    rmse: float
    n_samples: int
    condition_warning: bool = False


def _centered_lstsq(X: np.ndarray, y: np.ndarray, ridge: float):
    """Least squares on mean-centered data.

    Returns (intercept, coefficients, rank of the centered design).  With
    a rank-deficient design the coefficient vector is the minimum-norm
    solution and the intercept absorbs the sample mean.  Non-finite
    column means or Gram matrix raise OverflowingFit before LAPACK, and so
    does a ridged Gram matrix that LAPACK finds singular: a ridge too
    small to show beside the Gram's entries leaves it as singular as the
    design.
    """
    x_mean = X.mean(axis=0)
    if not np.isfinite(x_mean).all():
        raise OverflowingFit("drowsiness fit overflows: its column means are not finite")
    y_mean = y.mean()
    xc = X - x_mean  # finite: each column is bounded, or nonnegative as effort is
    yc = y - y_mean
    if ridge > 0.0:
        gram = xc.T @ xc + ridge * np.eye(X.shape[1])
        if not np.isfinite(gram).all():
            raise OverflowingFit("drowsiness fit overflows: its Gram matrix is not finite")
        try:
            beta = np.linalg.solve(gram, xc.T @ yc)
        except np.linalg.LinAlgError:
            raise OverflowingFit("drowsiness fit overflows: its ridged Gram matrix is singular") from None
        rank = np.linalg.matrix_rank(xc)
    else:
        beta, _, rank, _ = np.linalg.lstsq(xc, yc, rcond=None)
    intercept = float(y_mean - x_mean @ beta)
    return intercept, beta, int(rank)


def _rmse(residuals: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(residuals))))


def _parts(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts, elementwise as domain.increments."""
    rising = delta >= 0
    return np.where(rising, delta, 0.0), np.where(rising, 0.0, -delta)


def dl_design(
    data: TelemetryTable, exclude_boundary: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (columns in DL_FEATURES order) and target vector.

    A sample needs three consecutive step indices for its worker; gaps
    break the chain.  With exclude_boundary, samples whose target sits on
    the scale limits are dropped since the clamp censors them.  Samples
    come grouped by worker in order of first appearance, then in row order.
    """
    g = data._by_worker
    # Sample k is grouped rows k, k + 1 and k + 2, kept when both pairs chain.
    keep = data._chained[:-1] & data._chained[1:]
    dl = data.dl[g]
    if exclude_boundary:
        keep &= (dl[2:] != DL_MIN) & (dl[2:] != DL_MAX)

    def lagged(grouped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per kept sample: the previous step's value and the current one."""
        return grouped[1:-1][keep], grouped[2:][keep]

    # X is filled in place, column by column: its ten columns are never
    # all held beside it, which keeps the fit's peak memory down.
    dl_prev, dl_cur = lagged(dl)
    X = np.empty((len(dl_cur), len(DL_FEATURES)))
    X[:, 0] = dl_prev
    X[:, 1], X[:, 2] = _parts(dl_prev - dl[:-2][keep])
    for j, column in ((3, data.temp), (6, data.illum)):
        prev, cur = lagged(column[g])
        X[:, j] = cur
        X[:, j + 1], X[:, j + 2] = _parts(cur - prev)
    X[:, 9] = data.effort[g[2:][keep]]
    return X, dl_cur


def fit_dl_model(
    data: TelemetryTable, exclude_boundary: bool = True, ridge: float = 0.0
) -> tuple[DlModel, FitReport]:
    """Identify the drowsiness regression from telemetry; ridge must be
    finite and >= 0, and 0 fits plain least squares.  Readings that
    overflow the fit, a huge effort say, raise OverflowingFit."""
    if not (np.isfinite(ridge) and ridge >= 0.0):
        raise BadRidge(f"ridge must be finite and >= 0, got {ridge}")
    X, y = dl_design(data, exclude_boundary)
    n_params = len(DL_FEATURES) + 1
    if len(y) < n_params:
        raise InsufficientData(
            f"drowsiness fit needs >= {n_params} usable samples, got {len(y)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused, not warned about
        intercept, beta, rank = _centered_lstsq(X, y, ridge)
        rmse = _rmse(y - (intercept + X @ beta))
    if not np.isfinite([intercept, rmse, *beta]).all():
        raise OverflowingFit("drowsiness fit overflows: its coefficients or RMSE are not finite")
    model = DlModel(intercept=intercept, coef=dict(zip(DL_FEATURES, (float(b) for b in beta))))
    report = FitReport(
        rmse=rmse,
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
    branches = (("raising", raising), ("lowering", ~raising))
    for name, mask in branches:
        if np.count_nonzero(mask) < 2:
            raise InsufficientData(
                f"temperature fit needs >= 2 {name} transitions, got {np.count_nonzero(mask)}"
            )

    gains = []
    for name, mask in branches:
        # Python's sum over the per-transition products keeps the row-wise
        # fit's left-to-right summation, so a near-cancelling sum repeats it.
        denom = sum((dp[mask] * dp[mask]).tolist())
        if denom == 0.0:
            raise InsufficientData(
                f"temperature fit has no informative {name} transitions "
                "(setpoint always equals the previous temperature)"
            )
        gains.append(sum((dp[mask] * do[mask]).tolist()) / denom)
    k_up, k_down = (min(max(k, _K_FLOOR), 1.0) for k in gains)
    clipped = [k_up, k_down] != gains
    model = IdtModel(k_up=k_up, k_down=k_down)
    report = FitReport(
        rmse=_rmse(do - np.where(raising, k_up, k_down) * dp),
        n_samples=len(dp),
        condition_warning=clipped,
    )
    return model, report


def fit_ami_model(data: TelemetryTable) -> tuple[AmiModel, FitReport]:
    """Identify the illuminance response by least squares.

    Raises UnstableFit when the fitted |theta_prev| is 1 or more: the
    model would diverge, and clipping theta_prev would pick an arbitrary
    one.
    """
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
    if not abs(beta[0]) < 1.0:
        raise UnstableFit(
            f"illuminance fit is unstable: theta_prev = {float(beta[0])}, |theta_prev| must be < 1"
        )
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
    "UnstableFit",
    "BadRidge",
    "OverflowingFit",
    "InvalidTelemetry",
    "TelemetryTable",
    "VALUE_COLUMNS",
    "FitReport",
    "dl_design",
    "fit_dl_model",
    "fit_idt_coeffs",
    "fit_ami_model",
]
