"""Auxiliary-data SVM pre-training and hyperparameter selection.

The auxiliary fit is a kernel SVM without bias, solved in the dual:

    regression      (K + lambda I) alpha = y          (least-squares loss)
    classification  min 1/2 a'Ka - sum|a|  subject to 0 <= y*a <= 1/lambda

The dual coefficients feed :class:`tpbo.mkernel.TunedKernel`.  Hyperparameters
(kernel scale nu and ridge lambda) are selected on a grid by leave-one-out
error: a closed form for regression, explicit refitting for classification.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from . import _accel
from .errors import VanishingKernelError, _json_int, _write_json
from .gp import cholesky_factor, cholesky_solve, indefinite_error, require_finite
from .mkernel import VANISH_TOL, FreeKernelSpec, TunedKernel

logger = logging.getLogger(__name__)

TASKS = ("regression", "classification")

#: Default hyperparameter grid; nu spans two decades around 1, lambda the
#: usual ridge ladder.
DEFAULT_NU_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

# Families whose arity-2 Gram depends on nu; others are scanned on lambda only.
_NU_FAMILIES = ("hyperbolic-sine", "exponential", "se")


@dataclass(frozen=True)
class AuxDataset:
    """Auxiliary observations with inputs normalized to the [-1, 1] box.

    ``input_lo``/``input_hi`` record the original per-column bounds when the
    data was rescaled at ingestion (identity bounds otherwise); they are
    stored for a later mapping of suggested points back to native units,
    which nothing performs yet.
    """

    inputs: np.ndarray
    targets: np.ndarray
    task: str
    input_lo: np.ndarray | None = None
    input_hi: np.ndarray | None = None

    def __post_init__(self) -> None:
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        targets = np.asarray(self.targets, dtype=np.float64).ravel()
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets must have matching lengths")
        if inputs.shape[0] < 1:
            raise ValueError("auxiliary dataset must be non-empty")
        if not np.all(np.isfinite(inputs)) or not np.all(np.isfinite(targets)):
            raise ValueError("auxiliary data must be finite")
        if np.any(np.abs(inputs) > 1.0 + 1e-9):
            raise ValueError("auxiliary inputs must be normalized to [-1, 1]")
        if self.task == "classification" and not np.all(np.isin(targets, (-1.0, 1.0))):
            raise ValueError("classification targets must be -1 or +1")
        n = inputs.shape[1]
        lo = np.full(n, -1.0) if self.input_lo is None else np.asarray(self.input_lo, float)
        hi = np.full(n, 1.0) if self.input_hi is None else np.asarray(self.input_hi, float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise ValueError("input bounds must match the input dimension")
        object.__setattr__(self, "input_lo", lo)
        object.__setattr__(self, "input_hi", hi)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class HyperGrid:
    """Grid of (nu, lambda) candidates scanned by leave-one-out error."""

    nu_values: tuple[float, ...] = DEFAULT_NU_GRID
    lambda_values: tuple[float, ...] = DEFAULT_LAMBDA_GRID

    def __post_init__(self) -> None:
        if not self.nu_values or not self.lambda_values:
            raise ValueError("hyperparameter grid must be non-empty")
        if any(v < 0 or not np.isfinite(v) for v in self.nu_values):
            raise ValueError("nu grid values must be finite and >= 0")
        if any(v <= 0 or not np.isfinite(v) for v in self.lambda_values):
            raise ValueError("lambda grid values must be finite and > 0")


@dataclass(frozen=True)
class Normalization:
    """Affine maps applied at ingestion: targets to [0, 1], inputs to [-1, 1]."""

    y_min: float
    y_max: float
    x_lo: np.ndarray
    x_hi: np.ndarray


@dataclass(frozen=True)
class AuxModel:
    """A trained auxiliary fit: kernel member, ridge, dual coefficients."""

    kernel: FreeKernelSpec
    lambda_: float
    task: str
    alpha: np.ndarray
    aux_inputs: np.ndarray
    normalization: Normalization
    loo_error: float
    input_dim: int


def base_gram(spec: FreeKernelSpec, X: np.ndarray) -> np.ndarray:
    """Arity-2 Gram matrix of a free-kernel member over one batch of points."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if spec.family == "se":
        return _accel.se_cross(X, X, spec.nu)
    if spec.family == "log-ratio":
        return _accel.log_ratio(X[:, None, :] * X[None, :, :])
    return _accel.dot_series(spec.family, spec.nu, spec.degree, spec.offset, X @ X.T)


def _check_gram(gram: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gram = np.asarray(gram, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram must be a square matrix")
    if gram.shape[0] != y.shape[0]:
        raise ValueError("gram and targets must have matching sizes")
    require_finite(gram)
    if not np.allclose(gram, gram.T, atol=1e-8 * max(1.0, float(np.abs(gram).max()))):
        raise ValueError("gram must be symmetric")
    return gram, y


def _factor_ridge(gram: np.ndarray, lam: float) -> np.ndarray:
    """Upper Cholesky factor of gram + lam*I, failing loudly when indefinite.

    Factored by `gp.cholesky_factor`, which checks the ridge matrix finite
    (``ValueError``, scipy's ``check_finite`` message) and ``info``; a
    matrix that is not positive definite is a ``NumericalError`` naming its
    smallest eigenvalue (`gp.indefinite_error`).  The triangle is the upper
    one, scipy's ``cho_factor`` default, so fits and LOO errors keep that
    route's bits.  Solve with ``gp.cholesky_solve(c, b, lower=False)``.
    """
    H = gram + lam * np.eye(gram.shape[0])
    c = cholesky_factor(H, lower=False)
    if c is None:
        raise indefinite_error(H, "ridge system factorization failed")
    return c


def train_lssvm(gram: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve the least-squares dual (K + lambda I) alpha = y."""
    gram, y = _check_gram(gram, y)
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    return cholesky_solve(_factor_ridge(gram, lam), y, lower=False)


def train_hinge(
    gram: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
) -> np.ndarray:
    """Hinge-loss dual by cyclic coordinate descent on the box constraints.

    Minimizes 1/2 alpha' K alpha - sum |alpha| subject to 0 <= y*alpha <=
    1/lambda (no bias, hence no equality constraint).  Each coordinate step
    solves its 1-D problem exactly; convergence is declared when the largest
    KKT violation falls below ``tol``.
    """
    gram, y = _check_gram(gram, y)
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("hinge training requires targets in {-1, +1}")
    n = y.shape[0]
    cap = 1.0 / lam
    alpha = np.zeros(n)
    g = np.zeros(n)  # running K @ alpha
    diag = np.diag(gram)
    worst = float("inf")
    for _ in range(max_sweeps):
        for i in range(n):
            r = g[i] - diag[i] * alpha[i]
            if diag[i] > 1e-300:
                a = y[i] * (y[i] - r) / diag[i]
            else:
                a = cap if y[i] * r < 1.0 else 0.0
            a = min(max(a, 0.0), cap)
            new = y[i] * a
            delta = new - alpha[i]
            if delta != 0.0:
                alpha[i] = new
                g += delta * gram[:, i]
        grad = y * g - 1.0
        a_box = y * alpha
        viol = np.where(
            a_box <= 0.0,
            np.maximum(0.0, -grad),
            np.where(a_box >= cap, np.maximum(0.0, grad), np.abs(grad)),
        )
        worst = float(viol.max())
        if worst < tol:
            break
    else:
        logger.warning(
            "hinge training stopped after %d sweeps with KKT violation %.3g "
            "(tolerance %.3g); the duals are not converged",
            max_sweeps, worst, tol,
        )
    return alpha


def loo_error(gram: np.ndarray, y: np.ndarray, lam: float, task: str) -> float:
    """Leave-one-out error of the auxiliary fit at fixed hyperparameters.

    Regression uses the closed form for ridge residuals,
    e_i = alpha_i / (H^-1)_ii with H = K + lambda I, and returns the mean
    squared residual.  H is factored by `_factor_ridge` through
    `gp.cholesky_factor`, and alpha and H^-1 come from `gp.cholesky_solve`:
    the package's one ``dpotrf`` and one ``dpotrs`` wrapper, which check
    every matrix finite and every ``info``.  Classification refits each fold
    explicitly and returns the misclassification fraction.
    """
    gram, y = _check_gram(gram, y)
    return _loo_error(gram, y, lam, task)


def _loo_error(gram: np.ndarray, y: np.ndarray, lam: float, task: str) -> float:
    """`loo_error` without the input checks: `gram` and `y` come from `_check_gram`."""
    if task == "regression":
        c = _factor_ridge(gram, lam)
        alpha = cholesky_solve(c, y, lower=False)
        inv_diag = np.diag(cholesky_solve(c, np.eye(gram.shape[0]), lower=False))
        residuals = alpha / inv_diag
        return float(np.mean(residuals**2))
    if task != "classification":
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    n = y.shape[0]
    if n < 2:
        raise ValueError("classification leave-one-out needs at least two points")
    errors = 0
    for i in range(n):
        keep = np.arange(n) != i
        sub_alpha = train_hinge(gram[np.ix_(keep, keep)], y[keep], lam)
        pred = float(gram[i, keep] @ sub_alpha)
        if y[i] * pred <= 0.0:
            errors += 1
    return errors / n


def select_by_loo(
    gram_for: Callable[[float], np.ndarray],
    y: np.ndarray,
    task: str,
    nu_values: Iterable[float],
    lambda_values: Iterable[float],
) -> tuple[float, float, float]:
    """Scan a (nu, lambda) grid by leave-one-out error; return (err, nu, lam).

    ``gram_for(nu)`` builds the Gram matrix for one nu, once per grid value,
    and each one is checked once before its lambda row is scored.
    Ties break toward the smallest nu, then the smallest lambda, whatever
    the order of the grids.
    """
    lambda_values = [float(lam) for lam in lambda_values]
    scores = []
    for nu in map(float, nu_values):
        gram, y = _check_gram(gram_for(nu), y)
        scores.extend((_loo_error(gram, y, lam, task), nu, lam) for lam in lambda_values)
    return min(scores)


def _normalize_targets(data: AuxDataset) -> tuple[np.ndarray, float, float]:
    y = data.targets
    y_min, y_max = float(y.min()), float(y.max())
    if data.task == "classification":
        return y.copy(), y_min, y_max
    span = y_max - y_min
    if span <= 1e-12 * max(1.0, abs(y_max), abs(y_min)):
        # Constant targets carry no signal; the zero vector propagates to the
        # vanishing-kernel check after training.
        return np.zeros_like(y), y_min, y_max
    return (y - y_min) / span, y_min, y_max


def pretrain(
    data: AuxDataset,
    kernel: FreeKernelSpec,
    grid: HyperGrid | None = None,
) -> AuxModel:
    """Grid-search (nu, lambda) by leave-one-out error and fit the final model.

    Ties are broken toward the smallest nu, then the smallest lambda.  The
    selection is fully deterministic.  Raises
    :class:`~tpbo.errors.VanishingKernelError` when the winning fit has all
    dual coefficients at zero (e.g. constant regression targets).
    """
    grid = grid or HyperGrid()
    y, y_min, y_max = _normalize_targets(data)
    nu_values = grid.nu_values if kernel.family in _NU_FAMILIES else (kernel.nu,)
    err, nu, lam = select_by_loo(
        lambda nu: base_gram(replace(kernel, nu=nu), data.inputs),
        y,
        data.task,
        nu_values,
        grid.lambda_values,
    )
    spec = replace(kernel, nu=nu)
    gram = base_gram(spec, data.inputs)
    if data.task == "regression":
        alpha = train_lssvm(gram, y, lam)
    else:
        alpha = train_hinge(gram, y, lam)
    if float(np.max(np.abs(alpha))) < VANISH_TOL * max(1.0, float(np.max(np.abs(y)))):
        raise VanishingKernelError(
            "auxiliary fit produced all-zero dual coefficients "
            "(targets carry no signal); refusing to build a zero covariance"
        )
    return AuxModel(
        kernel=spec,
        lambda_=lam,
        task=data.task,
        alpha=alpha,
        aux_inputs=data.inputs.copy(),
        normalization=Normalization(
            y_min=y_min, y_max=y_max, x_lo=data.input_lo.copy(), x_hi=data.input_hi.copy()
        ),
        loo_error=err,
        input_dim=data.input_dim,
    )


def build_tuned(model: AuxModel) -> TunedKernel:
    """Construct the reweighted covariance from a trained auxiliary model."""
    return TunedKernel(model.kernel, model.aux_inputs, model.alpha)


# ---------------------------------------------------------------------------
# Persistence


def save_aux_model(model: AuxModel, path) -> None:
    doc = {
        "kernel": {
            "family": model.kernel.family,
            "nu": model.kernel.nu,
            "degree": model.kernel.degree,
            "offset": model.kernel.offset,
        },
        "lambda": model.lambda_,
        "task": model.task,
        "alpha": [float(a) for a in model.alpha],
        "aux_inputs": [[float(v) for v in row] for row in model.aux_inputs],
        "normalization": {
            "y_min": model.normalization.y_min,
            "y_max": model.normalization.y_max,
            "x_lo": [float(v) for v in model.normalization.x_lo],
            "x_hi": [float(v) for v in model.normalization.x_hi],
        },
        "loo_error": model.loo_error,
        "input_dim": model.input_dim,
    }
    _write_json(path, doc)


def load_aux_model(path) -> AuxModel:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        kernel = FreeKernelSpec(
            family=doc["kernel"]["family"],
            nu=float(doc["kernel"]["nu"]),
            degree=_json_int(doc["kernel"]["degree"], "degree"),
            offset=float(doc["kernel"]["offset"]),
        )
        norm = doc["normalization"]
        model = AuxModel(
            kernel=kernel,
            lambda_=float(doc["lambda"]),
            task=str(doc["task"]),
            alpha=np.asarray(doc["alpha"], dtype=np.float64),
            aux_inputs=np.atleast_2d(np.asarray(doc["aux_inputs"], dtype=np.float64)),
            normalization=Normalization(
                y_min=float(norm["y_min"]),
                y_max=float(norm["y_max"]),
                x_lo=np.asarray(norm["x_lo"], dtype=np.float64),
                x_hi=np.asarray(norm["x_hi"], dtype=np.float64),
            ),
            loo_error=float(doc["loo_error"]),
            input_dim=_json_int(doc["input_dim"], "input_dim"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
    if model.task not in TASKS:
        raise ValueError(f"malformed model file {path}: unknown task {model.task!r}")
    if model.aux_inputs.shape != (model.alpha.shape[0], model.input_dim):
        raise ValueError(f"malformed model file {path}: inconsistent shapes")
    norm = model.normalization
    if norm.x_lo.shape != (model.input_dim,) or norm.x_hi.shape != (model.input_dim,):
        raise ValueError(
            f"malformed model file {path}: normalization x_lo/x_hi need "
            f"{model.input_dim} entries"
        )
    if not (np.all(np.isfinite(model.alpha)) and np.all(np.isfinite(model.aux_inputs))):
        raise ValueError(f"malformed model file {path}: alpha and aux_inputs must be finite")
    return model


def load_aux_csv(path, task: str) -> AuxDataset:
    """Read ``x1,...,xn,y`` rows, rescaling inputs to [-1, 1] per column.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty auxiliary file") from None
        header = [h.strip() for h in header]
        n = len(header) - 1
        if n < 1 or header[-1] != "y" or header[:-1] != [f"x{i + 1}" for i in range(n)]:
            raise ValueError(
                f"{path}: expected header 'x1,...,xn,y', got {','.join(header)!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n + 1:
                raise ValueError(f"{path}:{lineno}: expected {n + 1} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    X, y = arr[:, :n], arr[:, n]
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(X)
    wide = span > 1e-300
    scaled[:, wide] = 2.0 * (X[:, wide] - lo[wide]) / span[wide] - 1.0
    return AuxDataset(inputs=scaled, targets=y, task=task, input_lo=lo, input_hi=hi)
