"""Auxiliary-data SVM pre-training and hyperparameter selection.

The auxiliary fit is a kernel SVM without bias, solved in the dual:

    regression      (K + lambda I) alpha = y          (least-squares loss)
    classification  min 1/2 a'Ka - sum|a|  subject to 0 <= y*a <= 1/lambda

The dual coefficients feed :class:`tpbo.mkernel.TunedKernel`.  Hyperparameters
(kernel scale nu and ridge lambda) are selected on a grid by `select_by_loo`,
which has `loo_error` score each nu's whole lambda row: for regression by a
closed form from one eigendecomposition of the Gram (per-lambda Cholesky
where that decomposition cannot resolve the ridge systems; an indefinite one
raises ``NumericalError``), for classification by explicit refitting.  The
selected model is then fit by Cholesky.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from . import _accel
from .errors import VanishingKernelError, _json_int, _write_text
from .gp import (
    check_lapack_info,
    cholesky_factor,
    cholesky_solve,
    indefinite_error,
    require_finite,
)
from .mkernel import VANISH_TOL, FreeKernelSpec, TunedKernel

logger = logging.getLogger(__name__)

TASKS = ("regression", "classification")

#: Default hyperparameter grid; nu spans two decades around 1, lambda the
#: usual ridge ladder.
DEFAULT_NU_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

#: Coordinate-descent sweeps `train_hinge` runs before it gives up.
MAX_SWEEPS = 10_000

# Families whose arity-2 Gram depends on nu; others are scanned on lambda only.
_NU_FAMILIES = ("hyperbolic-sine", "exponential", "se")

# Condition number of a ridge system past which `loo_error` leaves the
# eigendecomposition for per-lambda Cholesky: the two agree to about
# 30 * kappa * eps relative, so up to 1e10 to better than 1e-4.
_EIGH_KAPPA_MAX = 1e10


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
    """Affine maps of the auxiliary data, each made by `rescale_column`:
    `load_aux_csv` maps inputs from [x_lo, x_hi] to [-1, 1] at ingestion, and
    `pretrain` maps regression targets from [y_min, y_max] to [0, 1]."""

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
    """Arity-2 Gram matrix of a free-kernel member over one batch of points.

    A Gram past the float range raises ``ValueError`` naming the member.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    with np.errstate(over="ignore"):
        if spec.family == "se":
            gram = _accel.se_cross(X, X, spec.nu)
        elif spec.family == "log-ratio":
            gram = _accel.log_ratio(X[:, None, :] * X[None, :, :])
        else:
            gram = _accel.dot_series(spec.family, spec.nu, spec.degree, spec.offset, X @ X.T)
    if not np.isfinite(gram).all():
        at = (f"degree {spec.degree} and offset {spec.offset:g}"
              if spec.family == "polynomial" else f"nu {spec.nu:g}")
        raise ValueError(f"the {spec.family} Gram at {at} overflows the float range")
    return gram


def _check_gram(gram: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gram = np.asarray(gram, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram must be a square matrix")
    if gram.shape[0] != y.shape[0]:
        raise ValueError("gram and targets must have matching sizes")
    require_finite(gram)
    atol = 1e-8 * max(1.0, float(np.abs(gram).max()))
    # np.allclose's predicate (rtol 1e-5) in one pass: gram is already finite
    if not np.all(np.abs(gram - gram.T) <= atol + 1e-5 * np.abs(gram.T)):
        raise ValueError("gram must be symmetric")
    return gram, y


def _factor_ridge(gram: np.ndarray, lam: float) -> np.ndarray:
    """Upper Cholesky factor of gram + lam*I, failing loudly when indefinite.

    Factored by `gp.cholesky_factor`, which checks the ridge matrix finite
    (``ValueError``, scipy's ``check_finite`` message) and ``info``; a
    matrix that is not positive definite is a ``NumericalError`` naming its
    smallest eigenvalue (`gp.indefinite_error`).  The triangle is the upper
    one, scipy's ``cho_factor`` default, so fits and `_ridge_loo` keep that
    route's bits.
    Solve with ``gp.cholesky_solve(c, b, lower=False)``.
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


def train_hinge(gram: np.ndarray, y: np.ndarray, lam: float, tol: float = 1e-10) -> np.ndarray:
    """Hinge-loss dual by cyclic coordinate descent on the box constraints.

    Minimizes 1/2 alpha' K alpha - sum |alpha| subject to 0 <= y*alpha <=
    1/lambda (no bias, hence no equality constraint).  Each coordinate step
    solves its 1-D problem exactly; convergence is declared when the largest
    KKT violation falls below ``tol``.  A fit still above it after
    `MAX_SWEEPS` sweeps is returned with a warning.
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
    for _ in range(MAX_SWEEPS):
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
            MAX_SWEEPS, worst, tol,
        )
    return alpha


def loo_error(gram: np.ndarray, y: np.ndarray, lambda_values, task: str) -> list[float]:
    """Leave-one-out errors of one Gram at each lambda, in grid order.

    Regression uses the closed form for ridge residuals, e_i = alpha_i /
    (H^-1)_ii with H = K + lambda I, and returns their mean square; it
    scores the whole lambda row from one eigendecomposition K = V diag(s) V'
    (Rifkin & Lippert, "Notes on regularized least squares", 2007):
    H^-1 = V diag(1/(s + lambda)) V', so alpha and diag(H^-1) for every
    lambda are two matrix products.  y must be finite.  The decomposition
    (``dsyevd``) and the products run in scipy's LAPACK and BLAS, like the
    Cholesky calls: alternating with numpy's OpenBLAS, whose idle threads
    spin on the same cores, slowed a 100-point row from 1.3 ms to 5 ms.
    The eigenvalues are exact only to about eps * s.max(), so a row where
    some H is indefinite by them or has a condition number
    (s.max() + lambda) / (s.min() + lambda) of `_EIGH_KAPPA_MAX` or more is
    scored one lambda at a time by `_ridge_loo` instead, and so is a row
    whose bound on that number from the Gram's row sums reaches it, without
    decomposing: Cholesky stays accurate on Grams whose diagonal spans many
    decades (exponential or hyperbolic-sine at large nu), and raises the
    ``NumericalError`` naming H's smallest eigenvalue where H is not
    positive definite.
    Classification returns the misclassification fraction of explicit
    refits of each fold, one lambda at a time.
    """
    gram, y = _check_gram(gram, y)
    if task == "regression":
        from scipy.linalg.blas import dgemm, dgemv
        from scipy.linalg.lapack import dsyevd

        require_finite(y)
        lams = np.asarray(lambda_values, dtype=np.float64)
        # s.max() is at most the largest absolute row sum and s.min() of a
        # Gram is about 0, so a row past this bound skips the decomposition
        bound = float(np.abs(gram).sum(axis=1).max()) + lams.min()
        if bound < _EIGH_KAPPA_MAX * lams.min():
            s, V, info = dsyevd(gram, compute_v=1)  # s ascending
            check_lapack_info("dsyevd", info)
            low, high = s[0] + lams, s[-1] + lams
            if info == 0 and np.all((low > 0.0) & (high < _EIGH_KAPPA_MAX * low)):
                inv = 1.0 / (s[:, None] + lams)
                alpha = dgemm(1.0, V, dgemv(1.0, V, y, trans=1)[:, None] * inv)
                inv_diag = dgemm(1.0, V * V, inv)
                return np.mean((alpha / inv_diag) ** 2, axis=0).tolist()
        return [_ridge_loo(gram, y, lam) for lam in lambda_values]
    if task != "classification":
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    n = y.shape[0]
    if n < 2:
        raise ValueError("classification leave-one-out needs at least two points")
    row = []
    for lam in lambda_values:
        errors = 0
        for i in range(n):
            keep = np.arange(n) != i
            sub_alpha = train_hinge(gram[np.ix_(keep, keep)], y[keep], lam)
            pred = float(gram[i, keep] @ sub_alpha)
            if y[i] * pred <= 0.0:
                errors += 1
        row.append(errors / n)
    return row


def _ridge_loo(gram: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Closed-form regression LOO error at one lambda from `_factor_ridge`'s
    Cholesky factor, solving against the identity for diag(H^-1)."""
    c = _factor_ridge(gram, lam)
    alpha = cholesky_solve(c, y, lower=False)
    inv_diag = np.diag(cholesky_solve(c, np.eye(gram.shape[0]), lower=False))
    return float(np.mean((alpha / inv_diag) ** 2))


def select_by_loo(
    gram_for: Callable[[float], np.ndarray],
    y: np.ndarray,
    task: str,
    nu_values: Iterable[float],
    lambda_values: Iterable[float],
) -> tuple[float, float, float]:
    """Scan a (nu, lambda) grid by leave-one-out error; return (err, nu, lam).

    ``gram_for(nu)`` builds the Gram matrix for one nu, once per grid value,
    and `loo_error` scores its whole lambda row (for regression, from one
    eigendecomposition).  Ties break toward the smallest nu, then the
    smallest lambda, whatever the order of the grids.
    """
    lambda_values = [float(lam) for lam in lambda_values]
    scores = []
    for nu in map(float, nu_values):
        row = loo_error(gram_for(nu), y, lambda_values, task)
        scores.extend((err, nu, lam) for err, lam in zip(row, lambda_values))
    return min(scores)


def rescale_column(values, name: str, lower: float = 0.0) -> tuple[np.ndarray, float, float]:
    """Map one column of finite values onto [lower, 1]; return (u, lo, hi).

    u = lower + (1 - lower) (v - lo) / (hi - lo), so the extremes land on
    exactly ``lower`` and 1.  A column whose span is at most 1e-12 of its
    largest magnitude carries no signal and maps to 0 (a zero target, or the
    centre of the input box); the rule has no absolute floor, so it decides
    alike at every power-of-two scale.  A span past the float range raises
    ``ValueError`` naming the column.
    """
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"{name} spans {lo:g} to {hi:g}, too wide to rescale")
    if span <= 1e-12 * max(abs(lo), abs(hi)):
        return np.zeros_like(v), lo, hi
    return lower + (1.0 - lower) * ((v - lo) / span), lo, hi


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
    u, y_min, y_max = rescale_column(data.targets, "the target column")
    y = u if data.task == "regression" else data.targets
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
    if float(np.max(np.abs(alpha))) < VANISH_TOL:
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
    _write_text(path, json.dumps(doc, indent=2) + "\n")


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
    arrays = (model.alpha, model.aux_inputs, norm.x_lo, norm.x_hi)
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"malformed model file {path}: non-finite alpha, aux_inputs, x_lo or x_hi")
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
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}:{lineno}: non-finite field in {','.join(row)!r}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    X, y = arr[:, :n], arr[:, n]
    scaled = np.empty_like(X)
    lo, hi = np.empty(n), np.empty(n)
    for k in range(n):
        scaled[:, k], lo[k], hi[k] = rescale_column(X[:, k], f"{path}: column x{k + 1}", -1.0)
    return AuxDataset(inputs=scaled, targets=y, task=task, input_lo=lo, input_hi=hi)
