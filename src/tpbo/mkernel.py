"""Tensor kernels of even arity and their auxiliary-data reweighting.

An m-kernel generalizes a Mercer kernel to m simultaneous arguments through
the m-argument dot product

    <x, x', ..., x''''>_m = sum_k x_k * x'_k * ... * x''''_k.

A family K_m is *free* when one weighted feature expansion

    K_m(x, ..., x'''') = sum_j tau_j^2  theta_j(x) ... theta_j(x'''')

reproduces every even arity with arity-independent features ``theta`` and
weights ``tau``.  Freeness is what makes weight-prior transfer possible: an
SVM trained on auxiliary data with the arity-(m+2) member of the family
yields a reweighted member

    K^A_m(x, ...) = sum_{i,j} alpha_i alpha_j K_{m+2}(a_i, a_j, x, ...)

of the same family whose weights are ``tau * sum_i alpha_i theta(a_i)``.
``TunedKernel`` evaluates the arity-2 reweighted kernel directly from the
closed forms; ``pretrain`` builds it and ``gp``/``bo`` use it as the prior
covariance.  The explicit (truncated) feature route lives in the test-support
module ``tests/feature_route.py``, where the tests compare it with this one.
Its value methods (``__call__``, ``diag``) and gradient methods
(``cross_grad``, ``diag_grad``) are thin entries to one body per layer that
takes ``grad``: they return the same values, and only the latter do
gradient work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import VanishingKernelError

FAMILIES = (
    "linear",
    "polynomial",
    "hyperbolic-sine",
    "exponential",
    "log-ratio",
    "se",
)

#: Dual-coefficient magnitude below which a reweighted kernel is considered
#: identically zero (scaled by max(1, |targets|_inf) where targets are known).
VANISH_TOL = 1e-12


@dataclass(frozen=True)
class FreeKernelSpec:
    """Hyperparameters of one free-kernel family member.

    ``nu`` scales the hyperbolic-sine/exponential/se families, ``degree`` and
    ``offset`` parametrize the polynomial family ``(<...>_m + offset)^degree``.
    Families ignore hyperparameters they do not read.
    """

    family: str
    nu: float = 1.0
    degree: int = 2
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if not (np.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")
        if self.family == "polynomial":
            if not (isinstance(self.degree, (int, np.integer)) and self.degree >= 1):
                raise ValueError(f"polynomial degree must be an integer >= 1, got {self.degree}")
            if not (np.isfinite(self.offset) and self.offset >= 0.0):
                raise ValueError(f"polynomial offset must be finite and >= 0, got {self.offset}")


# ---------------------------------------------------------------------------
# Reweighted kernel


class TunedKernel:
    """Arity-2 kernel reweighted by an auxiliary SVM fit.

    Evaluates K(x, x') = sum_{i,j} alpha_i alpha_j K_4(a_i, a_j, x, x') with
    K_4 the arity-4 member of ``base``.  Pair data over the auxiliary points
    is folded to the upper triangle (off-diagonal weights doubled) at
    construction; evaluation then costs one pass over |A|(|A|+1)/2 pairs per
    entry.  The cross (over the rows x*x' of every point pair) and the
    diagonal (over the rows x*x of one batch) are each one chunked
    ``_accel.tuned_rows`` evaluation; the squared-exponential base scales the
    exponential-base sum by the probe norms.  Instances are immutable and
    safe to share across threads.
    """

    def __init__(self, base: FreeKernelSpec, aux_points, alpha) -> None:
        aux = np.atleast_2d(np.asarray(aux_points, dtype=np.float64))
        al = np.asarray(alpha, dtype=np.float64).ravel()
        if aux.shape[0] != al.shape[0]:
            raise ValueError("one dual coefficient per auxiliary point is required")
        if aux.shape[0] < 1:
            raise ValueError("at least one auxiliary point is required")
        if not np.all(np.isfinite(aux)) or not np.all(np.isfinite(al)):
            raise ValueError("auxiliary data must be finite")
        if float(np.max(np.abs(al))) < VANISH_TOL:
            raise VanishingKernelError(
                "all dual coefficients vanish; the reweighted covariance is zero"
            )
        self.base = base
        self.aux_points = aux
        self.alpha = al
        iu, ju = np.triu_indices(aux.shape[0])
        self._pair_prod = np.ascontiguousarray(aux[iu] * aux[ju])
        w = al[iu] * al[ju]
        w[iu != ju] *= 2.0
        if base.family == "se":
            r2 = np.sum(aux * aux, axis=1)
            w = w * np.exp(-0.5 * base.nu * (r2[iu] + r2[ju]))
        self._pair_weight = w

    @property
    def input_dim(self) -> int:
        return self.aux_points.shape[1]

    def _points(self, X) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        if X.shape[1] != self.input_dim:
            raise ValueError("point dimension does not match the auxiliary set")
        return X

    def _norms(self, X: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * self.base.nu * np.sum(X * X, axis=1))

    def _cross(self, X1, X2, grad: bool = False):
        X1, X2 = self._points(X1), self._points(X2)
        base, P, W = self.base, self._pair_prod, self._pair_weight
        if base.family == "se":
            c1, c2 = self._norms(X1), self._norms(X2)
            return _accel.tuned_se_cross(P, W, base.nu, X1, X2, c1, c2, grad)
        return _accel.tuned_cross(
            P, W, base.family, base.nu, base.degree, base.offset, X1, X2, grad
        )

    def _diag(self, X, grad: bool = False):
        X = self._points(X)
        base = self.base
        se = base.family == "se"
        d = _accel.tuned_rows(
            self._pair_prod, self._pair_weight, "exponential" if se else base.family,
            base.nu, base.degree, base.offset, X * X, grad=grad,
        )
        if grad:
            d = d[0], 2.0 * X * d[1]  # the chain rule through z = x * x
        if se:
            c = self._norms(X)
            return _accel.se_norm_scale(d, c, c, 2.0 * base.nu, X, grad)
        return d

    def __call__(self, X1, X2) -> np.ndarray:
        """Cross-covariance matrix between two batches of points."""
        return self._cross(X1, X2)

    def diag(self, X) -> np.ndarray:
        """Prior variances K(x, x)."""
        return self._diag(X)

    def cross_grad(self, X1, X2):
        """``self(X1, X2)`` and its gradient dK[i, j, k] = dK(x_i, y_j)/dx_ik."""
        return self._cross(X1, X2, grad=True)

    def diag_grad(self, X):
        """``self.diag(X)`` and its gradient dd[i, k] = dK(x_i, x_i)/dx_ik."""
        return self._diag(X, grad=True)
