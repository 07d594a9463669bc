"""Gaussian-process posterior inference over an arbitrary covariance.

A covariance is any object with four methods:

- ``kernel(X1, X2)``: the (m1, m2) cross-covariance matrix;
- ``kernel.diag(X)``: the (m,) prior variances K(x, x);
- ``kernel.cross_grad(X1, X2)``: that matrix K and its input gradient
  dK[i, j, k] = dK(x_i, y_j)/dx_ik, shape (m1, m2, n);
- ``kernel.diag_grad(X)``: those variances and their gradient
  dd[i, k] = dK(x_i, x_i)/dx_ik, shape (m, n).

:class:`~tpbo.mkernel.TunedKernel` and the stationary evaluators below all
qualify.  Posteriors use the function-space form with zero prior mean,

    mean(x) = k_D(x)' (K_D + sigma^2 I)^-1 y
    var(x)  = K(x, x) - k_D(x)' (K_D + sigma^2 I)^-1 k_D(x),

behind one Cholesky factorization per posterior object, made on first use
and kept.  Instances are otherwise immutable; adding an observation returns
a new posterior, so one that is replaced before use costs no factorization.
``posterior_batch`` and ``posterior_grad`` are thin entries to one body that
reaches the covariance's gradient methods only for the latter, so both
return the same means and variances when those methods return its values.

The factorization and solves call LAPACK directly: ``dpotrf`` for the lower
Cholesky factor L, ``dpotrs`` for the weights and ``dtrtrs`` for the
triangular solves against cross-covariances.  scipy's ``cho_factor``,
``cho_solve`` and ``solve_triangular`` make the same calls, but their
wrapper code costs several times a small solve.  Their checks are made here
instead: each matrix handed to LAPACK, the shifted Gram and every
right-hand side, is tested with ``np.isfinite`` first (``ValueError``, as
scipy's ``check_finite`` raises), and every ``info`` is tested by hand.
L itself is not re-tested, since ``dpotrf`` made it from a finite matrix.
`cholesky_factor` and `cholesky_solve` are the one ``dpotrf`` and the one
``dpotrs`` call of the package, with those checks, and `indefinite_error`
its one report of a matrix that is not positive definite; ``pretrain``
factors its ridge systems through them too (the final fit, and the LOO rows
its eigendecomposition cannot resolve), in the upper triangle.

Importing this module loads no scipy.  Each routine is imported where it
is called (``eigvalsh`` only on the failure path), so a process that never
factors a matrix, such as ``tpbo tell`` or ``tpbo --help``, never loads
``scipy.linalg``.  Once loaded, such an import costs about a microsecond,
small beside the solve that follows it.

``bo`` and ``bench`` build every posterior here.  The tests compare this
path with the same posterior computed through the finite feature expansion
(prior covariance diag(tau^2) on the feature weights), which lives in the
test-support module ``tests/feature_route.py``.
"""

from __future__ import annotations

import numpy as np

from . import _accel
from .errors import NumericalError

# Relative jitter ladder: added to the shifted Gram unconditionally at the
# first rung, escalated tenfold per failed factorization.  The rungs are
# written out because multiplying 1e-10 by ten six times gives
# 9.999999999999999e-05, short of the last rung.
_JITTER_RUNGS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
JITTER_FIRST = _JITTER_RUNGS[0]


class _SquaredExponential:
    """The diagonal and input gradients ``SeKernel`` and ``ArdSeKernel`` share.

    A subclass sets ``_scales``, its one or per-axis inverse squared
    length-scale.  The cross gradient takes its values from ``self(X1, X2)``.
    """

    def diag(self, X) -> np.ndarray:
        return np.ones(np.atleast_2d(X).shape[0])

    def cross_grad(self, X1, X2):
        K = self(X1, X2)
        return K, _accel.se_grad(X1, X2, K, self._scales)

    def diag_grad(self, X):
        return self.diag(X), np.zeros(np.atleast_2d(X).shape)


class SeKernel(_SquaredExponential):
    """Isotropic squared-exponential covariance exp(-nu/2 |x - y|^2)."""

    def __init__(self, nu: float) -> None:
        if not (np.isfinite(nu) and nu > 0):
            raise ValueError("nu must be finite and > 0")
        self.nu = self._scales = float(nu)

    def __call__(self, X1, X2) -> np.ndarray:
        return _accel.se_cross(X1, X2, self.nu)


class ArdSeKernel(_SquaredExponential):
    """Squared-exponential covariance with one inverse length-scale per axis."""

    def __init__(self, nus) -> None:
        nus = np.asarray(nus, dtype=np.float64).ravel()
        if nus.size < 1 or not np.all(np.isfinite(nus)) or np.any(nus <= 0):
            raise ValueError("per-axis scales must be finite and > 0")
        self.nus = self._scales = nus

    def __call__(self, X1, X2) -> np.ndarray:
        return _accel.ard_se_cross(X1, X2, self.nus)


class Observations:
    """Immutable observation set (points, values, noise variance)."""

    def __init__(self, points, values, noise_var: float) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        values = np.asarray(values, dtype=np.float64).ravel()
        if points.shape[0] != values.shape[0]:
            raise ValueError("points and values must have matching lengths")
        if points.size and not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
            raise ValueError("observations must be finite")
        if not (np.isfinite(noise_var) and noise_var >= 0):
            raise ValueError("noise variance must be finite and >= 0")
        self.points = points
        self.values = values
        self.noise_var = float(noise_var)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def appended(self, x, y: float) -> "Observations":
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self.dim:
            raise ValueError("new point dimension does not match the observation set")
        return Observations(
            np.vstack([self.points, x[None, :]]),
            np.append(self.values, float(y)),
            self.noise_var,
        )


def require_finite(a: np.ndarray) -> None:
    """Raise ``ValueError`` when `a` holds an inf or NaN, which LAPACK would
    pass through silently; the message is scipy's ``check_finite`` one."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def check_lapack_info(routine: str, info: int) -> None:
    """Raise ``ValueError`` for a negative LAPACK ``info``: an illegal argument."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def cholesky_factor(H: np.ndarray, lower: bool) -> np.ndarray | None:
    """Cholesky factor of the symmetric matrix H by ``dpotrf``, in the lower
    or upper triangle, or None when H is not positive definite.

    H is checked finite first, and a negative ``info`` raises.  The other
    triangle of the result holds what H held there.
    """
    from scipy.linalg.lapack import dpotrf

    require_finite(H)
    c, info = dpotrf(H, lower=lower, clean=0)
    check_lapack_info("dpotrf", info)
    return c if info == 0 else None


def cholesky_solve(c: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """H^-1 b by ``dpotrs`` from `cholesky_factor`'s factor c of H, after checking b."""
    from scipy.linalg.lapack import dpotrs

    require_finite(b)
    x, info = dpotrs(c, b, lower=lower)
    check_lapack_info("dpotrs", info)
    return x


def indefinite_error(H: np.ndarray, failure: str) -> NumericalError:
    """`failure` and the smallest eigenvalue of H, as a ``NumericalError``."""
    from scipy.linalg import eigvalsh

    return NumericalError(f"{failure}: min eigenvalue {float(eigvalsh(H).min()):.6e}")


def _factor_shifted(gram: np.ndarray, shift: float) -> np.ndarray:
    """Lower Cholesky factor of gram + shift*I with an escalating relative jitter
    ladder; a matrix that is not positive definite climbs one rung."""
    n = gram.shape[0]
    mean_diag = float(np.mean(np.diag(gram))) + shift
    scale = max(abs(mean_diag), 1e-300)
    for jitter in _JITTER_RUNGS:
        H = gram + (shift + jitter * scale) * np.eye(n)
        L = cholesky_factor(H, lower=True)
        if L is not None:
            return L
    raise indefinite_error(H, f"posterior factorization failed at jitter {jitter:.1e}")


def _solve_lower(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 b (L^-T b with ``trans=1``) by ``dtrtrs``, after checking b."""
    from scipy.linalg.lapack import dtrtrs

    require_finite(b)
    x, info = dtrtrs(L, b, lower=1, trans=trans)
    check_lapack_info("dtrtrs", info)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    return x


class GpPosterior:
    """Gaussian-process posterior over a fixed covariance and observation set."""

    def __init__(self, kernel, obs: Observations) -> None:
        self.kernel = kernel
        self.obs = obs
        self._solved = None  # (lower Cholesky factor, weights), made on first use

    @classmethod
    def from_data(cls, kernel, points, values, noise_var: float) -> "GpPosterior":
        return cls(kernel, Observations(points, values, noise_var))

    def add_observation(self, x, y: float) -> "GpPosterior":
        """Return a new posterior including (x, y); its factorization is made anew."""
        return GpPosterior(self.kernel, self.obs.appended(x, y))

    def _solve(self):
        """The Cholesky factor of the shifted Gram and the weights alpha; cached."""
        if self._solved is None:
            obs = self.obs
            L = _factor_shifted(self.kernel(obs.points, obs.points), obs.noise_var)
            self._solved = L, cholesky_solve(L, obs.values, lower=True)
        return self._solved

    def posterior_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at a batch of points."""
        return self._posterior(X)

    def posterior_grad(self, X):
        """``posterior_batch(X)`` and the gradients of mean and variance in X.

        Returns (mean, var, dmean, dvar) with dmean[i, k] = d mean(x_i)/dx_ik
        and dvar likewise.
        """
        return self._posterior(X, grad=True)

    def _posterior(self, X, grad: bool = False):
        """With B = (K_D + sigma^2 I)^-1 k_D(X)', the variance gradient is
        dprior - 2 sum_n dk[:, n, :] B[n, :].  B takes two ``dtrtrs`` solves:
        v = L^-1 k_D(X)', which also gives the variance, and then L^-T v."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        kernel, obs = self.kernel, self.obs
        prior, dprior = kernel.diag_grad(X) if grad else (kernel.diag(X), None)
        prior = np.asarray(prior, dtype=np.float64)
        if not obs.size:
            out = np.zeros(X.shape[0]), np.maximum(prior, 0.0)
            return out + (np.zeros(X.shape), dprior) if grad else out
        L, alpha = self._solve()
        k, dk = kernel.cross_grad(X, obs.points) if grad else (kernel(X, obs.points), None)
        v = _solve_lower(L, k.T)
        var = prior - np.sum(v * v, axis=0)
        out = k @ alpha, np.clip(var, 0.0, np.maximum(prior, 0.0))
        if not grad:
            return out
        B = _solve_lower(L, v, trans=1)
        return out + (alpha @ dk, dprior - 2.0 * np.einsum("ink,ni->ik", dk, B))
