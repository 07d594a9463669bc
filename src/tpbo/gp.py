"""Gaussian-process posterior inference over an arbitrary covariance.

The covariance evaluator is any object with ``kernel(X1, X2) -> matrix`` and
``kernel.diag(X) -> vector``; :class:`~tpbo.mkernel.TunedKernel` and the
stationary evaluators below all qualify.  Posteriors use the function-space
form with zero prior mean,

    mean(x) = k_D(x)' (K_D + sigma^2 I)^-1 y
    var(x)  = K(x, x) - k_D(x)' (K_D + sigma^2 I)^-1 k_D(x),

behind one Cholesky factorization per posterior object.  Instances are
immutable; adding an observation returns a new posterior.

``bo`` and ``bench`` build every posterior here.  The tests compare this
path with the same posterior computed through the finite feature expansion
(prior covariance diag(tau^2) on the feature weights), which lives in the
test-support module ``tests/feature_route.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import _accel
from .errors import NumericalError

#: Relative jitter ladder: added to the shifted Gram unconditionally at the
#: first rung, escalated tenfold per failed factorization.
JITTER_FIRST = 1e-10
JITTER_LAST = 1e-4


class SeKernel:
    """Isotropic squared-exponential covariance exp(-nu/2 |x - y|^2)."""

    def __init__(self, nu: float) -> None:
        if not (np.isfinite(nu) and nu > 0):
            raise ValueError("nu must be finite and > 0")
        self.nu = float(nu)

    def __call__(self, X1, X2) -> np.ndarray:
        return _accel.se_cross(X1, X2, self.nu)

    def diag(self, X) -> np.ndarray:
        return np.ones(np.atleast_2d(X).shape[0])


class ArdSeKernel:
    """Squared-exponential covariance with one inverse length-scale per axis."""

    def __init__(self, nus) -> None:
        nus = np.asarray(nus, dtype=np.float64).ravel()
        if nus.size < 1 or not np.all(np.isfinite(nus)) or np.any(nus <= 0):
            raise ValueError("per-axis scales must be finite and > 0")
        self.nus = nus

    def __call__(self, X1, X2) -> np.ndarray:
        return _accel.ard_se_cross(X1, X2, self.nus)

    def diag(self, X) -> np.ndarray:
        return np.ones(np.atleast_2d(X).shape[0])


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

    @classmethod
    def empty(cls, dim: int, noise_var: float) -> "Observations":
        return cls(np.empty((0, dim)), np.empty(0), noise_var)

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


def _factor_shifted(gram: np.ndarray, shift: float):
    """Cholesky of gram + shift*I with an escalating relative jitter ladder."""
    n = gram.shape[0]
    mean_diag = float(np.mean(np.diag(gram))) + shift
    scale = max(abs(mean_diag), 1e-300)
    jitter = JITTER_FIRST
    while True:
        H = gram + (shift + jitter * scale) * np.eye(n)
        try:
            return scipy.linalg.cho_factor(H, lower=True)
        except scipy.linalg.LinAlgError:
            if jitter >= JITTER_LAST:
                min_eig = float(scipy.linalg.eigvalsh(H).min())
                raise NumericalError(
                    f"posterior factorization failed at jitter {jitter:.1e}: "
                    f"min eigenvalue {min_eig:.6e}"
                ) from None
            jitter *= 10.0


class GpPosterior:
    """Gaussian-process posterior over a fixed covariance and observation set."""

    def __init__(self, kernel, obs: Observations) -> None:
        self.kernel = kernel
        self.obs = obs
        if obs.size:
            gram = kernel(obs.points, obs.points)
            self._factor = _factor_shifted(gram, obs.noise_var)
            self._alpha = scipy.linalg.cho_solve(self._factor, obs.values)
        else:
            self._factor = None
            self._alpha = None

    @classmethod
    def from_data(cls, kernel, points, values, noise_var: float) -> "GpPosterior":
        return cls(kernel, Observations(points, values, noise_var))

    @property
    def size(self) -> int:
        return self.obs.size

    def add_observation(self, x, y: float) -> "GpPosterior":
        """Return a new posterior including (x, y); the factorization is rebuilt."""
        return GpPosterior(self.kernel, self.obs.appended(x, y))

    def posterior_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at a batch of points."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        prior = np.asarray(self.kernel.diag(X), dtype=np.float64)
        if not self.obs.size:
            return np.zeros(X.shape[0]), np.maximum(prior, 0.0)
        k = self.kernel(X, self.obs.points)
        mean = k @ self._alpha
        L = self._factor[0]
        v = scipy.linalg.solve_triangular(L, k.T, lower=True)
        var = prior - np.sum(v * v, axis=0)
        return mean, np.clip(var, 0.0, np.maximum(prior, 0.0))

    def posterior(self, x) -> tuple[float, float]:
        """Posterior mean and variance at a single point."""
        x = np.asarray(x, dtype=np.float64).ravel()
        mean, var = self.posterior_batch(x[None, :])
        return float(mean[0]), float(var[0])
