"""Reference computations the workloads check tpbo's outputs against.

Everything here is written from the closed forms in plain numpy, apart
from the package: the test functions and their calibration, the tuned
kernel as a double sum over auxiliary pairs, the GP posterior as a dense
solve, the free-kernel Gram matrices, leave-one-out error by refitting,
and the hinge dual's KKT conditions.
"""

from __future__ import annotations

import inspect

import numpy as np

# Textbook native minimizers and the native square each function lives on.
MINIMIZERS = {"himmelblau": ((3.0, 2.0), 5.0), "ackley": ((0.0, 0.0), 5.0)}


def himmelblau(X):
    x, y = X[..., 0], X[..., 1]
    return (x**2 + y - 11.0) ** 2 + (x + y**2 - 7.0) ** 2


def ackley(X):
    x, y = X[..., 0], X[..., 1]
    r = np.sqrt(0.5 * (x**2 + y**2))
    c = 0.5 * (np.cos(2.0 * np.pi * x) + np.cos(2.0 * np.pi * y))
    return -20.0 * np.exp(-0.2 * r) - np.exp(c) + np.e + 20.0


NATIVE = {"himmelblau": himmelblau, "ackley": ackley}


class UnitObjective:
    """f on [-1, 1]^2, maximized: (-f - lo) / (hi - lo) over a 101^2 grid, clipped."""

    def __init__(self, name: str) -> None:
        self.fn = NATIVE[name]
        self.half = MINIMIZERS[name][1]
        axis = np.linspace(-self.half, self.half, 101)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        neg = -self.fn(np.stack([gx, gy], axis=-1))
        self.lo, self.hi = float(neg.min()), float(neg.max())

    def __call__(self, Z) -> np.ndarray:
        neg = -self.fn(self.half * np.atleast_2d(np.asarray(Z, dtype=float)))
        return np.clip((neg - self.lo) / (self.hi - self.lo), 0.0, 1.0)


def se_k4_entry(aux, alpha, nu, x, xp) -> tuple[float, float]:
    """sum_ij alpha_i alpha_j K4(a_i, a_j, x, x') for the SE family.

    K4(u1..u4) = exp(nu/2 (2 <u1,u2,u3,u4>_4 - sum |u_k|^2)).  Returns the
    value and the sum of the absolute terms, the scale for a relative check.
    """
    z = x * xp
    md = (aux[:, None, :] * aux[None, :, :]) @ z
    r = np.sum(aux * aux, axis=1)
    sq = r[:, None] + r[None, :] + x @ x + xp @ xp
    terms = np.outer(alpha, alpha) * np.exp(0.5 * nu * (2.0 * md - sq))
    return float(terms.sum()), float(np.abs(terms).sum())


def se_tuned_matrix(aux, alpha, nu, X1, X2) -> np.ndarray:
    return np.array([[se_k4_entry(aux, alpha, nu, a, b)[0] for b in X2] for a in X1])


def dense_posterior(gram, k_cross, prior, y, shift):
    """Mean and variance from one dense solve of (K + shift I)."""
    H = gram + shift * np.eye(gram.shape[0])
    sol = np.linalg.solve(H, np.column_stack([y, k_cross.T]))
    mean = k_cross @ sol[:, 0]
    var = prior - np.sum(k_cross.T * sol[:, 1:], axis=0)
    return mean, var


def free_gram(family: str, nu: float, degree: int, offset: float, X) -> np.ndarray:
    """Arity-2 Gram of one free-kernel family from its closed form."""
    dot = X @ X.T
    if family == "linear":
        return dot
    if family == "polynomial":
        return (dot + offset) ** degree
    if family == "exponential":
        return np.exp(nu * dot)
    if family == "hyperbolic-sine":
        return np.sinh(nu * dot)
    if family == "se":
        sq = np.sum(X * X, axis=1)
        return np.exp(-0.5 * nu * (sq[:, None] + sq[None, :] - 2.0 * dot))
    raise ValueError(f"no closed form for {family!r}")


def loo_by_refit(gram, y, lam) -> float:
    """Mean squared leave-one-out residual, refitting the ridge system n times."""
    n = y.shape[0]
    err = 0.0
    for i in range(n):
        keep = np.arange(n) != i
        H = gram[np.ix_(keep, keep)] + lam * np.eye(n - 1)
        alpha = np.linalg.solve(H, y[keep])
        err += (y[i] - gram[i, keep] @ alpha) ** 2
    return err / n


def rescale_columns(X) -> np.ndarray:
    """Per-column affine map of native inputs onto [-1, 1]."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    return 2.0 * (X - lo) / (hi - lo) - 1.0


def hinge_kkt_violation(gram, y, lam, alpha) -> float:
    """Largest KKT violation of hinge duals under 0 <= y*alpha <= 1/lambda."""
    cap = 1.0 / lam
    grad = y * (gram @ alpha) - 1.0
    a_box = y * alpha
    viol = np.where(
        a_box <= 0.0,
        np.maximum(0.0, -grad),
        np.where(a_box >= cap, np.maximum(0.0, grad), np.abs(grad)),
    )
    return float(viol.max())


def hinge_tolerance() -> float:
    """The stopping tolerance train_hinge uses by default."""
    from tpbo.pretrain import train_hinge

    return float(inspect.signature(train_hinge).parameters["tol"].default)
