"""Hot covariance kernels, vectorized in numpy.

Every covariance in the package goes through this module: the plain and
ARD squared-exponential crosses, and the reweighted (tuned) crosses over
precomputed auxiliary-pair data.  The tuned paths work in row chunks so the
temporary arrays stay bounded.
"""

from __future__ import annotations

import numpy as np

# Cap on temporary-array elements in the chunked numpy paths (~32 MB of f64).
_CHUNK_ELEMS = 4_000_000


def _as2d(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Squared-exponential cross-covariance: k(x, y) = exp(-nu/2 * |x - y|^2)


def se_cross(X1: np.ndarray, X2: np.ndarray, nu: float) -> np.ndarray:
    X1, X2 = _as2d(X1), _as2d(X2)
    r1 = np.sum(X1 * X1, axis=1)
    r2 = np.sum(X2 * X2, axis=1)
    d2 = r1[:, None] + r2[None, :] - 2.0 * (X1 @ X2.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-0.5 * float(nu) * d2)


def ard_se_cross(X1: np.ndarray, X2: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """exp(-1/2 sum_k nu_k (x_k - y_k)^2) via per-axis rescaling."""
    scale = np.sqrt(np.asarray(nus, dtype=np.float64))
    return se_cross(_as2d(X1) * scale, _as2d(X2) * scale, 1.0)


# ---------------------------------------------------------------------------
# Reweighted (tuned) kernel, squared-exponential base.
#
# The caller precomputes the symmetric auxiliary-pair data:
#   P[q]   elementwise product of one pair of auxiliary points
#   W[q]   pair weight alpha_i*alpha_j*exp(-nu/2(|a_i|^2+|a_j|^2)),
#          doubled for off-diagonal pairs
#   c(x) = exp(-nu/2 |x|^2) per probe point.
# Then K(x, y) = c(x) c(y) sum_q W[q] exp(nu * P[q] . (x*y)), the
# exponential-base tuned cross scaled by the probe norms.


def tuned_se_cross(
    P: np.ndarray,
    W: np.ndarray,
    nu: float,
    X1: np.ndarray,
    X2: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
) -> np.ndarray:
    out = tuned_dot_cross(P, W, "exponential", float(nu), 0, 0.0, X1, X2)
    return out * c1[:, None] * c2[None, :]


# ---------------------------------------------------------------------------
# Reweighted kernel, scalar-series bases (linear / polynomial / exponential /
# hyperbolic sine).  All are elementwise maps of the pair dot products
# B[st, q] = P[q] . (x_s * y_t), so one chunked numpy path covers them.


def tuned_dot_cross(
    P: np.ndarray,
    W: np.ndarray,
    family: str,
    nu: float,
    degree: int,
    offset: float,
    X1: np.ndarray,
    X2: np.ndarray,
) -> np.ndarray:
    X1, X2 = _as2d(X1), _as2d(X2)
    m1, n = X1.shape
    m2 = X2.shape[0]
    q = P.shape[0]
    out = np.empty((m1, m2))
    rows = max(1, min(m1, _CHUNK_ELEMS // max(1, m2 * q)))
    for s0 in range(0, m1, rows):
        s1 = min(m1, s0 + rows)
        B = (X1[s0:s1, None, :] * X2[None, :, :]).reshape(-1, n) @ P.T
        if family == "linear":
            G = B
        elif family == "polynomial":
            G = (B + offset) ** degree
        elif family == "exponential":
            G = np.exp(nu * B)
        elif family == "hyperbolic-sine":
            G = np.sinh(nu * B)
        else:
            raise ValueError(f"unsupported dot-product family: {family!r}")
        out[s0:s1] = (G @ W).reshape(s1 - s0, m2)
    return out


def tuned_logratio_cross(
    P: np.ndarray,
    W: np.ndarray,
    X1: np.ndarray,
    X2: np.ndarray,
) -> np.ndarray:
    """Per-coordinate log-ratio base; requires every factor product in (-1, 1)."""
    X1, X2 = _as2d(X1), _as2d(X2)
    m1 = X1.shape[0]
    m2 = X2.shape[0]
    out = np.empty((m1, m2))
    for s in range(m1):
        L = P[None, :, :] * (X1[s] * X2)[:, None, :]  # (m2, q, n)
        if np.any(np.abs(L) >= 1.0):
            raise ValueError("log-ratio kernel requires |x_i * y_i * a_i * a_i'| < 1")
        out[s] = np.prod(np.log((1.0 + L) / (1.0 - L)), axis=2) @ W
    return out
