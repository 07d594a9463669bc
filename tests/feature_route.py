"""The weight-space feature route: reference implementations for the tests.

The paper derives the tuned covariance from a weight-space view: a prior
w ~ N(0, diag(tau^2)) on monomial features theta, reweighted by an auxiliary
SVM fit to tau * sum_i alpha_i theta(a_i).  ``tpbo.mkernel.TunedKernel``
evaluates that covariance from closed forms summed over auxiliary pairs or,
in one or two dimensions, from a table of squared reweighted weights, and
``tpbo.gp.GpPosterior`` runs inference in function space.  This module
keeps the explicit route, feature by feature, so the tests can compare:

- ``m_dot`` and ``eval_free`` evaluate one free-kernel family member at any
  even arity, one set of vectors at a time;
- ``expand_features``/``feature_values``/``expansion_value`` build and
  evaluate the (truncated) monomial feature expansion;
- ``eval_tuned`` and ``tuned_weights_oracle`` give the reweighted kernel as a
  scalar and as feature weights;
- ``weight_space_posterior_oracle`` computes the GP posterior through the
  feature weights.

None of it is library API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from tpbo import _accel
from tpbo.gp import Observations, _factor_shifted
from tpbo.mkernel import FreeKernelSpec, TunedKernel


def _stack_args(vectors) -> np.ndarray:
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if any(v.ndim != 1 for v in vecs):
        raise ValueError("arguments must be 1-D vectors")
    m = len(vecs)
    if m < 2 or m % 2:
        raise ValueError(f"arity must be an even integer >= 2, got {m}")
    n = vecs[0].shape[0]
    if any(v.shape[0] != n for v in vecs):
        raise ValueError("all arguments must share one dimension")
    return np.stack(vecs)


def m_dot(vectors) -> float:
    """Even-arity dot product: sum over coordinates of the elementwise product."""
    arr = _stack_args(vectors)
    return float(np.sum(np.prod(arr, axis=0)))


def eval_free(spec: FreeKernelSpec, m: int, args) -> float:
    """Evaluate one free-kernel family member at arity ``m``.

    ``args`` holds m equal-length vectors.  The squared-exponential family
    uses the closed form exp(nu/2 (2<args>_m - sum |arg|^2)), which at m=2
    reduces to the familiar exp(-nu/2 |x - x'|^2).
    """
    arr = _stack_args(args)
    if arr.shape[0] != m:
        raise ValueError(f"expected {m} arguments, got {arr.shape[0]}")
    if spec.family == "log-ratio":
        return float(_accel.log_ratio(np.prod(arr, axis=0)))
    md = float(np.sum(np.prod(arr, axis=0)))
    if spec.family == "se":
        sq = float(np.sum(arr * arr))
        return float(np.exp(0.5 * spec.nu * (2.0 * md - sq)))
    return float(_accel.dot_series(spec.family, spec.nu, spec.degree, spec.offset, md))


# ---------------------------------------------------------------------------
# Feature expansions


@dataclass(frozen=True)
class FeatureExpansion:
    """Truncated monomial feature expansion of a free-kernel family member.

    ``multi_indices`` (d, n) lists exponent tuples of the monomial features
    theta_i(x) = prod_k x_k^{i_k}; ``weights`` (d,) holds the matching tau.
    ``taylor_coeffs`` keeps the scalar series coefficients by degree.  For
    ``kind == "dot-product"`` the weights are sqrt(multinomial(i) xi_{|i|}),
    for ``kind == "direct-product"`` sqrt(prod_k xi_{i_k}).  Entries with a
    zero weight are dropped.  ``normalize_args`` marks the squared-exponential
    construction, whose feature map is the exponential one rescaled per
    argument to unit weighted norm.
    """

    multi_indices: np.ndarray
    taylor_coeffs: np.ndarray
    weights: np.ndarray
    kind: str
    normalize_args: bool = False

    def with_weights(self, weights: np.ndarray) -> "FeatureExpansion":
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.weights.shape:
            raise ValueError("replacement weights must match the feature count")
        return replace(self, weights=weights)


def taylor_coefficients(spec: FreeKernelSpec, max_degree: int) -> np.ndarray:
    """Series coefficients xi_d (d = 0..max_degree) of the family's scalar map."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    xi = np.zeros(max_degree + 1)
    fam = spec.family
    if fam == "linear":
        if max_degree >= 1:
            xi[1] = 1.0
    elif fam == "polynomial":
        for d in range(min(max_degree, spec.degree) + 1):
            xi[d] = math.comb(spec.degree, d) * spec.offset ** (spec.degree - d)
    elif fam in ("exponential", "se"):
        for d in range(max_degree + 1):
            xi[d] = spec.nu**d / math.factorial(d)
    elif fam == "hyperbolic-sine":
        for d in range(1, max_degree + 1, 2):
            xi[d] = spec.nu**d / math.factorial(d)
    elif fam == "log-ratio":
        for d in range(1, max_degree + 1, 2):
            xi[d] = 2.0 / d
    else:  # pragma: no cover - guarded by FreeKernelSpec
        raise ValueError(f"unknown family {fam!r}")
    return xi


def _indices_of_degree(n: int, degree: int):
    if n == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _indices_of_degree(n - 1, degree - first):
            yield (first, *rest)


def expand_features(spec: FreeKernelSpec, n: int, max_degree: int = 15) -> FeatureExpansion:
    """Enumerate the monomial features and weights up to a total degree.

    Exact for the polynomial/linear families once ``max_degree`` reaches the
    polynomial degree; a truncation of the infinite expansion otherwise.
    Feature order is ascending total degree, lexicographic within a degree.
    """
    if n < 1:
        raise ValueError("input dimension must be >= 1")
    xi = taylor_coefficients(spec, max_degree)
    kind = "direct-product" if spec.family == "log-ratio" else "dot-product"
    indices: list[tuple[int, ...]] = []
    weights: list[float] = []
    for degree in range(max_degree + 1):
        for idx in _indices_of_degree(n, degree):
            if kind == "dot-product":
                if xi[degree] == 0.0:
                    continue
                multinom = math.factorial(degree)
                for k in idx:
                    multinom //= math.factorial(k)
                w2 = multinom * xi[degree]
            else:
                w2 = 1.0
                for k in idx:
                    w2 *= xi[k]
                if w2 == 0.0:
                    continue
            indices.append(idx)
            weights.append(math.sqrt(w2))
    return FeatureExpansion(
        multi_indices=np.asarray(indices, dtype=np.int64).reshape(len(indices), n),
        taylor_coeffs=xi,
        weights=np.asarray(weights),
        kind=kind,
        normalize_args=spec.family == "se",
    )


def feature_values(expansion: FeatureExpansion, x) -> np.ndarray:
    """Evaluate the feature vector theta(x), normalized when the family requires it."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != expansion.multi_indices.shape[1]:
        raise ValueError("point dimension does not match the expansion")
    v = np.prod(x[None, :] ** expansion.multi_indices, axis=1)
    if expansion.normalize_args:
        v = v / float(np.linalg.norm(expansion.weights * v))
    return v


def expansion_value(expansion: FeatureExpansion, args) -> float:
    """Truncated feature-space kernel value sum_j tau_j^2 prod_args theta_j(arg)."""
    arr = _stack_args(args)
    prod = np.ones_like(expansion.weights)
    for a in arr:
        prod = prod * feature_values(expansion, a)
    return float(np.sum(expansion.weights**2 * prod))


# ---------------------------------------------------------------------------
# Reweighted kernel


def eval_tuned(t: TunedKernel, x, xp) -> float:
    """Scalar reweighted-kernel value K^A(x, x')."""
    x = np.asarray(x, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    if x.ndim != 1 or xp.ndim != 1:
        raise ValueError("eval_tuned expects single points")
    return float(t(x[None, :], xp[None, :])[0, 0])


def tuned_weights_oracle(t: TunedKernel, expansion: FeatureExpansion) -> np.ndarray:
    """Reweighted feature weights tau * sum_i alpha_i theta(a_i).

    Feature-space counterpart of ``eval_tuned``: the returned weights define
    the same kernel through ``expansion_value`` (exactly for polynomial
    bases, up to truncation otherwise).
    """
    if expansion.multi_indices.shape[1] != t.input_dim:
        raise ValueError("expansion dimension does not match the auxiliary set")
    acc = np.zeros_like(expansion.weights)
    for a, al in zip(t.aux_points, t.alpha):
        acc += al * feature_values(expansion, a)
    return expansion.weights * acc


# ---------------------------------------------------------------------------
# Weight-space posterior


def weight_space_posterior_oracle(
    expansion: FeatureExpansion, obs: Observations, x
) -> tuple[float, float]:
    """Posterior via the explicit feature-weight prior diag(tau^2).

    Forms theta-feature matrices densely, so it is only suitable for small
    expansions; production inference goes through :class:`GpPosterior`.
    """
    phi_x = feature_values(expansion, np.asarray(x, dtype=np.float64).ravel())
    s = expansion.weights**2
    if not obs.size:
        return 0.0, float(np.sum(s * phi_x**2))
    theta = np.stack([feature_values(expansion, p) for p in obs.points], axis=1)  # (d, N)
    B = theta.T @ (s[:, None] * theta)
    factor = (_factor_shifted(B, obs.noise_var), True)
    sol = scipy.linalg.cho_solve(factor, obs.values)
    mean = float(phi_x @ (s[:, None] * theta) @ sol)
    st_phi = theta.T @ (s * phi_x)  # (N,)
    corr = scipy.linalg.cho_solve(factor, st_phi)
    var = float(np.sum(s * phi_x**2) - st_phi @ corr)
    return mean, max(var, 0.0)
