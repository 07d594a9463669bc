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
closed forms; ``expand_features``/``tuned_weights_oracle`` expose the
(truncated) feature route, used as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


class TunedKernel:
    """Arity-2 kernel reweighted by an auxiliary SVM fit.

    Evaluates K(x, x') = sum_{i,j} alpha_i alpha_j K_4(a_i, a_j, x, x') with
    K_4 the arity-4 member of ``base``.  Pair data over the auxiliary points
    is folded to the upper triangle (off-diagonal weights doubled) at
    construction; evaluation then costs one pass over |A|(|A|+1)/2 pairs per
    entry.  ``__call__`` (over the rows x*x' of every point pair) and
    ``diag`` (over the rows x*x of one batch) are each one chunked
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

    def __call__(self, X1, X2) -> np.ndarray:
        """Cross-covariance matrix between two batches of points."""
        X1, X2 = self._points(X1), self._points(X2)
        base, P, W = self.base, self._pair_prod, self._pair_weight
        if base.family == "se":
            return _accel.tuned_se_cross(P, W, base.nu, X1, X2, self._norms(X1), self._norms(X2))
        return _accel.tuned_cross(P, W, base.family, base.nu, base.degree, base.offset, X1, X2)

    def diag(self, X) -> np.ndarray:
        """Prior variances K(x, x): one tuned-row evaluation over the rows x*x."""
        X = self._points(X)
        base = self.base
        family = "exponential" if base.family == "se" else base.family
        d = _accel.tuned_rows(
            self._pair_prod, self._pair_weight, family, base.nu, base.degree, base.offset, X * X
        )
        if base.family == "se":
            c = self._norms(X)
            return d * c * c
        return d


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
