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
``TunedKernel`` evaluates the arity-2 reweighted kernel; ``pretrain`` builds
it and ``gp``/``bo`` use it as the prior covariance.  In one or two input
dimensions a dot-series base is evaluated from those weights, as a sum over
monomials of x*x'; otherwise, and wherever that sum is no cheaper, from the
closed forms summed over auxiliary pairs.  The test-support module
``tests/feature_route.py`` builds the explicit feature expansion the tests
compare both routes with.  ``TunedKernel.against`` prepares the cross
against a fixed point set once, and ``__call__`` and ``cross_grad`` go
through it; the prepared cross and the diagonal each have one body that
takes ``grad``, so value and gradient methods return the same values and
only the latter do gradient work.
"""

from __future__ import annotations

import math
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
#: identically zero.
VANISH_TOL = 1e-12


@dataclass(frozen=True)
class FreeKernelSpec:
    """Hyperparameters of one free-kernel family member.

    ``nu`` scales the hyperbolic-sine/exponential/se families, ``degree`` and
    ``offset`` parametrize the polynomial family ``(<...>_m + offset)^degree``.
    Families ignore hyperparameters they do not read, but every member
    checks all three, since every model file stores them.
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
        if not (isinstance(self.degree, (int, np.integer)) and self.degree >= 1):
            raise ValueError(f"degree must be an integer >= 1, got {self.degree}")
        if not (np.isfinite(self.offset) and self.offset >= 0.0):
            raise ValueError(f"offset must be finite and >= 0, got {self.offset}")


# ---------------------------------------------------------------------------
# Reweighted kernel


class TunedKernel:
    """Arity-2 kernel reweighted by an auxiliary SVM fit.

    Evaluates K(x, x') = sum_{i,j} alpha_i alpha_j K_4(a_i, a_j, x, x') with
    K_4 the arity-4 member of ``base``, as a tuned sum S over the rows
    z = x*x' of the cross (every point pair) or of the diagonal (z = x*x);
    the squared-exponential base scales its exponential-base sum by the
    probe norms.  S has two routes, chosen once at construction:

    - ``"weights"``: S(z) = sum_beta C_beta z^beta, a table of monomial
      coefficients from the reweighted feature weights, evaluated on the
      diagonal by ``_accel.weight_rows`` and against fixed points by
      ``_accel.weight_cross`` from a table ``against`` makes.  It needs a
      dot-series base in one or two dimensions, and fewer monomials
      (``order`` R: C(R+n, n)) than auxiliary pairs.  Exp-series bases
      truncate at the order where the tail, on every |z_k| <= 1, is below
      the rounding of the pair sum; a call with some |z_k| > 1 takes the
      pair route.
    - ``"pairs"``: one pass over the |A|(|A|+1)/2 auxiliary pairs per row
      (``_accel.tuned_rows``), the pair data folded to the upper triangle
      (off-diagonal weights doubled).

    Instances are immutable and safe to share across threads.
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
        self._series = "exponential" if base.family == "se" else base.family
        self._order = self._coefs = None
        if base.family != "log-ratio" and aux.shape[1] <= 2:
            order = _series_order(base, aux.shape[1], float(np.max(np.abs(aux))), iu.size)
            coefs = None if order is None else _monomial_coefs(base, aux, al, order)
            if coefs is not None:
                self._order, self._coefs = order, coefs

    @property
    def route(self) -> str:
        """``"weights"`` or ``"pairs"``: how rows with every |z_k| <= 1 are evaluated."""
        return "pairs" if self._coefs is None else "weights"

    @property
    def order(self):
        """Series order R of the weight route; None on the pair route."""
        return self._order

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

    def _pair_rows(self, Z, grad: bool = False):
        """The tuned sum S on rows z of Z over every auxiliary pair
        (``grad`` as in ``_accel.tuned_rows``)."""
        base = self.base
        return _accel.tuned_rows(
            self._pair_prod, self._pair_weight, self._series,
            base.nu, base.degree, base.offset, Z, grad=grad,
        )

    def against(self, D):
        """The covariance prepared against the fixed points D, as a function
        ``cross(X, grad=False)``: the (m, |D|) matrix K(X, D), and with
        ``grad`` also dK[i, j, k] = dK(x_i, d_j)/dx_ik, the same K either way.

        What depends on D alone is made here, once: the weight route's table
        (``_accel.weight_against``) and the se base's norm factors of D.  A
        call where some |x_k d_jk| > 1 sums over the auxiliary pairs
        instead, as the pair route always does, on the rows x*d.
        """
        D = self._points(D)

        def pairs(X, grad):
            return _accel.tuned_cross(self._pair_rows, X, D, grad)

        sums = pairs
        if self._coefs is not None:
            G = _accel.weight_against(self._coefs, D)
            reach = np.max(np.abs(D), axis=0, initial=0.0)

            def sums(X, grad):
                # |x_k| max_j |d_jk| rounds to the largest |x_k d_jk|, so
                # this tests every row x*d
                if np.max(np.abs(X) * reach, initial=0.0) <= 1.0:
                    return _accel.weight_cross(G, X, grad)
                return pairs(X, grad)

        if self.base.family != "se":
            return lambda X, grad=False: sums(self._points(X), grad)
        nu, cD = self.base.nu, self._norms(D)

        def se_cross(X, grad=False):
            X = self._points(X)
            return _accel.tuned_se_cross(sums, nu, X, self._norms(X), cD, grad)

        return se_cross

    def _diag(self, X, grad: bool = False):
        X = self._points(X)
        Z = X * X
        if self._coefs is not None and np.max(Z, initial=0.0) <= 1.0:
            d = _accel.weight_rows(self._coefs, Z, grad)
        else:
            d = self._pair_rows(Z, grad)
        if grad:
            d = d[0], 2.0 * X * d[1]  # the chain rule through z = x * x
        if self.base.family == "se":
            c = self._norms(X)
            return _accel.se_norm_scale(d, c, c, 2.0 * self.base.nu, X, grad)
        return d

    def __call__(self, X1, X2) -> np.ndarray:
        """Cross-covariance matrix between two batches of points."""
        return self.against(X2)(X1)

    def diag(self, X) -> np.ndarray:
        """Prior variances K(x, x)."""
        return self._diag(X)

    def cross_grad(self, X1, X2):
        """``self(X1, X2)`` and its gradient dK[i, j, k] = dK(x_i, y_j)/dx_ik."""
        return self.against(X2)(X1, grad=True)

    def diag_grad(self, X):
        """``self.diag(X)`` and its gradient dd[i, k] = dK(x_i, x_i)/dx_ik."""
        return self._diag(X, grad=True)


# ---------------------------------------------------------------------------
# Weight route: the tuned sum as a polynomial in z = x*x'


def _series_order(base: FreeKernelSpec, n: int, rho: float, pairs: int):
    """Order R of the weight route, or None when its C(R+n, n) monomials
    would be no fewer than the ``pairs`` of the pair route.

    Linear and polynomial series end at their degree.  For the exp-series
    bases, with auxiliary coordinates bounded by ``rho`` and A = sum_i
    |alpha_i| (times e^{-nu|a_i|^2/2} for se), the terms of order r sum to
    at most A^2 t^r / r! on |z_k| <= 1, t = n nu rho^2.  R is the first
    order whose tail is below 2^-52 A^2 e^t, the scale at which the pair
    sum rounds.  The tail over e^t is a Poisson upper tail, bounded by its
    first term over 1 - t/(R+2) and compared in logs, so no large t
    overflows.
    """
    if base.family == "linear":
        order = 1
    elif base.family == "polynomial":
        order = base.degree
    else:
        t = n * base.nu * rho * rho
        order = 0
        while t > 0.0 and math.comb(order + n, n) < pairs:
            if order + 2 > t:
                log_tail = (
                    (order + 1) * math.log(t) - math.lgamma(order + 2) - t
                    - math.log1p(-t / (order + 2))
                )
                if log_tail <= -52 * math.log(2.0):
                    break
            order += 1
    return order if math.comb(order + n, n) < pairs else None


def _monomial_coefs(base: FreeKernelSpec, aux, alpha, order: int):
    """The coefficient table C of the weight route up to ``order``, or None
    if it overflows float64.

    C_beta = s_|beta| |beta|!/beta! u_beta^2 with u_beta = sum_i alpha_i
    a_i^beta (alpha_i times e^{-nu|a_i|^2/2} for se).  The sums u_beta
    cancel across auxiliary points, so the table is built in extended
    precision and rounded once.
    """
    n = aux.shape[1]
    r = np.arange(order + 1)
    a = aux.astype(np.longdouble)
    w = alpha.astype(np.longdouble)
    if base.family == "se":
        w = w * np.exp(-0.5 * base.nu * np.sum(a * a, axis=1))
    p = np.empty(a.shape + (order + 1,), dtype=np.longdouble)
    p[:, :, 0] = 1.0
    p[:, :, 1:] = a[:, :, None]
    np.cumprod(p, axis=2, out=p)
    u = (w[:, None] * p[:, 0]).T @ (p[:, 1] if n == 2 else np.ones((a.shape[0], 1)))
    # g_r = s_r r!, so that C_beta = g_|beta| u_beta^2 / (beta_1! beta_2!)
    if base.family == "linear":
        g = (r == 1).astype(np.longdouble)
    elif base.family == "polynomial":
        d = base.degree
        try:
            g = np.array([math.perm(d, j) * base.offset ** (d - j) for j in r], dtype=np.longdouble)
        except OverflowError:  # a term past the float range, as d! is from d = 171
            return None
    else:
        g = np.longdouble(base.nu) ** r
        if base.family == "hyperbolic-sine":
            g[r % 2 == 0] = 0.0
    g = np.concatenate([g, np.zeros(order, dtype=np.longdouble)])
    inv_fact = 1.0 / np.cumprod(np.maximum(r, 1).astype(np.longdouble))
    b1, b2 = np.indices(u.shape)
    C = g[b1 + b2] * inv_fact[b1] * inv_fact[b2] * u * u
    if not np.max(C) * max(order, 1) < np.finfo(np.float64).max:
        return None
    return C.astype(np.float64)
