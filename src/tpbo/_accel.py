"""Free-kernel family maps and hot covariance kernels, vectorized in numpy.

Every family map and every covariance in the package goes through this
module.  ``dot_series`` and ``log_ratio`` say what a family computes from a
dot product or from coordinate products; ``pretrain.base_gram`` and the
tests' ``tests/feature_route.py`` call them directly.  Every cross is
prepared against a fixed point set D once and then evaluated against it:
``se_against`` for the plain and ARD squared-exponential crosses, and for
``TunedKernel``'s tuned sum on rows z = x*d either the chunked pair sum
``tuned_rows`` over every auxiliary pair (through ``tuned_cross``) or, for
a dot-series base in one or two dimensions, ``weight_against``'s table of
monomial coefficients times the powers of D, which ``weight_cross``
contracts with the powers of x; ``weight_rows``, for the diagonal rows
z = x*x, is that cross against the one point d = 1.  ``tuned_se_cross``
scales either route's exponential-base sum by the SE norm factors.  Each
evaluator takes ``grad`` and does gradient work (for the acquisition
polish) only when it is set; its values are one computation either way.
"""

from __future__ import annotations

import numpy as np

# Cap on the elements of one chunk of tuned-row work (~32 MB of f64).  The
# dot-series path allocates one chunk buffer per call and evaluates every
# chunk in it in place: fresh chunk-sized temporaries cost page faults on
# every call, and those, not the flops, dominated the tuned kernel's time.
_CHUNK_ELEMS = 4_000_000


def _as2d(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Family maps


def dot_series(family: str, nu: float, degree: int, offset: float, D):
    """Scalar series of a dot-product family, elementwise on a scalar or array.

    Returns a new float64 array (0-d for a scalar); ``D`` is left as it is.
    """
    G = np.array(D, dtype=np.float64)
    _dot_series_in_place(family, nu, degree, offset, G)
    return G


def _dot_series_in_place(family: str, nu: float, degree: int, offset: float, G, S=None):
    """Overwrite the dot products G with ``dot_series`` of them.

    With S, the polynomial and hyperbolic-sine families also write the
    series' slope in D into S: it needs the dot products, which G loses.
    The linear and exponential slopes follow from the series alone (1 and
    nu * G), so ``tuned_rows`` makes them in G's place after reading it.
    """
    if family == "linear":
        return
    if family == "polynomial":
        G += offset
        if S is not None:
            np.copyto(S, G)
            S **= degree - 1
            S *= degree
        G **= degree
    elif family == "exponential":
        G *= nu
        np.exp(G, out=G)
    elif family == "hyperbolic-sine":
        G *= nu
        if S is not None:
            np.cosh(G, out=S)
            S *= nu
        np.sinh(G, out=G)
    else:
        raise ValueError(f"unsupported dot-product family: {family!r}")


def _log_ratio_factors(Z: np.ndarray) -> np.ndarray:
    if np.any(np.abs(Z) >= 1.0):
        raise ValueError("log-ratio kernel requires every coordinate product in (-1, 1)")
    return np.log((1.0 + Z) / (1.0 - Z))


def log_ratio(Z: np.ndarray) -> np.ndarray:
    """prod_k log((1 + z_k) / (1 - z_k)) over the last axis of coordinate products."""
    return np.prod(_log_ratio_factors(Z), axis=-1)


def _log_ratio_slopes(Z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """d/dz_k of prod_l F_l over the last axis, with F the factors at Z.

    Each slope multiplies the other coordinates' factors, taken as prefix and
    suffix products: a factor is 0 at z = 0, so it is never divided out.
    """
    others = np.ones_like(F)
    others[..., 1:] = np.cumprod(F[..., :-1], axis=-1)
    others[..., :-1] *= np.cumprod(F[..., :0:-1], axis=-1)[..., ::-1]
    return others * (2.0 / (1.0 - Z * Z))


# ---------------------------------------------------------------------------
# Squared-exponential cross-covariance: k(x, y) = exp(-1/2 sum_k nu_k (x_k - y_k)^2)


def se_against(D: np.ndarray, nus):
    """The (ARD) squared-exponential cross against the fixed points D, as a
    function ``cross(X, grad=False)``.

    ``nus`` is one inverse squared length-scale, kept in the exponent, or one
    per axis, which scale the coordinates by sqrt(nu_k) instead.  The scaled
    rows of D and their squared norms are made here, once.  ``cross(X)`` is
    the (m, |D|) matrix K from the expansion |x|^2 + |d|^2 - 2 x.d; with
    ``grad`` it returns K and its input gradient dK[i, j, k] = -nu_k
    (x_ik - d_jk) K[i, j] too, the same K either way.
    """
    D = _as2d(D)
    nus = np.asarray(nus, dtype=np.float64)
    nu, scale = (float(nus), None) if nus.ndim == 0 else (1.0, np.sqrt(nus))
    Ds = D if scale is None else D * scale
    r2 = np.sum(Ds * Ds, axis=1)

    def cross(X, grad: bool = False):
        X = _as2d(X)
        Xs = X if scale is None else X * scale
        K = np.sum(Xs * Xs, axis=1)[:, None] + r2[None, :] - 2.0 * (Xs @ Ds.T)
        np.maximum(K, 0.0, out=K)
        K *= -0.5 * nu
        np.exp(K, out=K)
        if not grad:
            return K
        return K, (D[None, :, :] - X[:, None, :]) * nus * K[:, :, None]

    return cross


def se_cross(X1: np.ndarray, X2: np.ndarray, nus) -> np.ndarray:
    """The (ARD) SE cross-covariance matrix of ``se_against(X2, nus)`` at X1."""
    return se_against(X2, nus)(X1)


# ---------------------------------------------------------------------------
# Reweighted (tuned) kernel.
#
# The caller precomputes the symmetric auxiliary-pair data:
#   P[q]   elementwise product of one pair of auxiliary points
#   W[q]   pair weight alpha_i*alpha_j, doubled for off-diagonal pairs
# Then K(x, y) = sum_q W[q] k(P[q] * (x*y)), where k is the family map: the
# dot-product series of sum_k P[q]_k x_k y_k, or the log-ratio product over
# coordinates.  For the squared-exponential base W[q] also carries
# exp(-nu/2(|a_i|^2+|a_j|^2)), and K(x, y) = c(x) c(y) times the
# exponential-base sum, with c(x) = exp(-nu/2 |x|^2) per probe point.
#
# Expanding a dot-series sum in powers of z = x*y gives the same kernel from
# the feature weights: S(z) = sum_beta C[beta] z^beta over exponent tuples
# beta, with C[beta] = s_|beta| |beta|!/beta! u_beta^2, s_r the series'
# Taylor coefficients and u_beta = sum_i alpha_i a_i^beta (``TunedKernel``
# builds C).  ``weight_cross`` evaluates that truncated sum.


def tuned_rows(
    P: np.ndarray,
    W: np.ndarray,
    family: str,
    nu: float,
    degree: int,
    offset: float,
    Z: np.ndarray,
    grad: bool = False,
):
    """sum_q W[q] k(P[q] * z) for every row z of Z; with ``grad``, also its gradient.

    The gradient is the (m, n) array of derivatives in each coordinate of z.
    Rows are taken in chunks of at most ``_CHUNK_ELEMS`` elements.  The
    dot-series families use one chunk buffer, allocated once per call: each
    chunk's dot products are written into it, mapped to the series in place
    and summed, and with ``grad`` the same buffer then becomes the slope.
    Polynomial and hyperbolic-sine gradients, which need the dot products
    and the series at once, take one more buffer.  Fresh chunk-sized
    temporaries cost page faults on every call, not flops.
    """
    m, n = Z.shape
    q = P.shape[0]
    width = q * n if family == "log-ratio" else q
    rows = max(1, _CHUNK_ELEMS // max(1, width))
    out = np.empty(m)
    if grad:
        dout = np.empty((m, n))
        WP = W[:, None] * P
    if family == "log-ratio":
        for r0 in range(0, m, rows):
            r1 = min(m, r0 + rows)
            PZ = P[None, :, :] * Z[r0:r1, None, :]
            F = _log_ratio_factors(PZ)
            G = np.prod(F, axis=-1)
            if grad:
                dout[r0:r1] = np.einsum("rqk,qk->rk", _log_ratio_slopes(PZ, F), WP)
            out[r0:r1] = G @ W
        return (out, dout) if grad else out
    buf = np.empty((min(m, rows), q))
    slope = np.empty_like(buf) if grad and family in ("polynomial", "hyperbolic-sine") else None
    for r0 in range(0, m, rows):
        r1 = min(m, r0 + rows)
        G = buf[: r1 - r0]
        np.matmul(Z[r0:r1], P.T, out=G)
        S = None if slope is None else slope[: r1 - r0]
        _dot_series_in_place(family, nu, degree, offset, G, S)
        out[r0:r1] = G @ W
        if grad:
            if family == "linear":
                G.fill(1.0)
            elif family == "exponential":
                G *= nu
            else:
                G = S
            dout[r0:r1] = G @ WP
    return (out, dout) if grad else out


def _powers(Z: np.ndarray, R1: int, out=None) -> np.ndarray:
    """z_k^0 .. z_k^(R1-1) of every coordinate of the rows of Z, (m, n, R1),
    in one cumprod (into ``out`` when given)."""
    p = np.empty(Z.shape + (R1,)) if out is None else out
    p[:, :, 0] = 1.0
    p[:, :, 1:] = Z[:, :, None]
    return np.cumprod(p, axis=2, out=p)


def weight_against(C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The weight route's table against the fixed points D: the (R+1, |D| w)
    matrix G with G[a, j w + b] = C[a, b] d_j1^a d_j2^b (no d_j2 in 1-D).

    Then sum_beta C[beta] (x*d_j)^beta = sum_ab x_1^a G[a, j w + b] x_2^b,
    which ``weight_cross`` evaluates from the powers of x alone.
    """
    R1, w = C.shape
    p = _powers(D, R1)
    G = C[None] * p[:, 0, :, None]
    if D.shape[1] == 2:
        G *= p[:, 1, None, :]
    return np.ascontiguousarray(G.transpose(1, 0, 2)).reshape(R1, -1)


def weight_cross(G: np.ndarray, X: np.ndarray, grad: bool = False):
    """sum_beta C[beta] (x*d_j)^beta for every x in X and every d_j of
    ``weight_against``'s table G; with ``grad``, also its input gradient.

    Returns the (m, |D|) matrix K, and with ``grad`` dK[i, j, k], its slope
    in x_ik.  Each chunk of rows takes the powers P_k of its points in one
    cumprod and their slopes dP_k[a] = a x_k^(a-1); T = P_1 G contracted with
    P_2 gives K, dP_1 G with P_2 the first slope, and T with dP_2 the second.
    K is the same computation with or without ``grad``.
    """
    m, n = X.shape
    R1 = G.shape[0]
    w = R1 if n == 2 else 1
    cols = G.shape[1]
    rows = max(1, _CHUNK_ELEMS // (2 * cols + n * R1))
    out = np.empty((m, cols // w))
    dout = np.empty(out.shape + (n,)) if grad else None
    if grad:
        ramp = np.arange(1.0, R1)
    for r0 in range(0, m, rows):
        r1 = min(m, r0 + rows)
        p = _powers(X[r0:r1], R1)
        last = (p[:, 1] if n == 2 else np.ones((r1 - r0, 1)))[:, :, None]
        T = (p[:, 0] @ G).reshape(r1 - r0, -1, w)
        out[r0:r1] = (T @ last)[:, :, 0]
        if grad:
            dp = p[:, :, :-1] * ramp  # dP_k[a] for a >= 1; dP_k[0] = 0 drops out
            dT = (dp[:, 0] @ G[1:]).reshape(T.shape)
            dout[r0:r1, :, 0] = (dT @ last)[:, :, 0]
            if n == 2:
                dout[r0:r1, :, 1] = (T[:, :, 1:] @ dp[:, 1, :, None])[:, :, 0]
    return (out, dout) if grad else out


def weight_rows(C: np.ndarray, Z: np.ndarray, grad: bool = False):
    """sum_beta C[beta] z^beta for every row z of Z; with ``grad``, also its
    (m, n) gradient.

    This is ``weight_cross`` against the one point d = 1, whose table is C
    itself: the (R+1, w) coefficient table over exponents, that of z_1 down
    its rows and that of z_2 across (w = 1 in 1-D).
    """
    K = weight_cross(C, Z, grad)
    return (K[0][:, 0], K[1][:, 0]) if grad else K[:, 0]


def tuned_cross(rows, X1: np.ndarray, X2: np.ndarray, grad: bool = False):
    """Tuned cross-covariance over the rows x*y of every pair (x in X1, y in X2).

    ``rows(Z, grad)`` is the tuned sum on rows of Z, by either route.  With
    ``grad``, also the input gradient dK[i, j, k] = dK(x_i, y_j)/dx_ik: by
    the chain rule through z = x * y, y_jk times the row gradient in z_k at
    z = x_i * y_j.
    """
    X1, X2 = _as2d(X1), _as2d(X2)
    m1, n = X1.shape
    m2 = X2.shape[0]
    Z = (X1[:, None, :] * X2[None, :, :]).reshape(-1, n)
    K = rows(Z, grad)
    if not grad:
        return K.reshape(m1, m2)
    K, dZ = K
    return K.reshape(m1, m2), dZ.reshape(m1, m2, n) * X2[None, :, :]


def se_norm_scale(S, c1, c2, nu, X, grad: bool = False):
    """K = S c1 c2: an exponential-base sum S times the SE base's norm factors.

    With ``grad``, S is the pair (S, dS) and dK = dS c1 c2 - nu x K is
    returned too, with x the moving point broadcast against dK.  ``nu``
    counts each argument that moves: the diagonal K(x, x) passes 2 nu.
    """
    S, dS = S if grad else (S, None)
    K = S * c1 * c2
    return (K, dS * (c1 * c2)[..., None] - nu * X * K[..., None]) if grad else K


def tuned_se_cross(cross, nu: float, X: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                   grad: bool = False):
    """Tuned SE cross c1(x) c2(d) S(x*d) against fixed points d, with
    S = ``cross(X, grad)`` the exponential-base sums against them and c1, c2
    the norm factors of X and of the points; ``grad`` as in ``tuned_cross``."""
    return se_norm_scale(cross(X, grad), c1[:, None], c2[None, :], nu, X[:, None, :], grad)
