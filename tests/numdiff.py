"""Central differences, the reference for the analytic input gradients."""

import numpy as np


def central_differences(f, X, h=1e-6):
    """d f(X)[i, ...] / d X[i, k] for a row-wise f, stacked on a new last axis k.

    Row-wise means that output row i depends on input row i only, as for a
    cross-covariance in its first argument, a diagonal or a posterior.
    """
    X = np.asarray(X, dtype=float)
    cols = []
    for k in range(X.shape[1]):
        step = np.zeros(X.shape[1])
        step[k] = h
        cols.append((f(X + step) - f(X - step)) / (2.0 * h))
    return np.stack(cols, axis=-1)
