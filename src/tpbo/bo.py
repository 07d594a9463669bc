"""Acquisition functions and the sequential optimization loop.

The loop proposes points by maximizing an acquisition surface over the
box [-1, 1]^n, the scale the auxiliary model's inputs were rescaled to,
evaluates the objective, and folds the result back into the posterior.
The maximizer scores a Latin-hypercube probe set in one batch, then
polishes the best `POLISH_STARTS` probes together in one bounded L-BFGS-B
run over their summed acquisition, with analytic gradients taken through
the covariance, the posterior and the acquisition.  Every entry point
polishes that many unless its caller asks for another count.  Probe scores
and polish evaluations are one body, ``_acquisition``, which asks the
posterior for gradients only with ``grad``.  An ask/tell split exposes the
same cycle to callers that run experiments out of process, with JSON
session files for persistence.

scipy is loaded on first use: ``scipy.special`` (for ``ndtr``) by the first
expected-improvement value, and ``scipy.optimize`` (for L-BFGS-B) by the
first pick that polishes, before the pick enters its one-BLAS-thread block.
``bench.run_benchmark`` imports ``scipy.optimize`` before it forks its
pool, so that its workers inherit the loaded modules instead of each
importing them again.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _blas
from .errors import _json_int, _write_json
from .gp import GpPosterior

logger = logging.getLogger(__name__)

ACQUISITION_KINDS = ("ei", "ucb")

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: How many of a pick's best probes start the L-BFGS-B polish.
POLISH_STARTS = 8


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which acquisition to use and the constants its schedule needs."""

    kind: str
    dim: int
    delta: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ACQUISITION_KINDS:
            raise ValueError(f"unknown acquisition kind {self.kind!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie strictly inside (0, 1)")


def _in_unit_box(x: np.ndarray) -> bool:
    """True when every coordinate lies in [-1, 1]; NaN and inf fail."""
    return bool(np.all(np.abs(x) <= 1.0))


def beta_t(t: int, dim: int, delta: float) -> float:
    """Confidence-width schedule: 2 log(n (t+1)^2 pi^2 / (6 delta))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie strictly inside (0, 1)")
    return 2.0 * math.log(dim * (t + 1) ** 2 * math.pi**2 / (6.0 * delta))


def _phi(z: np.ndarray) -> np.ndarray:
    # huge |z| overflows z*z before exp flushes to 0; the limit is exact
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / _SQRT_2PI


def _ei_terms(mean: np.ndarray, sd: np.ndarray, y_plus: float):
    """Expected improvement and its slopes in the mean and in the sd.

    Elementwise on arrays of one shape, with sd >= 0.  Where sd > 0, with
    z = (mean - y_plus) / sd, the value is (mean - y_plus) Phi(z) + sd phi(z)
    and the slopes are Phi(z) and phi(z); z, Phi(z) and phi(z) are computed
    once for all three.  Where sd = 0 the value is the pointwise limit
    max(mean - y_plus, 0): its mean slope is 1 above the incumbent and 0
    elsewhere, and the sd slope is taken as 0.  Returns (values, d_mean,
    d_sd); values are never negative.
    """
    from scipy.special import ndtr

    diff = mean - float(y_plus)
    values = np.maximum(diff, 0.0)
    d_mean = (diff > 0).astype(float)
    d_sd = np.zeros_like(d_mean)
    pos = sd > 0
    if np.any(pos):
        with np.errstate(over="ignore"):
            z = diff[pos] / sd[pos]
        cdf = ndtr(z)
        pdf = _phi(z)
        values[pos] = diff[pos] * cdf + sd[pos] * pdf
        d_mean[pos] = cdf
        d_sd[pos] = pdf
    return np.maximum(values, 0.0), d_mean, d_sd


@dataclass
class BoSession:
    """Mutable state of one optimization run; single-writer.

    Build one with `new_session`.  Points live in the box [-1, 1]^n, with
    n = `acquisition.dim`.  `iteration` counts the observations recorded
    through `tell`.
    """

    gp: GpPosterior
    acquisition: AcquisitionSpec
    rng_seed: int
    iteration: int = 0
    pending: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("iteration must be nonnegative")

    @property
    def best_so_far(self) -> Optional[tuple]:
        """(x, y) with the largest observed value, or None before any data."""
        obs = self.gp.obs
        if obs.size == 0:
            return None
        i = int(np.argmax(obs.values))
        return obs.points[i].copy(), float(obs.values[i])


def new_session(
    kernel,
    acquisition: AcquisitionSpec,
    seed: int,
    noise_var: float,
    init_points,
    init_values,
) -> BoSession:
    """Start a session from an initial design (which may be empty)."""
    init_points = _point_rows(init_points, acquisition.dim)
    init_values = np.asarray(init_values, dtype=float).reshape(-1)
    gp = GpPosterior.from_data(kernel, init_points, init_values, noise_var)
    return BoSession(gp=gp, acquisition=acquisition, rng_seed=int(seed))


def _point_rows(points, dim: int) -> np.ndarray:
    """Observation points as an (m, dim) array; rows of another width are an error."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return points.reshape(0, dim)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"observation points of shape {points.shape} are not rows of {dim}")
    return points


def rng_for(seed: int, iteration: int) -> np.random.Generator:
    """Independent stream per (seed, iteration); stable across platforms."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(iteration)]))


def _latin_hypercube(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n scrambled Latin-hypercube points in [0, 1)^d (McKay et al., 1979).

    Draws from a child spawned off `rng`, leaving the parent's own draws
    untouched; the points equal `scipy.stats.qmc.LatinHypercube(d=d,
    seed=rng).random(n)` bit for bit.
    """
    child = rng.spawn(1)[0]
    u = child.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        child.shuffle(row)
    return (perms.T - u) / n


def _acquisition(session: BoSession, X: np.ndarray, y_plus, grad: bool = False):
    """Acquisition values at the rows of X; with ``grad``, also their (m, n)
    gradients in X.

    The chain rule runs through sd = sqrt(var): d sd = d var / (2 sd).
    Where sd = 0 the sd term is dropped, and the gradient is the mean
    slope times the mean gradient.
    """
    gp, spec = session.gp, session.acquisition
    mean, var, *dpost = gp.posterior_grad(X) if grad else gp.posterior_batch(X)
    sd = np.sqrt(np.clip(var, 0.0, None))
    if spec.kind == "ei":
        values, d_mean, d_sd = _ei_terms(mean, sd, y_plus)
    else:
        w = math.sqrt(beta_t(session.iteration, spec.dim, spec.delta))
        values = mean + w * sd
        d_mean = np.ones_like(values)
        d_sd = np.full_like(values, w)
    if not grad:
        return values
    dmean, dvar = dpost
    pos = sd > 0
    d_var = np.zeros_like(values)
    d_var[pos] = d_sd[pos] / (2.0 * sd[pos])
    return values, d_mean[:, None] * dmean + d_var[:, None] * dvar


def maximize_acquisition(
    session: BoSession, refine_top: int = POLISH_STARTS
) -> np.ndarray:
    """Pick the next evaluation point inside the box [-1, 1]^n.

    Seeds 32 n Latin-hypercube probes from the session stream and scores
    them in one batch.  The best `refine_top` probes (`POLISH_STARTS` by
    default) then start one bounded L-BFGS-B run over their summed negated
    acquisition, with analytic gradients: the sum separates across starts,
    so each start follows its own gradient, at the cost of one batched
    posterior call per evaluation.  The polished points are re-scored in
    one batch, and the best of them is returned when it beats the best
    probe, which is returned otherwise, so the pick always scores at least
    as high as every probe.  On a flat surface, or one where the expected
    improvement underflows to 0 everywhere, the pick is therefore one of the
    seeded probes.  Scoring and polish run with every OpenBLAS in the process
    at one thread, and the counts are restored on return.  Expected
    improvement before any data exists is undefined: that pick is a seeded
    uniform point, and a warning is logged.
    """
    if refine_top < 1:
        raise ValueError("refine_top must be at least 1")
    spec = session.acquisition
    rng = rng_for(session.rng_seed, session.iteration)

    obs = session.gp.obs
    if spec.kind == "ei" and obs.size == 0:
        logger.warning(
            "expected improvement is undefined with no observations; "
            "returning a seeded random point"
        )
        return rng.uniform(-1.0, 1.0, spec.dim)
    y_plus = float(np.max(obs.values)) if obs.size else None

    from scipy.optimize import Bounds, minimize

    # the pick's matrices are small: `_blas` says why one thread is faster
    with _blas.single_thread():
        n_probes = 32 * spec.dim
        probes = -1.0 + _latin_hypercube(rng, n_probes, spec.dim) * 2.0
        values = _acquisition(session, probes, y_plus)
        order = np.argsort(-values)[:refine_top]
        starts = probes[order]

        def negated_sum(flat: np.ndarray):
            vals, grads = _acquisition(session, flat.reshape(starts.shape), y_plus, grad=True)
            return -float(np.sum(vals)), -grads.ravel()

        res = minimize(
            negated_sum,
            starts.ravel(),
            jac=True,
            method="L-BFGS-B",
            bounds=Bounds(-np.ones(starts.size), np.ones(starts.size)),
        )
        # L-BFGS-B keeps its iterates in the box up to rounding; the clip
        # settles that before the one re-scoring batch
        polished = np.clip(res.x.reshape(starts.shape), -1.0, 1.0)
        scores = _acquisition(session, polished, y_plus)
        best = int(np.argmax(scores))
        if scores[best] > values[order[0]]:
            return polished[best]
        return starts[0]


def ask(session: BoSession, refine_top: int = POLISH_STARTS) -> np.ndarray:
    """Suggest the next point; repeated calls return the stored suggestion."""
    if session.pending is not None:
        return session.pending.copy()
    x = maximize_acquisition(session, refine_top=refine_top)
    session.pending = x.copy()
    return x


def tell(session: BoSession, x, y: float) -> BoSession:
    """Record an observation and advance the iteration counter.

    Points that were never suggested (or differ from the pending
    suggestion) are accepted as external data but logged, since the
    surrogate they were chosen under is unknown.  Any pending suggestion
    is cleared: new data invalidates it.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != session.acquisition.dim:
        raise ValueError(
            f"point has dimension {x.shape[0]}, session expects "
            f"{session.acquisition.dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    if not _in_unit_box(x):
        raise ValueError("point lies outside the box [-1, 1]^n")
    y = float(y)
    if not math.isfinite(y):
        raise ValueError("observed value must be finite")

    if session.pending is None:
        logger.warning("observation arrived without a pending suggestion")
    elif not np.array_equal(x, session.pending):
        logger.warning("observation does not match the pending suggestion")
    session.gp = session.gp.add_observation(x, y)
    session.iteration += 1
    session.pending = None
    return session


def bo_step(
    session: BoSession,
    objective: Callable[[np.ndarray], float],
    refine_top: int = POLISH_STARTS,
) -> BoSession:
    """One select / evaluate / update cycle."""
    x = ask(session, refine_top=refine_top)
    return tell(session, x, float(objective(x)))


def save_session(session: BoSession, path: str) -> None:
    obs = session.gp.obs
    dim = session.acquisition.dim
    payload = {
        "domain": {"lo": [-1.0] * dim, "hi": [1.0] * dim},
        "iteration": session.iteration,
        "observations": {
            "points": obs.points.tolist(),
            "values": obs.values.tolist(),
        },
        "pending": None if session.pending is None else session.pending.tolist(),
        "seed": session.rng_seed,
        "acquisition": {
            "kind": session.acquisition.kind,
            "delta": session.acquisition.delta,
        },
        "noise_var": obs.noise_var,
    }
    _write_json(path, payload)


def load_session(path: str, kernel) -> BoSession:
    """Rebuild a session from its JSON file; the kernel is supplied by the caller.

    Any defect of the file is a `ValueError` that starts with
    ``malformed session file``; a missing file raises `FileNotFoundError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        domain = payload["domain"]
        dim = len(domain["lo"])
        if domain != {"lo": [-1.0] * dim, "hi": [1.0] * dim}:
            raise ValueError("the domain is not the box [-1, 1]^n")
        iteration = _json_int(payload["iteration"], "iteration")
        points = _point_rows(payload["observations"]["points"], dim)
        values = np.asarray(payload["observations"]["values"], dtype=float)
        if values.shape != points.shape[:1]:
            raise ValueError("observation arrays disagree")
        if iteration < 0 or iteration > points.shape[0]:
            raise ValueError("iteration exceeds observations")
        acquisition = payload["acquisition"]
        session = new_session(
            kernel,
            AcquisitionSpec(kind=acquisition["kind"], dim=dim, delta=float(acquisition["delta"])),
            _json_int(payload["seed"], "seed"),
            float(payload["noise_var"]),
            points,
            values,
        )
        session.iteration = iteration
        pending = payload["pending"]
        if pending is not None:
            pend = np.asarray(pending, dtype=float)
            if pend.shape != (dim,):
                raise ValueError("pending point dimension")
            if not _in_unit_box(pend):
                raise ValueError("pending point lies outside the box [-1, 1]^n")
            session.pending = pend
    except KeyError as exc:
        raise ValueError(f"malformed session file: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed session file: {exc}") from exc
    return session
