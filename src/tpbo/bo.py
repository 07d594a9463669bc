"""Acquisition functions and the sequential optimization loop.

The loop proposes points by maximizing an acquisition surface over the
box [-1, 1]^n, the scale the auxiliary model's inputs were rescaled to,
evaluates the objective, and folds the result back into the posterior.
The maximizer scores a Latin-hypercube probe set in one batch, then
polishes the best `POLISH_STARTS` probes, each by its own projected
trust-region Newton steps with all starts in lock-step, on analytic
gradients taken through the covariance, the posterior and the acquisition.
A start's Hessian comes from forward differences in the polish's first
call and from SR1 updates after every later one, and a start stops when
its model predicts no gain, when its step rounds away, or at the call cap.
Each step tries one candidate per start, and the pick is the polished
point with the best value the polish scored, so a pick makes two kinds of
``_acquisition`` call: the probe batch and the polish steps.  Every entry
point polishes `POLISH_STARTS` probes unless its caller asks for another
count.  Probe scores and polish steps are one body, ``_acquisition``, which
asks the posterior for gradients only with ``grad``.  An ask/tell split
exposes the same cycle to callers that run experiments out of process,
with JSON session files for persistence.

scipy is loaded on first use: ``scipy.special`` (for ``ndtr``) by the first
expected-improvement value.  ``bench.run_benchmark`` imports it before it
forks its workers, so that they inherit the loaded module instead of
each importing it again.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _blas
from .errors import _json_int, _write_text
from .gp import GpPosterior

logger = logging.getLogger(__name__)

ACQUISITION_KINDS = ("ei", "ucb")

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: How many of a pick's best probes start the polish.
POLISH_STARTS = 8

# `_polish`'s forward-difference step for its Hessians, each start's first
# trust radius, and the most ``_acquisition`` calls one polish makes
_FD_STEP = 1e-6
_RADIUS = 0.5
_POLISH_CALLS = 40
# a step that gains less than this share of its predicted gain shrinks the
# trust radius
_POOR_RATIO = 0.25
# a start stops once its model predicts no gain above this share of its value
_GAIN_TOL = 1e7 * np.finfo(float).eps


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


def beta_t(t: int, dim: int, delta: float) -> float:
    """Confidence-width schedule: 2 log(n (t+1)^2 pi^2 / (6 delta))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie strictly inside (0, 1)")
    return 2.0 * math.log(dim * (t + 1) ** 2 * math.pi**2 / (6.0 * delta))


def _ei_terms(mean: np.ndarray, sd: np.ndarray, y_plus: float):
    """Expected improvement and its slopes in the mean and in the sd.

    Elementwise on arrays of one shape, with sd >= 0.  With z = (mean -
    y_plus) / sd, the value is (mean - y_plus) Phi(z) + sd phi(z) and the
    slopes are Phi(z) and phi(z); z, Phi(z) and phi(z) are computed once for
    all three, in one pass.  Where sd = 0, z is taken as +inf above the
    incumbent and -inf elsewhere, which gives the pointwise limits exactly:
    the value max(mean - y_plus, 0), a mean slope of 1 above the incumbent
    and 0 elsewhere, and an sd slope of 0.  Returns (values, d_mean, d_sd);
    values are never negative.
    """
    from scipy.special import ndtr

    diff = mean - float(y_plus)
    # a huge |z| overflows the divide, or z*z before exp flushes it to 0;
    # the limits are exact
    with np.errstate(over="ignore"):
        z = np.divide(diff, sd, out=np.where(diff > 0, np.inf, -np.inf), where=sd > 0)
        pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
    cdf = ndtr(z)
    return np.maximum(diff * cdf + sd * pdf, 0.0), cdf, pdf


@dataclass
class BoSession:
    """Mutable state of one optimization run; single-writer.

    Build one with `new_session` or `load_session`.  Its points, observed or
    pending, passed `_point_rows`: n = `acquisition.dim` finite coordinates
    in the box [-1, 1]^n.  `iteration` counts the observations from `tell`.
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
    """Start a session from an initial design, which may be empty; a design
    point that `_point_rows` rejects, such as one outside [-1, 1]^n, is a
    `ValueError`."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    init_points = _point_rows(init_points, acquisition.dim, "observation points")
    init_values = np.asarray(init_values, dtype=float).reshape(-1)
    gp = GpPosterior.from_data(kernel, init_points, init_values, noise_var)
    return BoSession(gp=gp, acquisition=acquisition, rng_seed=int(seed))


def _point_rows(points, dim: int, label: str) -> np.ndarray:
    """The one rule for session points: rows of `dim` finite coordinates in
    [-1, 1]^n, the box the prior's inputs were rescaled to, as an (m, dim)
    array.  Anything else, such as a point outside the box (never clipped
    into it), is a `ValueError` whose message starts with `label`."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return points.reshape(0, dim)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"{label}: shape {points.shape} is not rows of {dim}")
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{label}: coordinates must be finite")
    if not np.all(np.abs(points) <= 1.0):
        raise ValueError(f"{label}: outside the box [-1, 1]^n")
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
    sd = np.sqrt(var)  # the posterior's variances are never negative
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
    d_var = np.divide(d_sd, 2.0 * sd, out=np.zeros_like(values), where=sd > 0)
    return values, d_mean[:, None] * dmean + d_var[:, None] * dvar


def _polish(session: BoSession, starts: np.ndarray, y_plus):
    """Each start's local maximizer of the acquisition in the box [-1, 1]^n,
    and its acquisition value.

    Every start takes its own projected trust-region Newton steps (Conn,
    Gould & Toint, 2000), all in lock-step at one ``_acquisition`` call with
    gradients per step.  The first call scores the k starts and, for each, n copies
    moved `_FD_STEP` along one coordinate (inward on an upper face): k (1 + n)
    rows, from which each start's Hessian is the symmetrized forward
    difference of the gradients.  Every later call scores only the trial
    points of the starts still running, and SR1 updates each Hessian from
    its trial gradient.  `_box_step` proposes each trial, and a trial is
    accepted only when it scores higher, so no start's value decreases.

    A start stops when its model predicts a gain of at most `_GAIN_TOL`
    times the larger of 1 and its value, when its step rounds away, or
    after `_POLISH_CALLS` calls.  Returns the final points, in the order of
    `starts`, and their values from the call that scored them.
    """
    k, n = starts.shape
    out, top = starts.copy(), np.empty(k)
    h = np.where(starts + _FD_STEP > 1.0, -_FD_STEP, _FD_STEP)
    shifted = (starts[:, None, :] + h[:, :, None] * np.eye(n)).reshape(-1, n)
    vals, grads = _acquisition(session, np.concatenate([starts, shifted]), y_plus, grad=True)
    # the steps minimize the negated acquisition
    f, g = -vals[:k], -grads[:k]
    diff = (-grads[k:].reshape(k, n, n) - g[:, None, :]) / h[:, :, None]
    B = 0.5 * (diff + diff.transpose(0, 2, 1))
    x, live, radius = starts, np.arange(k), np.full(k, _RADIUS)
    for _ in range(_POLISH_CALLS - 1):
        p, pred = _box_step(x, g, B, radius)
        trial = x + p
        stop = (pred <= _GAIN_TOL * np.maximum(abs(f), 1.0)) | (trial == x).all(1)
        if stop.any():
            out[live[stop]], top[live[stop]] = x[stop], -f[stop]
            keep = ~stop
            live, x, f, g, B, radius, pred, trial = (
                a[keep] for a in (live, x, f, g, B, radius, pred, trial)
            )
            if not live.size:
                return out, top
        vals, grads = _acquisition(session, trial, y_plus, grad=True)
        ft, gt = -vals, -grads
        step = trial - x
        gain = f - ft
        ratio = gain / pred
        # SR1, skipped where its denominator is tiny (Nocedal & Wright, 6.26)
        r = gt - g - (B @ step[:, :, None])[:, :, 0]
        rs = (r * step).sum(1)
        ss = (step * step).sum(1)
        sr1 = np.abs(rs) > 1e-8 * np.sqrt((r * r).sum(1) * ss)
        scale = np.divide(1.0, rs, out=np.zeros(len(rs)), where=sr1)
        B += scale[:, None, None] * r[:, :, None] * r[:, None, :]
        size = np.sqrt(ss)
        radius = np.where(
            ratio < _POOR_RATIO, 0.25 * size,
            np.where(ratio > 0.75, np.maximum(radius, 2.0 * size), radius),
        )
        accept = gain > 0.0
        x = np.where(accept[:, None], trial, x)
        f = np.where(accept, ft, f)
        g = np.where(accept[:, None], gt, g)
    out[live], top[live] = x, -f
    return out, top


def _box_step(x, g, B, radius):
    """Steps that minimize the models g·p + p·Bp/2 of the rows of x within
    their trust radius and the box, and the decrease each model predicts.

    A coordinate on a face whose gradient points out of the box is held.
    On the rest, the step solves the trust-region problem ||p|| <= radius
    through the eigendecomposition of B, by Newton's method on the secular
    equation (Moré & Sorensen, 1983) to 1% of the radius.  A step that
    leaves the box is projected onto it.
    """
    free = (np.abs(x) < 1.0) | (g * x >= 0.0)
    # a held coordinate's row and column become the identity's
    model = B * (free[:, :, None] & free[:, None, :]) + ~free[:, :, None] * np.eye(x.shape[1])
    w, Q = np.linalg.eigh(model)
    gh = ((g * free)[:, None, :] @ Q)[:, 0, :]
    # the root lies right of every |gh_i| / radius - w_i and of -w_min; the
    # shift keeps every w_i + lam positive, and is all a Newton step changes
    lo = np.maximum(-w[:, 0], 0.0)
    lam = np.maximum(
        (np.abs(gh) / radius[:, None] - w).max(1),
        lo + 1e-12 * np.maximum(lo, abs(w[:, -1])) + 1e-300,
    )
    for _ in range(50):
        d = w + lam[:, None]
        q = np.sqrt(((gh / d) ** 2).sum(1))
        todo = q > 1.01 * radius
        if not todo.any():
            break
        # (gh / d)^2 / d, not gh^2 / d^3, which underflows to 0 for a tiny gradient
        curv = ((gh[todo] / d[todo]) ** 2 / d[todo]).sum(1)
        lam[todo] += q[todo] ** 2 * (q[todo] / radius[todo] - 1.0) / curv
    s = -(Q @ (gh / d)[:, :, None])[:, :, 0] * free
    p = (x + s).clip(-1.0, 1.0) - x
    return p, -(p * (g + 0.5 * (B @ p[:, :, None])[:, :, 0])).sum(1)


def maximize_acquisition(
    session: BoSession, refine_top: int = POLISH_STARTS
) -> np.ndarray:
    """Pick the next evaluation point inside the box [-1, 1]^n.

    Seeds 32 n Latin-hypercube probes from the session stream and scores
    them in one batch.  The best `refine_top` probes (`POLISH_STARTS` by
    default) then start `_polish`, which moves each start by its own
    projected trust-region Newton steps, all starts in lock-step, at one
    batched posterior call with analytic gradients per step.  The pick is
    the polished point with the largest value the polish scored; nothing is
    scored again.  A start's value never falls, so the pick scores at least
    as high as every probe, up to the rounding between two batches.  On a
    flat surface, or one where the expected improvement underflows to 0
    everywhere, the pick is therefore one of the seeded probes.  Scoring and
    polish run with every OpenBLAS in the process at one thread, and the
    counts are restored on return.  A pick equal to an observed point logs a
    warning that names it and the session's seed and iteration, since
    evaluating it again only repeats a known value (the posterior mean of a
    low-rank covariance can peak on a box corner it has already observed).
    Expected improvement before any data exists is undefined: that pick is
    a seeded uniform point, and a warning is logged.
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

    # the pick's matrices are small: `_blas` says why one thread is faster
    with _blas.single_thread():
        n_probes = 32 * spec.dim
        probes = -1.0 + _latin_hypercube(rng, n_probes, spec.dim) * 2.0
        values = _acquisition(session, probes, y_plus)
        starts = probes[np.argsort(-values)[:refine_top]]
        polished, scores = _polish(session, starts, y_plus)
        pick = polished[int(np.argmax(scores))]
    if np.any(np.all(obs.points == pick, axis=1)):
        logger.warning(
            "pick %s repeats an observed point (session seed %d, iteration %d)",
            pick.tolist(), session.rng_seed, session.iteration,
        )
    return pick


def ask(session: BoSession, refine_top: int = POLISH_STARTS) -> np.ndarray:
    """Suggest the next point; repeated calls return the stored suggestion."""
    if session.pending is not None:
        return session.pending.copy()
    x = maximize_acquisition(session, refine_top=refine_top)
    session.pending = x.copy()
    return x


def tell(session: BoSession, x, y: float) -> BoSession:
    """Record an observation and advance the iteration counter.

    `x` must pass `_point_rows` and `y` must be finite.  Points that were
    never suggested (or differ from the pending suggestion) are accepted as
    external data but logged, since the surrogate they were chosen under is
    unknown.  Any pending suggestion is cleared: new data invalidates it.
    """
    x = _point_rows([x], session.acquisition.dim, "point")[0]
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
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def load_session(path: str, kernel) -> BoSession:
    """Rebuild a session from its JSON file; the kernel is supplied by the caller.

    Its observations and pending point must pass `_point_rows`, as a design
    point and a told point must.  Any defect of the file is a `ValueError`
    that starts with ``malformed session file``; a missing file raises
    `FileNotFoundError`.
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
        values = np.asarray(payload["observations"]["values"], dtype=float)
        acquisition = payload["acquisition"]
        session = new_session(
            kernel,
            AcquisitionSpec(kind=acquisition["kind"], dim=dim, delta=float(acquisition["delta"])),
            _json_int(payload["seed"], "seed"),
            float(payload["noise_var"]),
            payload["observations"]["points"],
            values,
        )
        if values.shape != (session.gp.obs.size,):
            raise ValueError("observation arrays disagree")
        if iteration < 0 or iteration > session.gp.obs.size:
            raise ValueError("iteration exceeds observations")
        session.iteration = iteration
        if payload["pending"] is not None:
            session.pending = _point_rows([payload["pending"]], dim, "pending point")[0]
    except KeyError as exc:
        raise ValueError(f"malformed session file: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed session file: {exc}") from exc
    return session
