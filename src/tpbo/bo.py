"""Acquisition functions and the sequential optimization loop.

The loop proposes points by maximizing an acquisition surface over the
box [-1, 1]^n, the scale the auxiliary model's inputs were rescaled to,
evaluates the objective, and folds the result back into the posterior.
The maximizer scores a Latin-hypercube probe set in one batch, then
polishes the best `POLISH_STARTS` probes, each by its own projected
trust-region Newton steps with all starts in lock-step, on analytic
gradients taken through the covariance, the posterior and the acquisition.
Every entry point polishes that many unless its caller asks for another
count.  Probe scores and polish steps are one body, ``_acquisition``, which
asks the posterior for gradients only with ``grad``.  An ask/tell split
exposes the same cycle to callers that run experiments out of process,
with JSON session files for persistence.

scipy is loaded on first use: ``scipy.special`` (for ``ndtr``) by the first
expected-improvement value.  ``bench.run_benchmark`` imports it before it
forks its pool, so that its workers inherit the loaded module instead of
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
# trust radius and has the next call re-derive the Hessian
_POOR_RATIO = 0.25
# L-BFGS-B's default stopping tests: pgtol, and factr times the machine epsilon
_PG_TOL = 1e-5
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


def _polish(session: BoSession, starts: np.ndarray, y_plus) -> np.ndarray:
    """Each start's local maximizer of the acquisition in the box [-1, 1]^n.

    Every start takes its own projected trust-region Newton steps (Conn,
    Gould & Toint, 2000), all in lock-step: each step is one ``_acquisition``
    call, with gradients, on the trial points of the starts still running.
    A start whose model needs a fresh Hessian adds n copies of its trial
    point to that call, each moved `_FD_STEP` along one coordinate (inward
    on an upper face), and takes the symmetrized forward difference of the
    gradients.  That covers every start on the first call, and later each
    start whose last gain fell below `_POOR_RATIO` of the model's
    prediction; the other starts update their Hessian by SR1 from the trial
    gradient.  `_box_step` proposes each trial, and a trial is accepted only
    when it scores higher, so no start's value decreases.

    A start stops on L-BFGS-B's default tests applied to it alone: its
    projected gradient's largest entry is at most `_PG_TOL`, or an accepted
    step gained at most `_GAIN_TOL` times the larger of 1 and the two values.
    It also stops when its model predicts no gain above that tolerance or
    its step rounds away, and every start stops after `_POLISH_CALLS` calls.
    Returns the final points, in the order of `starts`.
    """
    k, n = starts.shape
    out = starts.copy()
    live = np.arange(k)
    x = trial = starts
    radius = np.full(k, _RADIUS)
    fresh = np.ones(k, dtype=bool)
    eye = np.eye(n)
    for call in range(_POLISH_CALLS):
        base = trial[fresh]
        h = np.where(base + _FD_STEP > 1.0, -_FD_STEP, _FD_STEP)
        shifted = (base[:, None, :] + h[:, :, None] * eye).reshape(-1, n)
        vals, grads = _acquisition(session, np.concatenate([trial, shifted]), y_plus, grad=True)
        m = len(trial)
        # the steps minimize the negated acquisition
        ft, gt = -vals[:m], -grads[:m]
        if call:
            step = trial - x
            gain = f - ft
            ratio = gain / pred
            # SR1, skipped where its denominator is tiny (Nocedal & Wright, 6.26)
            r = gt - g - (B @ step[:, :, None])[:, :, 0]
            rs = (r * step).sum(1)
            ss = (step * step).sum(1)
            sr1 = np.abs(rs) > 1e-8 * np.sqrt((r * r).sum(1) * ss)
            scale = np.divide(1.0, rs, out=np.zeros(m), where=sr1)
            B += scale[:, None, None] * r[:, :, None] * r[:, None, :]
            size = np.sqrt(ss)
            radius = np.where(
                ratio < _POOR_RATIO, 0.25 * size,
                np.where(ratio > 0.75, np.maximum(radius, 2.0 * size), radius),
            )
            accept = gain > 0.0
            stop = accept & (gain <= _GAIN_TOL * np.maximum(np.maximum(abs(f), abs(ft)), 1.0))
            x = np.where(accept[:, None], trial, x)
            f = np.where(accept, ft, f)
            g = np.where(accept[:, None], gt, g)
        else:
            f, g, B = ft, gt, np.empty((m, n, n))
            stop = np.zeros(m, dtype=bool)
        if fresh.any():
            diff = (-grads[m:].reshape(-1, n, n) - gt[fresh][:, None, :]) / h[:, :, None]
            B[fresh] = 0.5 * (diff + diff.transpose(0, 2, 1))
        fresh = ratio < _POOR_RATIO if call else np.zeros(m, dtype=bool)

        stop |= np.abs((x - g).clip(-1.0, 1.0) - x).max(1) <= _PG_TOL
        p, pred = _box_step(x, g, B, radius)
        trial = x + p
        stop |= (pred <= _GAIN_TOL * np.maximum(abs(f), 1.0)) | (trial == x).all(1)
        if stop.any():
            out[live[stop]] = x[stop]
            keep = ~stop
            live, x, f, g, B = live[keep], x[keep], f[keep], g[keep], B[keep]
            radius, pred, fresh, trial = radius[keep], pred[keep], fresh[keep], trial[keep]
            if not live.size:
                return out
    out[live] = x
    return out


def _box_step(x, g, B, radius):
    """Steps that minimize the models g·p + p·Bp/2 of the rows of x within
    their trust radius and the box, and the decrease each model predicts.

    A coordinate on a face whose gradient points out of the box is held.
    On the rest, the step solves the trust-region problem ||p|| <= radius
    through the eigendecomposition of B, by Newton's method on the secular
    equation (Moré & Sorensen, 1983) to 1% of the radius.  A step that
    leaves the box is projected onto it, or truncated at its first face
    where the model predicts that truncation gains more.
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
        curv = (gh[todo] ** 2 / d[todo] ** 3).sum(1)
        lam[todo] += q[todo] ** 2 * (q[todo] / radius[todo] - 1.0) / curv
    s = -(Q @ (gh / d)[:, :, None])[:, :, 0] * free

    p = (x + s).clip(-1.0, 1.0) - x
    gained = _decrease(g, B, p)
    bent = (np.abs(x + s) > 1.0).any(1)
    if bent.any():
        # the largest fraction of each bent step that stays in the box
        sb, xb = s[bent], x[bent]
        reach = np.where(sb > 0.0, 1.0 - xb, -1.0 - xb)
        frac = np.divide(reach, sb, out=np.ones_like(sb), where=sb != 0.0).min(1)
        cut = np.minimum(frac, 1.0)[:, None] * sb
        cut_gain = _decrease(g[bent], B[bent], cut)
        better = cut_gain > gained[bent]
        rows = np.flatnonzero(bent)[better]
        p[rows], gained[rows] = cut[better], cut_gain[better]
    return p, gained


def _decrease(g, B, p):
    """The decrease -(g·p + p·Bp/2) of each row's quadratic model."""
    return -(p * (g + 0.5 * (B @ p[:, :, None])[:, :, 0])).sum(1)


def maximize_acquisition(
    session: BoSession, refine_top: int = POLISH_STARTS
) -> np.ndarray:
    """Pick the next evaluation point inside the box [-1, 1]^n.

    Seeds 32 n Latin-hypercube probes from the session stream and scores
    them in one batch.  The best `refine_top` probes (`POLISH_STARTS` by
    default) then start `_polish`, which moves each start by its own
    projected trust-region Newton steps, all starts in lock-step, at one
    batched posterior call with analytic gradients per step.  The polished
    points are re-scored in one batch, and the best of them is returned
    when it beats the best probe, which is returned otherwise, so the pick
    always scores at least as high as every probe.  On a flat surface, or
    one where the expected improvement underflows to 0 everywhere, the pick
    is therefore one of the seeded probes.  Scoring and polish run with
    every OpenBLAS in the process at one thread, and the counts are restored
    on return.  A pick equal to an observed point logs a warning that names
    it, since evaluating it again only repeats a known value (the posterior
    mean of a low-rank covariance can peak on a box corner it has already
    observed).  Expected improvement before any data exists is undefined:
    that pick is a seeded uniform point, and a warning is logged.
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
        order = np.argsort(-values)[:refine_top]
        starts = probes[order]
        polished = _polish(session, starts, y_plus)
        scores = _acquisition(session, polished, y_plus)
        best = int(np.argmax(scores))
        pick = polished[best] if scores[best] > values[order[0]] else starts[0]
    if np.any(np.all(obs.points == pick, axis=1)):
        logger.warning("pick %s repeats an observed point", pick.tolist())
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
