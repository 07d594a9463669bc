"""Acquisition and optimization-loop tests."""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import qmc

from numdiff import central_differences
from tpbo.bo import (
    AcquisitionSpec,
    BoSession,
    ask,
    beta_t,
    bo_step,
    load_session,
    maximize_acquisition,
    new_session,
    rng_for,
    save_session,
    tell,
)
import tpbo.bo
from tpbo.gp import ArdSeKernel, Observations, SeKernel
from tpbo.mkernel import FAMILIES, FreeKernelSpec, TunedKernel


def scaled_himmelblau(x):
    """Four-well benchmark surface mapped into the unit box, sign-flipped."""
    a, b = 5.0 * x[0], 5.0 * x[1]
    return -((a * a + b - 11.0) ** 2 + (a + b * b - 7.0) ** 2) / 100.0


def small_session(seed=5, kind="ei", nu=3.0, noise_var=1e-6):
    spec = AcquisitionSpec(kind=kind, dim=2)
    pts = np.array([[0.5, -0.5], [-0.25, 0.75]])
    vals = np.array([scaled_himmelblau(p) for p in pts])
    return new_session(SeKernel(nu), spec, seed=seed, noise_var=noise_var,
                       init_points=pts, init_values=vals)


def ei(mean, sd, y_plus):
    """Expected improvement from `_ei_terms`: a float for scalar arguments,
    an array for arrays."""
    mean, sd = np.broadcast_arrays(np.asarray(mean, dtype=float), np.asarray(sd, dtype=float))
    values = tpbo.bo._ei_terms(np.atleast_1d(mean), np.atleast_1d(sd), y_plus)[0]
    return float(values[0]) if mean.ndim == 0 else values


class TestEi:
    def test_value_at_zero_z(self):
        # (m - y+)Phi(0) + sd*phi(0) with m = y+ collapses to phi(0)
        assert ei(2.0, 1.0, 2.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_zero_sd_below_incumbent(self):
        assert ei(0.0, 0.0, 1.0) == 0.0
        assert ei(1.0, 0.0, 1.0) == 0.0

    def test_zero_sd_deterministic_improvement(self):
        assert ei(3.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_batch_matches_scalar(self):
        means = np.array([-1.0, 0.0, 0.5, 2.0])
        sds = np.array([0.0, 0.3, 1.0, 2.5])
        batch = ei(means, sds, 0.4)
        for m, s, b in zip(means, sds, batch):
            assert b == pytest.approx(ei(float(m), float(s), 0.4), rel=1e-14, abs=1e-300)

    @given(
        mean=st.floats(-50, 50),
        sd=st.floats(0, 50),
        y_plus=st.floats(-50, 50),
    )
    @settings(max_examples=60)
    def test_nonnegative(self, mean, sd, y_plus):
        assert ei(mean, sd, y_plus) >= 0.0

    @given(
        m_lo=st.floats(-20, 20),
        bump=st.floats(0, 20),
        sd=st.floats(0, 20),
        y_plus=st.floats(-20, 20),
    )
    @settings(max_examples=60)
    def test_nondecreasing_in_mean(self, m_lo, bump, sd, y_plus):
        assert ei(m_lo + bump, sd, y_plus) >= ei(m_lo, sd, y_plus) - 1e-12

    @given(
        gap=st.floats(0, 20),
        s_lo=st.floats(0, 20),
        widen=st.floats(0, 20),
        y_plus=st.floats(-20, 20),
    )
    @settings(max_examples=60)
    def test_nondecreasing_in_sd_below_incumbent(self, gap, s_lo, widen, y_plus):
        mean = y_plus - gap
        assert ei(mean, s_lo + widen, y_plus) >= ei(mean, s_lo, y_plus) - 1e-12


class TestUcb:
    POINTS = np.array([[0.1, 0.2], [-0.6, 0.4], [0.3, -0.2]])

    def test_schedule_at_origin(self):
        # n = 2, t = 0, delta = 0.1: the bound is the mean plus sqrt(beta_0) sd
        expected = 2.0 * math.log(2.0 * math.pi**2 / 0.6)
        assert beta_t(0, 2, 0.1) == pytest.approx(expected, rel=1e-15)
        session = quadratic_surrogate_session("ucb", incumbent=0.0, var=1.0)
        mean, _ = session.gp.posterior_batch(self.POINTS)
        width = tpbo.bo._acquisition(session, self.POINTS, None) - mean
        assert width == pytest.approx(np.full(3, math.sqrt(expected)), rel=1e-14)

    def test_zero_sd_returns_mean(self):
        session = quadratic_surrogate_session("ucb", incumbent=0.0)
        session.iteration = 9
        mean, _ = session.gp.posterior_batch(self.POINTS)
        assert np.array_equal(tpbo.bo._acquisition(session, self.POINTS, None), mean)

    def test_schedule_grows_with_t(self):
        vals = [beta_t(t, 4, 0.1) for t in range(6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            beta_t(-1, 2, 0.1)
        with pytest.raises(ValueError):
            beta_t(0, 2, 1.5)


class TestSpecsAndBox:
    def test_acquisition_spec_validation(self):
        with pytest.raises(ValueError):
            AcquisitionSpec(kind="pi", dim=2)
        with pytest.raises(ValueError):
            AcquisitionSpec(kind="ei", dim=0)
        with pytest.raises(ValueError):
            AcquisitionSpec(kind="ei", dim=2, delta=0.0)
        with pytest.raises(ValueError):
            AcquisitionSpec(kind="ei", dim=2, delta=1.0)

    def test_box_membership_and_clip(self):
        # the box's edge is inside it and a point just past it is not, for a
        # told point and an initial design point alike
        spec = AcquisitionSpec(kind="ei", dim=2)
        edge, past = [1.0, -1.0], [1.0 + 1e-9, 0.0]
        assert tell(small_session(), edge, 0.0).gp.obs.size == 3
        assert new_session(SeKernel(1.0), spec, 0, 1e-6, [edge], [0.0]).gp.obs.size == 1
        with pytest.raises(ValueError, match=r"outside the box \[-1, 1\]\^n"):
            tell(small_session(), past, 0.0)
        with pytest.raises(ValueError, match=r"outside the box \[-1, 1\]\^n"):
            new_session(SeKernel(1.0), spec, 0, 1e-6, [past], [0.0])
        # a point outside the box is rejected by tell, never clipped into it
        s = small_session()
        with pytest.raises(ValueError, match=r"outside the box \[-1, 1\]\^n"):
            tell(s, [2.0, -3.0], 0.0)
        assert s.gp.obs.size == 2


class DeterministicSurrogate:
    """Duck-typed posterior with a constant variance (zero by default); the
    mean is an exact function.

    `grad` is the mean's gradient, a function of one point.
    """

    def __init__(self, fn, grad, dim, incumbent, var=0.0):
        self.fn = fn
        self.grad = grad
        self.var = var
        self.obs = Observations(np.zeros((1, dim)), np.array([incumbent]), 0.0)

    def posterior_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mean = np.array([self.fn(x) for x in X])
        return mean, np.full(X.shape[0], self.var)

    def posterior_grad(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        mean, var = self.posterior_batch(X)
        dmean = np.array([self.grad(x) for x in X], dtype=float).reshape(X.shape)
        return mean, var, dmean, np.zeros(X.shape)


class CountingKernel:
    """A covariance with only the three methods of the protocol, which
    records the size of every point set it is prepared against."""

    def __init__(self, kernel):
        self.kernel, self.prepared = kernel, []

    def against(self, D):
        self.prepared.append(len(D))
        return self.kernel.against(D)

    def diag(self, X):
        return self.kernel.diag(X)

    def diag_grad(self, X):
        return self.kernel.diag_grad(X)


class TestMaximizer:
    def test_matches_grid_oracle_1d(self):
        # sd == 0 makes EI equal max(mean - incumbent, 0), so the argmax is
        # the surrogate's own maximizer; a fine grid provides the reference.
        center = 0.3517
        fn = lambda x: 1.0 - (x[0] - center) ** 2
        grad = lambda x: [-2.0 * (x[0] - center)]
        session = BoSession(
            gp=DeterministicSurrogate(fn, grad, 1, incumbent=-1.0),
            acquisition=AcquisitionSpec(kind="ei", dim=1),
            rng_seed=42,
        )
        x = maximize_acquisition(session)
        grid = np.arange(-1.0, 1.0 + 1e-4, 1e-4)
        grid_vals = np.array([ei(fn([g]), 0.0, -1.0) for g in grid])
        x_grid = grid[int(np.argmax(grid_vals))]
        assert abs(x[0] - x_grid) <= 1e-3
        assert ei(fn(x), 0.0, -1.0) >= float(np.max(grid_vals)) - 1e-6

    @pytest.mark.parametrize("name", ["se", "ard", "polynomial"])
    def test_each_posterior_prepares_once(self, monkeypatch, name):
        # the probe batch and every polish step of a pick evaluate one
        # cross, prepared against the session's observations
        base = golden_pick_session(name, "ei").gp.kernel if name != "se" else SeKernel(3.0)
        kernel = CountingKernel(base)
        pts = np.array([[0.5, -0.5], [-0.25, 0.75]])
        session = new_session(kernel, AcquisitionSpec(kind="ei", dim=2), seed=11,
                              noise_var=1e-6, init_points=pts,
                              init_values=[scaled_himmelblau(p) for p in pts])
        score = tpbo.bo._acquisition
        grads = []

        def recording(session, X, y_plus, grad=False):
            grads.append(grad)
            return score(session, X, y_plus, grad)

        monkeypatch.setattr(tpbo.bo, "_acquisition", recording)
        for step in range(3):
            grads.clear()
            session = bo_step(session, scaled_himmelblau)
            assert grads[0] is False and len(grads) > 2 and all(grads[1:])
            assert kernel.prepared == [len(pts) + t for t in range(step + 1)]

    def test_deterministic_given_seed(self):
        a = maximize_acquisition(small_session(seed=123), refine_top=2)
        b = maximize_acquisition(small_session(seed=123), refine_top=2)
        assert np.array_equal(a, b)
        # calling on the same live session twice is also stable
        s = small_session(seed=123)
        assert np.array_equal(maximize_acquisition(s, refine_top=2),
                              maximize_acquisition(s, refine_top=2))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_latin_hypercube_matches_scipy(self, d):
        for seed in (0, 1, 7, 123, 2**31 - 1):
            for iteration, n in ((0, 32 * d), (3, 32 * d), (11, 5)):
                ours, theirs = rng_for(seed, iteration), rng_for(seed, iteration)
                got = tpbo.bo._latin_hypercube(ours, n, d)
                want = qmc.LatinHypercube(d=d, seed=theirs).random(n)
                assert got.shape == (n, d)
                assert np.array_equal(got, want)
                # the parent stream is left where scipy leaves it
                assert ours.uniform() == theirs.uniform()

    def test_result_stays_in_box(self):
        for seed in (0, 1, 2):
            x = maximize_acquisition(small_session(seed=seed, kind="ucb"), refine_top=2)
            assert np.all(x >= -1.0) and np.all(x <= 1.0)

    @pytest.mark.parametrize("refine_top", [1, 2, None])
    @pytest.mark.parametrize("kind", ["ei", "ucb"])
    def test_beats_every_probe(self, monkeypatch, kind, refine_top):
        score = tpbo.bo._acquisition
        batches = []

        def recording(session, X, y_plus, grad=False):
            out = score(session, X, y_plus, grad)
            if not grad:
                batches.append((X.copy(), out.copy()))
            return out

        monkeypatch.setattr(tpbo.bo, "_acquisition", recording)
        session = small_session(seed=4, kind=kind)
        x = maximize_acquisition(session, **polish_size(refine_top))
        probes, probe_values = batches[0]
        assert probes.shape == (64, 2)
        y_plus = float(np.max(session.gp.obs.values))
        assert score(session, x[None, :], y_plus)[0] >= np.max(probe_values)
        assert np.all(np.abs(x) <= 1.0)

    @pytest.mark.parametrize("refine_top", [1, 2, None])
    @pytest.mark.parametrize("kind", ["ei", "ucb"])
    def test_one_polish_per_pick(self, monkeypatch, kind, refine_top):
        polish, score = tpbo.bo._polish, tpbo.bo._acquisition
        runs, steps = [], []

        def recording_polish(session, starts, y_plus):
            out, values = polish(session, starts, y_plus)
            runs.append((starts.copy(), y_plus, out.copy(), values.copy()))
            return out, values

        def recording_score(session, X, y_plus, grad=False):
            steps.append((grad, X.copy()))
            return score(session, X, y_plus, grad)

        monkeypatch.setattr(tpbo.bo, "_polish", recording_polish)
        monkeypatch.setattr(tpbo.bo, "_acquisition", recording_score)
        session = small_session(seed=6, kind=kind)
        for step in range(3):
            y_plus = float(np.max(session.gp.obs.values))
            steps.clear()
            x = maximize_acquisition(session, **polish_size(refine_top))
            assert len(runs) == step + 1
            starts, seen_y_plus, out, values = runs[-1]
            assert starts.shape == out.shape == (refine_top or 8, 2)  # 8 starts by default
            assert seen_y_plus == y_plus
            # the probe batch is the one pass without gradients; every polish
            # step asks for them at points in the box, the first at every start
            assert [grad for grad, _ in steps] == [False] + [True] * (len(steps) - 1)
            assert len(steps) > 1 and np.array_equal(steps[1][1][: len(starts)], starts)
            assert all(np.all(np.abs(X) <= 1.0) for _, X in steps)
            assert np.all(score(session, out, y_plus) >= score(session, starts, y_plus))
            # the pick is the polished point with the largest polish value
            assert np.array_equal(x, out[np.argmax(values)])
            tell(session, x, scaled_himmelblau(x))

    def test_bo_step_polishes_eight_starts_by_default(self, monkeypatch):
        starts = []
        polish = tpbo.bo._polish

        def recording(session, X, y_plus):
            starts.append(X.shape)
            return polish(session, X, y_plus)

        monkeypatch.setattr(tpbo.bo, "_polish", recording)
        session = bo_step(small_session(seed=6), scaled_himmelblau)
        assert starts == [(8, 2)]
        assert session.iteration == 1

    def test_fallback_pick_runs_no_polish(self, monkeypatch):
        monkeypatch.setattr(tpbo.bo, "_polish", None)  # any call would fail
        spec = AcquisitionSpec(kind="ei", dim=2)
        session = new_session(SeKernel(1.0), spec, seed=9, noise_var=1e-6,
                              init_points=np.zeros((0, 2)), init_values=[])
        assert maximize_acquisition(session).shape == (2,)

    @staticmethod
    def silent_pick(session, caplog):
        """The pick of `session`, checked to lie in the box, to repeat on
        the same seed and to log nothing."""
        with caplog.at_level(logging.DEBUG, logger="tpbo"):
            x = maximize_acquisition(session)
            assert np.array_equal(x, maximize_acquisition(session))
        assert not caplog.records
        assert np.all(x >= -1.0) and np.all(x <= 1.0)
        return x

    def test_flat_ucb_on_empty_data(self, caplog):
        # stationary prior with no data gives a constant upper bound
        spec = AcquisitionSpec(kind="ucb", dim=2)
        session = new_session(SeKernel(1.0), spec, seed=9, noise_var=1e-6,
                              init_points=np.zeros((0, 2)), init_values=[])
        self.silent_pick(session, caplog)

    def test_zero_ei_everywhere(self, caplog):
        # the mean peaks at 0.5, below the incumbent, and the spread is 0
        self.silent_pick(quadratic_surrogate_session("ei", incumbent=1.0), caplog)

    def test_underflowing_ei_still_ranks_the_probes(self, caplog):
        # every probe's EI is at most 6.1e-93, but the best probe's is not 0
        session = quadratic_surrogate_session("ei", incumbent=1.5, var=0.05**2)
        probes = -1.0 + tpbo.bo._latin_hypercube(rng_for(1, 0), 64, 2) * 2.0
        values = tpbo.bo._acquisition(session, probes, 1.5)
        assert 0.0 < np.max(values) <= 6.1e-93
        x = self.silent_pick(session, caplog)
        assert tpbo.bo._acquisition(session, x[None, :], 1.5)[0] >= np.max(values)

    def test_ei_with_no_data_flagged(self, caplog):
        spec = AcquisitionSpec(kind="ei", dim=2)
        session = new_session(SeKernel(1.0), spec, seed=3, noise_var=1e-6,
                              init_points=np.zeros((0, 2)), init_values=[])
        with caplog.at_level(logging.WARNING, logger="tpbo.bo"):
            x = maximize_acquisition(session)
        assert [rec.name for rec in caplog.records] == ["tpbo.bo"]
        assert np.all(x >= -1.0) and np.all(x <= 1.0)

    def test_refine_top_validation(self):
        with pytest.raises(ValueError):
            maximize_acquisition(small_session(), refine_top=0)
        # None is not a polish size
        with pytest.raises(TypeError):
            maximize_acquisition(small_session(), refine_top=None)
        # expected improvement with no data falls back without polishing;
        # a bad refine_top is still an error there
        spec = AcquisitionSpec(kind="ei", dim=2)
        empty = new_session(SeKernel(1.0), spec, seed=3, noise_var=1e-6,
                            init_points=np.zeros((0, 2)), init_values=[])
        for refine_top in (0, -3):
            with pytest.raises(ValueError, match="refine_top"):
                maximize_acquisition(empty, refine_top=refine_top)


def polish_size(refine_top):
    """Keyword arguments for a pick: None leaves the default polish size."""
    return {} if refine_top is None else {"refine_top": refine_top}


def quadratic_surrogate_session(kind, incumbent, var=0.0):
    """Session whose mean peaks at 0.5 above the point (0.3, -0.2), with a
    constant variance (zero by default)."""
    center = np.array([0.3, -0.2])
    return BoSession(
        gp=DeterministicSurrogate(
            lambda x: 0.5 - float(np.sum((x - center) ** 2)),
            lambda x: -2.0 * (x - center),
            2,
            incumbent=incumbent,
            var=var,
        ),
        acquisition=AcquisitionSpec(kind=kind, dim=2),
        rng_seed=1,
    )


class TestAcquisitionGradients:
    POINTS = np.array([[0.1, 0.2], [-0.6, 0.4], [0.9, -0.9], [0.0, 0.05]])

    @staticmethod
    def check(session, X, y_plus):
        values, grads = tpbo.bo._acquisition(session, X, y_plus, grad=True)
        score = lambda Y: tpbo.bo._acquisition(session, Y, y_plus)
        assert np.array_equal(values, score(X))
        want = central_differences(score, X)
        scale = float(np.max(np.abs(want)))
        assert grads == pytest.approx(want, rel=1e-6, abs=1e-7 * scale)
        return values, grads

    @pytest.mark.parametrize("kind", ["ei", "ucb"])
    def test_positive_sd(self, kind):
        session = small_session(kind=kind, nu=2.0, noise_var=1e-4)
        _, var = session.gp.posterior_batch(self.POINTS)
        assert np.all(var > 0)
        y_plus = float(np.max(session.gp.obs.values))
        _, grads = self.check(session, self.POINTS, y_plus)
        assert np.all(np.any(grads != 0.0, axis=1))

    @pytest.mark.parametrize("kind", ["ei", "ucb"])
    def test_zero_sd_mean_above_incumbent(self, kind):
        # every point's mean beats the incumbent: both gradients are the mean's
        session = quadratic_surrogate_session(kind, incumbent=-5.0)
        _, grads = self.check(session, self.POINTS, -5.0)
        _, _, dmean, _ = session.gp.posterior_grad(self.POINTS)
        assert np.array_equal(grads, dmean)

    def test_zero_sd_mean_at_or_below_incumbent(self):
        # expected improvement is 0 near each point, and so is its gradient;
        # the upper bound still follows the mean
        session = quadratic_surrogate_session("ei", incumbent=0.5)
        values, grads = self.check(session, self.POINTS, 0.5)
        assert np.all(values == 0.0) and np.all(grads == 0.0)
        session = quadratic_surrogate_session("ucb", incumbent=0.5)
        _, grads = self.check(session, self.POINTS, 0.5)
        assert np.array_equal(grads, session.gp.posterior_grad(self.POINTS)[2])

    @staticmethod
    def reference_terms(mean, sd, y_plus):
        """Expected improvement and its slopes by the separate expressions that
        `_ei_terms` folded together, each computing z on its own."""
        diff = mean - y_plus
        values = np.maximum(diff, 0.0)
        d_mean = (diff > 0).astype(float)
        d_sd = np.zeros_like(d_mean)
        pos = sd > 0
        with np.errstate(over="ignore"):
            z = diff[pos] / sd[pos]
            values[pos] = diff[pos] * ndtr(z) + sd[pos] * (
                np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            )
            z = diff[pos] / sd[pos]
            d_mean[pos] = ndtr(z)
            d_sd[pos] = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return np.maximum(values, 0.0), d_mean, d_sd

    @pytest.mark.parametrize(
        "mean, sd",
        [
            ([-1.0, 0.4, 0.5, 2.0], [0.3, 1.0, 2.5, 0.7]),  # sd > 0
            ([0.7, 0.4, 0.1], [0.0, 0.0, 0.0]),  # sd = 0
            ([0.7, -0.3, 0.4, 0.41, 0.1], [0.0, 0.2, 0.0, 1e-12, 3.0]),  # mixed
            # huge |z|: z overflows to +-inf, or nearly so
            ([1e300, -1e300, 0.4 + 1e-3, 0.4 - 1e-3], [1e-300, 1e-300, 1e-308, 1e-308]),
        ],
    )
    def test_ei_terms_bit_identical(self, mean, sd):
        mean, sd = np.array(mean), np.array(sd)
        terms = tpbo.bo._ei_terms(mean, sd, 0.4)
        for got, want in zip(terms, self.reference_terms(mean, sd, 0.4)):
            assert np.array_equal(got, want)
        values = terms[0]
        assert np.all(values >= 0.0) and np.all(np.isfinite(values))

    def test_ei_terms_finite_differences(self):
        mean = np.array([-1.0, 0.4, 0.5, 2.0])
        sd = np.array([0.3, 1.0, 2.5, 0.7])
        _, d_mean, d_sd = tpbo.bo._ei_terms(mean, sd, 0.4)
        h = 1e-6
        want = (ei(mean + h, sd, 0.4) - ei(mean - h, sd, 0.4)) / (2 * h)
        assert d_mean == pytest.approx(want, rel=1e-7)
        want = (ei(mean, sd + h, 0.4) - ei(mean, sd - h, 0.4)) / (2 * h)
        assert d_sd == pytest.approx(want, rel=1e-7)
        # sd = 0: the slope of max(mean - y_plus, 0), and no sd term
        _, d_mean, d_sd = tpbo.bo._ei_terms(np.array([0.7, 0.4, 0.1]), np.zeros(3), 0.4)
        assert list(d_mean) == [1.0, 0.0, 0.0] and list(d_sd) == [0.0, 0.0, 0.0]


class TestAskTell:
    def test_ask_then_tell_grows_data(self):
        s = small_session()
        x = ask(s, refine_top=2)
        assert s.gp.obs.size == 2
        tell(s, x, scaled_himmelblau(x))
        assert s.gp.obs.size == 3
        assert s.iteration == 1
        assert s.pending is None

    def test_repeated_ask_is_idempotent(self):
        s = small_session()
        x1 = ask(s, refine_top=2)
        x2 = ask(s, refine_top=2)
        assert np.array_equal(x1, x2)
        assert np.array_equal(s.pending, x1)

    def test_tell_outside_box_rejected(self):
        s = small_session()
        for x in ([2.0, 0.0], [1.0 + 1e-9, 0.0]):
            with pytest.raises(ValueError, match=r"outside the box \[-1, 1\]\^n"):
                tell(s, x, 0.0)
        with pytest.raises(ValueError, match="finite"):
            tell(s, [float("nan"), 0.0], 0.0)
        tell(s, [1.0, -1.0], 0.0)  # the boundary is inside
        assert s.gp.obs.size == 3

    def test_session_without_data_has_no_best(self):
        s = new_session(SeKernel(1.0), AcquisitionSpec(kind="ei", dim=2), seed=0,
                        noise_var=1e-6, init_points=(), init_values=())
        assert s.best_so_far is None
        with pytest.raises(ValueError, match="iteration must be nonnegative"):
            BoSession(s.gp, s.acquisition, s.rng_seed, iteration=-1)

    def test_tell_dimension_mismatch_rejected(self):
        s = small_session()
        with pytest.raises(ValueError):
            tell(s, [0.0, 0.0, 0.0], 0.0)

    def test_tell_nonfinite_value_rejected(self):
        s = small_session()
        with pytest.raises(ValueError):
            tell(s, [0.0, 0.0], float("nan"))

    def test_tell_without_ask_flagged_but_accepted(self, caplog):
        s = small_session()
        with caplog.at_level(logging.WARNING, logger="tpbo.bo"):
            tell(s, [0.1, 0.2], -0.3)
        assert any("without a pending" in rec.message for rec in caplog.records)
        assert s.gp.obs.size == 3
        assert s.iteration == 1

    def test_tell_mismatched_point_flagged(self, caplog):
        s = small_session()
        ask(s, refine_top=2)
        with caplog.at_level(logging.WARNING, logger="tpbo.bo"):
            tell(s, [0.0, 0.0], 0.5)
        assert any("does not match" in rec.message for rec in caplog.records)
        assert s.pending is None


class TestBoStep:
    def test_best_monotone(self):
        s = small_session(seed=11)
        best = []
        for _ in range(6):
            s = bo_step(s, scaled_himmelblau, refine_top=2)
            best.append(s.best_so_far[1])
        assert all(b >= a for a, b in zip(best, best[1:]))
        assert s.iteration == 6
        assert s.gp.obs.size == 8

    def test_constant_objective(self):
        spec = AcquisitionSpec(kind="ei", dim=2)
        s = new_session(SeKernel(1.0), spec, seed=2, noise_var=1e-6,
                        init_points=np.array([[0.0, 0.0]]), init_values=[0.7])
        for _ in range(3):
            s = bo_step(s, lambda x: 0.7, refine_top=2)
            assert s.best_so_far[1] == 0.7


def quadratic_acquisition(center, hessian, calls):
    """An `_acquisition` stand-in: the concave quadratic
    1 - (x - center)·H(x - center)/2, recording the size of each gradient
    call in `calls`."""

    def score(session, X, y_plus, grad=False):
        d = X - center
        values = 1.0 - 0.5 * np.einsum("ki,ij,kj->k", d, hessian, d)
        if not grad:
            return values
        calls.append(len(X))
        return values, -d @ hessian

    return score


class TestPolish:
    @staticmethod
    def polish_quadratic(monkeypatch, center, hessian, starts):
        calls = []
        center = np.asarray(center, dtype=float)
        monkeypatch.setattr(tpbo.bo, "_acquisition", quadratic_acquisition(center, hessian, calls))
        out, _ = tpbo.bo._polish(None, np.asarray(starts, dtype=float), None)
        return out, calls

    def test_interior_maximizer_in_three_calls(self, monkeypatch):
        center = np.array([0.3, -0.2])
        starts = center + np.array([[0.4, 0.1], [-0.2, 0.3], [0.05, -0.45]])
        hessian = np.array([[2.0, 0.6], [0.6, 1.0]])
        out, calls = self.polish_quadratic(monkeypatch, center, hessian, starts)
        assert np.max(np.abs(out - center)) <= 1e-8
        assert len(calls) <= 3
        # the first call also carries each start's two difference points
        assert calls[0] == 3 * len(starts)

    @pytest.mark.parametrize("center, want", [
        ((1.6, 0.2), (1.0, 0.2)),
        ((0.4, -1.3), (0.4, -1.0)),
        ((-2.0, 3.0), (-1.0, 1.0)),
    ])
    def test_maximizer_outside_the_box_lands_on_the_nearest_face(self, monkeypatch, center, want):
        # with a diagonal Hessian the box's maximizer is the center clipped
        # into the box
        starts = [[0.0, 0.0], [0.5, -0.5], [-0.7, 0.6], [0.9, 0.9]]
        hessian = np.diag([2.0, 1.0])
        out, _ = self.polish_quadratic(monkeypatch, center, hessian, starts)
        want = np.array(want)
        face = np.abs(want) == 1.0
        top = tpbo.bo._acquisition(None, want[None, :], None)[0]
        for x in out:
            assert np.array_equal(x[face], want[face])
            assert x[~face] == pytest.approx(want[~face], abs=1e-4)
            assert tpbo.bo._acquisition(None, x[None, :], None)[0] == pytest.approx(top, abs=1e-8)

    def test_start_on_flat_ei_stops_after_one_call(self, monkeypatch):
        session = quadratic_surrogate_session("ei", incumbent=1.0)
        score = tpbo.bo._acquisition
        calls = []

        def recording(session, X, y_plus, grad=False):
            calls.append(grad)
            return score(session, X, y_plus, grad)

        monkeypatch.setattr(tpbo.bo, "_acquisition", recording)
        starts = np.array([[0.1, 0.2], [-0.6, 0.4], [0.9, -0.9]])
        out, values = tpbo.bo._polish(session, starts, 1.0)
        assert calls == [True]
        assert np.array_equal(out, starts)
        assert np.array_equal(values, np.zeros(len(starts)))

    def test_no_start_value_decreases(self, monkeypatch):
        # a wavy stand-in whose quadratic models often overshoot, so that
        # trials are rejected; the polish capped at c calls returns the
        # points after its c-th call, so no value may fall as the cap grows
        def wavy(session, X, y_plus, grad=False):
            a, b = X[:, 0], X[:, 1]
            values = np.sin(5.0 * a) * np.cos(4.0 * b) + 0.3 * a
            if not grad:
                return values
            return values, np.stack([
                5.0 * np.cos(5.0 * a) * np.cos(4.0 * b) + 0.3,
                -4.0 * np.sin(5.0 * a) * np.sin(4.0 * b),
            ], axis=1)

        monkeypatch.setattr(tpbo.bo, "_acquisition", wavy)
        starts = -1.0 + tpbo.bo._latin_hypercube(rng_for(0, 0), 16, 2) * 2.0
        values = [wavy(None, starts, None)]
        for cap in range(1, 16):
            monkeypatch.setattr(tpbo.bo, "_POLISH_CALLS", cap)
            values.append(wavy(None, tpbo.bo._polish(None, starts, None)[0], None))
        assert np.all(np.diff(np.array(values), axis=0) >= 0.0)
        assert np.all(values[-1] > values[0])

    def test_deterministic(self):
        session = small_session(seed=2)
        y_plus = float(np.max(session.gp.obs.values))
        starts = -1.0 + tpbo.bo._latin_hypercube(rng_for(2, 0), 8, 2) * 2.0
        first, values = tpbo.bo._polish(session, starts, y_plus)
        again, again_values = tpbo.bo._polish(session, starts.copy(), y_plus)
        assert np.array_equal(first, again) and np.array_equal(values, again_values)
        assert np.all(np.abs(first) <= 1.0)

    @pytest.mark.parametrize("kind", ["ei", "ucb"])
    def test_values_are_the_acquisition_at_the_points(self, kind):
        # the polish scores its last accepted points in batches of other
        # sizes, so a fresh batch may differ in the last bits only
        session = small_session(seed=3, kind=kind)
        for step in range(4):
            y_plus = float(np.max(session.gp.obs.values))
            starts = -1.0 + tpbo.bo._latin_hypercube(rng_for(3, step), 8, 2) * 2.0
            out, values = tpbo.bo._polish(session, starts, y_plus)
            fresh = tpbo.bo._acquisition(session, out, y_plus)
            assert np.all(fresh > 0.0)
            np.testing.assert_allclose(values, fresh, rtol=1e-9, atol=0.0)
            x = out[np.argmax(values)]
            session = tell(session, x, scaled_himmelblau(x))

    def test_differences_only_in_the_first_call(self, monkeypatch):
        # the first call scores the k starts and then each start's n
        # forward-difference neighbours; every later call scores only the
        # live starts' trials, so its row count never rises
        score = tpbo.bo._acquisition
        calls = []

        def recording(session, X, y_plus, grad=False):
            calls.append(X.copy())
            return score(session, X, y_plus, grad)

        monkeypatch.setattr(tpbo.bo, "_acquisition", recording)
        session = small_session(seed=3)
        k, n = 8, 2
        for step in range(6):
            y_plus = float(np.max(session.gp.obs.values))
            starts = -1.0 + tpbo.bo._latin_hypercube(rng_for(3, step), k, n) * 2.0
            calls.clear()
            out, values = tpbo.bo._polish(session, starts, y_plus)
            assert len(calls[0]) == k * (1 + n)
            assert np.array_equal(calls[0][:k], starts)
            rows = [k] + [len(X) for X in calls[1:]]
            assert len(rows) > 2 and all(b <= a for a, b in zip(rows, rows[1:])), rows
            x = out[np.argmax(values)]
            session = tell(session, x, scaled_himmelblau(x))

    @given(
        x=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        g=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
        b=st.lists(st.floats(-50.0, 50.0), min_size=9, max_size=9),
        radius=st.floats(1e-4, 2.0),
        n=st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_box_step_contract(self, x, g, b, radius, n):
        x, g = np.array(x[:n]), np.array(g[:n])
        B = np.array(b).reshape(3, 3)[:n, :n]
        B = 0.5 * (B + B.T)
        p, gained = tpbo.bo._box_step(x[None], g[None], B[None], np.array([radius]))
        p, gained = p[0], gained[0]
        assert np.all(np.abs(x + p) <= 1.0)
        # a coordinate on a face whose gradient points out of the box
        held = (np.abs(x) == 1.0) & (g * x < 0.0)
        assert np.all(p[held] == 0.0)
        assert np.linalg.norm(p[~held]) <= 1.01 * radius
        assert gained == pytest.approx(-(g @ p + 0.5 * p @ B @ p), rel=1e-12, abs=1e-12)


    def test_box_step_takes_a_tiny_gradient(self):
        # at |g| near 1e-150 the Newton step's curvature sum g^2 / d^3
        # underflows d^3 to 0; the step still follows -g to the radius
        g = np.array([[1e-150, -2e-150]])
        p, gained = tpbo.bo._box_step(np.zeros((1, 2)), g, np.zeros((1, 2, 2)), np.array([0.5]))
        assert np.all(np.isfinite(p)) and np.isfinite(gained[0])
        assert np.linalg.norm(p) == pytest.approx(0.5, rel=0.01)
        assert p[0] / np.linalg.norm(p) == pytest.approx(-g[0] / np.linalg.norm(g), rel=1e-12)

GOLDEN_BEST = [
    -0.55625,
    -0.55625,
    -0.55625,
    -0.55625,
    -0.55625,
    -0.55625,
    -0.04469131444039031,
    -0.04469131444039031,
    -0.03161341028677764,
    -0.03161341028677764,
]
GOLDEN_X = [0.7384558234165634, -0.2835367179458103]


class TestGoldenTrace:
    def test_ten_step_trace(self):
        """Frozen regression run; values regenerate only if the sampler or
        local optimizer implementation changes."""
        s = small_session(seed=7)
        trace = []
        for _ in range(10):
            s = bo_step(s, scaled_himmelblau, refine_top=4)
            trace.append(s.best_so_far[1])
        for got, want in zip(trace, GOLDEN_BEST):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        x_best = s.best_so_far[0]
        assert x_best[0] == pytest.approx(GOLDEN_X[0], abs=1e-9)
        assert x_best[1] == pytest.approx(GOLDEN_X[1], abs=1e-9)


# Every pick of a five-step run from `golden_pick_session`, for each tuned
# family and for the per-axis SE covariance, under both acquisitions.
PICK_AUX = np.array([[0.6, -0.3], [-0.4, 0.8], [0.1, 0.5], [-0.7, -0.6], [0.3, 0.2]])
PICK_ALPHA = np.array([0.9, -0.5, 0.7, 0.4, -0.8])
GOLDEN_PICKS = {
    ("linear", "ei"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [-1.0, -1.0],
        [-1.0, -1.0],
        [-1.0, -1.0],
    ],
    ("linear", "ucb"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [-1.0, -1.0],
        [-1.0, -1.0],
        [-1.0, -1.0],
    ],
    ("polynomial", "ei"): [
        [-0.426499211704489, -1.0],
        [1.0, 1.0],
        [1.0, -1.0],
        [0.12966250940116342, -0.47658035247432845],
        [-1.0, 1.0],
    ],
    ("polynomial", "ucb"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [0.08434148442328494, -1.0],
        [1.0, -1.0],
        [-0.022002007191575846, 1.0],
    ],
    ("hyperbolic-sine", "ei"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [1.0, -1.0],
        [1.0, 0.8799124401922862],
        [-1.0, -0.3865701683448381],
    ],
    ("hyperbolic-sine", "ucb"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [1.0, -1.0],
        [1.0, 0.817257853025685],
        [-1.0, -0.3518203223874118],
    ],
    ("exponential", "ei"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [0.17762734927737162, -1.0],
        [1.0, -0.982649803179438],
        [-0.01963104270247674, 1.0],
    ],
    ("exponential", "ucb"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [0.05695184731378947, -1.0],
        [1.0, -1.0],
        [0.009310113069450909, 1.0],
    ],
    ("log-ratio", "ei"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [0.7169654122443858, 1.0],
        [1.0, 0.7955381542950768],
        [0.8685474961798034, -0.8516699044921129],
    ],
    ("log-ratio", "ucb"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [0.714313754023655, 1.0],
        [1.0, 0.7955659173174858],
        [0.8688731812300186, -0.8513848710522747],
    ],
    ("se", "ei"): [
        [-1.0, -1.0],
        [0.849460037754016, 0.8026831575065433],
        [0.062205071266513784, -0.5659664820957658],
        [1.0, -1.0],
        [0.33158446387649454, -0.009830189166816498],
    ],
    ("se", "ucb"): [
        [-1.0, -1.0],
        [0.941568986300602, 0.7063197761385068],
        [0.05226903353639448, -0.5753361051024137],
        [1.0, -1.0],
        [0.3258920296135832, 0.02410601834558804],
    ],
    ("ard", "ei"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [-0.9053072628700822, 0.6420000924862674],
        [-0.05082503563222161, 0.10836185438206695],
        [1.0, -1.0],
    ],
    ("ard", "ucb"): [
        [-1.0, -1.0],
        [1.0, 0.4198286612831993],
        [-1.0, 0.11433791688199581],
        [1.0, -1.0],
        [0.15054979446803873, -0.149761805830427],
    ],
}


def golden_pick_session(name, kind):
    if name == "ard":
        kernel = ArdSeKernel([2.0, 5.0])
    else:
        spec = FreeKernelSpec(family=name, nu=1.3, degree=3, offset=0.5)
        kernel = TunedKernel(spec, PICK_AUX, PICK_ALPHA)
    pts = np.array([[0.5, -0.5], [-0.25, 0.75]])
    return new_session(kernel, AcquisitionSpec(kind=kind, dim=2), seed=11, noise_var=1e-6,
                       init_points=pts, init_values=[scaled_himmelblau(p) for p in pts])


class TestGoldenPicks:
    def test_every_covariance_pinned(self):
        assert set(GOLDEN_PICKS) == {
            (name, kind) for name in FAMILIES + ("ard",) for kind in ("ei", "ucb")
        }

    @pytest.mark.parametrize("name, kind", sorted(GOLDEN_PICKS))
    def test_picks(self, name, kind):
        """Frozen picks; any change to a covariance, the posterior or the
        acquisition maximizer that moves one bit of a pick shows here."""
        s = golden_pick_session(name, kind)
        picks = []
        for _ in range(len(GOLDEN_PICKS[name, kind])):
            s = bo_step(s, scaled_himmelblau, refine_top=3)
            picks.append(s.gp.obs.points[-1].tolist())
        assert picks == GOLDEN_PICKS[name, kind]


    def test_repeated_pick_is_logged(self, caplog):
        # the linear family's posterior mean is linear in x, so its picks
        # return to the corner [-1, -1] once it is observed
        s = golden_pick_session("linear", "ei")
        logged = []
        for _ in range(len(GOLDEN_PICKS["linear", "ei"])):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tpbo.bo"):
                s = bo_step(s, scaled_himmelblau, refine_top=3)
            logged.append([rec.getMessage() for rec in caplog.records])
        repeats = "pick [-1.0, -1.0] repeats an observed point (session seed 11, iteration {})"
        assert logged == [[], [], [repeats.format(2)], [repeats.format(3)], [repeats.format(4)]]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        s = small_session(seed=77)
        s = bo_step(s, scaled_himmelblau, refine_top=2)
        ask(s, refine_top=2)  # leave a pending suggestion in the file
        path = str(tmp_path / "session.json")
        save_session(s, path)
        loaded = load_session(path, SeKernel(3.0))
        assert loaded.iteration == s.iteration
        assert loaded.rng_seed == s.rng_seed
        assert loaded.acquisition == s.acquisition
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["domain"] == {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
        assert np.array_equal(loaded.gp.obs.points, s.gp.obs.points)
        assert np.array_equal(loaded.gp.obs.values, s.gp.obs.values)
        assert loaded.gp.obs.noise_var == s.gp.obs.noise_var
        assert np.array_equal(loaded.pending, s.pending)
        # posterior agrees after the rebuild
        q = np.array([0.2, -0.1])
        (m1,), (v1,) = s.gp.posterior_batch(q[None, :])
        (m2,), (v2,) = loaded.gp.posterior_batch(q[None, :])
        assert m1 == pytest.approx(m2, rel=1e-12)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"foo": 1}')
        with pytest.raises(ValueError, match="malformed"):
            load_session(str(bad), SeKernel(1.0))
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            load_session(str(bad), SeKernel(1.0))

    @pytest.mark.parametrize(
        "pending", [[5.0, 5.0], [0.0, 1.5], [float("nan"), 0.0], [float("inf"), 0.0]]
    )
    def test_pending_outside_box_rejected(self, tmp_path, pending):
        s = small_session()
        s.pending = np.array(pending)
        path = str(tmp_path / "session.json")
        save_session(s, path)
        with pytest.raises(ValueError, match="malformed session file: pending"):
            load_session(path, SeKernel(3.0))

    def test_iteration_exceeding_observations_rejected(self, tmp_path):
        s = small_session()
        path = str(tmp_path / "session.json")
        s.iteration = 5  # inconsistent with 2 stored observations
        save_session(s, path)
        with pytest.raises(ValueError, match="malformed"):
            load_session(path, SeKernel(3.0))

    @staticmethod
    def _edited_file(tmp_path, **changes):
        path = tmp_path / "session.json"
        save_session(small_session(), str(path))
        payload = json.loads(path.read_text())
        payload.update(changes)
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.mark.parametrize(
        "changes",
        [
            {"iteration": "abc"},
            {"observations": {"points": [[0.5, -0.5], [-0.25, 0.75]],
                              "values": [float("nan"), 0.0]}},
            # int() would truncate these, or parse the string
            {"iteration": 1.7},
            {"seed": 3.9},
            {"seed": "3"},
            # one 4-coordinate row: reshaping it to width 2 made two points
            {"observations": {"points": [[0.5, -0.5, -0.25, 0.75]], "values": [0.1, 0.2]}},
            {"observations": {"points": [0.5, -0.5, -0.25, 0.75], "values": [0.1, 0.2]}},
            {"observations": {"points": [[0.5, -0.5], [-0.25, 0.75]], "values": [[0.1], [0.2]]}},
            {"observations": {"points": [[0.5, -0.5], [3.0, -7.0]], "values": [0.1, 0.2]}},
        ],
        ids=["iteration-not-int", "nan-value", "iteration-fraction", "seed-fraction",
             "seed-string", "points-wide-row", "points-flat", "values-nested",
             "points-outside-box"],
    )
    def test_malformed_fields_rejected(self, tmp_path, changes):
        path = self._edited_file(tmp_path, **changes)
        with pytest.raises(ValueError, match="malformed session file"):
            load_session(path, SeKernel(3.0))

    def test_model_ref_key_ignored(self, tmp_path):
        # files written before sessions stopped naming their model still load
        path = self._edited_file(tmp_path, model_ref="model.json")
        loaded = load_session(path, SeKernel(3.0))
        assert loaded.gp.obs.size == 2

    def test_whole_number_floats_accepted(self, tmp_path):
        path = self._edited_file(tmp_path, iteration=1.0, seed=3.0)
        loaded = load_session(path, SeKernel(3.0))
        assert (loaded.iteration, loaded.rng_seed) == (1, 3)
        assert type(loaded.iteration) is int and type(loaded.rng_seed) is int

    def test_new_session_rejects_rows_of_another_width(self):
        spec = AcquisitionSpec(kind="ei", dim=2)
        with pytest.raises(ValueError, match="not rows of 2"):
            new_session(SeKernel(1.0), spec, seed=0, noise_var=1e-6,
                        init_points=[[0.5, -0.5, -0.25, 0.75]], init_values=[0.1, 0.2])

    def test_new_session_rejects_a_negative_seed(self):
        # numpy's SeedSequence would reject it only at the first pick
        spec = AcquisitionSpec(kind="ei", dim=2)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            new_session(SeKernel(1.0), spec, seed=-1, noise_var=1e-6,
                        init_points=(), init_values=())

    @pytest.mark.parametrize(
        "domain",
        [
            {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
            {"lo": [-1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
            {"lo": [-1.0] * 3, "hi": [1.0] * 3},  # the stored points are 2-D
        ],
        ids=["zero-one-box", "unequal-lengths", "3d-domain"],
    )
    def test_domain_other_than_unit_box_rejected(self, tmp_path, domain):
        path = self._edited_file(tmp_path, domain=domain)
        with pytest.raises(ValueError, match="malformed session file"):
            load_session(path, SeKernel(3.0))
