"""Acquisition and optimization-loop tests."""

import json
import logging
import math

import numpy as np
import pytest
import scipy.optimize
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
        assert tpbo.bo._in_unit_box(np.array([1.0, -1.0]))
        assert not tpbo.bo._in_unit_box(np.array([1.0 + 1e-9, 0.0]))
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
    def test_one_lbfgsb_run_per_pick(self, monkeypatch, kind, refine_top):
        calls = []
        real = scipy.optimize.minimize

        def recording(fun, x0, **kwargs):
            res = real(fun, x0, **kwargs)
            calls.append((fun, x0.copy(), kwargs, res.x.copy()))
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        session = small_session(seed=6, kind=kind)
        for step in range(3):
            y_plus = float(np.max(session.gp.obs.values))
            x = maximize_acquisition(session, **polish_size(refine_top))
            assert len(calls) == step + 1
            fun, x0, kwargs, x_end = calls[-1]
            assert kwargs["method"] == "L-BFGS-B" and kwargs["jac"] is True
            assert x0.shape == (2 * (refine_top or 8),)  # 8 starts by default
            # the optimizer minimizes the negated summed acquisition
            for flat in (x0, x_end):
                value, grad = fun(flat)
                want = -np.sum(tpbo.bo._acquisition(session, flat.reshape(-1, 2), y_plus))
                assert value == pytest.approx(want, rel=1e-12)
                assert grad.shape == flat.shape
            tell(session, x, scaled_himmelblau(x))

    def test_bo_step_polishes_eight_starts_by_default(self, monkeypatch):
        starts = []
        real = scipy.optimize.minimize

        def recording(fun, x0, **kwargs):
            starts.append(x0.shape)
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        session = bo_step(small_session(seed=6), scaled_himmelblau)
        assert starts == [(16,)]  # 2 coordinates of each of 8 starts
        assert session.iteration == 1

    def test_fallback_pick_runs_no_polish(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "minimize", None)  # any call would fail
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


GOLDEN_BEST = [
    -0.55625,
    -0.55625,
    -0.55625,
    -0.55625,
    -0.55625,
    -0.55625,
    -0.04469108032812183,
    -0.04469108032812183,
    -0.0316111306150004,
    -0.0316111306150004,
]
GOLDEN_X = [0.7384520450324855, -0.2835354504606167]


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
        [-0.42649863630744117, -1.0],
        [1.0, 1.0],
        [1.0, -1.0],
        [0.12966288019242836, -0.4765796264170426],
        [-1.0, 1.0],
    ],
    ("polynomial", "ucb"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [0.08434352039910938, -1.0],
        [1.0, -1.0],
        [-0.022002967270633684, 1.0],
    ],
    ("hyperbolic-sine", "ei"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [1.0, -1.0],
        [1.0, 0.8799142206755703],
        [-1.0, -0.3865725774457164],
    ],
    ("hyperbolic-sine", "ucb"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [1.0, -1.0],
        [1.0, 0.8172639109711195],
        [-1.0, -0.3518244360296004],
    ],
    ("exponential", "ei"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [0.17762167124271072, -1.0],
        [1.0, -0.982658418254673],
        [-0.019626158690094705, 1.0],
    ],
    ("exponential", "ucb"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [0.05695224688783171, -1.0],
        [1.0, -1.0],
        [0.009310034360933936, 1.0],
    ],
    ("log-ratio", "ei"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [0.716966127690212, 1.0],
        [-1.0, -0.7955379638153963],
        [0.723619906132839, -1.0],
    ],
    ("log-ratio", "ucb"): [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [0.7143141700049234, 1.0],
        [1.0, 0.7955659514287862],
        [0.8688733694860032, -0.8513833102928127],
    ],
    ("se", "ei"): [
        [-1.0, -1.0],
        [0.849459877008955, 0.8026832669946706],
        [0.062206862820647114, -0.5659665998147616],
        [1.0, -1.0],
        [0.3315847066552294, -0.00983042473781587],
    ],
    ("se", "ucb"): [
        [-1.0, -1.0],
        [0.941569605438893, 0.7063190562757589],
        [0.05227048949489579, -0.5753336047717438],
        [1.0, -1.0],
        [0.32589378199519353, 0.02410708795801086],
    ],
    ("ard", "ei"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [-0.9053094839225407, 0.6419967290554379],
        [-0.050819417546738375, 0.10835952883714453],
        [1.0, -1.0],
    ],
    ("ard", "ucb"): [
        [-1.0, -1.0],
        [1.0, 1.0],
        [-1.0, 0.2730325120035337],
        [1.0, -1.0],
        [0.4185161177953703, -0.01097779939440283],
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
        ],
        ids=["iteration-not-int", "nan-value", "iteration-fraction", "seed-fraction",
             "seed-string", "points-wide-row", "points-flat", "values-nested"],
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
