"""Posterior-inference tests, cross-checked against dense linear algebra."""

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import tpbo.gp

from feature_route import expand_features, tuned_weights_oracle, weight_space_posterior_oracle
from numdiff import central_differences
from tpbo import FreeKernelSpec, TunedKernel
from tpbo.errors import NumericalError
from tpbo.gp import (
    ArdSeKernel,
    GpPosterior,
    Observations,
    SeKernel,
)


def dense_posterior(kernel, X, y, noise_var, x):
    """Textbook posterior with plain numpy solves (independent route).

    Includes the same unconditional 1e-10 relative jitter the production
    factorization applies, so the two routes target the same matrix.
    """
    K = kernel(X, X) + noise_var * np.eye(len(y))
    K += 1e-10 * np.mean(np.diag(K)) * np.eye(len(y))
    kx = kernel(x[None, :], X)[0]
    sol = np.linalg.solve(K, y)
    mean = kx @ sol
    var = kernel.diag(x[None, :])[0] - kx @ np.linalg.solve(K, kx)
    return mean, var


class TestArguments:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SeKernel(0.0), "nu must be finite and > 0"),
            (lambda: ArdSeKernel([]), "per-axis scales must be finite and > 0"),
            (lambda: Observations(np.zeros((2, 2)), np.zeros(3), 1e-6),
             "points and values must have matching lengths"),
            (lambda: Observations(np.zeros((2, 2)), np.zeros(2), -1.0),
             "noise variance must be finite and >= 0"),
            (lambda: Observations(np.zeros((2, 2)), np.zeros(2), 1e-6).appended([0.0] * 3, 1.0),
             "new point dimension does not match the observation set"),
            (lambda: tpbo.gp.check_lapack_info("dpotrf", -3),
             "illegal value in argument 3 of dpotrf"),
            # LinAlgError is a ValueError
            (lambda: tpbo.gp._solve_lower(np.diag([1.0, 0.0]), np.ones(2)),
             "singular matrix: resolution failed at diagonal 1"),
        ],
        ids=["se-nu-zero", "ard-no-scales", "lengths-differ", "noise-negative",
             "appended-dimension", "lapack-illegal-argument", "triangle-singular"],
    )
    def test_bad_arguments_raise(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestPosterior:
    def test_empty_posterior_is_prior(self):
        gp = GpPosterior(SeKernel(1.0), Observations(np.empty((0, 2)), np.empty(0), 1e-6))
        (mean,), (var,) = gp.posterior_batch(np.array([[0.3, -0.2]]))
        assert mean == 0.0
        assert var == pytest.approx(1.0, rel=1e-12)

    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (12, 2))
        y = np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1])
        gp = GpPosterior.from_data(SeKernel(4.0), X, y, 0.0)
        for i in range(12):
            (mean,), (var,) = gp.posterior_batch(X[i][None, :])
            assert mean == pytest.approx(y[i], abs=1e-6)
            assert var <= 1e-6

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        kernel = SeKernel(2.0)
        X = rng.uniform(-1, 1, (15, 2))
        y = rng.normal(size=15)
        gp = GpPosterior.from_data(kernel, X, y, 1e-4)
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            (mean,), (var,) = gp.posterior_batch(x[None, :])
            dm, dv = dense_posterior(kernel, X, y, 1e-4, x)
            assert mean == pytest.approx(dm, rel=1e-9, abs=1e-12)
            assert var == pytest.approx(dv, rel=1e-8, abs=1e-12)

    def test_incremental_equals_rebuild(self):
        rng = np.random.default_rng(2)
        kernel = SeKernel(1.5)
        X = rng.uniform(-1, 1, (8, 2))
        y = rng.normal(size=8)
        gp_inc = GpPosterior.from_data(kernel, X[:5], y[:5], 1e-6)
        for i in range(5, 8):
            gp_inc = gp_inc.add_observation(X[i], y[i])
        gp_full = GpPosterior.from_data(kernel, X, y, 1e-6)
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            (mi,), (vi,) = gp_inc.posterior_batch(x[None, :])
            (mf,), (vf,) = gp_full.posterior_batch(x[None, :])
            assert mi == pytest.approx(mf, rel=1e-9, abs=1e-12)
            assert vi == pytest.approx(vf, rel=1e-9, abs=1e-12)

    def test_large_noise_shrinks_to_prior(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (10, 2))
        y = rng.normal(size=10)
        gp = GpPosterior.from_data(SeKernel(1.0), X, y, 1e9)
        (mean,), (var,) = gp.posterior_batch(np.zeros((1, 2)))
        assert abs(mean) < 1e-6
        assert var == pytest.approx(1.0, rel=1e-6)

    def test_duplicate_points_succeed_via_jitter(self):
        X = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, -0.5]])
        y = np.array([1.0, 1.0, -1.0])
        gp = GpPosterior.from_data(SeKernel(1.0), X, y, 0.0)
        (mean,), (var,) = gp.posterior_batch(np.array([[0.1, 0.2]]))
        assert np.isfinite(mean) and np.isfinite(var)
        assert var >= 0.0

    def test_variance_clamped_nonnegative(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (20, 2))
        y = rng.normal(size=20)
        gp = GpPosterior.from_data(SeKernel(8.0), X, y, 0.0)
        _, var = gp.posterior_batch(X)
        assert np.all(var >= 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        kernel = ArdSeKernel([1.0, 4.0])
        X = rng.uniform(-1, 1, (9, 2))
        y = rng.normal(size=9)
        gp = GpPosterior.from_data(kernel, X, y, 1e-5)
        P = rng.uniform(-1, 1, (6, 2))
        means, vars_ = gp.posterior_batch(P)
        for i, p in enumerate(P):
            (m,), (v,) = gp.posterior_batch(p[None, :])
            assert means[i] == pytest.approx(m, rel=1e-13, abs=1e-15)
            assert vars_[i] == pytest.approx(v, rel=1e-13, abs=1e-15)


class TestWeightSpaceOracle:
    def test_prior_with_no_observations(self):
        spec = FreeKernelSpec(family="polynomial", degree=2, offset=1.0)
        exp = expand_features(spec, n=2, max_degree=2)
        x = np.array([0.4, -0.3])
        empty = Observations(np.empty((0, 2)), np.empty(0), 1e-6)
        mean, var = weight_space_posterior_oracle(exp, empty, x)
        assert mean == 0.0
        # Prior variance equals the kernel's diagonal value.
        from feature_route import eval_free

        assert var == pytest.approx(eval_free(spec, 2, [x, x]), rel=1e-12)

    def test_function_space_equivalence_polynomial(self):
        rng = np.random.default_rng(6)
        spec = FreeKernelSpec(family="polynomial", degree=3, offset=0.7)
        aux = rng.uniform(-1, 1, (6, 2))
        alpha = rng.normal(size=6)
        t = TunedKernel(spec, aux, alpha)
        exp = expand_features(spec, n=2, max_degree=3)
        reweighted = exp.with_weights(tuned_weights_oracle(t, exp))
        X = rng.uniform(-1, 1, (7, 2))
        y = rng.normal(size=7)
        obs = Observations(X, y, 1e-4)
        gp = GpPosterior(t, obs)
        for _ in range(8):
            x = rng.uniform(-1, 1, 2)
            (fm,), (fv,) = gp.posterior_batch(x[None, :])
            wm, wv = weight_space_posterior_oracle(reweighted, obs, x)
            assert wm == pytest.approx(fm, rel=1e-8, abs=1e-10)
            assert wv == pytest.approx(fv, rel=1e-8, abs=1e-10)

    def test_large_noise_shrinks_to_prior(self):
        rng = np.random.default_rng(7)
        spec = FreeKernelSpec(family="polynomial", degree=2, offset=1.0)
        exp = expand_features(spec, n=2, max_degree=2)
        X = rng.uniform(-1, 1, (6, 2))
        y = rng.normal(size=6)
        x = np.array([0.2, 0.6])
        mean_big, var_big = weight_space_posterior_oracle(exp, Observations(X, y, 1e10), x)
        empty = Observations(np.empty((0, 2)), np.empty(0), 1.0)
        _, var_prior = weight_space_posterior_oracle(exp, empty, x)
        assert abs(mean_big) < 1e-6
        assert var_big == pytest.approx(var_prior, rel=1e-6)


def gradient_kernels():
    rng = np.random.default_rng(8)
    aux = rng.uniform(-1, 1, (8, 2))
    alpha = rng.normal(size=8)
    return {
        "se": SeKernel(2.0),
        "ard-se": ArdSeKernel([0.5, 3.0]),
        "tuned-se": TunedKernel(FreeKernelSpec(family="se", nu=1.0), aux, alpha),
        "tuned-polynomial": TunedKernel(
            FreeKernelSpec(family="polynomial", degree=3, offset=1.0), aux, alpha
        ),
    }


class TestGradients:
    @pytest.mark.parametrize("name", ["se", "ard-se"])
    def test_stationary_kernels_match_central_differences(self, name):
        kernel = gradient_kernels()[name]
        rng = np.random.default_rng(9)
        X1, X2 = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (4, 2))
        K, dK = kernel.cross_grad(X1, X2)
        assert np.array_equal(K, kernel(X1, X2))
        want = central_differences(lambda X: kernel(X, X2), X1)
        assert dK == pytest.approx(want, rel=1e-6, abs=1e-9)
        d, dd = kernel.diag_grad(X1)
        assert np.array_equal(d, kernel.diag(X1))
        assert np.array_equal(dd, np.zeros_like(X1))

    @pytest.mark.parametrize("name", sorted(gradient_kernels()))
    def test_posterior_grad(self, name):
        kernel = gradient_kernels()[name]
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, (9, 2))
        y = rng.normal(size=9)
        gp = GpPosterior.from_data(kernel, X, y, 1e-3)
        P = rng.uniform(-1, 1, (6, 2))
        mean, var, dmean, dvar = gp.posterior_grad(P)
        m_b, v_b = gp.posterior_batch(P)
        assert np.array_equal(mean, m_b) and np.array_equal(var, v_b)
        want = central_differences(lambda Q: gp.posterior_batch(Q)[0], P)
        scale = float(np.max(np.abs(want)))
        assert dmean == pytest.approx(want, rel=1e-5, abs=1e-6 * scale)
        want = central_differences(lambda Q: gp.posterior_batch(Q)[1], P)
        scale = float(np.max(np.abs(want)))
        assert dvar == pytest.approx(want, rel=1e-5, abs=1e-6 * scale)

    def test_empty_posterior_grad_is_prior(self):
        kernel = gradient_kernels()["tuned-se"]
        gp = GpPosterior(kernel, Observations(np.empty((0, 2)), np.empty(0), 1e-6))
        P = np.array([[0.3, -0.2], [0.9, 0.1]])
        mean, var, dmean, dvar = gp.posterior_grad(P)
        d, dd = kernel.diag_grad(P)
        assert np.array_equal(mean, np.zeros(2)) and np.array_equal(var, d)
        assert np.array_equal(dmean, np.zeros((2, 2))) and np.array_equal(dvar, dd)


class TestLazyFactorization:
    def test_factored_once_on_first_use(self, monkeypatch):
        calls = []
        real = tpbo.gp._factor_shifted

        def counting(gram, shift):
            calls.append(gram.shape[0])
            return real(gram, shift)

        monkeypatch.setattr(tpbo.gp, "_factor_shifted", counting)
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (6, 2))
        gp = GpPosterior.from_data(SeKernel(2.0), X[:5], rng.normal(size=5), 1e-6)
        # a posterior replaced before use is never factored
        gp = gp.add_observation(X[5], 0.5)
        assert calls == []
        gp.posterior_batch(X)
        gp.posterior_grad(X)
        assert calls == [6]

    def test_failure_surfaces_on_first_use(self):
        # a negative variance on the Gram diagonal defeats every jitter rung
        class IndefiniteKernel(SeKernel):
            def __call__(self, X1, X2):
                K = super().__call__(X1, X2)
                K[0, 0] = -1.0
                return K

        gp = GpPosterior.from_data(IndefiniteKernel(1.0), np.zeros((2, 2)), [0.0, 1.0], 0.0)
        with pytest.raises(NumericalError):
            gp.posterior_batch(np.zeros((1, 2)))


def scipy_route(kernel, obs, X):
    """posterior_batch and posterior_grad through the scipy wrappers the
    direct LAPACK calls replaced: cho_factor at the ladder's first rung,
    cho_solve and solve_triangular."""
    gram = kernel(obs.points, obs.points)
    n = gram.shape[0]
    scale = max(abs(float(np.mean(np.diag(gram))) + obs.noise_var), 1e-300)
    H = gram + (obs.noise_var + tpbo.gp.JITTER_FIRST * scale) * np.eye(n)
    factor = scipy.linalg.cho_factor(H, lower=True)
    alpha = scipy.linalg.cho_solve(factor, obs.values)
    L = factor[0]
    prior = kernel.diag(X)
    k = kernel(X, obs.points)
    v = scipy.linalg.solve_triangular(L, k.T, lower=True)
    var = prior - np.sum(v * v, axis=0)
    batch = k @ alpha, np.clip(var, 0.0, np.maximum(prior, 0.0))
    prior, dprior = kernel.diag_grad(X)
    k, dk = kernel.cross_grad(X, obs.points)
    v = scipy.linalg.solve_triangular(L, k.T, lower=True)
    var = prior - np.sum(v * v, axis=0)
    B = scipy.linalg.solve_triangular(L, v, lower=True, trans="T")
    dvar = dprior - 2.0 * np.einsum("ink,ni->ik", dk, B)
    grad = k @ alpha, np.clip(var, 0.0, np.maximum(prior, 0.0)), alpha @ dk, dvar
    return batch, grad


class NanCrossKernel(SeKernel):
    """SE kernel whose cross-covariance against new points holds a NaN."""

    def __call__(self, X1, X2):
        K = super().__call__(X1, X2)
        if X1 is not X2:
            K[0, 0] = np.nan
        return K


class TestLapackRoute:
    @pytest.mark.parametrize("n_obs", [1, 2, 20])
    @pytest.mark.parametrize("name", sorted(gradient_kernels()))
    def test_bit_identical_to_scipy_wrappers(self, name, n_obs):
        kernel = gradient_kernels()[name]
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (n_obs, 2))
        obs = Observations(X, rng.normal(size=n_obs), 1e-4)
        P = rng.uniform(-1, 1, (7, 2))
        gp = GpPosterior(kernel, obs)
        batch, grad = scipy_route(kernel, obs, P)
        for got, want in zip(gp.posterior_batch(P) + gp.posterior_grad(P), batch + grad):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("method", ["posterior_batch", "posterior_grad"])
    def test_nonfinite_cross_covariance_rejected(self, method):
        # dtrtrs would return NaN without a word; the explicit check raises
        points = [[0.1, 0.2], [0.5, -0.4]]
        gp = GpPosterior.from_data(NanCrossKernel(1.0), points, [1.0, 0.0], 1e-6)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            getattr(gp, method)(np.array([[0.0, 0.3], [0.2, 0.2]]))

    def test_nonfinite_gram_rejected_before_lapack(self, monkeypatch):
        class NanGramKernel(SeKernel):
            def __call__(self, X1, X2):
                K = super().__call__(X1, X2)
                K[0, 1] = K[1, 0] = np.nan
                return K

        calls = []
        real = scipy.linalg.lapack.dpotrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda *a, **k: calls.append(1) or real(*a, **k))
        gp = GpPosterior.from_data(NanGramKernel(1.0), [[0.1, 0.2], [0.5, -0.4]], [1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            gp.posterior_batch(np.zeros((1, 2)))
        assert calls == []

    @pytest.mark.parametrize("corner, rungs", [(-3.0, None), (1.0 - 1e-7, 4)])
    def test_jitter_ladder_escalates(self, monkeypatch, corner, rungs):
        # [[corner, 1], [1, 1]]: indefinite past every rung at -3; at 1 - 1e-7
        # its eigenvalue of about -5e-8 is lifted by the fourth rung, 1e-7
        jitters = []
        real = scipy.linalg.lapack.dpotrf

        def recording(H, **kwargs):
            jitters.append(H[1, 1] - 1.0)
            return real(H, **kwargs)

        class CornerKernel(SeKernel):
            def __call__(self, X1, X2):
                K = np.ones((X1.shape[0], X2.shape[0]))
                if X1 is X2:
                    K[0, 0] = corner
                return K

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", recording)
        gp = GpPosterior.from_data(CornerKernel(1.0), np.zeros((2, 2)), [0.0, 1.0], 0.0)
        scale = abs(corner + 1.0) / 2.0
        if rungs is None:
            # seven rungs, 1e-10 to 1e-4, and the error names the last one
            with pytest.raises(NumericalError, match="factorization failed at jitter 1.0e-04: min eig"):
                gp.posterior_batch(np.zeros((1, 2)))
            assert jitters[-1] >= tpbo.gp._JITTER_RUNGS[-1] * scale * (1 - 1e-6)
            assert len(jitters) == 7
        else:
            gp.posterior_batch(np.zeros((1, 2)))
            assert len(jitters) == rungs
        assert jitters[0] == pytest.approx(tpbo.gp.JITTER_FIRST * scale, rel=1e-5)
        assert np.diff(np.log10(jitters)) == pytest.approx(1.0, abs=1e-5)
