"""Auxiliary-fit tests: dual solvers, leave-one-out forms, grid selection."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from feature_route import eval_free, eval_tuned, expand_features, tuned_weights_oracle
from tpbo import FreeKernelSpec, NumericalError, VanishingKernelError
from tpbo.bench import RegretRecord, tune_se_loo, write_results, write_summary
from tpbo.bo import AcquisitionSpec, new_session, save_session
from tpbo.pretrain import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_NU_GRID,
    MAX_SWEEPS,
    _EIGH_KAPPA_MAX,
    AuxDataset,
    HyperGrid,
    base_gram,
    build_tuned,
    load_aux_csv,
    load_aux_model,
    loo_error,
    pretrain,
    save_aux_model,
    select_by_loo,
    train_hinge,
    train_lssvm,
)

EPS = np.finfo(np.float64).eps

XOR_POINTS = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
XOR_LABELS = np.array([-1.0, 1.0, 1.0, -1.0])
QUADRATIC = FreeKernelSpec(family="polynomial", degree=2, offset=1.0)
XOR_GRAM = np.full((4, 4), 1.0) + 8.0 * np.eye(4)


def hinge_objective(gram, alpha):
    return 0.5 * alpha @ gram @ alpha - np.sum(np.abs(alpha))


class TestArguments:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: AuxDataset(XOR_POINTS, XOR_LABELS, "ranking"), "task must be one of"),
            (lambda: AuxDataset(XOR_POINTS, XOR_LABELS[:3], "classification"),
             "inputs and targets must have matching lengths"),
            (lambda: AuxDataset(np.empty((0, 2)), np.empty(0), "regression"),
             "auxiliary dataset must be non-empty"),
            (lambda: AuxDataset(XOR_POINTS, [0.0, np.nan, 1.0, 0.5], "regression"),
             "auxiliary data must be finite"),
            (lambda: AuxDataset(2.0 * XOR_POINTS, XOR_LABELS, "classification"),
             "auxiliary inputs must be normalized to [-1, 1]"),
            (lambda: AuxDataset(XOR_POINTS, 0.5 * XOR_LABELS, "classification"),
             "classification targets must be -1 or +1"),
            (lambda: AuxDataset(XOR_POINTS, XOR_LABELS, "classification", input_lo=[0.0]),
             "input bounds must match the input dimension"),
            (lambda: HyperGrid(nu_values=()), "hyperparameter grid must be non-empty"),
            (lambda: train_lssvm(np.ones((2, 3)), np.ones(2), 1.0), "gram must be a square matrix"),
            (lambda: train_lssvm(np.eye(3), np.ones(2), 1.0),
             "gram and targets must have matching sizes"),
            (lambda: train_hinge(XOR_GRAM, XOR_LABELS, 0.0), "lambda must be > 0"),
            (lambda: loo_error(np.eye(1), [1.0], (1.0,), "classification"),
             "classification leave-one-out needs at least two points"),
        ],
        ids=["task-unknown", "lengths-differ", "empty", "targets-nan", "inputs-outside-box",
             "labels-not-pm1", "bounds-short", "grid-empty", "gram-not-square",
             "gram-size-differs", "hinge-lambda-zero", "loo-one-label"],
    )
    def test_bad_arguments_raise(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestLssvm:
    def test_identity_gram_two_points(self):
        alpha = train_lssvm(np.eye(2), np.array([1.0, -1.0]), 1.0)
        assert np.allclose(alpha, [0.5, -0.5], atol=1e-14)

    def test_residual_bound(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (30, 2))
        gram = base_gram(FreeKernelSpec(family="se", nu=2.0), X)
        y = rng.normal(size=30)
        lam = 1e-3
        alpha = train_lssvm(gram, y, lam)
        res = (gram + lam * np.eye(30)) @ alpha - y
        assert np.abs(res).max() <= 1e-8 * np.abs(y).max()

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            train_lssvm(np.eye(2), np.array([1.0, 2.0]), 0.0)

    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValueError):
            train_lssvm(np.array([[1.0, 5.0], [0.0, 1.0]]), np.array([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_symmetry_tolerance_boundary(self, scale):
        # np.allclose(gram, gram.T) with atol 1e-8 * max(1, max|gram|) and rtol 1e-5
        tol = 1e-8 * max(1.0, 2.0 * scale) + 1e-5 * scale
        for skew, symmetric in ((0.99, True), (1.01, False)):
            gram = np.array([[2.0, 1.0], [1.0, 2.0]]) * scale
            gram[0, 1] += skew * tol
            assert np.allclose(gram, gram.T, atol=1e-8 * max(1.0, 2.0 * scale)) == symmetric
            if symmetric:
                train_lssvm(gram, np.array([1.0, 2.0]), 1.0)
            else:
                with pytest.raises(ValueError, match="gram must be symmetric"):
                    train_lssvm(gram, np.array([1.0, 2.0]), 1.0)


class TestHinge:
    def test_xor_dual_coefficients(self):
        alpha = train_hinge(XOR_GRAM, XOR_LABELS, 1.0)
        assert np.allclose(alpha, [-0.125, 0.125, 0.125, -0.125], atol=1e-9)

    def test_single_point_clipped(self):
        # Unconstrained optimum 1/K11 capped by the box at 1/lambda.
        assert train_hinge(np.array([[0.25]]), np.array([1.0]), 1.0)[0] == pytest.approx(1.0)
        assert train_hinge(np.array([[4.0]]), np.array([1.0]), 1.0)[0] == pytest.approx(0.25)

    def test_identity_gram_interior(self):
        # Wide box (lambda <= 1): per-coordinate optimum alpha_i = y_i.
        y = np.array([1.0, -1.0, 1.0, 1.0])
        alpha = train_hinge(np.eye(4), y, 0.5)
        assert np.allclose(alpha, y, atol=1e-12)

    def test_box_and_kkt_on_random_problems(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            X = rng.uniform(-1, 1, (n, 2))
            gram = base_gram(FreeKernelSpec(family="se", nu=1.0), X)
            y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
            lam = float(rng.choice([0.1, 1.0, 10.0]))
            alpha = train_hinge(gram, y, lam)
            box = y * alpha
            assert np.all(box >= 0.0) and np.all(box <= 1.0 / lam)
            grad = y * (gram @ alpha) - 1.0
            viol = np.where(
                box <= 1e-15,
                np.maximum(0.0, -grad),
                np.where(box >= 1.0 / lam - 1e-15, np.maximum(0.0, grad), np.abs(grad)),
            )
            assert viol.max() < 1e-8

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(2)
        n = 8
        X = rng.uniform(-1, 1, (n, 2))
        gram = base_gram(FreeKernelSpec(family="se", nu=1.0), X)
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        lam = 0.5
        alpha = train_hinge(gram, y, lam)
        best = hinge_objective(gram, alpha)
        for _ in range(500):
            cand = y * rng.uniform(0.0, 1.0 / lam, size=n)
            assert best <= hinge_objective(gram, cand) + 1e-9

    @pytest.mark.parametrize("lam", [0.01, 1.0])
    @pytest.mark.parametrize("family", ["linear", "hyperbolic-sine"])
    def test_point_at_origin_sits_at_the_box_edge(self, family, lam):
        # A point at the origin has a zero Gram row: its step has no
        # curvature, so its dual goes to the edge of the box and moves no
        # other coordinate's residual.
        rng = np.random.default_rng(24)
        X = rng.uniform(-1, 1, (9, 2))
        X[3] = 0.0
        y = np.where(rng.uniform(size=9) < 0.5, -1.0, 1.0)
        gram = base_gram(FreeKernelSpec(family=family), X)
        assert not gram[3].any()
        alpha = train_hinge(gram, y, lam)
        assert alpha[3] == y[3] / lam
        keep = np.arange(9) != 3
        assert np.array_equal(alpha[keep], train_hinge(gram[np.ix_(keep, keep)], y[keep], lam))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nonfinite_gram_rejected(self, bad):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            train_hinge(nonfinite_gram(bad), np.array([1.0, -1.0]), 1.0)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            train_hinge(np.eye(2), np.array([1.0, 0.5]), 1.0)

    def test_sweep_cap_warns(self, caplog):
        # alternating labels on four points: of the default (nu, lambda) grid,
        # only nu 0.3 with lambda 1e-4 leaves the fit unconverged at the cap
        X = np.array([[-1.0], [-1.0 / 3.0], [1.0 / 3.0], [1.0]])
        gram = base_gram(FreeKernelSpec(family="se", nu=0.3), X)
        with caplog.at_level(logging.WARNING, logger="tpbo.pretrain"):
            train_hinge(gram, np.array([1.0, -1.0, 1.0, -1.0]), 1e-4)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert MAX_SWEEPS == 10_000
        assert f"after {MAX_SWEEPS} sweeps" in message and "(tolerance 1e-10)" in message

    def test_converged_fit_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tpbo.pretrain"):
            train_hinge(XOR_GRAM, XOR_LABELS, 1.0)
        assert caplog.records == []


class TestLoo:
    def test_identity_gram_regression(self):
        y = np.array([2.0, -1.0, 0.5])
        assert loo_error(np.eye(3), y, (1.0,), "regression") == [pytest.approx(np.mean(y**2))]

    def test_regression_closed_form_matches_refitting(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(5, 20))
            X = rng.uniform(-1, 1, (n, 2))
            gram = base_gram(FreeKernelSpec(family="se", nu=1.5), X)
            y = rng.normal(size=n)
            lam = float(rng.choice([1e-3, 1e-2, 1e-1]))
            closed = loo_error(gram, y, (lam,), "regression")[0]
            sq = []
            for i in range(n):
                keep = np.arange(n) != i
                sub = train_lssvm(gram[np.ix_(keep, keep)], y[keep], lam)
                pred = float(gram[i, keep] @ sub)
                sq.append((y[i] - pred) ** 2)
            assert closed == pytest.approx(float(np.mean(sq)), rel=1e-8, abs=1e-10)

    def test_xor_classification_loo_is_total(self):
        # Leaving out any corner flips its predicted sign: the three remaining
        # points fit alpha = (1/8)[10/11, 10/11, -12/11] and the held-out
        # response is 1/11 with the wrong sign, for every fold by symmetry.
        assert loo_error(XOR_GRAM, XOR_LABELS, (1.0,), "classification") == [1.0]

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nonfinite_classification_gram_rejected(self, bad):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            loo_error(nonfinite_gram(bad), np.array([1.0, -1.0]), (1.0,), "classification")

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            loo_error(np.eye(2), np.array([1.0, -1.0]), (1.0,), "ranking")

    def test_grid_scan_checks_every_gram(self):
        # each nu's Gram is checked once before its lambda row is scored
        lopsided = np.eye(3)
        lopsided[0, 1] = 0.5
        grams = {1.0: np.eye(3), 2.0: lopsided}
        with pytest.raises(ValueError, match="gram must be symmetric"):
            select_by_loo(grams.__getitem__, np.ones(3), "regression", (1.0, 2.0), (0.1, 1.0))

    @pytest.mark.parametrize("signal", [True, False])
    def test_selection_does_not_depend_on_grid_order(self, signal):
        # unsorted grids with duplicates pick what the sorted grids pick;
        # zero targets tie every cell, and the tie goes to the smallest values
        X, y = regression_problem()
        y = y if signal else np.zeros_like(y)
        gram_for = lambda nu: base_gram(FreeKernelSpec(family="se", nu=nu), X)
        messy = select_by_loo(gram_for, y, "regression", (3.0, 0.1, 1.0, 0.1), (1e-2, 1e-4, 1.0, 1e-2))
        assert messy == select_by_loo(gram_for, y, "regression", (0.1, 1.0, 3.0), (1e-4, 1e-2, 1.0))
        if not signal:
            assert messy == (0.0, 0.1, 1e-4)


def nonfinite_gram(bad):
    """A 2 x 2 Gram with `bad` off the diagonal."""
    gram = np.eye(2)
    gram[0, 1] = gram[1, 0] = bad
    return gram


def scipy_loo(gram, y, lam):
    """Closed-form regression LOO through the scipy wrappers the direct
    LAPACK calls replaced (upper factor, as cho_factor's default gave)."""
    factor = scipy.linalg.cho_factor(gram + lam * np.eye(gram.shape[0]))
    alpha = scipy.linalg.cho_solve(factor, y)
    inv_diag = np.diag(scipy.linalg.cho_solve(factor, np.eye(gram.shape[0])))
    return float(np.mean((alpha / inv_diag) ** 2))


def regression_problem(n=15, seed=13):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (n, 2)), rng.normal(size=n)


@pytest.fixture()
def lapack_calls(monkeypatch):
    """Counts of ``dsyevd`` and ``dpotrf`` calls; `tpbo.pretrain` and
    `gp.cholesky_factor` import both from ``scipy.linalg.lapack`` when called."""
    calls = {"dsyevd": 0, "dpotrf": 0}
    for name in calls:
        real = getattr(scipy.linalg.lapack, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)
    return calls


class TestLapackRoute:
    # The LOO scan scores each nu's lambda row from one eigendecomposition;
    # scipy's per-lambda Cholesky agrees with it to rounding, not to the bit.
    def test_loo_grid_matches_scipy_wrappers(self):
        X, y = regression_problem()
        for nu in DEFAULT_NU_GRID:
            gram = base_gram(FreeKernelSpec(family="se", nu=nu), X)
            for lam in DEFAULT_LAMBDA_GRID:
                assert loo_error(gram, y, (lam,), "regression")[0] == pytest.approx(
                    scipy_loo(gram, y, lam), rel=1e-10, abs=0
                )

    def test_train_lssvm_bit_identical_to_scipy_wrappers(self):
        X, y = regression_problem()
        gram = base_gram(QUADRATIC, X)
        for lam in DEFAULT_LAMBDA_GRID:
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram + lam * np.eye(15)), y)
            assert np.array_equal(train_lssvm(gram, y, lam), want)

    def test_selection_matches_scipy_wrappers(self):
        X, y = regression_problem()
        gram_for = lambda nu: base_gram(FreeKernelSpec(family="se", nu=nu), X)
        want = min(
            (scipy_loo(gram_for(nu), y, lam), nu, lam)
            for nu in DEFAULT_NU_GRID
            for lam in DEFAULT_LAMBDA_GRID
        )
        got = select_by_loo(gram_for, y, "regression", DEFAULT_NU_GRID, DEFAULT_LAMBDA_GRID)
        assert got[1:] == want[1:]
        assert got[0] == pytest.approx(want[0], rel=1e-10, abs=0)

    def test_nonfinite_ridge_system_rejected(self, lapack_calls):
        gram = np.eye(2)
        gram[0, 1] = gram[1, 0] = np.inf
        for solve in (train_lssvm, lambda g, t, lam: loo_error(g, t, (lam,), "regression")):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve(gram, np.array([1.0, -1.0]), 0.1)
            # a NaN target would pass through dpotrs, or the LOO products, silently
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve(np.eye(2), np.array([np.nan, -1.0]), 0.1)
        # only train_lssvm's finite ridge system was factored; LOO checks the
        # target before its eigendecomposition
        assert lapack_calls == {"dsyevd": 0, "dpotrf": 1}

    @pytest.mark.parametrize(
        "run, eighs, factors",
        [
            (lambda X, y: pretrain(AuxDataset(X, y, "regression"), FreeKernelSpec("se")), 5, 1),
            (lambda X, y: pretrain(AuxDataset(X, y, "regression"), FreeKernelSpec("linear")), 1, 1),
            (tune_se_loo, 5, 0),
        ],
        ids=["pretrain-se", "pretrain-linear", "tune_se_loo"],
    )
    def test_one_eigendecomposition_per_nu(self, lapack_calls, run, eighs, factors):
        # on these well-conditioned Grams the scan decomposes each nu's Gram
        # once and factors nothing; only pretrain's final fit runs dpotrf
        X, y = regression_problem()
        run(X, y)
        assert lapack_calls == {"dsyevd": eighs, "dpotrf": factors}

    def test_indefinite_ridge_system_names_min_eigenvalue(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        msg = r"ridge system factorization failed: min eigenvalue -9\.000000e-01$"
        with pytest.raises(NumericalError, match=msg):
            train_lssvm(gram, np.array([1.0, -1.0]), 0.1)
        with pytest.raises(NumericalError, match=msg):
            loo_error(gram, np.array([1.0, -1.0]), (0.1,), "regression")


class TestRowScorer:
    """`loo_error` against a per-lambda Cholesky reference (`scipy_loo`).

    Both routes are backward stable, so where a row is scored from the
    eigendecomposition they differ by up to a small multiple of kappa * eps,
    where kappa = (s_max + lambda) / (s_min + lambda) is the condition number
    of the ridge system: 1e-10 relative holds up to kappa near 1e5, and over
    2,100 draws of these inputs the gap stayed under 31 kappa eps.  A row
    with kappa of `_EIGH_KAPPA_MAX` or more, or an indefinite cell, is scored
    by Cholesky, bit for bit as the reference (exponential nu = 10 in 4-D and
    5-D reaches kappa 1e16).
    """

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 60),
        st.integers(1, 5),
        st.sampled_from(["se", "exponential", "polynomial"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_lambda_cholesky(self, n, dim, family, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (n, dim))
        y = rng.uniform(size=n)
        gram_for = lambda nu: base_gram(FreeKernelSpec(family, nu=nu, degree=2, offset=1.0), X)
        lams = np.array(DEFAULT_LAMBDA_GRID)
        reference = []
        for nu in DEFAULT_NU_GRID:
            gram = gram_for(nu)
            try:
                want = [scipy_loo(gram, y, lam) for lam in DEFAULT_LAMBDA_GRID]
            except np.linalg.LinAlgError:
                with pytest.raises(NumericalError, match="ridge system factorization failed"):
                    loo_error(gram, y, DEFAULT_LAMBDA_GRID, "regression")
                return
            row = loo_error(gram, y, DEFAULT_LAMBDA_GRID, "regression")
            s = scipy.linalg.lapack.dsyevd(gram, compute_v=1)[0]  # as loo_error decomposes
            kappas = (s[-1] + lams) / (s[0] + lams)
            if np.all((kappas > 0) & (kappas < _EIGH_KAPPA_MAX)):
                for got, w, kappa in zip(row, want, kappas):
                    assert got == pytest.approx(w, rel=max(1e-10, 100 * kappa * EPS), abs=0)
            else:
                assert row == want
            reference.extend(zip(want, [nu] * len(lams), DEFAULT_LAMBDA_GRID))
        got = select_by_loo(gram_for, y, "regression", DEFAULT_NU_GRID, DEFAULT_LAMBDA_GRID)
        assert got[1:] == min(reference)[1:]

    def test_badly_scaled_gram_scored_by_cholesky(self):
        # exponential nu = 10 in 5-D: the diagonal spans e^0 to e^50, so the
        # eigenvalues are exact only to about 1e6 and the eigendecomposition
        # would give 267.38 here; 0.515745873 is the value in 60-digit
        # arithmetic (mpmath), which Cholesky matches
        rng = np.random.default_rng(1615081027)
        X, y = rng.uniform(-1, 1, (38, 5)), rng.uniform(size=38)
        gram = base_gram(FreeKernelSpec("exponential", nu=10.0), X)
        assert loo_error(gram, y, (1e-4,), "regression")[0] == pytest.approx(0.515745873, rel=1e-9)

    def test_badly_scaled_gram_does_not_abort_the_scan(self):
        # a 5-D draw with corner points: the eigendecomposition puts the
        # smallest eigenvalue of the nu = 10 Gram below -lambda, but every
        # ridge system is positive definite and the fit succeeds
        rng = np.random.default_rng(16)
        n = int(rng.integers(20, 61))
        X = np.clip(rng.uniform(-1.5, 1.5, (n, 5)), -1, 1)
        model = pretrain(AuxDataset(X, rng.uniform(size=n), "regression"), FreeKernelSpec("exponential"))
        assert np.all(np.isfinite(model.alpha))

    def test_indefinite_gram_raises_named_error(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        msg = r"^ridge system factorization failed: min eigenvalue -9\.999000e-01$"
        with pytest.raises(NumericalError, match=msg):
            select_by_loo(lambda nu: gram, np.array([1.0, 0.0]), "regression",
                          DEFAULT_NU_GRID, DEFAULT_LAMBDA_GRID)


class TestPretrain:
    def test_xor_end_to_end(self):
        data = AuxDataset(inputs=XOR_POINTS, targets=XOR_LABELS, task="classification")
        model = pretrain(data, QUADRATIC, HyperGrid(nu_values=(1.0,), lambda_values=(1.0,)))
        assert np.allclose(model.alpha, [-0.125, 0.125, 0.125, -0.125], atol=1e-9)
        assert model.lambda_ == 1.0
        t = build_tuned(model)
        x = np.array([1.0, 1.0])
        assert eval_tuned(t, x, x) == pytest.approx(0.5, abs=1e-9)
        exp = expand_features(QUADRATIC, n=2, max_degree=2)
        tau = tuned_weights_oracle(t, exp)
        idx = [tuple(i) for i in exp.multi_indices].index((1, 1))
        assert abs(tau[idx]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)
        off = np.delete(tau, idx)
        assert np.abs(off).max() < 1e-9

    def test_selection_matches_brute_grid_enumeration(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (25, 2))
        y = np.sin(2.0 * X[:, 0]) + 0.3 * np.cos(3.0 * X[:, 1])
        y01 = (y - y.min()) / (y.max() - y.min())
        data = AuxDataset(inputs=X, targets=y01, task="regression")
        grid = HyperGrid()
        model = pretrain(data, FreeKernelSpec(family="se"), grid)
        cells = []
        for nu in grid.nu_values:
            gram = base_gram(FreeKernelSpec(family="se", nu=nu), X)
            for lam in grid.lambda_values:
                cells.append((loo_error(gram, y01, (lam,), "regression")[0], nu, lam))
        best = min(cells)
        assert (model.kernel.nu, model.lambda_) == (best[1], best[2])
        assert model.loo_error == pytest.approx(best[0], rel=1e-12)

    def test_tie_break_prefers_smallest_nu_then_lambda(self):
        # A linear kernel ignores nu, so every nu cell ties exactly.
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (10, 2))
        y = X[:, 0].copy()
        y01 = (y - y.min()) / (y.max() - y.min())
        data = AuxDataset(inputs=X, targets=y01, task="regression")
        grid = HyperGrid(nu_values=(0.5, 0.5), lambda_values=(1e-2, 1e-2))
        model = pretrain(data, FreeKernelSpec(family="se", nu=1.0), grid)
        assert model.kernel.nu == 0.5
        assert model.lambda_ == 1e-2

    def test_deterministic_model_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, (20, 2))
        y = np.abs(X[:, 0]) + X[:, 1] ** 2
        y01 = (y - y.min()) / (y.max() - y.min())
        data = AuxDataset(inputs=X, targets=y01, task="regression")
        paths = []
        for name in ("a.json", "b.json"):
            model = pretrain(data, FreeKernelSpec(family="se"))
            p = tmp_path / name
            save_aux_model(model, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_target_units_do_not_change_the_fit(self, tmp_path):
        # the constant-column rule is relative, so targets in any power-of-two
        # unit give the same fit bit for bit
        rng = np.random.default_rng(10)
        X = rng.uniform(-3.0, 7.0, (30, 2))
        y = np.sin(X[:, 0]) + 0.1 * X[:, 1] ** 2
        models = []
        for scale in (1.0, 2.0**-50):
            path = tmp_path / f"aux{len(models)}.csv"
            rows = "".join(f"{a!r},{b!r},{v!r}\n" for (a, b), v in zip(X.tolist(), (y * scale).tolist()))
            path.write_text("x1,x2,y\n" + rows)
            models.append(pretrain(load_aux_csv(path, "regression"), FreeKernelSpec(family="se")))
        plain, small = models
        assert (small.kernel, small.lambda_, small.loo_error) == (
            plain.kernel, plain.lambda_, plain.loo_error)
        assert np.array_equal(small.alpha, plain.alpha)
        norm = small.normalization
        assert (norm.y_min, norm.y_max) == (
            plain.normalization.y_min * 2.0**-50, plain.normalization.y_max * 2.0**-50)

    def test_constant_targets_raise_vanishing(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, (12, 2))
        data = AuxDataset(inputs=X, targets=np.full(12, 0.7), task="regression")
        with pytest.raises(VanishingKernelError):
            pretrain(data, FreeKernelSpec(family="se"))

    def test_regression_targets_are_normalized_before_fit(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (15, 2))
        y = X[:, 0] * 3.0 + 5.0
        data = AuxDataset(inputs=X, targets=y, task="regression")
        model = pretrain(data, FreeKernelSpec(family="se"), HyperGrid(nu_values=(1.0,), lambda_values=(1e-2,)))
        assert model.normalization.y_min == pytest.approx(y.min())
        assert model.normalization.y_max == pytest.approx(y.max())
        gram = base_gram(model.kernel, X)
        y01 = (y - y.min()) / (y.max() - y.min())
        assert np.allclose(model.alpha, train_lssvm(gram, y01, model.lambda_), atol=1e-12)


class TestBaseGram:
    def test_log_ratio_matches_pairwise_values(self):
        rng = np.random.default_rng(34)
        spec = FreeKernelSpec(family="log-ratio")
        X = rng.uniform(-0.95, 0.95, size=(12, 3))
        gram = base_gram(spec, X)
        for i in range(len(X)):
            for j in range(len(X)):
                assert gram[i, j] == pytest.approx(eval_free(spec, 2, [X[i], X[j]]), rel=1e-14)

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    def test_log_ratio_rejects_unit_coordinate_product(self, edge):
        X = np.array([[0.5, 0.25], [edge, 0.5], [0.1, -0.2]])
        with pytest.raises(ValueError, match=r"\(-1, 1\)"):
            base_gram(FreeKernelSpec(family="log-ratio"), X)


class TestPersistence:
    def test_round_trip_preserves_kernel_values(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (18, 3))
        y = np.sin(X @ np.array([1.0, -2.0, 0.5]))
        y01 = (y - y.min()) / (y.max() - y.min())
        data = AuxDataset(inputs=X, targets=y01, task="regression")
        model = pretrain(data, FreeKernelSpec(family="se"))
        path = tmp_path / "model.json"
        save_aux_model(model, path)
        loaded = load_aux_model(path)
        assert loaded.kernel == model.kernel
        assert loaded.lambda_ == model.lambda_
        assert np.array_equal(loaded.alpha, model.alpha)
        assert np.array_equal(loaded.aux_inputs, model.aux_inputs)
        t0, t1 = build_tuned(model), build_tuned(loaded)
        probes = rng.uniform(-1, 1, (6, 3))
        for x in probes:
            for xp in probes:
                assert eval_tuned(t1, x, xp) == pytest.approx(eval_tuned(t0, x, xp), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("writer", ["model", "session", "results", "summary"])
    def test_failed_save_keeps_the_old_file(self, tmp_path, writer):
        data = AuxDataset(inputs=np.array([[-1.0], [0.0], [1.0]]),
                          targets=np.array([0.0, 1.0, 0.5]), task="regression")
        model = pretrain(data, FreeKernelSpec(family="se"))
        session = new_session(build_tuned(model), AcquisitionSpec(kind="ei", dim=1),
                              seed=0, noise_var=1e-6, init_points=[[0.5]], init_values=[0.2])
        records = [RegretRecord("ei", "himmelblau", 0, 1, 0.5)]
        # `json.dumps` raises at an object it cannot encode before any file is
        # opened; a lone surrogate raises while the CSV text is being written
        unwritable = [dataclasses.replace(records[0], method="\ud800")]
        write, good, bad = {
            "model": (save_aux_model, model, dataclasses.replace(model, loo_error=object())),
            "session": (save_session, session, dataclasses.replace(session, rng_seed=object())),
            "results": (write_results, records, unwritable),
            "summary": (write_summary, records, unwritable),
        }[writer]
        path = tmp_path / "out.file"
        write(good, path)
        before = path.read_bytes()
        with pytest.raises((TypeError, UnicodeEncodeError)):
            write(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.file"]

    def test_malformed_model_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kernel": {"family": "se"}}')
        with pytest.raises(ValueError):
            load_aux_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("{", "{not json", 1),
            lambda text: text.replace('"lambda": ', '"lambda": "abc", "was": ', 1),
            lambda text: text.replace('"input_dim": ', '"input_dim": "two", "was": ', 1),
            lambda text: text.replace('"x_lo": [', '"x_lo": [0.0, ', 1),
            lambda text: text.replace('"x_hi": [', '"x_hi": [], "was": [', 1),
            lambda text: re.sub(r'("alpha": \[\s*)[^,\s]+', r"\1NaN", text, count=1),
            lambda text: re.sub(r'("aux_inputs": \[\s*\[\s*)[^,\s]+', r"\1Infinity", text, count=1),
            # a CSV with a nan field used to write NaN bounds
            lambda text: re.sub(r'("x_lo": \[\s*)[^,\s]+', r"\1NaN", text, count=1),
            lambda text: re.sub(r'("x_hi": \[\s*)[^,\s]+', r"\1-Infinity", text, count=1),
            # int() would truncate both to the stored values, 2 and 1
            lambda text: text.replace('"degree": ', '"degree": 2.9, "was": ', 1),
            lambda text: text.replace('"input_dim": ', '"input_dim": 1.5, "was": ', 1),
            # every family stores an offset, so an se model's is checked too
            lambda text: text.replace('"offset": ', '"offset": -1.0, "was": ', 1),
            lambda text: text.replace('"task": ', '"task": "ranking", "was": ', 1),
            lambda text: text.replace('"input_dim": ', '"input_dim": 2, "was": ', 1),
        ],
        ids=["not-json", "lambda-not-float", "input-dim-not-int", "x-lo-too-long",
             "x-hi-empty", "alpha-nan", "aux-inputs-inf", "x-lo-nan", "x-hi-inf",
             "degree-fraction", "input-dim-fraction", "se-offset-negative", "task-unknown",
             "shapes-inconsistent"],
    )
    def test_malformed_values_name_the_file(self, tmp_path, edit):
        data = AuxDataset(inputs=np.array([[-1.0], [0.0], [1.0]]),
                          targets=np.array([0.0, 1.0, 0.5]), task="regression")
        path = tmp_path / "model.json"
        save_aux_model(pretrain(data, FreeKernelSpec(family="se")), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=re.escape(f"malformed model file {path}: ")):
            load_aux_model(path)


class TestCsv:
    def test_load_and_normalize(self, tmp_path):
        path = tmp_path / "aux.csv"
        path.write_text("x1,x2,y\n0.0,10.0,1.5\n2.0,20.0,2.5\n1.0,15.0,2.0\n")
        data = load_aux_csv(path, "regression")
        assert data.input_dim == 2
        assert np.allclose(data.inputs[:, 0], [-1.0, 1.0, 0.0])
        assert np.allclose(data.inputs[:, 1], [-1.0, 1.0, 0.0])
        assert np.allclose(data.input_lo, [0.0, 10.0])
        assert np.allclose(data.input_hi, [2.0, 20.0])
        assert np.allclose(data.targets, [1.5, 2.5, 2.0])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "aux.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_aux_csv(path, "regression")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "aux.csv"
        path.write_text("x1,y\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            load_aux_csv(path, "regression")

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "aux.csv"
        path.write_text("x1,y\n1.0,two\n")
        with pytest.raises(ValueError):
            load_aux_csv(path, "regression")

    def test_constant_column_maps_to_zero(self, tmp_path):
        # x3 agrees to 12 significant digits, which the one rule calls constant
        path = tmp_path / "aux.csv"
        path.write_text("x1,x2,x3,y\n5.0,1.0,1000.0,0.0\n5.0,2.0,1000.0000000001,1.0\n")
        data = load_aux_csv(path, "regression")
        assert np.array_equal(data.inputs, [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(data.input_hi, [5.0, 2.0, 1000.0000000001])
