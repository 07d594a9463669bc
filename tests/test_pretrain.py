"""Auxiliary-fit tests: dual solvers, leave-one-out forms, grid selection."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from feature_route import eval_free, eval_tuned, expand_features, tuned_weights_oracle
from tpbo import FreeKernelSpec, NumericalError, VanishingKernelError
from tpbo.pretrain import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_NU_GRID,
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

XOR_POINTS = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
XOR_LABELS = np.array([-1.0, 1.0, 1.0, -1.0])
QUADRATIC = FreeKernelSpec(family="polynomial", degree=2, offset=1.0)
XOR_GRAM = np.full((4, 4), 1.0) + 8.0 * np.eye(4)


def hinge_objective(gram, alpha):
    return 0.5 * alpha @ gram @ alpha - np.sum(np.abs(alpha))


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nonfinite_gram_rejected(self, bad):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            train_hinge(nonfinite_gram(bad), np.array([1.0, -1.0]), 1.0)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            train_hinge(np.eye(2), np.array([1.0, 0.5]), 1.0)

    def test_sweep_cap_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tpbo.pretrain"):
            train_hinge(XOR_GRAM, XOR_LABELS, 1.0, max_sweeps=1)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "after 1 sweeps" in message and "KKT violation 0.125" in message

    def test_converged_fit_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="tpbo.pretrain"):
            train_hinge(XOR_GRAM, XOR_LABELS, 1.0)
        assert caplog.records == []


class TestLoo:
    def test_identity_gram_regression(self):
        y = np.array([2.0, -1.0, 0.5])
        assert loo_error(np.eye(3), y, 1.0, "regression") == pytest.approx(np.mean(y**2))

    def test_regression_closed_form_matches_refitting(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(5, 20))
            X = rng.uniform(-1, 1, (n, 2))
            gram = base_gram(FreeKernelSpec(family="se", nu=1.5), X)
            y = rng.normal(size=n)
            lam = float(rng.choice([1e-3, 1e-2, 1e-1]))
            closed = loo_error(gram, y, lam, "regression")
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
        assert loo_error(XOR_GRAM, XOR_LABELS, 1.0, "classification") == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_nonfinite_classification_gram_rejected(self, bad):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            loo_error(nonfinite_gram(bad), np.array([1.0, -1.0]), 1.0, "classification")

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            loo_error(np.eye(2), np.array([1.0, -1.0]), 1.0, "ranking")

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


class TestLapackRoute:
    def test_loo_grid_bit_identical_to_scipy_wrappers(self):
        X, y = regression_problem()
        for nu in DEFAULT_NU_GRID:
            gram = base_gram(FreeKernelSpec(family="se", nu=nu), X)
            for lam in DEFAULT_LAMBDA_GRID:
                assert loo_error(gram, y, lam, "regression") == scipy_loo(gram, y, lam)

    def test_train_lssvm_bit_identical_to_scipy_wrappers(self):
        X, y = regression_problem()
        gram = base_gram(QUADRATIC, X)
        for lam in DEFAULT_LAMBDA_GRID:
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram + lam * np.eye(15)), y)
            assert np.array_equal(train_lssvm(gram, y, lam), want)

    def test_selection_bit_identical_to_scipy_wrappers(self):
        X, y = regression_problem()
        gram_for = lambda nu: base_gram(FreeKernelSpec(family="se", nu=nu), X)
        want = min(
            (scipy_loo(gram_for(nu), y, lam), nu, lam)
            for nu in DEFAULT_NU_GRID
            for lam in DEFAULT_LAMBDA_GRID
        )
        got = select_by_loo(gram_for, y, "regression", DEFAULT_NU_GRID, DEFAULT_LAMBDA_GRID)
        assert got == want

    def test_nonfinite_ridge_system_rejected(self, monkeypatch):
        calls = []
        real = scipy.linalg.lapack.dpotrf
        monkeypatch.setattr(
            scipy.linalg.lapack, "dpotrf", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        gram = np.eye(2)
        gram[0, 1] = gram[1, 0] = np.inf
        for solve in (train_lssvm, lambda g, t, lam: loo_error(g, t, lam, "regression")):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve(gram, np.array([1.0, -1.0]), 0.1)
            # a NaN target would pass through dpotrs silently
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve(np.eye(2), np.array([np.nan, -1.0]), 0.1)
        assert len(calls) == 2  # only the finite ridge systems were factored

    def test_indefinite_ridge_system_names_min_eigenvalue(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        msg = r"ridge system factorization failed: min eigenvalue -9\.000000e-01$"
        with pytest.raises(NumericalError, match=msg):
            train_lssvm(gram, np.array([1.0, -1.0]), 0.1)
        with pytest.raises(NumericalError, match=msg):
            loo_error(gram, np.array([1.0, -1.0]), 0.1, "regression")


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
                cells.append((loo_error(gram, y01, lam, "regression"), nu, lam))
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

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        data = AuxDataset(inputs=np.array([[-1.0], [0.0], [1.0]]),
                          targets=np.array([0.0, 1.0, 0.5]), task="regression")
        model = pretrain(data, FreeKernelSpec(family="se"))
        path = tmp_path / "model.json"
        save_aux_model(model, path)
        before = path.read_text()
        # the dump raises at `loo_error`, after the fields before it are written
        with pytest.raises(TypeError):
            save_aux_model(dataclasses.replace(model, loo_error=object()), path)
        assert path.read_text() == before
        assert np.array_equal(load_aux_model(path).alpha, model.alpha)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

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
            # int() would truncate both to the stored values, 2 and 1
            lambda text: text.replace('"degree": ', '"degree": 2.9, "was": ', 1),
            lambda text: text.replace('"input_dim": ', '"input_dim": 1.5, "was": ', 1),
        ],
        ids=["not-json", "lambda-not-float", "input-dim-not-int", "x-lo-too-long",
             "x-hi-empty", "alpha-nan", "aux-inputs-inf", "degree-fraction",
             "input-dim-fraction"],
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
        path = tmp_path / "aux.csv"
        path.write_text("x1,x2,y\n5.0,1.0,0.0\n5.0,2.0,1.0\n")
        data = load_aux_csv(path, "regression")
        assert np.allclose(data.inputs[:, 0], 0.0)
