"""Tensor-kernel unit tests.

Expected values come from three independent routes: hand-evaluated closed
forms, truncated Taylor/feature expansions computed inline, and a brute-force
double sum over auxiliary pairs for the reweighted kernel.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numdiff import central_differences
from feature_route import (
    eval_free,
    eval_tuned,
    expand_features,
    expansion_value,
    feature_values,
    m_dot,
    tuned_weights_oracle,
)
from tpbo import _accel
from tpbo import (
    FAMILIES,
    FreeKernelSpec,
    TunedKernel,
    VanishingKernelError,
)
from tpbo.bench import FUNCTIONS, make_flipped_aux, normalize_problem, synthetic_two_device
from tpbo.pretrain import HyperGrid, build_tuned, pretrain

# Exclusive-or fixture: four labelled corners, quadratic kernel, unit ridge.
XOR_POINTS = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
XOR_ALPHA = np.array([-0.125, 0.125, 0.125, -0.125])
QUADRATIC = FreeKernelSpec(family="polynomial", degree=2, offset=1.0)
DOT_FAMILIES = [family for family in FAMILIES if family != "log-ratio"]


def brute_tuned(base, aux, alpha, x, xp):
    """Independent reweighted-kernel oracle: explicit double sum."""
    total = 0.0
    for i in range(len(alpha)):
        for j in range(len(alpha)):
            total += alpha[i] * alpha[j] * eval_free(base, 4, [aux[i], aux[j], x, xp])
    return total


class TestMDot:
    def test_pair_reduces_to_dot_product(self):
        x = np.array([1.0, 2.0, -3.0])
        y = np.array([0.5, -1.0, 2.0])
        assert m_dot([x, y]) == pytest.approx(float(x @ y), abs=0.0)

    def test_four_arguments_hand_value(self):
        # sum_k 1*2*1*(-1), 2*0*1*1, ... computed by hand
        args = [[1.0, 2.0], [2.0, 0.0], [1.0, 1.0], [-1.0, 3.0]]
        assert m_dot(args) == pytest.approx(1 * 2 * 1 * -1 + 2 * 0 * 1 * 3)

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            m_dot([[1.0], [1.0], [1.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            m_dot([[1.0, 2.0], [1.0]])

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=4),
        st.lists(st.floats(-3, 3), min_size=2, max_size=4),
    )
    def test_pair_symmetry(self, a, b):
        n = min(len(a), len(b))
        x, y = np.array(a[:n]), np.array(b[:n])
        assert m_dot([x, y]) == m_dot([y, x])


class TestEvalFree:
    def test_quadratic_pair_value(self):
        x = np.array([-1.0, -1.0])
        assert eval_free(QUADRATIC, 2, [x, x]) == pytest.approx(9.0)

    def test_quadratic_arity_four(self):
        x = np.array([1.0, 1.0])
        # (<x,x,x,x>_4 + 1)^2 = (2 + 1)^2
        assert eval_free(QUADRATIC, 4, [x, x, x, x]) == pytest.approx(9.0)

    def test_linear_is_m_dot(self):
        spec = FreeKernelSpec(family="linear")
        args = [np.array([0.3, -0.4]), np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array([-1.0, 1.0])]
        assert eval_free(spec, 4, args) == pytest.approx(m_dot(args))

    def test_exponential_and_sinh_hand_values(self):
        x = np.array([0.5, -0.25])
        y = np.array([0.2, 0.4])
        md = float(x @ y)
        assert eval_free(FreeKernelSpec(family="exponential", nu=1.3), 2, [x, y]) == pytest.approx(
            math.exp(1.3 * md), rel=1e-15
        )
        assert eval_free(FreeKernelSpec(family="hyperbolic-sine", nu=0.7), 2, [x, y]) == pytest.approx(
            math.sinh(0.7 * md), rel=1e-15
        )

    def test_se_pair_matches_distance_form(self):
        rng = np.random.default_rng(11)
        spec = FreeKernelSpec(family="se", nu=1.7)
        for _ in range(25):
            x, y = rng.uniform(-2, 2, size=(2, 3))
            direct = math.exp(-0.5 * 1.7 * float(np.sum((x - y) ** 2)))
            assert eval_free(spec, 2, [x, y]) == pytest.approx(direct, rel=1e-12)

    def test_log_ratio_hand_value(self):
        spec = FreeKernelSpec(family="log-ratio")
        x = np.array([0.5, 0.2])
        y = np.array([0.4, -0.5])
        expected = math.log(1.2 / 0.8) * math.log(0.9 / 1.1)
        assert eval_free(spec, 2, [x, y]) == pytest.approx(expected, rel=1e-14)

    def test_log_ratio_domain_error(self):
        spec = FreeKernelSpec(family="log-ratio")
        with pytest.raises(ValueError):
            eval_free(spec, 2, [np.array([1.0]), np.array([1.0])])

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            eval_free(QUADRATIC, 3, [np.ones(2)] * 3)

    def test_arity_argument_count_mismatch(self):
        with pytest.raises(ValueError):
            eval_free(QUADRATIC, 4, [np.ones(2)] * 2)

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            FreeKernelSpec(family="se", nu=-1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FreeKernelSpec(family="cubic")

    @pytest.mark.parametrize(
        "call, message",
        [
            # every model file stores degree and offset, so every family checks them
            (lambda: FreeKernelSpec(family="se", degree=0), "degree must be an integer >= 1"),
            (lambda: FreeKernelSpec(family="exponential", offset=float("nan")),
             "offset must be finite and >= 0"),
            (lambda: TunedKernel(QUADRATIC, XOR_POINTS, XOR_ALPHA[:3]),
             "one dual coefficient per auxiliary point is required"),
            (lambda: TunedKernel(QUADRATIC, np.empty((0, 2)), np.empty(0)),
             "at least one auxiliary point is required"),
            (lambda: TunedKernel(QUADRATIC, XOR_POINTS, [np.nan, 0.1, 0.1, 0.1]),
             "auxiliary data must be finite"),
            (lambda: TunedKernel(QUADRATIC, XOR_POINTS, XOR_ALPHA)(np.zeros((1, 3)), XOR_POINTS),
             "point dimension does not match the auxiliary set"),
            (lambda: _accel.dot_series("se", 1.0, 2, 0.0, 0.5), "unsupported dot-product family"),
        ],
        ids=["se-degree-zero", "exponential-offset-nan", "alpha-short", "no-aux-points",
             "alpha-nan", "point-dimension", "series-of-se"],
    )
    def test_bad_arguments_raise(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["linear", "polynomial", "exponential", "se"]))
    def test_argument_permutation_symmetry(self, seed, family):
        rng = np.random.default_rng(seed)
        spec = FreeKernelSpec(family=family, nu=0.8, degree=3, offset=0.5)
        args = list(rng.uniform(-1, 1, size=(4, 2)))
        base = eval_free(spec, 4, args)
        perm = [args[i] for i in rng.permutation(4)]
        assert eval_free(spec, 4, perm) == pytest.approx(base, rel=1e-12, abs=1e-15)


class TestExpansion:
    def test_exponential_series_coefficients(self):
        exp = expand_features(FreeKernelSpec(family="exponential", nu=1.0), n=1, max_degree=3)
        assert np.allclose(exp.taylor_coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0])

    def test_quadratic_features_and_weights(self):
        exp = expand_features(QUADRATIC, n=2, max_degree=2)
        expected = {
            (0, 0): 1.0,
            (1, 0): math.sqrt(2.0),
            (0, 1): math.sqrt(2.0),
            (2, 0): 1.0,
            (0, 2): 1.0,
            (1, 1): math.sqrt(2.0),
        }
        got = {tuple(idx): w for idx, w in zip(exp.multi_indices, exp.weights)}
        assert set(got) == set(expected)
        for key, val in expected.items():
            assert got[key] == pytest.approx(val, rel=1e-15)

    def test_linear_identity_features(self):
        exp = expand_features(FreeKernelSpec(family="linear"), n=3, max_degree=4)
        assert exp.multi_indices.shape == (3, 3)
        assert sorted(tuple(i) for i in exp.multi_indices) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert np.allclose(exp.weights, 1.0)

    def test_polynomial_expansion_exact(self):
        rng = np.random.default_rng(3)
        for m in (2, 4):
            for _ in range(10):
                spec = FreeKernelSpec(
                    family="polynomial",
                    degree=int(rng.integers(1, 4)),
                    offset=float(rng.uniform(0, 2)),
                )
                exp = expand_features(spec, n=2, max_degree=spec.degree)
                args = list(rng.uniform(-1.5, 1.5, size=(m, 2)))
                closed = eval_free(spec, m, args)
                assert expansion_value(exp, args) == pytest.approx(closed, rel=1e-9, abs=1e-12)

    def test_sinh_expansion_truncation(self):
        rng = np.random.default_rng(4)
        spec = FreeKernelSpec(family="hyperbolic-sine", nu=1.1)
        exp = expand_features(spec, n=2, max_degree=15)
        for m in (2, 4):
            for _ in range(10):
                args = list(rng.uniform(-1, 1, size=(m, 2)))
                assert expansion_value(exp, args) == pytest.approx(
                    eval_free(spec, m, args), abs=1e-8
                )

    def test_exponential_expansion_truncation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            nu = float(rng.uniform(0.1, 2.0))
            spec = FreeKernelSpec(family="exponential", nu=nu)
            exp = expand_features(spec, n=2, max_degree=15)
            for m in (2, 4):
                args = list(rng.uniform(-1, 1, size=(m, 2)))
                assert expansion_value(exp, args) == pytest.approx(
                    eval_free(spec, m, args), abs=1e-6
                )

    def test_se_expansion_truncation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            nu = float(rng.uniform(0.1, 2.0))
            spec = FreeKernelSpec(family="se", nu=nu)
            exp = expand_features(spec, n=2, max_degree=15)
            for m in (2, 4):
                args = list(rng.uniform(-1, 1, size=(m, 2)))
                assert expansion_value(exp, args) == pytest.approx(
                    eval_free(spec, m, args), abs=1e-6
                )

    def test_se_expansion_worst_corner(self):
        # Largest truncation error in the box: all arguments at a corner.
        spec = FreeKernelSpec(family="se", nu=2.0)
        exp = expand_features(spec, n=2, max_degree=15)
        corner = np.array([1.0, 1.0])
        args = [corner] * 4
        assert expansion_value(exp, args) == pytest.approx(eval_free(spec, 4, args), abs=1e-6)

    def test_se_feature_map_has_unit_weighted_norm(self):
        spec = FreeKernelSpec(family="se", nu=1.5)
        exp = expand_features(spec, n=2, max_degree=12)
        v = feature_values(exp, np.array([0.3, -0.8]))
        assert float(np.linalg.norm(exp.weights * v)) == pytest.approx(1.0, rel=1e-12)

    def test_log_ratio_expansion_truncation(self):
        rng = np.random.default_rng(7)
        spec = FreeKernelSpec(family="log-ratio")
        exp = expand_features(spec, n=2, max_degree=15)
        for m in (2, 4):
            for _ in range(10):
                args = list(rng.uniform(-0.7, 0.7, size=(m, 2)))
                assert expansion_value(exp, args) == pytest.approx(
                    eval_free(spec, m, args), rel=1e-6, abs=1e-8
                )


class TestTunedKernel:
    def test_xor_kernel_closed_form(self):
        t = TunedKernel(QUADRATIC, XOR_POINTS, XOR_ALPHA)
        rng = np.random.default_rng(8)
        for _ in range(20):
            x, xp = rng.uniform(-1, 1, size=(2, 2))
            expected = 0.5 * x[0] * x[1] * xp[0] * xp[1]
            assert eval_tuned(t, x, xp) == pytest.approx(expected, abs=1e-12)
        one = np.array([1.0, 1.0])
        assert eval_tuned(t, one, one) == pytest.approx(0.5, abs=1e-12)

    def test_xor_reweighted_feature_weights(self):
        t = TunedKernel(QUADRATIC, XOR_POINTS, XOR_ALPHA)
        exp = expand_features(QUADRATIC, n=2, max_degree=2)
        tau = tuned_weights_oracle(t, exp)
        for idx, w in zip(exp.multi_indices, tau):
            if tuple(idx) == (1, 1):
                assert abs(w) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
            else:
                assert w == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_double_sum(self):
        rng = np.random.default_rng(9)
        for family in ("polynomial", "exponential", "se", "linear", "hyperbolic-sine"):
            spec = FreeKernelSpec(family=family, nu=0.9, degree=3, offset=0.5)
            aux = rng.uniform(-1, 1, size=(6, 2))
            alpha = rng.normal(size=6)
            t = TunedKernel(spec, aux, alpha)
            for _ in range(5):
                x, xp = rng.uniform(-1, 1, size=(2, 2))
                expected = brute_tuned(spec, aux, alpha, x, xp)
                assert eval_tuned(t, x, xp) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_log_ratio_matches_brute_double_sum(self):
        rng = np.random.default_rng(10)
        spec = FreeKernelSpec(family="log-ratio")
        aux = rng.uniform(-0.8, 0.8, size=(4, 2))
        alpha = rng.normal(size=4)
        t = TunedKernel(spec, aux, alpha)
        for _ in range(5):
            x, xp = rng.uniform(-0.8, 0.8, size=(2, 2))
            expected = brute_tuned(spec, aux, alpha, x, xp)
            assert eval_tuned(t, x, xp) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_feature_route_agrees_for_polynomial_bases(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            spec = FreeKernelSpec(
                family="polynomial",
                degree=int(rng.integers(1, 4)),
                offset=float(rng.uniform(0.1, 2.0)),
            )
            n_aux = int(rng.integers(2, 8))
            aux = rng.uniform(-1, 1, size=(n_aux, 2))
            alpha = rng.normal(size=n_aux)
            t = TunedKernel(spec, aux, alpha)
            exp = expand_features(spec, n=2, max_degree=spec.degree)
            reweighted = exp.with_weights(tuned_weights_oracle(t, exp))
            for _ in range(4):
                x, xp = rng.uniform(-1, 1, size=(2, 2))
                direct = eval_tuned(t, x, xp)
                via_features = float(
                    np.sum(
                        reweighted.weights**2
                        * feature_values(exp, x)
                        * feature_values(exp, xp)
                    )
                )
                assert via_features == pytest.approx(direct, rel=1e-9, abs=1e-11)

    def test_gram_is_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            family = ("se", "polynomial")[trial % 2]
            spec = FreeKernelSpec(family=family, nu=float(rng.uniform(0.2, 3.0)), degree=2, offset=1.0)
            aux = rng.uniform(-1, 1, size=(20, 2))
            alpha = rng.normal(size=20)
            t = TunedKernel(spec, aux, alpha)
            X = rng.uniform(-1, 1, size=(50, 2))
            gram = t(X, X)
            assert np.allclose(gram, gram.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-8 * np.trace(gram)

    def test_sign_flip_of_alpha_leaves_kernel_unchanged(self):
        rng = np.random.default_rng(14)
        spec = FreeKernelSpec(family="se", nu=1.0)
        aux = rng.uniform(-1, 1, size=(5, 2))
        alpha = rng.normal(size=5)
        t_pos = TunedKernel(spec, aux, alpha)
        t_neg = TunedKernel(spec, aux, -alpha)
        X = rng.uniform(-1, 1, size=(4, 2))
        assert np.allclose(t_pos(X, X), t_neg(X, X), atol=1e-14)

    def test_vanishing_alpha_rejected(self):
        with pytest.raises(VanishingKernelError):
            TunedKernel(QUADRATIC, XOR_POINTS, np.zeros(4))
        with pytest.raises(VanishingKernelError):
            TunedKernel(QUADRATIC, XOR_POINTS, np.full(4, 1e-13))

    def test_single_auxiliary_point_accepted(self):
        t = TunedKernel(QUADRATIC, np.array([[0.5, 0.5]]), np.array([1.0]))
        x = np.array([0.2, 0.1])
        expected = eval_free(QUADRATIC, 4, [[0.5, 0.5], [0.5, 0.5], x, x])
        assert eval_tuned(t, x, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_diag_matches_pointwise_values(self, family):
        # Inputs inside (-0.8, 0.8) keep every log-ratio coordinate product in (-1, 1).
        rng = np.random.default_rng(15)
        spec = FreeKernelSpec(family=family, nu=2.0, degree=3, offset=0.5)
        t = TunedKernel(spec, rng.uniform(-0.8, 0.8, (6, 2)), rng.normal(size=6))
        X = rng.uniform(-0.8, 0.8, size=(5, 2))
        d = t.diag(X)
        # The batched diag sums the pair terms in another order than the 1x1 cross.
        floor = 1e-13 * float(np.max(np.abs(d)))
        for i, x in enumerate(X):
            assert d[i] == pytest.approx(eval_tuned(t, x, x), rel=1e-12, abs=floor)

    @pytest.mark.parametrize("chunk_elems", [1, 100])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_chunked_evaluation_matches_one_chunk(self, monkeypatch, family, chunk_elems):
        rng = np.random.default_rng(16)
        spec = FreeKernelSpec(family=family, nu=0.7, degree=3, offset=0.5)
        t = TunedKernel(spec, rng.uniform(-0.8, 0.8, (6, 3)), rng.normal(size=6))
        X1 = rng.uniform(-0.8, 0.8, size=(7, 3))
        X2 = rng.uniform(-0.8, 0.8, size=(3, 3))
        cross, diag = t(X1, X2), t.diag(X1)
        monkeypatch.setattr(_accel, "_CHUNK_ELEMS", chunk_elems)
        floor = 1e-13 * float(np.max(np.abs(cross)))
        assert t(X1, X2) == pytest.approx(cross, rel=1e-12, abs=floor)
        floor = 1e-13 * float(np.max(np.abs(diag)))
        assert t.diag(X1) == pytest.approx(diag, rel=1e-12, abs=floor)


class TestGradients:
    """cross_grad/diag_grad against their values and central differences."""

    @staticmethod
    def kernel(family, dim=3, n_aux=6):
        # Inputs inside (-0.8, 0.8) keep every log-ratio coordinate product in (-1, 1).
        rng = np.random.default_rng(17)
        spec = FreeKernelSpec(family=family, nu=0.7, degree=3, offset=0.5)
        t = TunedKernel(spec, rng.uniform(-0.8, 0.8, (n_aux, dim)), rng.normal(size=n_aux))
        return t, rng.uniform(-0.8, 0.8, (7, dim)), rng.uniform(-0.8, 0.8, (4, dim))

    @staticmethod
    def check(t, X1, X2, h=1e-6):
        K, dK = t.cross_grad(X1, X2)
        assert np.array_equal(K, t(X1, X2))
        assert dK.shape == X1.shape[:1] + X2.shape
        # the differences round off at about eps |K| / h
        want = central_differences(lambda X: t(X, X2), X1, h)
        floor = 1e-7 * float(np.max(np.abs(want)) + np.max(np.abs(K)))
        assert dK == pytest.approx(want, rel=1e-6, abs=floor)
        d, dd = t.diag_grad(X1)
        assert np.array_equal(d, t.diag(X1))
        want = central_differences(t.diag, X1, h)
        floor = 1e-7 * float(np.max(np.abs(want)) + np.max(np.abs(d)))
        assert dd == pytest.approx(want, rel=1e-6, abs=floor)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_central_differences(self, family):
        self.check(*self.kernel(family))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", DOT_FAMILIES)
    def test_weight_route_matches_central_differences(self, family, dim):
        t, X1, X2 = self.kernel(family, dim, n_aux=30)
        assert t.route == "weights"
        self.check(t, X1, X2)

    @pytest.mark.parametrize("chunk_elems", [1, 100])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_chunked_path(self, monkeypatch, family, chunk_elems):
        t, X1, X2 = self.kernel(family)
        K, dK = t.cross_grad(X1, X2)
        d, dd = t.diag_grad(X1)
        monkeypatch.setattr(_accel, "_CHUNK_ELEMS", chunk_elems)
        self.check(t, X1, X2)
        for got, want in zip(t.cross_grad(X1, X2) + t.diag_grad(X1), (K, dK, d, dd)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13 * float(np.max(np.abs(want))))

    def test_log_ratio_gradient_at_zero_coordinate(self):
        # a log-ratio factor is 0 at z = 0; the other coordinates' slopes
        # vanish there but the slope along that coordinate does not
        t, X1, X2 = self.kernel("log-ratio", dim=2)
        X1[:, 1] = 0.0
        _, dK = t.cross_grad(X1, X2)
        assert np.all(np.isfinite(dK))
        assert np.all(dK[:, :, 0] == 0.0)
        assert np.all(dK[:, :, 1] != 0.0)
        # log((1 + z) / (1 - z)) rounds off at about eps / z near z = 0,
        # so the differences there need a wider step
        self.check(t, X1, X2, h=1e-4)


# The dot-series maps and their slopes in D, written as whole-array
# expressions that allocate each intermediate afresh.
SERIES = {
    "linear": lambda D, nu, deg, off: D,
    "polynomial": lambda D, nu, deg, off: (D + off) ** deg,
    "exponential": lambda D, nu, deg, off: np.exp(nu * D),
    "hyperbolic-sine": lambda D, nu, deg, off: np.sinh(nu * D),
}
SLOPES = {
    "linear": lambda D, G, nu, deg, off: np.ones_like(D),
    "polynomial": lambda D, G, nu, deg, off: deg * (D + off) ** (deg - 1),
    "exponential": lambda D, G, nu, deg, off: nu * G,
    "hyperbolic-sine": lambda D, G, nu, deg, off: nu * np.cosh(nu * D),
}


class TestInPlaceRows:
    """The in-place dot-series path of ``tuned_rows``, bit for bit and in memory."""

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("chunk_elems", [None, 1, 8 * 21])
    @pytest.mark.parametrize("family", list(SERIES))
    def test_bit_identical_to_fresh_temporaries(self, monkeypatch, family, chunk_elems, grad):
        rng = np.random.default_rng(18)
        nu, deg, off = 0.7, 3, 0.5
        P, W = rng.uniform(-0.8, 0.8, (21, 3)), rng.normal(size=21)
        Z = rng.uniform(-0.8, 0.8, (35, 3))
        if chunk_elems is not None:
            # 8 * 21 elements take 8 of the 21 pairs' rows: 35 rows end in a chunk of 3
            monkeypatch.setattr(_accel, "_CHUNK_ELEMS", chunk_elems)
        rows = max(1, _accel._CHUNK_ELEMS // P.shape[0])
        want, dwant = np.empty(35), np.empty((35, 3))
        for r0 in range(0, 35, rows):
            D = Z[r0:r0 + rows] @ P.T
            G = SERIES[family](D, nu, deg, off)
            want[r0:r0 + rows] = G @ W
            dwant[r0:r0 + rows] = SLOPES[family](D, G, nu, deg, off) @ (W[:, None] * P)
            assert np.array_equal(_accel.dot_series(family, nu, deg, off, D), G)
        got = _accel.tuned_rows(P, W, family, nu, deg, off, Z, grad=grad)
        if grad:
            got, dgot = got
            assert np.array_equal(dgot, dwant)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "family, buffers",
        [("se", 1.25), ("exponential", 1.25), ("polynomial", 2.25), ("hyperbolic-sine", 2.25)],
    )
    def test_peak_memory_in_chunk_buffers(self, family, buffers):
        # 50 auxiliary points make 1275 pairs; an 8 x 8 cross is one chunk of
        # 64 rows.  Only polynomial and hyperbolic-sine gradients need a
        # second buffer, for the slope.  Three dimensions keep the pair route.
        rng = np.random.default_rng(19)
        spec = FreeKernelSpec(family=family, nu=0.7, degree=3, offset=0.5)
        t = TunedKernel(spec, rng.uniform(-0.8, 0.8, (50, 3)), rng.normal(size=50))
        assert t.route == "pairs"
        X = rng.uniform(-0.8, 0.8, (8, 3))
        chunk = 64 * 1275 * 8
        for call in (lambda: t.cross_grad(X, X), lambda: t(X, X), lambda: t.diag_grad(X)):
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= buffers * chunk


def longdouble_pair_sum(t, X1, X2):
    """K(x, y) of a dot-series TunedKernel, summed over every auxiliary pair
    in extended precision: the reference both routes are measured against."""
    ld = np.longdouble
    spec = t.base
    a, w = t.aux_points.astype(ld), t.alpha.astype(ld)
    X1, X2 = X1.astype(ld), X2.astype(ld)
    D = np.einsum("ik,jk,xk,yk->xyij", a, a, X1, X2)
    series = SERIES["exponential" if spec.family == "se" else spec.family]
    G = series(D, ld(spec.nu), spec.degree, ld(spec.offset))
    if spec.family == "se":
        w = w * np.exp(-0.5 * spec.nu * np.sum(a * a, axis=1))
    K = np.einsum("i,j,xyij->xy", w, w, G)
    if spec.family == "se":
        K *= np.exp(-0.5 * spec.nu * np.sum(X1 * X1, axis=1))[:, None]
        K *= np.exp(-0.5 * spec.nu * np.sum(X2 * X2, axis=1))[None, :]
    return K


def pair_twin(t):
    """The same kernel in three dimensions, which always take the pair route:
    the added coordinates are zero and change no value."""
    def pad(X):
        X = np.atleast_2d(X)
        return np.pad(X, ((0, 0), (0, 3 - X.shape[1])))

    twin = TunedKernel(t.base, pad(t.aux_points), t.alpha)
    assert twin.route == "pairs"
    return twin, pad


class TestWeightRoute:
    """The monomial (feature-weight) route of ``TunedKernel`` in one and two
    dimensions, against the pair route and extended-precision references."""

    @staticmethod
    def kernel(family, dim, nu=0.7, n_aux=30, seed=20):
        rng = np.random.default_rng(seed)
        spec = FreeKernelSpec(family=family, nu=nu, degree=3, offset=0.5)
        t = TunedKernel(spec, rng.uniform(-1, 1, (n_aux, dim)), rng.normal(size=n_aux))
        return t, rng.uniform(-1, 1, (9, dim)), rng.uniform(-1, 1, (5, dim))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", DOT_FAMILIES)
    def test_matches_pair_route(self, family, dim):
        t, X1, X2 = self.kernel(family, dim)
        assert t.route == "weights"
        twin, pad = pair_twin(t)
        K, dK = t.cross_grad(X1, X2)
        K2, dK2 = twin.cross_grad(pad(X1), pad(X2))
        scale = np.sqrt(np.outer(t.diag(X1), t.diag(X2)))
        assert np.all(np.abs(K - K2) <= 1e-12 * scale)
        assert dK == pytest.approx(dK2[..., :dim], rel=1e-10, abs=1e-12 * np.max(np.abs(dK2)))
        d, dd = t.diag_grad(X1)
        d2, dd2 = twin.diag_grad(pad(X1))
        assert d == pytest.approx(d2, rel=1e-12)
        assert dd == pytest.approx(dd2[:, :dim], rel=1e-10, abs=1e-12 * np.max(np.abs(dd2)))

    @pytest.mark.parametrize("nu", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", DOT_FAMILIES)
    def test_matches_longdouble_pair_sum(self, family, dim, nu):
        # A few ulps of sqrt(k(x, x) k(y, y)), which bounds |k(x, y)|.
        t, X1, X2 = self.kernel(family, dim, nu=nu, n_aux=50)
        assert t.route == "weights"
        want = longdouble_pair_sum(t, X1, X2)
        scale = np.sqrt(np.outer(np.diag(longdouble_pair_sum(t, X1, X1)),
                                 np.diag(longdouble_pair_sum(t, X2, X2))))
        err = np.abs(t(X1, X2) - want) / scale
        assert float(np.max(err)) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", DOT_FAMILIES)
    def test_coefficients_match_feature_weights(self, family, dim):
        # C_beta is the squared reweighted weight of the monomial z^beta.
        t, _, _ = self.kernel(family, dim)
        table = t._coefs
        expansion = expand_features(t.base, n=dim, max_degree=t.order)
        tau = tuned_weights_oracle(t, expansion)
        want = np.zeros_like(table)
        for beta, weight in zip(expansion.multi_indices, tau):
            want[beta[0], beta[1] if dim == 2 else 0] = weight**2
        assert table == pytest.approx(want, rel=1e-10, abs=1e-13 * np.max(want))

    @pytest.mark.parametrize("family", DOT_FAMILIES)
    def test_points_outside_the_box_take_the_pairs(self, family):
        t, X1, X2 = self.kernel(family, 2)
        twin, pad = pair_twin(t)
        X1 = 1.5 * X1
        assert np.max(np.abs(X1)) > 1.0
        scale = np.sqrt(np.outer(twin.diag(pad(X1)), twin.diag(pad(X2))))
        assert np.all(np.abs(t(X1, X2) - twin(pad(X1), pad(X2))) <= 1e-13 * scale)
        assert t.diag(X1) == pytest.approx(twin.diag(pad(X1)), rel=1e-13)

    def test_route_and_order_are_read_only(self):
        t, _, _ = self.kernel("se", 2)
        for name in ("route", "order"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)


class TestRouteChoice:
    """The route is chosen at construction by counting monomials against pairs."""

    @staticmethod
    def flipped_model(function, nu):
        problem = normalize_problem(FUNCTIONS[function])
        aux = make_flipped_aux(problem, seed=0)
        return pretrain(aux, FreeKernelSpec(family="se"), HyperGrid(nu_values=(nu,)))

    @pytest.mark.parametrize("function", ["himmelblau", "ackley"])
    @pytest.mark.parametrize("nu, order", [(1.0, 22), (3.0, 35)])
    def test_flipped_aux_se_takes_the_weights(self, function, nu, order):
        t = build_tuned(self.flipped_model(function, nu))
        assert (t.route, t.order) == ("weights", order)
        assert math.comb(order + 2, 2) < 50 * 51 // 2

    def test_flipped_aux_se_at_nu_10_keeps_the_pairs(self):
        t = build_tuned(self.flipped_model("himmelblau", 10.0))
        assert (t.route, t.order) == ("pairs", None)

    def test_log_ratio_keeps_the_pairs(self):
        rng = np.random.default_rng(21)
        t = TunedKernel(FreeKernelSpec(family="log-ratio"), rng.uniform(-0.9, 0.9, (50, 2)),
                        rng.normal(size=50))
        assert (t.route, t.order) == ("pairs", None)

    def test_two_device_model_keeps_the_pairs(self):
        aux = synthetic_two_device(0).aux
        t = TunedKernel(FreeKernelSpec(family="se", nu=1.0), aux.inputs,
                        np.ones(aux.inputs.shape[0]))
        assert (t.route, t.order) == ("pairs", None)

    def test_polynomial_route_by_count(self):
        # Degree 3 in 2-D has C(5, 2) = 10 monomials: fewer than the 15 pairs
        # of five points, but not than the 10 of four.
        rng = np.random.default_rng(22)
        spec = FreeKernelSpec(family="polynomial", degree=3)
        five = TunedKernel(spec, rng.uniform(-1, 1, (5, 2)), rng.normal(size=5))
        four = TunedKernel(spec, rng.uniform(-1, 1, (4, 2)), rng.normal(size=4))
        assert (five.route, five.order) == ("weights", 3)
        assert (four.route, four.order) == ("pairs", None)

    def test_coefficient_table_past_the_float_range_takes_the_pairs(self):
        # Degree 2 in 1-D has 3 monomials, fewer than the 6 pairs of three
        # points, but offset^2 (alpha_1 + alpha_2 + alpha_3)^2 is 1e320.
        aux, alpha = np.array([[-0.5], [0.25], [0.75]]), np.array([3e9, 4e9, 3e9])
        t = TunedKernel(FreeKernelSpec(family="polynomial", degree=2, offset=1e150), aux, alpha)
        assert (t.route, t.order) == ("pairs", None)

    def test_high_degree_polynomial_takes_the_pairs(self):
        # Degree 180 in 1-D has 181 monomials, fewer than the 210 pairs of
        # twenty points, but its coefficient table holds 180!, past the float
        # range.
        rng = np.random.default_rng(23)
        aux, alpha = rng.uniform(-1, 1, (20, 1)), rng.normal(size=20)
        t = TunedKernel(FreeKernelSpec(family="polynomial", degree=180), aux, alpha)
        assert (t.route, t.order) == ("pairs", None)
        # probes away from 0, where z^180 would leave the float range
        X1, X2 = np.array([[-1.0], [-0.7], [0.6], [1.0]]), np.array([[-0.9], [0.8], [1.0]])
        pairs = np.outer(aux[:, 0], aux[:, 0])
        want = [[alpha @ (pairs * x * y) ** 180 @ alpha for y in X2[:, 0]] for x in X1[:, 0]]
        assert t(X1, X2) == pytest.approx(np.array(want), rel=1e-12, abs=0)


def pair_reference(t, X, D):
    """K(x, d) and dK/dx over every auxiliary pair in extended precision,
    from the kernel's base, auxiliary points and dual coefficients alone:
    the reference for the prepared cross of either route."""
    ld = np.longdouble
    spec = t.base
    a, w = t.aux_points.astype(ld), t.alpha.astype(ld)
    X, D = X.astype(ld), D.astype(ld)
    # coordinate products a_ik a_jk d_k of every pair (i, j) and point d
    AD = np.einsum("ik,jk,yk->yijk", a, a, D)
    Z = np.einsum("xk,yijk->xyijk", X, AD)
    if spec.family == "log-ratio":
        F = np.log((1 + Z) / (1 - Z))
        G = np.prod(F, axis=-1)
        dZ = np.stack([
            np.prod(np.delete(F, k, axis=-1), axis=-1) * 2 / (1 - Z[..., k] ** 2)
            for k in range(X.shape[1])
        ], axis=-1)
    else:
        family = "exponential" if spec.family == "se" else spec.family
        U = Z.sum(-1)
        G = SERIES[family](U, ld(spec.nu), spec.degree, ld(spec.offset))
        dZ = SLOPES[family](U, G, ld(spec.nu), spec.degree, ld(spec.offset))[..., None]
    if spec.family == "se":
        w = w * np.exp(-0.5 * spec.nu * np.sum(a * a, axis=1))
    K = np.einsum("i,j,xyij->xy", w, w, G)
    dK = np.einsum("i,j,xyijk,yijk->xyk", w, w, dZ, AD)
    if spec.family == "se":
        c = np.exp(-0.5 * spec.nu * np.sum(X * X, axis=1))[:, None]
        c = c * np.exp(-0.5 * spec.nu * np.sum(D * D, axis=1))[None, :]
        K, dK = K * c, dK * c[..., None] - spec.nu * X[:, None, :] * (K * c)[..., None]
    return K.astype(float), dK.astype(float)


class TestPreparedCross:
    """``TunedKernel.against`` prepares the cross against fixed points once;
    its values and input gradients match the pair sum on every route."""

    @staticmethod
    def kernel(family, dim, n_aux):
        # Inputs inside (-0.9, 0.9) keep every log-ratio coordinate product in (-1, 1).
        rng = np.random.default_rng(24)
        spec = FreeKernelSpec(family=family, nu=0.7, degree=3, offset=0.5)
        t = TunedKernel(spec, rng.uniform(-0.9, 0.9, (n_aux, dim)), rng.normal(size=n_aux))
        return t, rng.uniform(-0.9, 0.9, (7, dim)), rng.uniform(-0.9, 0.9, (5, dim))

    @staticmethod
    def check(t, X, D):
        cross = t.against(D)
        K, dK = cross(X, grad=True)
        assert np.array_equal(cross(X), K)
        assert np.array_equal(t(X, D), K) and np.array_equal(t.cross_grad(X, D)[1], dK)
        want, dwant = pair_reference(t, X, D)
        assert dK.shape == X.shape[:1] + D.shape
        assert np.max(np.abs(K - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(dK - dwant)) <= 1e-12 * np.max(np.abs(dwant))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("family", DOT_FAMILIES)
    def test_weight_route(self, family, dim):
        t, X, D = self.kernel(family, dim, n_aux=30)
        assert t.route == "weights"
        self.check(t, X, D)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pair_route(self, family):
        t, X, D = self.kernel(family, 3, n_aux=6)
        assert t.route == "pairs"
        self.check(t, X, D)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_log_ratio(self, dim):
        t, X, D = self.kernel("log-ratio", dim, n_aux=30)
        assert t.route == "pairs"
        self.check(t, X, D)

    @pytest.mark.parametrize("family", DOT_FAMILIES)
    def test_weight_route_takes_the_pairs_past_the_box(self, monkeypatch, family):
        # the table is made once, but a call with some |x_k d_jk| > 1 sums
        # over the pairs, and one inside the box goes back to the table
        t, X, D = self.kernel(family, 2, n_aux=30)
        cross = t.against(D)
        calls = []
        real = _accel.weight_cross

        def recording(G, points, grad=False):
            calls.append(len(points))
            return real(G, points, grad)

        monkeypatch.setattr(_accel, "weight_cross", recording)
        far = X.copy()
        far[0, 0] = 1.05 / np.max(np.abs(D[:, 0]))
        assert np.max(np.abs(far[:, None, :] * D[None, :, :])) == pytest.approx(1.05)
        for points, table_calls in ((far, []), (X, [len(X)])):
            want, dwant = pair_reference(t, points, D)
            K, dK = cross(points, grad=True)
            assert calls == table_calls
            calls.clear()
            assert np.max(np.abs(K - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(dK - dwant)) <= 1e-12 * np.max(np.abs(dwant))

    def test_point_dimension_checked(self):
        t, X, D = self.kernel("se", 2, n_aux=30)
        with pytest.raises(ValueError, match="point dimension"):
            t.against(D)(X[:, :1])
        with pytest.raises(ValueError, match="point dimension"):
            t.against(D[:, :1])
