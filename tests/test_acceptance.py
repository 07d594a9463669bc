"""Package acceptance gate: nine criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as the
criteria execute.  Criterion 8 is a full benchmark run and dominates the
wall time (under a minute on one core).
"""

import contextlib
import json
import time

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from feature_route import (
    eval_free,
    eval_tuned,
    expand_features,
    expansion_value,
    tuned_weights_oracle,
    weight_space_posterior_oracle,
)
from tpbo import _accel
from tpbo.bench import BenchmarkSpec, run_benchmark
from tpbo.cli import main
from tpbo.errors import VanishingKernelError
from tpbo.gp import GpPosterior, SeKernel
from tpbo.mkernel import FAMILIES, FreeKernelSpec, TunedKernel
from tpbo.pretrain import (
    AuxDataset,
    HyperGrid,
    build_tuned,
    loo_error,
    pretrain,
    train_lssvm,
)


@contextlib.contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS")


XOR_POINTS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
XOR_LABELS = np.array([-1.0, 1.0, 1.0, -1.0])
XOR_ALPHA = np.array([-0.125, 0.125, 0.125, -0.125])


def test_criterion_1_xor_golden_pipeline():
    with verdict(1, "XOR golden pipeline"):
        t0 = time.perf_counter()
        data = AuxDataset(inputs=XOR_POINTS, targets=XOR_LABELS,
                          task="classification")
        kernel = FreeKernelSpec(family="polynomial", degree=2, offset=1.0)
        model = pretrain(data, kernel, HyperGrid((1.0,), (1.0,)))
        assert np.max(np.abs(model.alpha - XOR_ALPHA)) <= 1e-9

        tuned = build_tuned(model)
        axis = np.linspace(-1.0, 1.0, 5)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        probes = np.stack([gx.ravel(), gy.ravel()], axis=1)  # 25 points
        got = tuned(probes, probes)  # all 5x5 x 5x5 pairs
        prod = probes[:, 0] * probes[:, 1]
        want = 0.5 * np.outer(prod, prod)
        assert np.max(np.abs(got - want)) <= 1e-9
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_reweighting_matches_feature_route():
    with verdict(2, "reweighted kernel equals explicit feature sum"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            degree = int(rng.integers(1, 4))
            offset = float(rng.uniform(0.0, 2.0))
            na = int(rng.integers(1, 11))
            spec = FreeKernelSpec(family="polynomial", degree=degree, offset=offset)
            aux = rng.uniform(-1.0, 1.0, (na, n))
            alpha = rng.normal(size=na)
            tuned = TunedKernel(spec, aux, alpha)
            expansion = expand_features(spec, n)
            reweighted = expansion.with_weights(tuned_weights_oracle(tuned, expansion))
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, n)
                xp = rng.uniform(-1.0, 1.0, n)
                got = eval_tuned(tuned, x, xp)
                want = expansion_value(reweighted, (x, xp))
                assert abs(got - want) <= 1e-9 * abs(want) + 1e-12
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_se_expansion_and_pair_form():
    with verdict(3, "free-kernel expansion agreements"):
        rng = np.random.default_rng(7)
        for nu in (0.5, 1.0, 2.0):
            spec = FreeKernelSpec(family="se", nu=nu)
            expansion = expand_features(spec, 2, max_degree=15)
            for _ in range(10):
                args = tuple(rng.uniform(-1.0, 1.0, 2) for _ in range(4))
                got = eval_free(spec, 4, args)
                want = expansion_value(expansion, args)
                assert abs(got - want) <= 1e-6
            corner = (np.ones(2),) * 4  # largest m-dot-product, worst case
            assert abs(eval_free(spec, 4, corner)
                       - expansion_value(expansion, corner)) <= 1e-6
            for _ in range(10):
                x, xp = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
                got = eval_free(spec, 2, (x, xp))
                want = float(np.exp(-0.5 * nu * np.sum((x - xp) ** 2)))
                assert abs(got - want) <= 1e-12 * abs(want)


def test_criterion_4_tuned_grams_are_psd():
    with verdict(4, "tuned Gram matrices positive semidefinite"):
        rng = np.random.default_rng(11)
        for trial in range(10):
            family = FAMILIES[trial % len(FAMILIES)]
            kwargs = {}
            if family == "polynomial":
                kwargs = {"degree": int(rng.integers(1, 4)),
                          "offset": float(rng.uniform(0.0, 1.5))}
            elif family in ("hyperbolic-sine", "exponential", "se"):
                kwargs = {"nu": float(rng.uniform(0.2, 2.0))}
            spec = FreeKernelSpec(family=family, **kwargs)
            scale = 0.6 if family == "log-ratio" else 1.0
            aux = rng.uniform(-scale, scale, (int(rng.integers(2, 9)), 2))
            alpha = rng.normal(size=aux.shape[0])
            tuned = TunedKernel(spec, aux, alpha)
            X = rng.uniform(-scale, scale, (50, 2))
            gram = tuned(X, X)
            sym = 0.5 * (gram + gram.T)
            min_eig = float(np.linalg.eigvalsh(sym).min())
            assert min_eig >= -1e-8 * np.trace(sym)


def test_criterion_5_gp_correctness():
    with verdict(5, "posterior correctness"):
        rng = np.random.default_rng(5)
        # weight-space vs function-space agreement on a polynomial kernel
        spec = FreeKernelSpec(family="polynomial", degree=3, offset=0.7)
        aux = rng.uniform(-1.0, 1.0, (6, 2))
        alpha = rng.normal(size=6)
        tuned = TunedKernel(spec, aux, alpha)
        expansion = expand_features(spec, 2)
        reweighted = expansion.with_weights(tuned_weights_oracle(tuned, expansion))
        X = rng.uniform(-1.0, 1.0, (7, 2))
        y = rng.normal(size=7)
        gp = GpPosterior.from_data(tuned, X, y, 1e-4)
        for _ in range(10):
            q = rng.uniform(-1.0, 1.0, 2)
            (m_f,), (v_f,) = gp.posterior_batch(q[None, :])
            m_w, v_w = weight_space_posterior_oracle(reweighted, gp.obs, q)
            assert abs(m_f - m_w) <= 1e-8 * max(1.0, abs(m_w))
            assert abs(v_f - v_w) <= 1e-8 * max(1.0, abs(v_w))

        # noiseless interpolation
        Xi = rng.uniform(-1.0, 1.0, (12, 2))
        yi = np.sin(3 * Xi[:, 0]) * np.cos(2 * Xi[:, 1])
        gpi = GpPosterior.from_data(SeKernel(4.0), Xi, yi, 0.0)
        for i in range(12):
            (mean,), _ = gpi.posterior_batch(Xi[i][None, :])
            assert abs(mean - yi[i]) <= 1e-6

        # incremental update equals rebuild
        X8 = rng.uniform(-1.0, 1.0, (8, 2))
        y8 = rng.normal(size=8)
        inc = GpPosterior.from_data(SeKernel(1.5), X8[:5], y8[:5], 1e-6)
        for i in range(5, 8):
            inc = inc.add_observation(X8[i], y8[i])
        full = GpPosterior.from_data(SeKernel(1.5), X8, y8, 1e-6)
        for _ in range(10):
            q = rng.uniform(-1.0, 1.0, 2)
            (mi,), (vi,) = inc.posterior_batch(q[None, :])
            (mf,), (vf,) = full.posterior_batch(q[None, :])
            assert abs(mi - mf) <= 1e-9 * max(1.0, abs(mf))
            assert abs(vi - vf) <= 1e-9 * max(1.0, abs(vf))


def test_criterion_6_loo_closed_form():
    with verdict(6, "leave-one-out closed form equals retraining"):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 21))
            X = rng.uniform(-1.0, 1.0, (n, 2))
            gram = _accel.se_cross(X, X, float(rng.uniform(0.5, 4.0)))
            y = rng.normal(size=n)
            lam = float(rng.choice([1e-3, 1e-2, 1e-1, 1.0]))
            closed = loo_error(gram, y, (lam,), "regression")[0]
            errs = []
            for i in range(n):
                keep = np.arange(n) != i
                sub = gram[np.ix_(keep, keep)]
                alpha = train_lssvm(sub, y[keep], lam)
                pred = float(gram[i, keep] @ alpha)
                errs.append((y[i] - pred) ** 2)
            explicit = float(np.mean(errs))
            assert abs(closed - explicit) <= 1e-8 * max(1.0, explicit)


CONSTANT_CSV = "x1,x2,y\n0.0,0.0,3.0\n0.5,-0.25,3.0\n-0.75,1.0,3.0\n1.0,0.5,3.0\n"


def test_criterion_7_vanishing_kernel_pathway(tmp_path):
    with verdict(7, "degenerate auxiliary data handling"):
        data = AuxDataset(inputs=np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.25]]),
                          targets=np.array([2.0, 2.0, 2.0]), task="regression")
        with pytest.raises(VanishingKernelError):
            pretrain(data, FreeKernelSpec(family="se"))

        csv = tmp_path / "constant.csv"
        csv.write_text(CONSTANT_CSV)
        code = main(["pretrain", "--aux", str(csv), "--task", "regression",
                     "--out", str(tmp_path / "model.json")])
        assert code == 3


def test_criterion_8_benchmark_trend():
    with verdict(8, "transfer beats plain EI on the flipped benchmark"):
        spec = BenchmarkSpec(
            functions=("himmelblau", "ackley"),
            methods=("tp-ei", "ei"),
            seeds=10,
            iterations=40,
            refine_top=8,
        )
        t0 = time.perf_counter()
        records = run_benchmark(spec)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 600.0, f"benchmark took {elapsed:.0f}s"

        final = {}
        for r in records:
            if r.iteration == spec.iterations:
                final.setdefault((r.function, r.method), {})[r.seed] = r.best_value
        dominance = []
        for fn in spec.functions:
            tp = final[(fn, "tp-ei")]
            plain = final[(fn, "ei")]
            assert len(tp) == 10 and len(plain) == 10
            med_tp = float(np.median([tp[s] for s in range(10)]))
            med_ei = float(np.median([plain[s] for s in range(10)]))
            print(f"\n  {fn}: median tp-ei {med_tp:.6f} vs ei {med_ei:.6f}")
            assert med_tp >= med_ei
            dominance.append(sum(1 for s in range(10) if tp[s] >= plain[s]))
        print(f"  paired weak dominance counts: {dominance}")
        assert max(dominance) >= 7


def test_criterion_9_bench_determinism(tmp_path):
    with verdict(9, "benchmark output byte-identical across invocations"):
        args = ["bench", "--functions", "himmelblau", "--methods", "tp-ei,ei",
                "--seeds", "2", "--iters", "3"]
        a = str(tmp_path / "first.csv")
        b = str(tmp_path / "second.csv")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
