"""Benchmark-harness tests: normalization, aux generation, protocol, CSVs."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import spearmanr

import tpbo._blas
import tpbo.bo
from tpbo.bench import (
    FUNCTION_ORDER,
    FUNCTIONS,
    INIT_SIZE,
    METHODS,
    NOISE_VAR,
    BenchmarkSpec,
    RegretRecord,
    make_flipped_aux,
    normalize_problem,
    run_benchmark,
    run_cell,
    seeded_session,
    summarize,
    synthetic_two_device,
    tune_ard_loo,
    tune_se_loo,
    write_results,
    write_summary,
)
from tpbo.bo import BoSession
from tpbo.errors import VanishingKernelError
from tpbo.gp import ArdSeKernel, SeKernel
from tpbo.pretrain import DEFAULT_LAMBDA_GRID, DEFAULT_NU_GRID, loo_error

def brute_force_pick(kernel_for, X, y):
    """First strict LOO improvement over the sorted default grids."""
    best = None
    for nu in sorted(DEFAULT_NU_GRID):
        gram = kernel_for(nu)(X, X)
        for lam in sorted(DEFAULT_LAMBDA_GRID):
            err = loo_error(gram, y, (lam,), "regression")[0]
            if best is None or err < best[0]:
                best = (err, nu, lam)
    return best[1], best[2]


class TestNormalization:
    def test_rastrigin_origin_is_top(self):
        # the native global minimum value is 0 at the origin, which the
        # affine input map leaves fixed, so the normalized score is 1
        problem = normalize_problem(FUNCTIONS["rastrigin"])
        assert problem.objective(np.array([0.0, 0.0])) == 1.0

    def test_ackley_origin_is_top(self):
        problem = normalize_problem(FUNCTIONS["ackley"])
        assert problem.objective(np.array([0.0, 0.0])) == 1.0

    def test_himmelblau_root_is_top(self):
        problem = normalize_problem(FUNCTIONS["himmelblau"])
        assert problem.objective(np.array([3.0 / 5.0, 2.0 / 5.0])) == 1.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        Z = rng.uniform(-1, 1, (200, 2))
        for name in FUNCTION_ORDER:
            f = normalize_problem(FUNCTIONS[name]).objective(Z)
            assert np.all(f >= 0.0) and np.all(f <= 1.0)

    def test_grid_attains_both_ends(self):
        for name in ("himmelblau", "eggholder", "styblinski_tang"):
            problem = normalize_problem(FUNCTIONS[name])
            axis = np.linspace(-1.0, 1.0, 101)
            gx, gy = np.meshgrid(axis, axis, indexing="ij")
            f = problem.objective(np.stack([gx, gy], axis=-1).reshape(-1, 2))
            assert f.min() == 0.0
            assert f.max() == 1.0

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            normalize_problem(FUNCTIONS["ackley"], grid_resolution=41)

    def test_native_map_covers_domain(self):
        corners = FUNCTIONS["eggholder"].to_native(np.array([[-1.0, -1.0], [1.0, 1.0]]))
        assert corners[0].tolist() == [-512.0, -512.0]
        assert corners[1].tolist() == [512.0, 512.0]


class TestFlippedAux:
    def test_deterministic(self):
        problem = normalize_problem(FUNCTIONS["himmelblau"])
        a = make_flipped_aux(problem, 50, seed=4)
        b = make_flipped_aux(problem, 50, seed=4)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_shape_and_range(self):
        problem = normalize_problem(FUNCTIONS["ackley"])
        aux = make_flipped_aux(problem, 50, seed=1)
        assert aux.inputs.shape == (50, 2)
        assert aux.task == "regression"
        assert np.all(aux.targets >= 0.0) and np.all(aux.targets <= 1.0)

    def test_rank_correlation_strongly_negative(self):
        # aux ranks the space inversely to the objective
        problem = normalize_problem(FUNCTIONS["himmelblau"])
        aux = make_flipped_aux(problem, 50, seed=2)
        rho = spearmanr(aux.targets, problem.objective(aux.inputs)).statistic
        assert rho <= -0.95


class TestTuners:
    def test_se_tuner_returns_grid_members(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (30, 2))
        y = np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1])
        nu, lam = tune_se_loo(X, y)
        assert nu in DEFAULT_NU_GRID
        assert lam in DEFAULT_LAMBDA_GRID

    @pytest.mark.parametrize("signal", [True, False])
    def test_se_tuner_matches_brute_force(self, signal):
        # Zero targets give every cell a LOO error of exactly 0, so only the
        # tie-break decides: smallest nu, then smallest lambda.
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (15, 2))
        y = np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1]) if signal else np.zeros(15)
        got = tune_se_loo(X, y)
        assert got == brute_force_pick(SeKernel, X, y)
        if not signal:
            assert got == (0.1, 1e-4)

    @pytest.mark.parametrize("signal", [True, False])
    def test_ard_tuner_matches_brute_force(self, signal):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (15, 2))
        y = np.sin(4.0 * X[:, 0]) + 0.2 * X[:, 1] if signal else np.zeros(15)
        want = np.ones(2)
        for _ in range(2):
            for d in range(2):
                def kernel_for(nu, d=d):
                    trial = want.copy()
                    trial[d] = nu
                    return ArdSeKernel(trial)

                want[d] = brute_force_pick(kernel_for, X, y)[0]
        got = tune_ard_loo(X, y)
        assert np.array_equal(got, want)
        if not signal:
            assert np.array_equal(got, [0.1, 0.1])

    def test_ard_downweights_irrelevant_dimension(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (40, 2))
        y = np.sin(4.0 * X[:, 0])  # second coordinate carries no signal
        nus = tune_ard_loo(X, y)
        assert nus.shape == (2,)
        assert nus[1] == min(DEFAULT_NU_GRID)
        assert nus[0] > nus[1]


# Kept apart so tests that break `ctypes.CDLL` for the pool can still probe.
_CDLL = ctypes.CDLL


def openblas_threads():
    """Thread count of every OpenBLAS loaded in this process, by library path."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    counts = {}
    for lib in sorted(libs):
        handle = _CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(handle, sym, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts[lib] = getter()
    return counts


def blas_probe_cell(cell):
    """Stands in for a benchmark cell: one record per library and its threads."""
    return [
        RegretRecord(lib, "threads", n, os.getpid(), 0.0)
        for lib, n in openblas_threads().items()
    ]


def tiny_spec(**kw):
    base = dict(
        functions=("himmelblau",),
        methods=("tp-ei", "ei"),
        seeds=2,
        iterations=5,
        refine_top=2,
    )
    base.update(kw)
    return BenchmarkSpec(**base)


class TestProtocol:
    def test_record_count(self):
        records = run_benchmark(tiny_spec())
        # 1 function x 2 methods x 2 seeds x 5 iterations
        assert len(records) == 20
        assert [r.iteration for r in records[:5]] == [1, 2, 3, 4, 5]

    def test_best_monotone_within_groups(self):
        records = run_benchmark(tiny_spec())
        groups = {}
        for r in records:
            groups.setdefault((r.method, r.function, r.seed), []).append(r)
        for rows in groups.values():
            rows.sort(key=lambda r: r.iteration)
            vals = [r.best_value for r in rows]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_initial_design_shared_across_methods(self):
        problem = normalize_problem(FUNCTIONS["himmelblau"])

        def design(seed, kernel, kind, session_seed):
            obs = seeded_session(problem, 1, seed, kernel, kind, session_seed).gp.obs
            return obs.points, obs.values

        X1, y1 = design(3, SeKernel(1.0), "ei", 0)
        X2, y2 = design(3, SeKernel(0.3), "ucb", 5)
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
        assert np.array_equal(y1, problem.objective(X1))
        X3, _ = design(4, SeKernel(1.0), "ei", 0)
        assert not np.array_equal(X1, X3)

    @pytest.mark.parametrize("kind", ["ei", "ucb"])
    def test_seeded_session_follows_the_protocol(self, kind):
        problem = normalize_problem(FUNCTIONS["ackley"])
        session = seeded_session(problem, 2, 7, SeKernel(1.0), kind, 11)
        assert session.gp.obs.size == INIT_SIZE and session.iteration == 0
        assert session.gp.obs.noise_var == NOISE_VAR
        assert (session.acquisition.kind, session.acquisition.delta) == (kind, 0.1)
        assert (session.acquisition.dim, session.rng_seed) == (2, 11)

    def test_bitwise_reproducible(self, tmp_path):
        spec = tiny_spec(seeds=1, iterations=3)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_results(run_benchmark(spec), p1)
        write_results(run_benchmark(spec), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_all_methods_run(self):
        spec = tiny_spec(methods=METHODS, seeds=1, iterations=2)
        records = run_benchmark(spec)
        assert len(records) == len(METHODS) * 2
        assert {r.method for r in records} == set(METHODS)

    def test_vanishing_kernel_propagates(self, monkeypatch):
        # a cell is never dropped: the error leaves run_cell as raised
        import tpbo.bench as bench_mod

        def boom(*args, **kwargs):
            raise VanishingKernelError("all dual coefficients vanished")

        monkeypatch.setattr(bench_mod, "pretrain", boom)
        with pytest.raises(VanishingKernelError, match="all dual coefficients vanished"):
            run_cell("himmelblau", "tp-ei", 0, tiny_spec())

    def test_parallel_path_matches_serial(self, monkeypatch):
        # The serial side runs in this process with its own BLAS threads, the
        # pooled side in workers with one each; records must match bit for bit.
        spec = tiny_spec(methods=METHODS, seeds=2, iterations=2, refine_top=2)
        monkeypatch.setenv("TPBO_THREADS", "1")
        serial = run_benchmark(spec)
        monkeypatch.setenv("TPBO_THREADS", "2")
        parallel = run_benchmark(spec)
        assert serial == parallel

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread anyway")
    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        import tpbo.bench as bench_mod

        before = openblas_threads()
        assert before, "no OpenBLAS found in /proc/self/maps"
        monkeypatch.setattr(bench_mod, "_cell_entry", blas_probe_cell)
        monkeypatch.setenv("TPBO_THREADS", "2")
        records = run_benchmark(tiny_spec(seeds=2))
        assert openblas_threads() == before
        assert {r.method for r in records} == set(before)
        assert {r.seed for r in records} == {1}

    def test_serial_cells_run_one_blas_thread(self, monkeypatch):
        import tpbo.bench as bench_mod

        before = openblas_threads()
        assert before, "no OpenBLAS found in /proc/self/maps"
        monkeypatch.setattr(bench_mod, "_cell_entry", blas_probe_cell)
        monkeypatch.setenv("TPBO_THREADS", "1")
        records = run_benchmark(tiny_spec(seeds=2))
        assert openblas_threads() == before
        assert {r.method for r in records} == set(before)
        assert {(r.seed, r.iteration) for r in records} == {(1, os.getpid())}

    def test_only_the_parent_sets_blas_threads(self, monkeypatch, tmp_path):
        log = tmp_path / "setters.log"
        real = tpbo._blas.find_controls

        def logged(setter):
            def set_threads(n):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
                setter(n)
            return set_threads

        def recording_controls():
            return [(getter, logged(setter)) for getter, setter in real()]

        if not real():
            pytest.skip("no OpenBLAS thread controls in this process")
        monkeypatch.setattr(tpbo._blas, "_controls", None)
        monkeypatch.setattr(tpbo._blas, "find_controls", recording_controls)
        monkeypatch.setenv("TPBO_THREADS", "2")
        run_benchmark(tiny_spec(seeds=2, iterations=2))
        assert set(log.read_text().split()) == {str(os.getpid())}

    def test_pool_forks_after_the_pick_modules_load(self):
        # The workers are forked afresh on every call and the parent never
        # picks, so unless the parent loads scipy.special before the fork,
        # every worker imports it again; no pick needs scipy.optimize.
        script = (
            "import os, sys\n"
            "import tpbo.bench as bench\n"
            "def probe(cell):\n"
            "    loaded = 'scipy.special' in sys.modules and 'scipy.optimize' not in sys.modules\n"
            "    return [bench.RegretRecord(str(loaded), 'f', 0, os.getpid(), 0.0)]\n"
            "bench._cell_entry = probe\n"
            "print('scipy.special' in sys.modules)\n"
            "spec = bench.BenchmarkSpec(functions=('himmelblau',), methods=('ei',),\n"
            "                           seeds=2, iterations=1, refine_top=1)\n"
            "records = bench.run_benchmark(spec)\n"
            "print(sorted({r.method for r in records}))\n"
            "print(os.getpid() not in {r.iteration for r in records})\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), TPBO_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:3] == ["False", "['True']", "True"]

    @pytest.mark.parametrize("failure", ["maps", "dlopen", "symbol"])
    def test_pool_runs_when_blas_lookup_fails(self, monkeypatch, failure):
        import tpbo.bench as bench_mod

        def no_file(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        def no_library(*args, **kwargs):
            raise OSError("cannot load library")

        class NoSymbols:
            def __init__(self, path):
                self.path = path

        spec = tiny_spec(methods=("tp-ei", "ei"), seeds=2, iterations=2)
        monkeypatch.setenv("TPBO_THREADS", "1")
        serial = run_benchmark(spec)
        monkeypatch.setattr(tpbo._blas, "_controls", None)  # look them up anew
        if failure == "maps":
            monkeypatch.setattr(tpbo._blas, "open", no_file, raising=False)
        else:
            opener = no_library if failure == "dlopen" else NoSymbols
            monkeypatch.setattr(ctypes, "CDLL", opener)
        monkeypatch.setenv("TPBO_THREADS", "2")
        assert run_benchmark(spec) == serial
        # The workers kept the thread counts they inherited.
        before = openblas_threads()
        monkeypatch.setattr(bench_mod, "_cell_entry", blas_probe_cell)
        probes = run_benchmark(spec)
        assert {(r.method, r.seed) for r in probes} == set(before.items())

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        import tpbo.bench as bench_mod

        monkeypatch.delenv("TPBO_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert bench_mod._worker_count(4) == 1

    def test_thread_env_validated(self, monkeypatch):
        for value in ("0", "abc"):
            monkeypatch.setenv("TPBO_THREADS", value)
            with pytest.raises(ValueError, match="TPBO_THREADS"):
                run_benchmark(tiny_spec(seeds=1, iterations=1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(functions=("nope",))
        with pytest.raises(ValueError):
            BenchmarkSpec(methods=("gradient-descent",))
        with pytest.raises(ValueError):
            BenchmarkSpec(seeds=0)
        with pytest.raises(ValueError):
            BenchmarkSpec(iterations=0)
        with pytest.raises(ValueError, match="refine_top"):
            BenchmarkSpec(refine_top=0)

    @pytest.mark.parametrize(
        "functions, methods, message",
        [(("himmelblau", "himmelblau"), ("ei",), "function 'himmelblau' is given twice"),
         (("ackley",), ("ei", "tp-ei", "ei"), "method 'ei' is given twice"),
         (("easom",), ("ei",), "unknown function 'easom'; valid: " + ", ".join(FUNCTION_ORDER)),
         (("ackley",), ("sgd",), "unknown method 'sgd'; valid: " + ", ".join(METHODS)),
         # what `bench --functions ,` asks for
         ((), ("ei",), "functions and methods must be nonempty")],
        ids=["repeated-function", "repeated-method", "unknown-function", "unknown-method",
             "no-functions"],
    )
    def test_spec_owns_the_name_rules(self, functions, methods, message):
        # a repeated name would run its cells twice and count each seed twice in the summary
        with pytest.raises(ValueError) as info:
            BenchmarkSpec(functions=functions, methods=methods, seeds=2, iterations=1)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "field", ["aux_size", "init_size", "sigma2", "delta", "nu_grid", "lambda_grid"]
    )
    def test_protocol_is_not_a_field(self, field):
        # every cell follows the one protocol: INIT_SIZE, NOISE_VAR and the
        # library defaults
        with pytest.raises(TypeError, match=field):
            BenchmarkSpec(**{field: 10})

    def test_cell_logs_nothing(self, caplog):
        # where the expected improvement underflows, picks still rank the
        # probes and polish, so no pick has anything to report
        import logging

        spec = tiny_spec(functions=("ackley",), methods=("tp-ei",), seeds=1,
                         iterations=10, refine_top=8)
        with caplog.at_level(logging.INFO, logger="tpbo"):
            records = run_cell("ackley", "tp-ei", 0, spec)
        assert len(records) == spec.iterations
        assert not caplog.records

    @pytest.mark.parametrize("method", ["ei", "tp-ei"])
    def test_one_factorization_per_pick(self, monkeypatch, method):
        import tpbo.gp as gp_mod

        sizes = []
        real = gp_mod._factor_shifted

        def counting(gram, shift):
            sizes.append(gram.shape[0])
            return real(gram, shift)

        monkeypatch.setattr(gp_mod, "_factor_shifted", counting)
        spec = tiny_spec(methods=(method,))
        run_cell("himmelblau", method, 0, spec)
        # pick t factors the INIT_SIZE + t observations it is made from, once
        assert sizes == [INIT_SIZE + t for t in range(spec.iterations)]

    def test_picks_bypass_scipy_linalg_wrappers(self, monkeypatch):
        # scipy's cho_factor, cho_solve and solve_triangular cost several
        # times the LAPACK calls they wrap; the pick path calls LAPACK itself
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg wrapper called on the pick path")

        for name in ("cho_factor", "cho_solve", "solve_triangular"):
            original = getattr(scipy.linalg, name)
            monkeypatch.setattr(scipy.linalg, name, forbidden)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("tpbo"):
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            monkeypatch.setattr(mod, attr, forbidden)
        spec = tiny_spec(iterations=1)
        for method in ("tp-ei", "ei"):
            assert len(run_cell("himmelblau", method, 0, spec)) == 1
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (12, 2))
        nu, lam = tune_se_loo(X, np.sin(3 * X[:, 0]))
        assert nu in DEFAULT_NU_GRID and lam in DEFAULT_LAMBDA_GRID


# run_cell records of each method path on himmelblau, seed 0, five
# iterations, refine_top=2; regenerate only if the sampler, the local
# optimizer or a tuner changes.
GOLDEN_CELLS = {
    "tp-ei": [0.7997072829807649] * 5,
    "ei": [0.7997072829807649] * 4 + [0.9293277924031049],
    "ucb": [0.7997072829807649] * 5,
    "ard-ei": [0.7997072829807649] * 4 + [0.9898444950047536],
}


class TestGoldenCells:
    @pytest.mark.parametrize("method", sorted(GOLDEN_CELLS))
    def test_cell_records(self, method):
        records = run_cell("himmelblau", method, 0, tiny_spec(methods=(method,)))
        assert records == [
            RegretRecord(method, "himmelblau", 0, t + 1, v)
            for t, v in enumerate(GOLDEN_CELLS[method])
        ]


class TestPolishReference:
    def test_polish_reaches_the_summed_lbfgsb_best(self, monkeypatch):
        """Every pick of one round of perfbench's flipped-2d grid polishes
        its starts at least as high, to 1e-6 relative, as one scipy
        L-BFGS-B run over their summed acquisition."""
        from scipy.optimize import Bounds, minimize

        polish, score = tpbo.bo._polish, tpbo.bo._acquisition
        picks = []

        def recording(session, starts, y_plus):
            out, values = polish(session, starts, y_plus)
            snapshot = BoSession(gp=session.gp, acquisition=session.acquisition,
                                 rng_seed=session.rng_seed, iteration=session.iteration)
            picks.append((snapshot, starts.copy(), y_plus, out))
            return out, values

        monkeypatch.setattr(tpbo.bo, "_polish", recording)
        spec = BenchmarkSpec(functions=("himmelblau", "ackley"), methods=("tp-ei", "ei"),
                             seeds=1, iterations=10, refine_top=8)
        for fn in spec.functions:
            for method in spec.methods:
                run_cell(fn, method, 0, spec)
        assert len(picks) == 40
        for session, starts, y_plus, out in picks:
            def negated_sum(flat):
                vals, grads = score(session, flat.reshape(starts.shape), y_plus, grad=True)
                return -float(np.sum(vals)), -grads.ravel()

            res = minimize(negated_sum, starts.ravel(), jac=True, method="L-BFGS-B",
                           bounds=Bounds(-1.0, 1.0))
            want = np.max(score(session, np.clip(res.x.reshape(starts.shape), -1.0, 1.0), y_plus))
            assert np.max(score(session, out, y_plus)) >= want * (1.0 - 1e-6)


class TestCsvOutput:
    RECORDS = [
        RegretRecord("ei", "ackley", s, t, v)
        for s, t, v in [
            (0, 1, 0.1),
            (0, 2, 0.4),
            (1, 1, 0.3),
            (1, 2, 0.4),
            (2, 1, 0.2),
            (2, 2, 0.5),
            (3, 1, 0.4),
            (3, 2, 0.6),
        ]
    ]

    def test_results_format(self, tmp_path):
        path = str(tmp_path / "r.csv")
        write_results(self.RECORDS, path)
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        assert lines[0] == "method,function,seed,iteration,best_value"
        assert lines[1] == "ei,ackley,0,1,0.1"
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 10

    def test_float_text_round_trips(self, tmp_path):
        records = [RegretRecord("ei", "ackley", 0, 1, 0.1 + 0.2)]
        path = str(tmp_path / "r.csv")
        write_results(records, path)
        cell = Path(path).read_text(encoding="utf-8").split("\n")[1].split(",")[-1]
        assert float(cell) == 0.1 + 0.2

    def test_summary_values(self, tmp_path):
        rows = summarize(self.RECORDS)
        assert rows[0][:3] == ("ei", "ackley", 1)
        vals = np.array([0.1, 0.3, 0.2, 0.4])
        assert rows[0][3] == pytest.approx(np.median(vals))
        q1, q3 = np.percentile(vals, [25, 75])
        assert rows[0][4] == pytest.approx(q3 - q1)
        path = str(tmp_path / "s.csv")
        write_summary(self.RECORDS, path)
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        assert lines[0] == "method,function,iteration,median,iqr"
        assert len(lines) == 4  # header + 2 iterations + trailing newline


class TestTwoDevice:
    def test_structure(self):
        prob = synthetic_two_device(seed=0)
        assert prob.aux.inputs.shape == (162, 5)
        assert prob.aux.task == "regression"
        assert np.all(prob.aux.targets >= 0.0) and np.all(prob.aux.targets <= 1.0)
        assert np.allclose(np.linalg.norm(prob.device_a.directions, axis=1), 1.0)

    def test_devices_differ_but_share_top_feature(self):
        prob = synthetic_two_device(seed=1)
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (100, 5))
        gap = np.max(np.abs(prob.device_a(X) - prob.device_b(X)))
        assert gap > 0.0
        amp_a, amp_b = prob.device_a.amplitudes, prob.device_b.amplitudes
        assert int(np.argmax(amp_a)) == int(np.argmax(amp_b))
        assert np.max(np.abs(amp_b / amp_a - 1.0)) <= 0.25

    def test_raw_objective_nonnegative(self):
        prob = synthetic_two_device(seed=2)
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (50, 5))
        assert np.all(prob.cost(X) >= 0.0)
        f = prob.objective(X)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)

    def test_deterministic(self):
        a = synthetic_two_device(seed=3)
        b = synthetic_two_device(seed=3)
        assert np.array_equal(a.aux.inputs, b.aux.inputs)
        assert np.array_equal(a.aux.targets, b.aux.targets)
        assert np.array_equal(a.device_b.amplitudes, b.device_b.amplitudes)

    def test_golden_objective_and_aux(self):
        # recorded before the pair became a NormalizedProblem; any moved bit fails
        prob = synthetic_two_device(seed=0)
        points = np.array([[0.0] * 5, [0.5, -0.25, 0.75, -1.0, 0.1],
                           [-0.9, 0.3, 0.2, 0.6, -0.4]])
        assert prob.objective(points).tolist() == [
            0.9175733321979492, 0.48082078956157664, 0.9822194195748917,
        ]
        assert prob.objective(points[1]) == 0.48082078956157664
        assert prob.aux.targets[:3].tolist() == [
            0.04678838598911658, 0.013219904164866476, 0.29524863352865843,
        ]

    def test_protocol_reads_the_dimension(self):
        prob = synthetic_two_device(seed=0)
        assert prob.dim == 5
        aux = make_flipped_aux(prob, 7, seed=1)
        assert aux.inputs.shape == (7, 5)
        assert np.array_equal(aux.targets, 1.0 - prob.objective(aux.inputs))
        session = seeded_session(prob, 0, 3, SeKernel(1.0), "ei", 0)
        assert session.gp.obs.points.shape == (INIT_SIZE, 5)
        assert session.acquisition.dim == 5
