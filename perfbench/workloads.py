"""The four workloads.  Each is a closed loop: one caller waits on each reply.

A workload sets up its inputs from the seed (`setup`), then runs whole
rounds of the same operations (`round`); the runner repeats rounds until the
measuring time is up.  `quality` gives the named result figures of the last
round, and `check` records every failed output check in `errors`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time

import numpy as np

import checks


def children_cpu() -> float:
    """CPU seconds of child processes that have ended (the bench pool's workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_now() -> float:
    return time.process_time() + children_cpu()


def _cli(argv):
    """Run `tpbo` in-process; returns (exit code, stdout, stderr)."""
    import tpbo.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tpbo.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _fields(text):
    """`key: value` lines of a command's output as a dict of strings."""
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


class Workload:
    name = ""
    main_metric = ""  # the operation op_s reports

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.samples: dict = {}  # metric -> wall seconds per operation
        self.cpu: dict = {}  # metric -> CPU seconds per operation, children included
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    @contextlib.contextmanager
    def timed(self, metric):
        """Time one operation into `metric`; None times nothing."""
        c0, t0 = cpu_now(), time.perf_counter()
        yield
        if metric is not None:
            self.add_sample(metric, time.perf_counter() - t0, cpu_now() - c0)

    def add_sample(self, metric, wall, cpu) -> None:
        self.samples.setdefault(metric, []).append(wall)
        self.cpu.setdefault(metric, []).append(cpu)

    def expect(self, ok, message) -> None:
        if not ok:
            self.errors.append(message)

    def path(self, name) -> str:
        return os.path.join(self.workdir, name)


class Flipped2d(Workload):
    """run_benchmark on acceptance criterion 8's grid, shrunk to fit one run.

    Cells run through the program's process pool at its default worker
    count.  The cell seeds are the protocol's own (0..seeds-1); --seed picks
    which cell is rerun serially for the cross-check.
    """

    name = "flipped-2d"
    main_metric = "bench_s"

    def setup(self) -> None:
        from tpbo.bench import BenchmarkSpec

        self.spec = BenchmarkSpec(
            functions=("himmelblau", "ackley"),
            methods=("tp-ei", "ei"),
            seeds=1,
            iterations=10,
            refine_top=8,
        )
        cells = [
            (fn, m, s)
            for fn in self.spec.functions
            for m in self.spec.methods
            for s in range(self.spec.seeds)
        ]
        self.rerun_cell = cells[self.seed % len(cells)]
        self.records = None

    def round(self) -> None:
        from tpbo.bench import run_benchmark

        self.attempted += 1
        with self.timed("bench_s"):
            records = run_benchmark(self.spec)
        if self.records is None:
            self.records = records
        else:
            self.expect(records == self.records, "run_benchmark output changed between rounds")

    def finals(self, method):
        return [
            r.best_value for r in self.records
            if r.method == method and r.iteration == self.spec.iterations
        ]

    def quality(self) -> dict:
        return {
            "tp_best": float(np.median(self.finals("tp-ei"))),
            "se_best": float(np.median(self.finals("ei"))),
        }

    def check(self) -> None:
        from tpbo.bench import FUNCTIONS, normalize_problem, run_cell

        spec = self.spec
        cells = {}
        for r in self.records:
            cells.setdefault((r.function, r.method, r.seed), []).append(r)
        n_cells = len(spec.functions) * len(spec.methods) * spec.seeds
        self.expect(len(cells) == n_cells, f"{n_cells - len(cells)} cells skipped")
        for key, recs in cells.items():
            recs.sort(key=lambda r: r.iteration)
            best = [r.best_value for r in recs]
            self.expect(
                [r.iteration for r in recs] == list(range(1, spec.iterations + 1)),
                f"cell {key} lacks iterations",
            )
            self.expect(all(0.0 <= b <= 1.0 for b in best), f"cell {key} best outside [0, 1]")
            self.expect(all(a <= b for a, b in zip(best, best[1:])), f"cell {key} best decreases")

        rng = np.random.default_rng(self.seed)
        for fn in spec.functions:
            problem = normalize_problem(FUNCTIONS[fn], spec.grid_resolution)
            ours = checks.UnitObjective(fn)
            (x0, y0), half = checks.MINIMIZERS[fn]
            z_star = np.array([x0 / half, y0 / half])
            self.expect(
                float(problem.objective(z_star)) == 1.0 and float(ours(z_star)[0]) == 1.0,
                f"{fn}: objective at the textbook minimizer is not 1",
            )
            Z = rng.uniform(-1.0, 1.0, size=(64, 2))
            self.expect(
                np.allclose(problem.objective(Z), ours(Z), rtol=0.0, atol=1e-12),
                f"{fn}: normalized objective differs from the reference",
            )

        fn, method, seed = self.rerun_cell
        serial = run_cell(fn, method, seed, spec)
        pooled = [r for r in self.records if (r.function, r.method, r.seed) == (fn, method, seed)]
        self.expect(serial == pooled, f"serial rerun of {self.rerun_cell} differs from the pool")


class TwoDevice5d(Workload):
    """A tp-ei loop on the 5-D two-device problem: mkernel/gp/bo do the work."""

    name = "two-device-5d"
    main_metric = "iter_s"
    INIT = 4
    STEPS = 5
    SIGMA2 = 1e-6

    def setup(self) -> None:
        from tpbo.bench import synthetic_two_device
        from tpbo.mkernel import FreeKernelSpec
        from tpbo.pretrain import build_tuned, pretrain

        self.problem = synthetic_two_device(self.seed)
        self.model = pretrain(self.problem.aux, FreeKernelSpec(family="se"))
        self.kernel = build_tuned(self.model)
        rng = np.random.default_rng([self.seed, 5])
        self.X0 = rng.uniform(-1.0, 1.0, size=(self.INIT, 5))
        self.y0 = self.problem.objective(self.X0)

    def round(self) -> None:
        from tpbo.bo import AcquisitionSpec, bo_step, new_session

        fed = []

        def objective(x):
            y = float(self.problem.objective(x))
            fed.append((np.array(x, dtype=float), y))
            return y

        session = new_session(
            self.kernel, AcquisitionSpec(kind="ei", dim=5), seed=self.seed,
            noise_var=self.SIGMA2, init_points=self.X0, init_values=self.y0,
        )
        for _ in range(self.STEPS):
            self.attempted += 1
            with self.timed("iter_s"):
                session = bo_step(session, objective, refine_top=8)
        self.session, self.fed = session, fed

    def quality(self) -> dict:
        return {"tp_best": self.session.best_so_far[1]}

    def check(self) -> None:
        picks = np.array([x for x, _ in self.fed])
        self.expect(bool(np.all(np.abs(picks) <= 1.0)), "a pick lies outside the box")
        best = max([float(v) for v in self.y0] + [y for _, y in self.fed])
        self.expect(self.session.best_so_far[1] == best, "session best is not the largest value fed")

        aux, alpha, nu = self.model.aux_inputs, self.model.alpha, self.model.kernel.nu
        obs = self.session.gp.obs
        rng = np.random.default_rng([self.seed, 9])
        probes = rng.uniform(-1.0, 1.0, size=(3, 5))
        pairs = [(obs.points[0], obs.points[-1]), (probes[0], probes[1]), (probes[2], obs.points[2])]
        for x, xp in pairs:
            want, scale = checks.se_k4_entry(aux, alpha, nu, x, xp)
            got = float(self.kernel(x[None, :], xp[None, :])[0, 0])
            # relative 1e-9, with a rounding floor for entries whose terms cancel
            self.expect(abs(got - want) <= 1e-9 * abs(want) + 1e-15 * scale,
                        "tuned kernel entry differs from the pair sum")

        from tpbo.gp import JITTER_FIRST

        gram = checks.se_tuned_matrix(aux, alpha, nu, obs.points, obs.points)
        shift = obs.noise_var + JITTER_FIRST * (float(np.mean(np.diag(gram))) + obs.noise_var)
        cross = checks.se_tuned_matrix(aux, alpha, nu, probes, obs.points)
        prior = np.array([checks.se_k4_entry(aux, alpha, nu, p, p)[0] for p in probes])
        want_mean, want_var = checks.dense_posterior(gram, cross, prior, obs.values, shift)
        mean, var = self.session.gp.posterior_batch(probes)
        scale = max(1.0, float(np.max(prior)))
        self.expect(np.allclose(mean, want_mean, rtol=0.0, atol=1e-8 * scale), "posterior mean differs")
        self.expect(np.allclose(var, want_var, rtol=0.0, atol=1e-8 * scale), "posterior variance differs")


class LabSession(Workload):
    """The README's ask/tell workflow through `tpbo.cli.main`, in-process.

    The inputs are the README's own example (model seed 0, session seed 7)
    whatever --seed says: suggest cost follows the optimizer's path, and
    across seeded sessions its median ranged from 0.66 s to 1.44 s, a spread
    no single run can average out.
    """

    name = "lab-session"
    main_metric = "suggest_s"
    PAIRS = 6
    MODEL_SEED = 0
    SESSION_SEED = 7

    def setup(self) -> None:
        self.model = self.path("model.json")
        self.session_path = self.path("session.json")
        code, out, err = _cli([
            "pretrain", "--aux-from-function", "himmelblau", "--aux-size", "50",
            "--seed", str(self.MODEL_SEED), "--out", self.model,
        ])
        self.expect(code == 0, f"pretrain exited {code}: {err.strip()}")
        self.objective = checks.UnitObjective("himmelblau")

    def round(self) -> None:
        if os.path.exists(self.session_path):
            os.remove(self.session_path)
        common = ["--session", self.session_path, "--model", self.model]
        self.tally = []
        for i in range(self.PAIRS):
            self.attempted += 2
            # the first suggestion of a fresh session is a seeded random probe
            with self.timed("suggest_s" if i else None):
                code, out, err = _cli(["suggest", *common, "--seed", str(self.SESSION_SEED)])
            self.expect(code == 0, f"suggest exited {code}: {err.strip()}")
            text = _fields(out)["suggestion"]
            x = np.array([float(v) for v in text.split(",")])
            self.expect(bool(np.all(np.abs(x) <= 1.0)), "a suggestion lies outside the session box")
            y = float(self.objective(x)[0])
            self.tally.append((x, y))

            with self.timed("tell_s"):
                code, out, err = _cli(["tell", *common, f"--x={text}", "--y", repr(y)])
            self.expect(code == 0, f"tell exited {code}: {err.strip()}")
            told = _fields(out)
            self.expect(
                int(told["observations"]) == len(self.tally)
                and float(told["best_value"]) == max(v for _, v in self.tally),
                "tell's count or best differs from the tally",
            )

    def quality(self) -> dict:
        return {"tp_best": max(v for _, v in self.tally)}

    def check(self) -> None:
        from tpbo.bo import load_session
        from tpbo.pretrain import build_tuned, load_aux_model

        with open(self.session_path, encoding="utf-8") as fh:
            box = json.load(fh)["domain"]
        self.expect(box == {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "session box is not the unit box")
        session = load_session(self.session_path, build_tuned(load_aux_model(self.model)))
        obs = session.gp.obs
        self.expect(
            np.array_equal(obs.points, np.array([x for x, _ in self.tally]))
            and np.array_equal(obs.values, np.array([y for _, y in self.tally])),
            "reloaded session does not hold every observation",
        )


class PretrainGrid(Workload):
    """`tpbo pretrain --aux` on native-unit CSVs for every kernel family."""

    name = "pretrain-grid"
    main_metric = "pretrain_s"
    REGRESSION = ("linear", "polynomial", "exponential", "hyperbolic-sine", "se", "log-ratio")
    N_REG = 100
    # Native units of the regression CSV's three columns.
    REG_LO = np.array([0.0, -50.0, 200.0])
    REG_HI = np.array([3.0, 50.0, 800.0])
    # The classification CSV does not depend on --seed: hinge cost swings
    # tenfold between labelled draws of the same size, more than one run can
    # hold.  This draw of 8 points makes 6 of its 201 grid fits stop at the
    # sweep cap, while the winning fit converges.
    CLS_STREAM = (8, 97)
    N_CLS = 8
    # Regression passes per round.  The five working fits take 5 to 20 ms
    # each against several seconds for the classification fit, so each
    # round repeats them to give op_s many samples.
    PASSES = 8

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        X = self.REG_LO + (self.REG_HI - self.REG_LO) * rng.uniform(size=(self.N_REG, 3))
        Z = checks.rescale_columns(X)
        y = 120.0 + 40.0 * (np.sin(2.0 * Z[:, 0]) + Z[:, 1] * Z[:, 2] + 0.5 * Z[:, 2] ** 2)
        self.reg_csv = self.path("regression.csv")
        self._write_csv(self.reg_csv, X, y)

        rng = np.random.default_rng(list(self.CLS_STREAM))
        lo, hi = self.REG_LO[:2], self.REG_HI[:2]
        Xc = lo + (hi - lo) * rng.uniform(size=(self.N_CLS, 2))
        yc = np.where(np.sin(2.0 * Xc[:, 0]) + Xc[:, 1] / 50.0 > 0.0, 1.0, -1.0)
        self.cls_csv = self.path("classification.csv")
        self._write_csv(self.cls_csv, Xc, yc)
        self.data = {"regression": (X, y), "classification": (Xc, yc)}

    @staticmethod
    def _write_csv(path, X, y) -> None:
        header = ",".join(f"x{i + 1}" for i in range(X.shape[1])) + ",y"
        rows = [",".join(repr(float(v)) for v in (*row, t)) for row, t in zip(X, y)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, *rows]) + "\n")

    def _fit(self, family, task):
        self.attempted += 1
        path = self.path(f"model-{task}-{family}.json")
        csv = self.reg_csv if task == "regression" else self.cls_csv
        code, out, err = _cli(
            ["pretrain", "--aux", csv, "--task", task, "--kernel", family, "--out", path]
        )
        return code, out, err, path

    def _regression_pass(self) -> None:
        """One fit per family; one pretrain_s sample is the mean working fit."""
        self.results = {}
        wall = cpu = 0.0
        for family in self.REGRESSION:
            if family == "log-ratio":
                # Fails on every CSV: ingestion puts each column's extremes
                # at exactly +-1, where the log-ratio kernel is undefined.
                code, out, err, path = self._fit(family, "regression")
                self.failed += code != 0
                self.log_ratio = (code, err)
                continue
            c0, t0 = cpu_now(), time.perf_counter()
            code, out, err, path = self._fit(family, "regression")
            wall += time.perf_counter() - t0
            cpu += cpu_now() - c0
            self.expect(code == 0, f"pretrain regression {family} exited {code}: {err.strip()}")
            self.results[family] = (_fields(out), path)
        self.add_sample("pretrain_s", wall / len(self.results), cpu / len(self.results))

    def round(self) -> None:
        for _ in range(self.PASSES):
            self._regression_pass()
        with self.timed("pretrain_cls_s"):
            code, out, err, path = self._fit("se", "classification")
        self.expect(code == 0, f"pretrain classification se exited {code}: {err.strip()}")
        self.cls_result = (_fields(out), path)

    def quality(self) -> dict:
        loo = [float(fields["loo"]) for fields, _ in self.results.values()]
        return {"fit_score": 1.0 - float(np.median(loo))}

    def check(self) -> None:
        from tpbo.pretrain import DEFAULT_LAMBDA_GRID, DEFAULT_NU_GRID

        code, err = self.log_ratio
        self.expect(code == 2 and err.startswith("error:"), "log-ratio did not exit 2 with a message")

        X, y = self.data["regression"]
        Z = checks.rescale_columns(X)
        y_t = (y - y.min()) / (y.max() - y.min())
        for family, (fields, path) in self.results.items():
            with open(path, encoding="utf-8") as fh:
                model = json.load(fh)
            k = model["kernel"]
            alpha = np.array(model["alpha"])
            lam = model["lambda"]
            self.expect(np.allclose(model["aux_inputs"], Z, rtol=0.0, atol=1e-12),
                        f"{family}: stored inputs differ from the rescaled CSV")
            K = checks.free_gram(family, k["nu"], k["degree"], k["offset"], Z)
            H = K + lam * np.eye(len(y_t))
            resid = np.linalg.norm(H @ alpha - y_t)
            scale = np.linalg.norm(H, 2) * np.linalg.norm(alpha) + np.linalg.norm(y_t)
            self.expect(resid <= 1e-9 * scale, f"{family}: duals do not solve (K + lambda I) alpha = y")

            nus = DEFAULT_NU_GRID if family in ("exponential", "hyperbolic-sine", "se") else (k["nu"],)
            grid = {
                (nu, lm): checks.loo_by_refit(
                    checks.free_gram(family, nu, k["degree"], k["offset"], Z), y_t, lm
                )
                for nu in nus for lm in DEFAULT_LAMBDA_GRID
            }
            chosen = grid[(k["nu"], lam)]
            self.expect(
                chosen <= min(grid.values()) * (1.0 + 1e-6) + 1e-15
                and abs(chosen - float(fields["loo"])) <= 1e-6 * chosen + 1e-15,
                f"{family}: chosen (nu, lambda) is not the least LOO error by refitting",
            )

        Xc, yc = self.data["classification"]
        with open(self.cls_result[1], encoding="utf-8") as fh:
            model = json.load(fh)
        alpha = np.array(model["alpha"])
        lam = model["lambda"]
        K = checks.free_gram("se", model["kernel"]["nu"], 2, 0.0, checks.rescale_columns(Xc))
        a_box = yc * alpha
        self.expect(bool(np.all(a_box >= 0.0) and np.all(a_box <= 1.0 / lam)),
                    "classification duals leave the box 0 <= y alpha <= 1/lambda")
        self.expect(checks.hinge_kkt_violation(K, yc, lam, alpha) < checks.hinge_tolerance(),
                    "classification duals violate KKT beyond the solver tolerance")


WORKLOADS = {w.name: w for w in (Flipped2d, TwoDevice5d, LabSession, PretrainGrid)}
