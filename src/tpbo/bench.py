"""Benchmark harness for the transfer method against standard baselines.

Every benchmark objective is a `NormalizedProblem`: a cost on the box
[-1, 1]^dim, turned into a maximization score in [0, 1] by one calibrated
affine map.  Six classic 2-D test functions are calibrated on a native grid.
Auxiliary data is drawn from the flipped surface, so the transferred
covariance has to survive auxiliary observations that rank the search space
in exactly the wrong order.  A synthetic five-dimensional two-device pair,
a `NormalizedProblem` that also carries its own auxiliary set, mimics
transfer between related physical instruments.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import sys
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple

import numpy as np

from . import _accel, _blas
from .bo import POLISH_STARTS, AcquisitionSpec, BoSession, bo_step, new_session
from .errors import _write_text
from .gp import ArdSeKernel, GpPosterior, SeKernel
from .mkernel import FreeKernelSpec
from .pretrain import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_NU_GRID,
    AuxDataset,
    build_tuned,
    pretrain,
    rescale_column,
    select_by_loo,
)

METHODS = ("tp-ei", "tp-ucb", "ei", "ucb", "ard-ei", "ard-ucb")

# Seed-stream tags; each (function, seed) cell derives independent streams
# for its initial design, auxiliary draw, and in-loop probe sampling.
_TAG_INIT = 101
_TAG_AUX = 202
_TAG_SESSION = 303
_TAG_DEVICE = 404

# The comparison protocol (see BenchmarkSpec); the CLI defaults read it too.
INIT_SIZE = 2
NOISE_VAR = 1e-6
AUX_SIZE = 50


@dataclass(frozen=True)
class TestFunction:
    """A standard minimization test surface on a square native domain."""

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(X, dtype=float))

    def to_native(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        center = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        return center + half * Z

    def on_box(self, Z: np.ndarray) -> np.ndarray:
        """The function at box points Z in [-1, 1]^2."""
        return self(self.to_native(Z))


def _holder_table(X):
    x, y = X[..., 0], X[..., 1]
    r = np.sqrt(x * x + y * y)
    return -np.abs(np.sin(x) * np.cos(y) * np.exp(np.abs(1.0 - r / np.pi)))


def _himmelblau(X):
    x, y = X[..., 0], X[..., 1]
    return (x * x + y - 11.0) ** 2 + (x + y * y - 7.0) ** 2


def _ackley(X):
    x, y = X[..., 0], X[..., 1]
    a = -20.0 * np.exp(-0.2 * np.sqrt(0.5 * (x * x + y * y)))
    b = -np.exp(0.5 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)))
    return a + b + np.e + 20.0


def _styblinski_tang(X):
    return 0.5 * np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=-1)


def _eggholder(X):
    x, y = X[..., 0], X[..., 1]
    s = y + 47.0
    return -s * np.sin(np.sqrt(np.abs(x / 2.0 + s))) - x * np.sin(
        np.sqrt(np.abs(x - s))
    )


def _rastrigin(X):
    return 10.0 * X.shape[-1] + np.sum(
        X**2 - 10.0 * np.cos(2 * np.pi * X), axis=-1
    )


FUNCTIONS = {
    "holder_table": TestFunction(-10.0, 10.0, _holder_table),
    "himmelblau": TestFunction(-5.0, 5.0, _himmelblau),
    "ackley": TestFunction(-5.0, 5.0, _ackley),
    "styblinski_tang": TestFunction(-5.0, 5.0, _styblinski_tang),
    "eggholder": TestFunction(-512.0, 512.0, _eggholder),
    "rastrigin": TestFunction(-5.12, 5.12, _rastrigin),
}
FUNCTION_ORDER = tuple(FUNCTIONS)


@dataclass(frozen=True)
class NormalizedProblem:
    """Maximization problem on [-1, 1]^dim with its range calibrated on a sample.

    `cost` maps box points to the native values being minimized, and
    [`neg_lo`, `neg_hi`] is the range of their negation on the calibration
    sample.  The cost's minimizer becomes the maximizer of `objective`;
    values are clamped into [0, 1] where points off the sample overshoot it.
    """

    cost: Callable[[np.ndarray], np.ndarray]
    dim: int
    neg_lo: float
    neg_hi: float

    def objective(self, Z):
        Z = np.asarray(Z, dtype=float)
        scalar = Z.ndim == 1
        neg = -self.cost(np.atleast_2d(Z))
        f = (neg - self.neg_lo) / (self.neg_hi - self.neg_lo)
        f = np.clip(f, 0.0, 1.0)
        return float(f[0]) if scalar else f

    def aux_target(self, Z):
        return 1.0 - self.objective(Z)


def normalize_problem(tf: TestFunction, grid_resolution: int = 101) -> NormalizedProblem:
    """Calibrate the affine output map on a dense grid; 101+ points per axis."""
    if grid_resolution < 101:
        raise ValueError("grid_resolution must be at least 101 per axis")
    axis = np.linspace(tf.lo, tf.hi, grid_resolution)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    vals = -tf(np.stack([gx, gy], axis=-1))
    return NormalizedProblem(
        cost=tf.on_box,
        dim=2,
        neg_lo=float(vals.min()),
        neg_hi=float(vals.max()),
    )


def make_flipped_aux(problem: NormalizedProblem, n: int = AUX_SIZE, seed=0) -> AuxDataset:
    """Uniform auxiliary draw whose targets rank the space inversely to f."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, problem.dim))
    return AuxDataset(inputs=X, targets=problem.aux_target(X), task="regression")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Which cells a benchmark run covers; picklable for worker processes.

    The protocol each cell follows is fixed: `INIT_SIZE` seeded initial
    points, `AUX_SIZE` flipped auxiliary points, noise variance `NOISE_VAR`,
    `AcquisitionSpec`'s default UCB delta (0.1) and the default (nu, lambda)
    grids.
    """

    functions: Tuple[str, ...] = FUNCTION_ORDER
    methods: Tuple[str, ...] = METHODS
    seeds: int = 10
    iterations: int = 40
    grid_resolution: int = 101
    refine_top: int = POLISH_STARTS

    def __post_init__(self) -> None:
        # a repeated name would run its cells twice and count each seed twice in the summary
        for what, names, valid in (("function", self.functions, FUNCTION_ORDER),
                                   ("method", self.methods, METHODS)):
            for i, name in enumerate(names):
                if name not in valid:
                    raise ValueError(f"unknown {what} {name!r}; valid: {', '.join(valid)}")
                if name in names[:i]:
                    raise ValueError(f"{what} {name!r} is given twice")
        if not self.functions or not self.methods:
            raise ValueError("functions and methods must be nonempty")
        if self.seeds < 1 or self.iterations < 1:
            raise ValueError("seeds and iterations must be at least 1")
        if self.refine_top < 1:
            raise ValueError("refine_top must be at least 1")


@dataclass(frozen=True)
class RegretRecord:
    method: str
    function: str
    seed: int
    iteration: int
    best_value: float


def _derived_seed(fn_idx: int, seed: int, tag: int) -> int:
    state = np.random.SeedSequence([fn_idx, seed, tag]).generate_state(1, np.uint64)
    return int(state[0])


def seeded_session(
    problem: NormalizedProblem, fn_idx: int, seed: int, kernel, kind: str, session_seed: int
) -> BoSession:
    """The protocol's session: `INIT_SIZE` points from the (`fn_idx`, `seed`)
    stream, which every method shares, noise `NOISE_VAR` and the default delta."""
    rng = np.random.default_rng(np.random.SeedSequence([fn_idx, seed, _TAG_INIT]))
    X0 = rng.uniform(-1.0, 1.0, size=(INIT_SIZE, problem.dim))
    return new_session(
        kernel, AcquisitionSpec(kind=kind, dim=problem.dim), seed=session_seed,
        noise_var=NOISE_VAR, init_points=X0, init_values=problem.objective(X0),
    )


def tune_se_loo(X, y) -> Tuple[float, float]:
    """Grid-search (nu, lambda) over the default grids minimizing
    leave-one-out squared error.

    Ties break toward the smallest nu, then the smallest lambda.
    """
    X = np.asarray(X, dtype=float)
    _, nu, lam = select_by_loo(
        lambda nu: _accel.se_cross(X, X, nu), y, "regression",
        DEFAULT_NU_GRID, DEFAULT_LAMBDA_GRID,
    )
    return nu, lam


def tune_ard_loo(X, y) -> np.ndarray:
    """Coordinate-wise greedy per-dimension length-scale search.

    Each coordinate sweeps the default nu grid with lambda minimized out
    over the default lambda grid; two full passes, ties toward the smaller
    nu.
    """
    X = np.asarray(X, dtype=float)
    dims = X.shape[1]
    nus = np.ones(dims)

    def ard_gram(d: int, nu: float) -> np.ndarray:
        trial = nus.copy()
        trial[d] = nu
        return _accel.se_cross(X, X, trial)

    for _ in range(2):
        for d in range(dims):
            _, nus[d], _ = select_by_loo(
                lambda nu: ard_gram(d, nu), y, "regression",
                DEFAULT_NU_GRID, DEFAULT_LAMBDA_GRID,
            )
    return nus


def run_cell(function: str, method: str, seed: int, spec: BenchmarkSpec) -> List[RegretRecord]:
    """One (function, method, seed) run: its best value after each iteration.

    Every method runs the same `bo_step` loop and differs only in its
    covariance: the transferred prior (`tp-*`), an ARD SE kernel tuned on
    the auxiliary data (`ard-*`), or a plain SE kernel whose hyperparameters
    are re-fit by LOO on the growing data before every pick (`ei`, `ucb`),
    with the ridge weight doubling as observation noise.  Every pick has
    data, so it ranks its probes and polishes even where the expected
    improvement underflows.  A `VanishingKernelError` from the auxiliary fit
    propagates; a cell is never dropped.
    """
    fn_idx = FUNCTION_ORDER.index(function)
    problem = normalize_problem(FUNCTIONS[function], spec.grid_resolution)
    kind = method.split("-")[-1]
    retune = method in ("ei", "ucb")

    if retune:
        kernel = SeKernel(1.0)  # replaced before the first pick
    else:
        aux = make_flipped_aux(
            problem, seed=np.random.SeedSequence([fn_idx, seed, _TAG_AUX])
        )
        if method.startswith("tp-"):
            kernel = build_tuned(pretrain(aux, FreeKernelSpec(family="se")))
        else:
            kernel = ArdSeKernel(tune_ard_loo(aux.inputs, aux.targets))
    session = seeded_session(
        problem, fn_idx, seed, kernel, kind, _derived_seed(fn_idx, seed, _TAG_SESSION)
    )
    best = []
    for _ in range(spec.iterations):
        if retune:
            obs = session.gp.obs
            nu, lam = tune_se_loo(obs.points, obs.values)
            session.gp = GpPosterior.from_data(SeKernel(nu), obs.points, obs.values, lam)
        session = bo_step(session, problem.objective, refine_top=spec.refine_top)
        best.append(session.best_so_far[1])

    return [
        RegretRecord(method, function, seed, t + 1, float(v))
        for t, v in enumerate(best)
    ]


def _cell_entry(args) -> List[RegretRecord]:
    return run_cell(*args)


def _worker_count(n_cells: int) -> int:
    env = os.environ.get("TPBO_THREADS")
    if env is not None:
        try:
            limit = int(env)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"TPBO_THREADS must be a positive integer, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        limit = len(os.sched_getaffinity(0))
    else:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_cells))


def run_benchmark(spec: BenchmarkSpec) -> List[RegretRecord]:
    """Run every (function, method, seed) cell and merge the records.

    Cells are independent, so they may run in separate processes, one per
    CPU this process may use; the TPBO_THREADS environment variable caps
    the worker count.  The whole run, serial or forked, holds every OpenBLAS
    at one thread (see `_blas`), and the workers are forked directly inside
    that block, so they inherit the one-thread counts and never set them.
    An error in any cell, a `VanishingKernelError` among them, propagates
    with its own type and message, so the result is always the whole grid.
    """
    cells = [
        (fn, method, seed, spec)
        for fn in spec.functions
        for method in spec.methods
        for seed in range(spec.seeds)
    ]
    workers = _worker_count(len(cells))
    # loaded before the fork, or every worker would import it again
    import scipy.special  # noqa: F401

    with _blas.single_thread():
        if workers == 1:
            chunks = [_cell_entry(cell) for cell in cells]
        else:
            chunks = _forked_cells(cells, workers)
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.method, r.function, r.seed, r.iteration))
    return records


def _forked_cells(cells, workers: int) -> list:
    """The records of every cell, each cell run in one of `workers` children
    forked here; the parent runs none.

    The parent writes each cell's index to one task pipe, four bytes per
    write, so every write lands whole and every four-byte read takes one
    index.  A child takes indices until the pipe ends, then sends its
    pickled records, or the exception a cell raised and its traceback,
    through a result pipe of its own, once, and leaves by ``os._exit``; an
    exception that does not survive a pickle round trip is sent as a
    ``RuntimeError`` naming its type and message.
    The parent re-raises the first exception a child sends, with the
    child's traceback as its cause, and raises a ``RuntimeError`` naming
    the exit status of a child that ends without sending anything.  However
    it leaves, the parent kills every child it has not reaped, and reaps it.
    """
    for stream in (sys.stdout, sys.stderr):
        stream.flush()  # or each child would inherit, and could repeat, unwritten output
    tasks, task_writer = os.pipe()
    children = {}  # result pipe -> pid, for every child not yet reaped
    try:
        for _ in range(workers):
            results, result_writer = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(results)
                os.close(result_writer)
                raise
            if pid == 0:
                try:
                    os.close(task_writer)
                    _worker(cells, tasks, result_writer)
                finally:
                    os._exit(1)
            os.close(result_writer)
            children[results] = pid
        os.close(tasks)  # so a write fails, rather than blocks, once every child has ended
        tasks = None
        try:
            for index in range(len(cells)):
                os.write(task_writer, index.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # the result pipes say why the children ended
        os.close(task_writer)
        task_writer = None
        return _collect(children)
    finally:
        for fd in (tasks, task_writer):
            if fd is not None:
                os.close(fd)
        for results, pid in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(results)


def _worker(cells, tasks: int, out: int) -> None:
    """A forked child's whole life: run cells by index, send once, exit."""
    code = 0
    try:
        chunks = []
        while index := os.read(tasks, 4):
            chunks.append(_cell_entry(cells[int.from_bytes(index, "little")]))
        payload = pickle.dumps(chunks)
    except BaseException as exc:
        code, text = 1, traceback.format_exc()
        try:
            payload = pickle.dumps((exc, text))
            pickle.loads(payload)  # or the parent could not rebuild it
        except Exception:
            payload = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), text))
    with open(out, "wb") as fh:
        fh.write(payload)
    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    os._exit(code)


class _WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a benchmark worker."""


def _collect(children: dict) -> list:
    """Every child's records, read as they arrive; each child is reaped (and
    dropped from `children`) once its result pipe ends."""
    chunks, parts = [], {fd: [] for fd in children}
    with selectors.DefaultSelector() as sel:
        for fd in children:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    parts[key.fd].append(data)
                    continue
                sel.unregister(key.fd)
                pid = children.pop(key.fd)
                os.close(key.fd)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                payload = b"".join(parts[key.fd])
                if not payload:
                    raise RuntimeError(
                        f"benchmark worker {pid} exited with status {status} and sent no result"
                    )
                result = pickle.loads(payload)
                if isinstance(result, tuple):
                    exc, text = result
                    raise exc from _WorkerTraceback(text)
                chunks.extend(result)
    return chunks


def write_results(records: Iterable[RegretRecord], path: str) -> None:
    """Row-per-iteration CSV, replaced atomically; float text is the shortest exact form."""
    lines = ["method,function,seed,iteration,best_value"]
    for r in sorted(records, key=lambda r: (r.method, r.function, r.seed, r.iteration)):
        lines.append(f"{r.method},{r.function},{r.seed},{r.iteration},{r.best_value!r}")
    _write_text(path, "\n".join(lines) + "\n")


def summarize(records: Iterable[RegretRecord]):
    """Median and interquartile range over seeds per (method, function, iteration)."""
    groups = {}
    for r in records:
        groups.setdefault((r.method, r.function, r.iteration), []).append(r.best_value)
    rows = []
    for key in sorted(groups):
        vals = np.asarray(groups[key], dtype=float)
        q1, q3 = np.percentile(vals, [25.0, 75.0])
        rows.append((*key, float(np.median(vals)), float(q3 - q1)))
    return rows


def write_summary(records: Iterable[RegretRecord], path: str) -> None:
    lines = ["method,function,iteration,median,iqr"]
    for method, function, iteration, median, iqr in summarize(records):
        lines.append(f"{method},{function},{iteration},{median!r},{iqr!r}")
    _write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class _CosineFeatures:
    """Smooth field built from a few directional cosine components."""

    directions: np.ndarray
    amplitudes: np.ndarray
    omegas: np.ndarray
    phases: np.ndarray

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        proj = X @ self.directions.T
        waves = self.amplitudes * np.cos(self.omegas * proj + self.phases)
        return 500.0 + np.sum(waves, axis=-1)

    def squared_deviation(self, X: np.ndarray) -> np.ndarray:
        return (self(X) - 500.0) ** 2


@dataclass(frozen=True)
class TwoDeviceProblem(NormalizedProblem):
    """Device B of a related 5-D pair; `aux` holds device A's observations."""

    aux: AuxDataset
    device_a: _CosineFeatures
    device_b: _CosineFeatures


def synthetic_two_device(seed: int = 0) -> TwoDeviceProblem:
    """Construct the two-device transfer problem.

    Device A supplies 162 auxiliary observations of its own squared
    deviation from the 500 set-point; the objective scores device B's
    deviation, normalized against a seeded 4096-point calibration sample.
    Both devices share the same four unit feature directions; amplitudes
    differ by up to twenty percent with the dominant one preserved.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_DEVICE]))
    directions = rng.normal(size=(4, 5))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    amp_a = np.array([10.0, 6.0, 3.0, 1.5])
    omegas = rng.uniform(1.0, 3.0, size=4)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
    amp_b = amp_a * (1.0 + rng.uniform(-0.2, 0.2, size=4))

    device_a = _CosineFeatures(directions, amp_a, omegas, phases)
    device_b = _CosineFeatures(directions, amp_b, omegas, phases)

    neg = -device_b.squared_deviation(rng.uniform(-1.0, 1.0, size=(4096, 5)))

    aux_x = rng.uniform(-1.0, 1.0, size=(162, 5))
    aux_y = rescale_column(device_a.squared_deviation(aux_x), "device A's target column")[0]

    return TwoDeviceProblem(
        cost=device_b.squared_deviation,
        dim=5,
        neg_lo=float(neg.min()),
        neg_hi=float(neg.max()),
        aux=AuxDataset(inputs=aux_x, targets=aux_y, task="regression"),
        device_a=device_a,
        device_b=device_b,
    )
