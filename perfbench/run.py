"""tpbo benchmark: one workload per call, end-to-end or traced.

Run from the repository root, which holds ``src/tpbo``:

    python3 perfbench/run.py --workload flipped-2d --seed 0 --seconds 40 --trace 0

Workloads: flipped-2d and pretrain-grid, which BENCHMARK.json lists, and
two-device-5d and lab-session, which run by hand (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-module metrics
from a traced run.  Lines before it record the host
and every named metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
SETUP_REPEATS = 3
TAIL_PERCENTILE = 75  # at least ten samples beyond it once a run has 40


def blas_record() -> dict:
    """The BLAS numpy was built against and its thread count as users get it."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def host_record() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "TPBO_THREADS": os.environ.get("TPBO_THREADS"),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def fresh_import() -> None:
    """Import the CLI in a fresh interpreter, as every `tpbo` command does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import tpbo.cli"], env=env, check=True)


def set_up(workload) -> float:
    """Set the workload up SETUP_REPEATS times; the median is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(workload, seconds) -> list:
    """Whole rounds until `seconds` have passed; returns each round's wall time."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload.round()
        rounds.append(time.perf_counter() - t0)
    return rounds


def timed_run(workload, seconds) -> dict:
    setup_s = set_up(workload)
    # An untimed warm-up round: the first calls in a process load modules
    # lazily, and the first pretrain call took 1.2 s against 16 ms later.
    run_rounds(workload, 0.0)
    workload.samples.clear()
    workload.cpu.clear()
    rounds = run_rounds(workload, seconds)
    quality = workload.quality()
    workload.check()
    for name, values in workload.samples.items():
        median = statistics.median(values)
        print(f"metric {name} {median:.6g} s n={len(values)}")
        if len(values) >= 40:
            tail = statistics.quantiles(values, n=100)[TAIL_PERCENTILE - 1]
            print(f"metric {name}.tail {tail:.6g} s p{TAIL_PERCENTILE} n={len(values)}")
    main = workload.main_metric
    print(f"metric {main}.cpu {statistics.median(workload.cpu[main]):.6g} s")
    for name, value in quality.items():
        print(f"metric {name} {value!r} objective")
    print(f"metric round_s {statistics.median(rounds):.6g} s n={len(rounds)}")
    print(f"metric setup_s {setup_s:.6g} s n={SETUP_REPEATS}")
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(workload.samples[main]), "s"),
        # the workload's first figure: tp_best, or fit_score on pretrain-grid
        "quality": (next(iter(quality.values())), "objective"),
    }


def traced_run(workload, seconds) -> dict:
    import spans
    from workloads import children_cpu

    set_up(workload)
    # A warm-up round.  On flipped-2d it goes through the pool, which gives
    # the pool's worker CPU; spans cannot come back from workers, so every
    # later round runs its cells serially.
    c0 = children_cpu()
    run_rounds(workload, 0.0)
    pool_cpu = children_cpu() - c0
    os.environ["TPBO_THREADS"] = "1"
    # Untraced and traced rounds alternate, so drift in host speed and
    # warm-up fall on both sides of the overhead figure alike.
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced += run_rounds(workload, 0.0)
        reference = workload.quality()
        with tracer:
            traced += run_rounds(workload, 0.0)
        workload.expect(workload.quality() == reference, "tracing changed the results")
    workload.check()
    metrics = tracer.aggregate(len(traced))
    metrics["bench.pool.cpu_s"] = pool_cpu
    overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    metrics["trace.overhead"] = overhead
    print(f"trace spans={len(tracer.spans)} overhead={overhead:.3g}% rounds: untraced "
          + " ".join(f"{t:.3f}" for t in untraced) + " s, traced "
          + " ".join(f"{t:.3f}" for t in traced) + " s")
    return {name: (metrics[name], unit) for name, unit in spans.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tpbo", "__init__.py")):
        print("error: src/tpbo not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print("host " + json.dumps(host_record(), sort_keys=True))
    # a terminated run still removes its files and waits for its pool
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = traced_run if args.trace else timed_run
        metrics = run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # left in place while another run uses it
    for message in workload.errors:
        print(f"check failed: {message}")
    print(f"ops attempted={workload.attempted} failed={workload.failed}")
    print(json.dumps({
        "correct": not workload.errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
