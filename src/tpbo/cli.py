"""Command-line front end.

One binary, five subcommands: `pretrain` fits a model on auxiliary data,
`bench` reproduces the test-function comparison, `optimize` runs the full
loop against a built-in function, and `suggest`/`tell` drive a
human-in-the-loop session backed by JSON files.

Exit codes are stable across commands: 0 success, 2 input error,
3 degenerate (vanishing) model, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .bench import (
    AUX_SIZE,
    FUNCTION_ORDER,
    FUNCTIONS,
    INIT_SIZE,
    METHODS,
    NOISE_VAR,
    BenchmarkSpec,
    _initial_design,
    make_flipped_aux,
    normalize_problem,
    run_benchmark,
    write_results,
    write_summary,
)
from .bo import (
    AcquisitionSpec,
    BoSession,
    ask,
    bo_step,
    load_session,
    new_session,
    save_session,
    tell,
)
from .errors import NumericalError, VanishingKernelError
from .mkernel import FAMILIES, FreeKernelSpec
from .pretrain import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_NU_GRID,
    HyperGrid,
    build_tuned,
    load_aux_csv,
    load_aux_model,
    pretrain,
    save_aux_model,
)

KERNEL_ALIASES = {"poly": "polynomial", "exp": "exponential", "sinh": "hyperbolic-sine"}

# Settings `suggest`/`tell` fix when they create a session file; a later
# value that differs from the stored one is ignored with a warning.
SESSION_DEFAULTS = {"acq": "ei", "delta": AcquisitionSpec.delta, "sigma2": NOISE_VAR, "seed": 0}


def _parse_float_list(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated numbers: {exc}") from exc
    if not values:
        raise ValueError(f"{flag} must contain at least one number")
    return values


def _resolve_names(text: str, valid: tuple, what: str) -> tuple:
    """The comma-separated names in `text`, each one of `valid`; ``all`` is every one."""
    if text == "all":
        return valid
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for name in names:
        if name not in valid:
            raise ValueError(f"unknown {what} {name!r}; valid: {', '.join(valid)}")
    return names


def _require_out_dir(path: str, flag: str) -> None:
    """Fail before any work when `path`'s directory does not exist."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"{flag} {path}: directory {parent} does not exist")


def cmd_pretrain(args) -> int:
    _require_out_dir(args.out, "--out")
    family = KERNEL_ALIASES.get(args.kernel, args.kernel)
    if family not in FAMILIES:
        raise ValueError(
            f"unknown kernel {args.kernel!r}; valid: "
            f"{', '.join(sorted(FAMILIES) + sorted(KERNEL_ALIASES))}"
        )
    kernel = FreeKernelSpec(family=family, degree=args.degree, offset=args.offset)
    if args.aux is not None:
        data = load_aux_csv(args.aux, args.task)
    else:
        if args.task != "regression":
            raise ValueError("--aux-from-function generates regression targets")
        problem = normalize_problem(FUNCTIONS[args.aux_from_function])
        data = make_flipped_aux(problem, args.aux_size, seed=args.seed)
    grid = HyperGrid(
        _parse_float_list(args.nu_grid, "--nu-grid"),
        _parse_float_list(args.lambda_grid, "--lambda-grid"),
    )
    model = pretrain(data, kernel, grid)
    save_aux_model(model, args.out)
    print(f"kernel: {model.kernel.family}")
    print(f"nu: {model.kernel.nu!r}")
    print(f"lambda: {model.lambda_!r}")
    print(f"loo: {model.loo_error!r}")
    print(f"model written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    spec = BenchmarkSpec(
        functions=_resolve_names(args.functions, FUNCTION_ORDER, "function"),
        methods=_resolve_names(args.methods, METHODS, "method"),
        seeds=args.seeds,
        iterations=args.iters,
    )
    _require_out_dir(args.out, "--out")
    if args.summary is not None:
        _require_out_dir(args.summary, "--summary")
    records = run_benchmark(spec)
    write_results(records, args.out)
    print(f"init_size: {INIT_SIZE}")
    print(f"{len(records)} records written to {args.out}")
    if args.summary is not None:
        write_summary(records, args.summary)
        print(f"summary written to {args.summary}")
    return 0


def cmd_optimize(args) -> int:
    if args.iters < 0:
        raise ValueError(f"--iters must be >= 0, got {args.iters}")
    model = load_aux_model(args.model)
    kernel = build_tuned(model)
    if args.function not in FUNCTIONS:
        raise ValueError(
            f"unknown function {args.function!r}; valid: {', '.join(FUNCTION_ORDER)}"
        )
    if kernel.input_dim != 2:
        raise ValueError("built-in functions are 2-D; the model dimension differs")
    problem = normalize_problem(FUNCTIONS[args.function])
    fn_idx = FUNCTION_ORDER.index(args.function)
    X0, y0 = _initial_design(problem, fn_idx, args.seed, INIT_SIZE)
    session = new_session(
        kernel, AcquisitionSpec(kind=args.acq, dim=2), seed=args.seed,
        noise_var=NOISE_VAR, init_points=X0, init_values=y0,
    )
    print(f"function: {args.function}")
    print(f"init_size: {INIT_SIZE}")
    for t in range(args.iters):
        session = bo_step(session, problem.objective)
        print(f"t={t + 1} best={session.best_so_far[1]!r}")
    x_best, y_best = session.best_so_far
    print("best_x: " + ",".join(repr(float(v)) for v in x_best))
    print(f"best_value: {y_best!r}")
    return 0


def _session_for(args) -> BoSession:
    """Load the session file, or start a fresh one around the model.

    --acq, --delta, --sigma2 and --seed take effect only when the file is
    created; on a loaded session a differing value draws a warning.  A
    loaded session whose dimension differs from the model's is an error.
    """
    model = load_aux_model(args.model)
    kernel = build_tuned(model)
    try:
        session = load_session(args.session, kernel)
    except FileNotFoundError:
        for flag, default in SESSION_DEFAULTS.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
        dim = kernel.input_dim
        return new_session(
            kernel,
            AcquisitionSpec(kind=args.acq, dim=dim, delta=args.delta),
            args.seed,
            args.sigma2,
            init_points=np.empty((0, dim)),
            init_values=np.empty(0),
        )
    if kernel.input_dim != session.acquisition.dim:
        raise ValueError(
            f"the model is {kernel.input_dim}-D but the session "
            f"{args.session} is {session.acquisition.dim}-D"
        )
    stored = {
        "acq": session.acquisition.kind,
        "delta": session.acquisition.delta,
        "sigma2": session.gp.obs.noise_var,
        "seed": session.rng_seed,
    }
    for flag, value in stored.items():
        given = getattr(args, flag)
        if given is not None and given != value:
            print(
                f"warning: ignoring --{flag} {given}; the session uses {value}",
                file=sys.stderr,
            )
    return session


def cmd_suggest(args) -> int:
    session = _session_for(args)
    x = ask(session)
    save_session(session, args.session)
    print("suggestion: " + ",".join(repr(float(v)) for v in x))
    return 0


def cmd_tell(args) -> int:
    session = _session_for(args)
    x = np.array(_parse_float_list(args.x, "--x"), dtype=float)
    tell(session, x, args.y)
    save_session(session, args.session)
    print(f"iteration: {session.iteration}")
    print(f"observations: {session.gp.obs.size}")
    print(f"best_value: {session.best_so_far[1]!r}")
    return 0


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    # None means "not given": see SESSION_DEFAULTS and _session_for
    p.add_argument("--acq", choices=("ei", "ucb"))
    p.add_argument("--delta", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpbo",
        description="Bayesian optimization with covariance priors learned "
        "from auxiliary data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: `--nu` would silently stand for `--nu-grid`
    p = sub.add_parser("pretrain", help="fit a model on auxiliary data", allow_abbrev=False)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--aux", help="auxiliary CSV with header x1,...,xn,y")
    src.add_argument(
        "--aux-from-function",
        choices=FUNCTION_ORDER,
        help="draw flipped auxiliary data from a built-in test function",
    )
    p.add_argument("--task", choices=("regression", "classification"),
                   default="regression")
    p.add_argument("--kernel", default="se",
                   help="kernel family (aliases: poly, exp, sinh)")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--nu-grid", default=",".join(str(v) for v in DEFAULT_NU_GRID))
    p.add_argument("--lambda-grid",
                   default=",".join(str(v) for v in DEFAULT_LAMBDA_GRID))
    p.add_argument("--aux-size", type=int, default=AUX_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("bench", help="run the benchmark protocol")
    p.add_argument("--functions", default="all")
    p.add_argument("--methods", default="all")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--summary", help="optional summary CSV path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("optimize", help="optimize a built-in function")
    p.add_argument("--model", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--acq", choices=("ei", "ucb"), default="ei")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("suggest", help="propose the next experiment")
    p.add_argument("--session", required=True)
    p.add_argument("--model", required=True)
    _add_session_flags(p)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("tell", help="record an experiment result")
    p.add_argument("--session", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--y", type=float, required=True)
    _add_session_flags(p)
    p.set_defaults(func=cmd_tell)

    return parser


def _attach_x_value(argv: List[str]) -> List[str]:
    """Rewrite ``--x VALUE`` as ``--x=VALUE``.

    argparse takes a separate value that starts with a minus sign, such as
    ``-0.5,0.25``, for an option and rejects it; the attached form is read
    as a value whatever its first character.
    """
    out: List[str] = []
    for tok in argv:
        if out and out[-1] == "--x":
            out[-1] = "--x=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_x_value(argv))
    except SystemExit as exc:  # argparse reports its own message
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except VanishingKernelError as exc:
        print(f"error: degenerate model: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
