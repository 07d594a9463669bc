"""Spans around calls into tpbo's public functions, for the traced run.

Every wrapper lives in this file; the package itself is not edited.  A
wrapper replaces a function at every place a tpbo module binds it
(``tpbo.bench`` imports ``loo_error`` and ``maximize_acquisition`` by name,
and ``tpbo.bo`` binds scipy's ``minimize``), so patching only the defining
module would miss calls.  Spans are kept in memory and aggregated once the
run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from checks import hinge_kkt_violation, hinge_tolerance

# The per-module metrics reported by the traced run, with their units.  Every
# workload prints all of them; a layer the workload does not reach reads 0.
PER_LAYER = (
    ("bench.pool.cpu_s", "s"),
    ("bench.run_cell.tp-ei.s", "s"),
    ("bench.run_cell.ei.s", "s"),
    ("bench.tune_se_loo.s", "s"),
    ("bench.tune_se_loo.calls", "count"),
    ("bo.maximize_acquisition.s", "s"),
    ("bo.maximize_acquisition.calls", "count"),
    ("bo.polish.starts", "count"),
    ("bo.polish.evals", "count"),
    ("bo.fallbacks", "count"),
    ("gp.factor.s", "s"),
    ("gp.factor.calls", "count"),
    ("gp.posterior_batch.s", "s"),
    ("gp.posterior_batch.calls", "count"),
    ("gp.posterior_batch.points", "count"),
    ("mkernel.tuned.s", "s"),
    ("mkernel.tuned.calls", "count"),
    ("mkernel.tuned.pair_terms", "count"),
    ("mkernel.tuned_diag.s", "s"),
    ("mkernel.tuned_diag.points", "count"),
    ("mkernel.build.s", "s"),
    ("accel.se_cross.s", "s"),
    ("accel.se_cross.calls", "count"),
    ("accel.tuned_se_cross.s", "s"),
    ("pretrain.loo_error.s", "s"),
    ("pretrain.loo_error.calls", "count"),
    ("pretrain.base_gram.s", "s"),
    ("pretrain.train_hinge.s", "s"),
    ("pretrain.train_hinge.calls", "count"),
    ("pretrain.train_hinge.unconverged", "count"),
    ("cli.self.s", "s"),
    ("trace.overhead", "%"),
)

# Filled in by the runner: pool CPU comes from an untraced pool round, and
# the overhead compares traced rounds with an untraced one.
SET_OUTSIDE = ("bench.pool.cpu_s", "trace.overhead")


class Tracer:
    """Records (name, start, end, parent, value) spans while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, value=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if value is not None:
                span[4] = value(args, kwargs, out)
            return out

        return traced

    def _rebind(self, original, name, value=None) -> None:
        """Replace `original` wherever a tpbo module binds it."""
        wrapper = self._wrap(name, original, value)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tpbo" or mod_name.startswith("tpbo.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _rebind_method(self, cls, attr, name, value=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, value))

    def install(self) -> None:
        import scipy.optimize

        import tpbo.bench as bench
        import tpbo.bo as bo
        import tpbo.cli as cli
        import tpbo.pretrain as pretrain
        from tpbo import _accel
        from tpbo.gp import GpPosterior
        from tpbo.mkernel import TunedKernel

        self._rebind(bench.run_cell, lambda a: f"bench.run_cell.{a[1]}")
        self._rebind(bench.tune_se_loo, "bench.tune_se_loo")
        self._rebind(bo.maximize_acquisition, "bo.maximize_acquisition")
        self._rebind(scipy.optimize.minimize, "bo.polish")
        self._rebind(_accel.se_cross, "accel.se_cross")
        self._rebind(_accel.tuned_se_cross, "accel.tuned_se_cross")
        self._rebind(pretrain.loo_error, "pretrain.loo_error")
        self._rebind(pretrain.base_gram, "pretrain.base_gram")

        default_tol = hinge_tolerance()

        def unconverged(args, kwargs, alpha):
            gram, y, lam = (np.asarray(v, dtype=float) for v in args[:3])
            tol = kwargs.get("tol", args[3] if len(args) > 3 else default_tol)
            return int(hinge_kkt_violation(gram, y, float(lam), alpha) >= tol)

        self._rebind(pretrain.train_hinge, "pretrain.train_hinge", unconverged)
        self._rebind(cli.main, "cli.main")

        def pair_terms(args, kwargs, out):
            n_aux = args[0].aux_points.shape[0]
            return out.size * (n_aux * (n_aux + 1) // 2)

        self._rebind_method(GpPosterior, "__init__", "gp.factor")
        self._rebind_method(
            GpPosterior, "posterior_batch", "gp.posterior_batch",
            lambda a, k, out: out[0].shape[0],
        )
        self._rebind_method(TunedKernel, "__init__", "mkernel.build")
        self._rebind_method(TunedKernel, "__call__", "mkernel.tuned", pair_terms)
        self._rebind_method(
            TunedKernel, "diag", "mkernel.tuned_diag", lambda a, k, out: out.shape[0]
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def aggregate(self, rounds: int) -> dict:
        """Per-round totals of every PER_LAYER metric but those in SET_OUTSIDE."""
        total = defaultdict(float)
        calls = defaultdict(int)
        values = defaultdict(float)
        children = defaultdict(list)
        for idx, (name, t0, t1, parent, value) in enumerate(self.spans):
            total[name] += t1 - t0
            calls[name] += 1
            values[name] += value
            children[parent].append(idx)

        def inside(idx, ancestor) -> bool:
            parent = self.spans[idx][3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    return True
                parent = self.spans[parent][3]
            return False

        polish_evals = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "gp.posterior_batch" and inside(i, "bo.polish")
        )
        fallbacks = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "bo.maximize_acquisition"
            and not any(self.spans[c][0] == "bo.polish" for c in children[i])
        )
        cli_self = sum(
            (s[2] - s[1]) - sum(self.spans[c][2] - self.spans[c][1] for c in children[i])
            for i, s in enumerate(self.spans)
            if s[0] == "cli.main"
        )
        special = {
            "bo.polish.starts": calls["bo.polish"],
            "bo.polish.evals": polish_evals,
            "bo.fallbacks": fallbacks,
            "cli.self.s": cli_self,
        }
        out = {}
        for metric, _unit in PER_LAYER:
            if metric in SET_OUTSIDE:
                continue
            base, _, kind = metric.rpartition(".")
            if metric in special:
                value = special[metric]
            elif kind == "s":
                value = total[base]
            elif kind == "calls":
                value = calls[base]
            else:
                value = values[base]
            out[metric] = value / rounds
        return out
