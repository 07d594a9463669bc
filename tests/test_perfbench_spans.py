"""The traced benchmark run's span wrappers still find what they wrap.

``perfbench/spans.py`` rebinds tpbo functions by name; a rename in the
package would otherwise surface only when a traced run is started.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import tpbo.bench  # noqa: F401  (loaded before the snapshot, as install() loads it)
import tpbo.cli  # noqa: F401
from tpbo import FreeKernelSpec, TunedKernel
from tpbo.gp import GpPosterior
from tpbo.pretrain import DEFAULT_NU_GRID, AuxDataset, pretrain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans as module

    return module


def _bindings():
    """Every attribute of every loaded tpbo module and of the wrapped classes."""
    owners = [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "tpbo" or name.startswith("tpbo."))
    ]
    owners += [TunedKernel, GpPosterior]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_records_tuned_kernel_spans_and_uninstalls(spans):
    rng = np.random.default_rng(0)
    kernel = TunedKernel(
        FreeKernelSpec(family="se", nu=1.5), rng.uniform(-1, 1, (5, 2)), rng.normal(size=5)
    )
    X1 = rng.uniform(-1, 1, size=(4, 2))
    X2 = rng.uniform(-1, 1, size=(3, 2))
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        cross = kernel(X1, X2)
        diag = kernel.diag(X1)
    assert _bindings() == before
    assert np.array_equal(kernel(X1, X2), cross)
    assert np.array_equal(kernel.diag(X1), diag)

    names = [span[0] for span in tracer.spans]
    assert "accel.tuned_se_cross" in names
    assert "mkernel.tuned_diag" in names
    metrics = tracer.aggregate(rounds=1)
    assert metrics["accel.tuned_se_cross.s"] > 0.0
    assert metrics["mkernel.tuned_diag.points"] == X1.shape[0]
    assert metrics["mkernel.tuned.calls"] == 1


def test_weight_route_records_tuned_se_cross_spans(spans):
    # A 2-D se model of 50 points is evaluated from its feature weights;
    # the traced run must still see its crosses.
    rng = np.random.default_rng(1)
    kernel = TunedKernel(
        FreeKernelSpec(family="se", nu=1.0), rng.uniform(-1, 1, (50, 2)), rng.normal(size=50)
    )
    assert kernel.route == "weights"
    X1 = rng.uniform(-1, 1, size=(4, 2))
    X2 = rng.uniform(-1, 1, size=(3, 2))
    tracer = spans.Tracer()
    with tracer:
        kernel(X1, X2)
        kernel.cross_grad(X1, X2)
    names = [span[0] for span in tracer.spans]
    assert names.count("accel.tuned_se_cross") == 2
    assert tracer.aggregate(rounds=1)["accel.tuned_se_cross.s"] > 0.0


def test_traced_pretrain_spans_one_loo_scan_per_nu(spans):
    rng = np.random.default_rng(2)
    data = AuxDataset(rng.uniform(-1, 1, (12, 2)), rng.uniform(size=12), "regression")
    tracer = spans.Tracer()
    with tracer:
        pretrain(data, FreeKernelSpec(family="se"))
    names = [span[0] for span in tracer.spans]
    assert names.count("pretrain.loo_error") == len(DEFAULT_NU_GRID) == 5


def test_traced_ei_cell_spans_per_iteration(spans):
    spec = tpbo.bench.BenchmarkSpec(
        functions=("himmelblau",), methods=("ei",), seeds=1, iterations=3, refine_top=2
    )
    tracer = spans.Tracer()
    with tracer:
        records = tpbo.bench.run_cell("himmelblau", "ei", 0, spec)
    assert len(records) == spec.iterations
    metrics = tracer.aggregate(rounds=1)
    assert metrics["bench.tune_se_loo.calls"] == spec.iterations
    # each re-tune scores one lambda row per nu of the default grid
    assert metrics["pretrain.loo_error.calls"] == spec.iterations * len(DEFAULT_NU_GRID)
    assert metrics["bo.maximize_acquisition.calls"] == spec.iterations
    assert metrics["bench.run_cell.ei.s"] > 0.0
