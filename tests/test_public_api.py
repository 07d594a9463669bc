"""The package's public surface: what ``tpbo`` exports and what it does not."""

import pytest

import tpbo
import tpbo.gp
import tpbo.mkernel

PUBLIC = [
    "AcquisitionSpec",
    "ArdSeKernel",
    "BoSession",
    "FAMILIES",
    "FreeKernelSpec",
    "GpPosterior",
    "NumericalError",
    "Observations",
    "SeKernel",
    "TpboError",
    "TunedKernel",
    "VanishingKernelError",
    "__version__",
    "ask",
    "beta_t",
    "bo_step",
    "load_session",
    "maximize_acquisition",
    "new_session",
    "rng_for",
    "save_session",
    "tell",
]

# The weight-space feature route is a test reference (tests/feature_route.py).
FEATURE_ROUTE = [
    "FeatureExpansion",
    "_indices_of_degree",
    "_stack_args",
    "eval_free",
    "eval_tuned",
    "expand_features",
    "expansion_value",
    "feature_values",
    "m_dot",
    "taylor_coefficients",
    "tuned_weights_oracle",
    "weight_space_posterior_oracle",
]


def test_all_is_pinned():
    assert sorted(tpbo.__all__) == PUBLIC


def test_every_export_resolves():
    for name in tpbo.__all__:
        getattr(tpbo, name)


@pytest.mark.parametrize("module", [tpbo, tpbo.mkernel, tpbo.gp], ids=lambda m: m.__name__)
def test_feature_route_is_not_library_api(module):
    assert [name for name in FEATURE_ROUTE if hasattr(module, name)] == []
