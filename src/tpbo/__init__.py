"""Bayesian optimization with covariance priors learned from auxiliary data.

The package trains a support-vector fit on auxiliary observations with a
free tensor kernel, rewrites the fitted dual weights into a Gaussian-process
covariance, and runs acquisition-driven optimization with that covariance as
prior.  A benchmark harness compares the transfer method against standard
squared-exponential baselines on classic 2-D test functions.
"""

from .bo import (
    AcquisitionSpec,
    BoSession,
    ask,
    beta_t,
    bo_step,
    ei,
    load_session,
    maximize_acquisition,
    new_session,
    rng_for,
    save_session,
    tell,
    ucb,
)
from .errors import NumericalError, TpboError, VanishingKernelError
from .gp import ArdSeKernel, GpPosterior, Observations, SeKernel
from .mkernel import (
    FAMILIES,
    FeatureExpansion,
    FreeKernelSpec,
    TunedKernel,
    eval_free,
    eval_tuned,
    expand_features,
    expansion_value,
    feature_values,
    m_dot,
    tuned_weights_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec",
    "ArdSeKernel",
    "BoSession",
    "FAMILIES",
    "FeatureExpansion",
    "FreeKernelSpec",
    "GpPosterior",
    "NumericalError",
    "Observations",
    "SeKernel",
    "TpboError",
    "TunedKernel",
    "VanishingKernelError",
    "ask",
    "beta_t",
    "bo_step",
    "ei",
    "eval_free",
    "eval_tuned",
    "expand_features",
    "expansion_value",
    "feature_values",
    "load_session",
    "m_dot",
    "maximize_acquisition",
    "new_session",
    "rng_for",
    "save_session",
    "tell",
    "tuned_weights_oracle",
    "ucb",
    "__version__",
]
