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
from .mkernel import FAMILIES, FreeKernelSpec, TunedKernel

__version__ = "0.1.0"

__all__ = [
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
    "ask",
    "beta_t",
    "bo_step",
    "ei",
    "load_session",
    "maximize_acquisition",
    "new_session",
    "rng_for",
    "save_session",
    "tell",
    "ucb",
    "__version__",
]
