"""Influence-function toolkit for two untreated-outcome functionals.

The package computes, for finite-support joint laws of (covariates,
binary treatment, outcome), the mean untreated outcome and its
treated-subpopulation analog, together with their efficient influence
functions, one-step corrected estimators, exact second-order remainders,
and seeded Monte Carlo studies of coverage and convergence rates.
"""

from .distributions import *  # noqa: F403  (each module's __all__ says what it exports)
from .learners import *  # noqa: F403
from .estimators import *  # noqa: F403
from .decomposition import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from . import decomposition, distributions, errors, estimators, learners, montecarlo

__version__ = "0.1.0"

__all__ = [*distributions.__all__, *learners.__all__, *estimators.__all__,
           *decomposition.__all__, *montecarlo.__all__, "errors", "__version__"]
