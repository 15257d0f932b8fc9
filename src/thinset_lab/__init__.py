"""Numerical laboratory for thin sets of integer frequencies.

Exponent algebra linking moment and interpolation parameters, certified
sup norms of trigonometric polynomials, Orlicz and Lorentz norms,
heavy-tailed Monte Carlo norm estimates, combinatorial quasi-independence
search, example set families with counting statistics, and a suite of
named reproducible experiments.

The package re-exports each module's ``__all__``; those lists are the
public surface.
"""

from . import errors, examples_sets, experiments, exponents, orlicz, quasi, sampler, stable_norm, trigpoly
from .errors import *  # noqa: F403
from .examples_sets import *  # noqa: F403
from .experiments import *  # noqa: F403
from .exponents import *  # noqa: F403
from .orlicz import *  # noqa: F403
from .quasi import *  # noqa: F403
from .sampler import *  # noqa: F403
from .stable_norm import *  # noqa: F403
from .trigpoly import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, examples_sets, experiments, exponents, orlicz, quasi, sampler, stable_norm, trigpoly)
    for name in module.__all__
] + ["__version__"]
