"""Zero-mean laws as mixtures of two-point laws.

Layers, bottom up: :mod:`~twopoint.measure` holds the cumulative curve
of a zero-mean law and its paired generalized inverses;
:mod:`~twopoint.disintegration` turns them into explicit two-point
mixtures, samplers, and identity checks; :mod:`~twopoint.selfnorm`
provides the conservative self-normalized tests with their sharp
constants; :mod:`~twopoint.modeling` has the parametric curve families
and validators; :mod:`~twopoint.optimal` compares mixture
representations; :mod:`~twopoint.estimator` inverts a bootstrap pivot
into a confidence interval.  :mod:`~twopoint.cli` wraps it all for the
command line.  The package exports each layer's own ``__all__``.
"""

from . import disintegration, estimator, measure, modeling, optimal, selfnorm
from .disintegration import *  # noqa: F403
from .errors import InputError, TwopointError
from .estimator import *  # noqa: F403
from .measure import *  # noqa: F403
from .modeling import *  # noqa: F403
from .optimal import *  # noqa: F403
from .selfnorm import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", "TwopointError", "InputError",
           *(name for layer in (measure, disintegration, selfnorm, modeling,
                                optimal, estimator)
             for name in layer.__all__)]
