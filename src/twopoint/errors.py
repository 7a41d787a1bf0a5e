"""Exception types shared across the package.

Every error raised on purpose by this package derives from
:class:`TwopointError`, so callers can catch one base class.  Errors that
signal invalid *input* additionally derive from :class:`ValueError`.
"""

from __future__ import annotations


class TwopointError(Exception):
    """Base class for all package errors."""


class InputError(TwopointError, ValueError):
    """Invalid argument or malformed input data."""


# --- measures -------------------------------------------------------------

class NonZeroMean(InputError):
    """The supplied atoms or samples do not have mean zero within tolerance."""


class DegenerateAtZero(InputError):
    """The measure is the point mass at zero, for which nothing interesting
    can be said."""


class BadMass(InputError):
    """A mass is non-positive, non-finite, or the masses do not sum to one."""


class EmptySample(InputError):
    """No observations were supplied."""


class ConstantSample(InputError):
    """All observations are equal; the recentred sample would be degenerate."""


class NegativeH(InputError):
    """A cumulative level ``h`` outside ``[0, inf)`` was requested."""


# --- disintegration -------------------------------------------------------

class NotDiscrete(InputError):
    """Operation requires a discrete (atomic) measure."""


class SameSign(InputError):
    """Two-point endpoints must straddle zero (or both be zero)."""


class Unbounded(InputError):
    """The integrand is unbounded both above and below on the support, or
    a sample's studentizing denominator is past the float range, so its
    normalized pivot vanishes."""


class DimensionMismatch(InputError):
    """Callable arity does not match the number of coordinates supplied."""


# --- self-normalized statistics -------------------------------------------

class LengthMismatch(InputError):
    """Paired arrays have different lengths."""


class BadLambda(InputError):
    """Exponent ``lambda`` must be positive and finite."""


class BadP(InputError):
    """Probability parameter must lie in (0, 1)."""


class TooLarge(InputError):
    """Requested model size exceeds the supported range."""


class LambdaTooSmall(InputError):
    """Exponent below the critical threshold for the requested asymmetry."""


class AsymmetryViolated(InputError):
    """Observed positive/negative ratio exceeds the certified bound."""


class NotLogConcave(TwopointError):
    """The computed Bernoulli log-tail is not concave, so its log-linear
    interpolation would not majorize it; a numerical problem, not bad
    input."""


# --- curve modeling -------------------------------------------------------

class BadScale(InputError):
    """Scale parameter must be positive."""


class BadAlpha(InputError):
    """Asymmetry parameter outside the admissible interval."""


class Lip1Violated(InputError):
    """Supplied asymmetry pattern is not a strict contraction."""


class NotValidCurve(InputError):
    """Callable does not satisfy the reciprocating-curve axioms."""


class CharacterizationFailed(InputError):
    """Candidate inverse pair fails the extremal-function characterization."""


# --- optimality -----------------------------------------------------------

class NotADisintegration(InputError):
    """Component list does not reassemble the target measure."""


class NotSuperadditive(InputError):
    """Cost function carries no superadditivity certificate."""


class UnsupportedMarginals(InputError):
    """Exhaustive coupling search limited to small equal-size marginals."""


# --- estimation -----------------------------------------------------------

class BadLevel(InputError):
    """Confidence level must lie strictly between 0 and 1."""


class TooFewResamples(InputError):
    """Bootstrap needs a minimum number of resamples to be meaningful."""
