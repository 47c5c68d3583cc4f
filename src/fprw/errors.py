"""Exception types shared across the package."""


class FprwError(Exception):
    """Base class for all package errors."""


class ConfigError(FprwError):
    """Invalid input description (bad weights, malformed factor, unknown field)."""


class OutOfDomain(FprwError):
    """Evaluation requested outside the function's domain of definition."""


class ZeroConstantTerm(FprwError):
    """Series reciprocal needs a nonzero constant term."""


class NonzeroInnerConstant(FprwError):
    """Series composition needs an inner series with zero constant term."""


class NeedsDerivative(FprwError):
    """A Green-function derivative required by the formula is infinite."""


class RootNotBracketed(FprwError):
    """A root search could not bracket a sign change (numeric inconsistency)."""


class NoConvergence(FprwError):
    """A fixed-point iteration or root search did not converge within the iteration cap."""


class NanValue(FprwError):
    """A root search's function returned NaN."""


class NotAtCriticality(FprwError):
    """Square-root coefficient requested away from the critical locus."""


class MissingSingularity(FprwError):
    """An inherited law needs a singularity descriptor the factor does not carry."""


class InvalidSingularity(FprwError):
    """Integer exponent with no log power describes no singular part."""


class InsufficientData(FprwError):
    """The series is too short for the requested exponent fit."""


class StateExplosion(FprwError):
    """The word-enumeration state count exceeded the configured cap."""


class TargetOutOfRange(FprwError):
    """The axis-weight tuning target is outside the attainable range."""


class AmbiguousRegime(FprwError):
    """Phase-case tolerances straddle two labels; both candidates reported."""


class DegenerateProduct(FprwError):
    """The product is (Z/2Z)*(Z/2Z): recurrent, outside the transient theory."""
