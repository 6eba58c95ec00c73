"""Typed errors raised by the library.

Every error carries a stable string ``code`` so that callers (including the
command line tool) can match on it without parsing messages.
"""


class OneShotError(Exception):
    """Base class for all library errors."""

    code = "OneShotError"


class NoInteriorData(OneShotError):
    """No cell has a failure count strictly between 0 and the cell size.

    Estimation is refused instead of returning a boundary estimate, because
    the minimizer degenerates (the baseline rate runs to 0 or infinity).
    """

    code = "NoInteriorData"


class SingularInformation(OneShotError):
    """The information-type matrix is singular or too ill-conditioned to invert."""

    code = "SingularInformation"


class DegenerateVariance(OneShotError):
    """The variance of the tested linear combination is not strictly positive."""

    code = "DegenerateVariance"


class InfeasibleDesign(OneShotError):
    """No number of devices can reach the requested power (zero effect size)."""

    code = "InfeasibleDesign"


class NumericalOverflow(OneShotError, OverflowError):
    """A model quantity at the requested point exceeds the double range."""

    code = "NumericalOverflow"


class ParseError(OneShotError):
    """A data file or option string could not be parsed."""

    code = "ParseError"
