"""Exception types raised across the package."""


class SpaceTooLarge(ValueError):
    """Outcome space exceeds an enumeration budget: 2^K events past K = 20,
    or grid points past ``outcome.MAX_GRID_POINTS``."""


class BudgetExceeded(ValueError):
    """Requested check is outside the supported (K, k) budget."""


class EmptyBag(ValueError):
    """A nonconformity score was requested against an empty bag."""


class UnknownLabel(ValueError):
    """Label not present in the outcome space or count table."""


class AllZeroContour(ValueError):
    """Contour is identically zero; normalization is undefined."""


class NonConsonantContour(ValueError):
    """Operation requires sup pi = 1 but the contour does not attain it."""


class NegativeMass(ValueError):
    """Moebius inversion produced a negative mass; input was not a belief function."""


class WrongDimension(ValueError):
    """Probability vector has the wrong number of coordinates for the operation."""


class NegativeCount(ValueError):
    """Count data must be nonnegative integers."""


class AlphaOutOfRange(ValueError):
    """Significance level outside the open interval (0, 1)."""


class TruncationInsufficient(RuntimeError):
    """Support truncation cap reached before predictive mass was captured."""


class FixtureMismatch(RuntimeError):
    """A built-in reference value failed to reproduce."""
