"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`MarkovOrderError`, so
callers can catch one base class at pipeline boundaries (the CLI does) while
tests assert on the specific subclass.
"""


class MarkovOrderError(Exception):
    """Base class for all errors raised by this package."""


# -- trajectory construction ------------------------------------------------

class DimensionMismatchError(MarkovOrderError):
    """State vectors (or frequency vectors) disagree in dimension."""


class NonFiniteValueError(MarkovOrderError):
    """A state, action, parameter or test statistic contains NaN or infinity."""


class LengthMismatchError(MarkovOrderError):
    """Actions and states have different lengths."""


class NonPositiveDtError(MarkovOrderError):
    """Sampling interval must be strictly positive."""


class DegenerateDimensionError(MarkovOrderError):
    """A state dimension is constant and cannot be standardized."""


# -- ingestion ---------------------------------------------------------------

class PolarLatitudeError(MarkovOrderError):
    """Latitude too close to a pole for the planar projection."""


class InsufficientDataError(MarkovOrderError):
    """Fewer samples than the operation requires."""


class InsufficientSpanError(MarkovOrderError):
    """Records cover less time than one resampling step."""


class GridTooLargeError(MarkovOrderError):
    """A resampling step would make a grid of more rows than the cap."""


class NegativeGapError(MarkovOrderError):
    """Follower at or ahead of the leader; gap would be non-positive."""


class SchemaMismatchError(MarkovOrderError):
    """CSV header does not provide the columns the schema maps."""


class UnparsableRowError(MarkovOrderError):
    """A CSV row failed to parse; carries the 1-based row index."""

    def __init__(self, row: int, message: str = ""):
        self.row = row
        super().__init__(message or f"unparsable row {row}")


class NonMonotonicTimestampsError(MarkovOrderError):
    """Timestamps within a file must be strictly increasing."""


class DuplicateTrajectoryIdError(MarkovOrderError):
    """Two input files of one run carry the same trajectory id."""


# -- estimators and test statistics ------------------------------------------

class NotStochasticError(MarkovOrderError):
    """Transition probabilities are negative or do not sum to one."""


class TrainingDivergedError(MarkovOrderError):
    """Likelihood optimisation produced a non-finite loss."""


class TrajectoryTooShortError(MarkovOrderError):
    """Trajectory too short for the requested lag."""


class NonStationarySpecError(MarkovOrderError):
    """Autoregressive specification has companion spectral radius >= 1."""


# -- cohort statistics ---------------------------------------------------------

class EmptyCohortError(MarkovOrderError):
    """A cohort has no observations."""


class ZeroPooledVarianceError(MarkovOrderError):
    """Pooled variance is zero; the t statistic is undefined."""


class ZeroDenominatorVarianceError(MarkovOrderError):
    """Denominator cohort variance is zero; the F statistic is undefined."""


class InvalidDfError(MarkovOrderError):
    """Degrees of freedom must be a positive integer."""


class InvalidInputError(MarkovOrderError):
    """Argument outside the domain of a distribution function."""


class DomainError(MarkovOrderError):
    """Argument outside the domain of a special function."""


class OutOfRangeOrderError(MarkovOrderError):
    """An order lies outside the histogram range 1..k_max."""
