"""Exception types shared across the package."""


class WeightCalcError(Exception):
    """Base class for all library errors.

    ``details`` carries machine-readable context (violating indices, witness
    values) so callers can surface it verbatim.
    """

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class DomainError(WeightCalcError, ValueError):
    """A parameter is outside its mathematical domain (e.g. a Gevrey index <= 0)."""


class FormatError(WeightCalcError, ValueError):
    """Malformed input data (non-finite entries, wrong length, bad schema)."""


class PreconditionError(WeightCalcError):
    """An operation's precondition failed on the given inputs."""


class WellDefinednessError(PreconditionError):
    """A transform would be infinite/undefined for the given input."""


class CapacityError(WeightCalcError):
    """The finite window is too small for the requested construction."""


class DomainExhaustedError(WeightCalcError):
    """A supremum/argmax landed on the edge of the search grid.

    The computed value is a lower bound only; enlarge the grid.
    """


class UsageError(WeightCalcError):
    """Unknown check id, bad CLI flags, or malformed invocation."""
