"""Exception types shared across the package.

Three outcomes, one type each: bad input (DomainError, exit code 2), a
numerical failure (NumericalError, exit code 3) and a failed energy
threshold (ThresholdNotMetError, exit code 4).  No caller tells numerical
failures apart, so their one type carries the story in its message.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """The numerics failed: a quadrature that missed its tolerance, a
    kernel table or reduced kernel that breaks its structural invariants,
    a lambda metric that is not finite or not positive definite, or a
    solve quantity that left the floats.  The message names the quantity
    and where it failed.  A helper process of a parallel build that dies
    is not a failure: the parent redoes its share."""


class ThresholdNotMetError(RuntimeError):
    """The mountain-pass energy threshold test failed for the seed profile;
    it carries the seed's ray supremum and the threshold it did not meet."""

    def __init__(self, message, *, sup_value, threshold):
        super().__init__(message)
        self.sup_value = sup_value
        self.threshold = threshold
