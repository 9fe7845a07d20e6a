"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance; the
    message names the value and the error estimate at the point of failure."""


class TableRejectionError(RuntimeError):
    """A tabulated kernel violates its structural invariants.

    Raised when the fitted asymptotic exponents fall outside the expected
    bands, which signals a bug in the kernel evaluation rather than bad
    user input.
    """


class ReducedKernelError(RuntimeError):
    """Angular reduction of the two-point kernel failed at a node pair."""


class ThresholdNotMetError(RuntimeError):
    """The mountain-pass energy threshold test failed for the seed profile."""

    def __init__(self, message, sup_value=None, threshold=None):
        super().__init__(message)
        self.sup_value = sup_value
        self.threshold = threshold


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""
