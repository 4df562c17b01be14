"""Exception types shared across the package.

Validation problems (bad parameters, mismatched domains, out-of-contract
inputs) raise subclasses of :class:`ValidationError`.  Probes that run out
of budget or fail to converge raise subclasses of :class:`ProbeError`,
which the CLI maps to a distinct exit status.
"""


class IfslabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(IfslabError, ValueError):
    """An input violates a documented precondition or invariant."""


class DomainError(ValidationError):
    """A geometric object does not fit inside the working domain."""


class ResolutionError(ValidationError):
    """A requested length scale is below the grid scale."""


class EmptySetError(ValidationError):
    """An operation that needs a nonempty set received an empty one."""


class DimensionError(ValidationError):
    """A planar-only operation was applied to a circle map, or vice versa."""


class AlphabetError(ValidationError):
    """A word contains symbols outside the system's alphabet."""


class DegeneracyError(ValidationError):
    """A Jacobian determinant vanished where it must not."""


class NotAContractionError(ValidationError):
    """A sampled derivative norm was >= 1 where a contraction is required."""


class MultiplierError(ValidationError):
    """A circle-map multiplier lies outside its admissible range."""


class ProbeError(IfslabError, RuntimeError):
    """Base class for budget/convergence failures of numerical probes."""


class BudgetExceededError(ProbeError):
    """A word-enumeration budget was exhausted.

    Carries the partial report computed so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConvergenceError(ProbeError):
    """An iteration hit its step limit; ``last_distance`` holds the final gap."""

    def __init__(self, message, last_distance=None):
        super().__init__(message)
        self.last_distance = last_distance


class HorizonError(ProbeError):
    """A search did not reach its target within the allowed horizon."""


class NonFiniteError(ProbeError):
    """Every sample of a probe came out non-finite, so it measured nothing."""


class OrbitRangeError(ProbeError):
    """An orbit point is not finite or too far out for its pruning cell to be keyed."""


class ConstructionError(IfslabError, RuntimeError):
    """A cover/absorption construction failed; carries the uncovered fraction."""

    def __init__(self, message, uncovered_fraction=None):
        super().__init__(message)
        self.uncovered_fraction = uncovered_fraction
