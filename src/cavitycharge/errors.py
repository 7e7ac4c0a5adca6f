"""Exception types shared across the toolkit.

Everything derives from ToolkitError so callers can catch the whole family.
Validation failures subclass ValueError, numerical/iterative failures
subclass RuntimeError, so generic handling keeps working too.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ToolkitError, ValueError):
    """An argument violates a precondition (sign, range, shape)."""


class DomainError(ToolkitError, ValueError):
    """An input is outside the mathematical domain of the operation."""


class ConsistencyError(ToolkitError, ValueError):
    """Inputs are individually valid but mutually incompatible."""


class StabilityError(ToolkitError, ValueError):
    """The configuration no longer supports a confined equilibrium."""


class SchemaError(ToolkitError, ValueError):
    """A configuration document violates the scenario schema."""


class EvaluationError(ToolkitError, RuntimeError):
    """A function produced non-finite values during propagation."""


class SearchError(ToolkitError, RuntimeError):
    """A budget's target is not reached within its charge range."""


class FitError(ToolkitError, RuntimeError):
    """A least-squares fit failed."""
