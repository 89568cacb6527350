"""Exception types shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message text.
"""


class HellyTopoError(Exception):
    """Base class for all package errors."""


class ContractViolation(HellyTopoError):
    """An operation was invoked outside its stated preconditions."""


class MalformedInput(HellyTopoError):
    """Raw construction data is structurally invalid (e.g. duplicate vertex)."""


class ValidationError(HellyTopoError):
    """An input file or assembled object failed semantic validation."""


class GenerationFailure(HellyTopoError):
    """A randomized generator exhausted its attempt budget."""


class InvariantViolation(HellyTopoError):
    """An internal cross-check failed: a bug, never a property of the input."""
