"""Exception types shared across the package.

The CLI maps these onto process exit codes, `ValidationError` and
`ContractViolation` to 3 and the others to 1, so raising the right class
matters more than the message text.
"""


class HellyTopoError(Exception):
    """Base class for all package errors."""


class ContractViolation(HellyTopoError):
    """A call outside its stated preconditions, such as an unknown theorem
    tag, a member index out of range or a family too small for its theorem."""


class ValidationError(HellyTopoError):
    """Input from outside the program is malformed: a family or polygon
    file, a simplex's vertex list, a polygon's vertices, a command-line
    option that does not apply."""


class GenerationFailure(HellyTopoError):
    """A randomized generator exhausted its attempt budget."""


class InvariantViolation(HellyTopoError):
    """An internal cross-check failed: a bug, never a property of the input."""
