"""Exception types shared across the package."""


class JetflowError(Exception):
    """Base class for all errors raised by jetflow."""


class OrderMismatch(JetflowError):
    """Arithmetic between values truncated at different epsilon orders."""


class _Obstructed(JetflowError):
    """A failed check that carries its obstruction when one is available."""

    def __init__(self, message, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


class NotExact(_Obstructed):
    """An expression is not a total x-derivative.

    Carries the Euler-operator obstruction when one is available.
    """


class ClosureError(JetflowError):
    """An operator composition leaves the representable class."""


class NotVariational(_Obstructed):
    """A tuple of differential functions is not a variational derivative."""


class NotInImage(_Obstructed):
    """A characteristic does not lie in the image of the given operator."""


class Unsupported(JetflowError, ValueError):
    """The operation is outside the supported class (by design).

    Also a ValueError, so that callers catching ValueError for a bad
    argument, such as a non-skew-adjoint operator given to pair_check,
    keep working.
    """


class NotASymmetry(_Obstructed, ValueError):
    """A characteristic required to be a symmetry (a hierarchy seed) is not.

    Carries the symmetry residual.  Also a ValueError, so that callers
    catching ValueError for a bad seed keep working.
    """


class ResourceLimit(JetflowError):
    """A configured resource cap (jet order, ...) was exceeded."""


class Diverged(JetflowError):
    """Numerical time integration produced a non-finite value."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ModelError(JetflowError):
    """Invalid model input (parse or name-resolution failure)."""


class ParseError(ModelError):
    """Syntax error in a model file, with source position."""

    def __init__(self, message, line, column, expected=None):
        loc = f"line {line}, column {column}"
        if expected:
            message = f"{message} (expected {', '.join(sorted(expected))})"
        super().__init__(f"{loc}: {message}")
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected)) if expected else ()


class UnknownName(ModelError):
    """Reference to an identifier that was never declared."""

    def __init__(self, name, line, column):
        super().__init__(f"line {line}, column {column}: unknown name '{name}'")
        self.name = name
        self.line = line
        self.column = column
