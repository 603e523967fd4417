"""Exception types raised across the package."""


class NHTError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeneratorError(NHTError):
    """Values violate an invariant (length, sign, range, or all-zero)."""


class InvalidModulusError(NHTError):
    """A modulus smaller than 2 was supplied where one is required."""


class NonInvertibleError(NHTError):
    """A value that must be invertible modulo q is not."""


class CompositeModulusError(NHTError):
    """An operation that requires a prime modulus received a composite one."""


class ShapeError(NHTError):
    """Operand lengths or dimensions do not agree."""


class ConventionError(NHTError):
    """The requested correlation convention is not applicable."""


class SequenceFileError(NHTError):
    """A sequence file is malformed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
