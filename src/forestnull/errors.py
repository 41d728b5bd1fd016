"""Shared exception types."""


class ForestNullError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ForestNullError, ValueError):
    """Input violates a structural requirement (pattern, field, dimension)."""


class ParseError(ValidationError):
    """A matrix, basis or vector file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class OracleBoundError(ForestNullError):
    """Instance is larger than a fixed brute-force size cap."""
