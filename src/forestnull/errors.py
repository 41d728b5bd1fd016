"""Shared exception types."""


class ForestNullError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ForestNullError, ValueError):
    """Input violates a structural requirement (pattern, field, dimension).

    A message that names vertices is a %-template filled with their
    0-based ids, ``vertices``, as the library counts them.
    """

    def __init__(self, message, *vertices):
        super().__init__(message % vertices if vertices else message)
        self.template, self.vertices = message, vertices

    def one_based(self):
        """This error with its vertices counted from 1, as the file
        formats write them; itself when it names no vertex."""
        if not self.vertices:
            return self
        return ValidationError(self.template, *(v + 1 for v in self.vertices))


class ParseError(ValidationError):
    """A matrix, basis or vector file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class OracleBoundError(ForestNullError):
    """Instance is larger than a fixed brute-force size cap."""
