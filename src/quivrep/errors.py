"""Exception hierarchy shared across the package.

Everything raised on bad input derives from :class:`QuivrepError`, so the
command-line layer can map any library failure to a diagnostic plus a
nonzero exit status without enumerating cases.  Bad input is caller data:
names, numbers, texts and containers.  A library object of the wrong type,
such as None or a Quiver where a Representation goes, is a programming
error, and Python's own exception stands there.
"""


class QuivrepError(Exception):
    """Base class for all errors raised by this package."""


class NonComposable(QuivrepError):
    """Two paths were concatenated whose endpoints do not match."""


class MixedEndpoints(QuivrepError):
    """A relation's paths do not all share the same source and target."""


class ShapeMismatch(QuivrepError):
    """A matrix has the wrong shape for the vertex dimensions it connects."""


class NotAVarietyPoint(QuivrepError):
    """A representation does not satisfy the relations it was asked to."""


class WrongDimension(QuivrepError):
    """A representation has a different dimension vector than required."""


class InvalidLabel(QuivrepError):
    """A family label is outside the allowed scalar/arrow parameter set."""


class DecompositionMismatch(QuivrepError):
    """A constrained cocycle space failed to match its block decomposition."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InequalityViolated(QuivrepError):
    """A certified dimension inequality failed on a concrete instance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(QuivrepError):
    """A text file could not be parsed; carries a 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
