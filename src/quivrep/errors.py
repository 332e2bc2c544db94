"""Exception hierarchy shared across the package.

Everything raised on bad input derives from :class:`QuivrepError`, so the
command-line layer can map any library failure to a diagnostic plus a
nonzero exit status without enumerating cases.
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


class NotACocycle(QuivrepError):
    """A candidate cocycle fails the twisted relation equations."""


class NegativeExt2(QuivrepError):
    """An ext^2 value came out negative; nothing in the package raises it.

    The Euler-form value ``<dim M, dim N> - hom + ext1`` that
    ``homology.ext_report`` reports as ext2 equals rows - rank of the
    relation (cocycle) system, the dimension of its cokernel, which is
    never negative.  It is Ext^2 when the global dimension is at most two.
    The class stays in the public exception set.
    """


class HomNotZero(QuivrepError):
    """A tangent bound was requested for a pair with Hom(V, U) != 0."""


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
