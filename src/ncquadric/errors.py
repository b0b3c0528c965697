"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldMismatch(AlgebraError):
    """Arithmetic attempted between elements of different fields."""


class DivisionByZero(AlgebraError, ZeroDivisionError):
    """Exact division by the zero element."""


class AmbientMismatch(AlgebraError):
    """Subspace operation on spaces with different ambient dimensions."""


class ContainmentViolated(AlgebraError):
    """A vector expected inside a subspace fell outside it."""


class UnsupportedDimension(AlgebraError):
    """Presentation with too few generators for the hypersurface machinery."""


class NotCentral(AlgebraError):
    """The selected degree-2 element is not central."""


class NotRegularCertificate(AlgebraError):
    """The degree-bounded regularity certificate failed."""


class RelationDependence(AlgebraError):
    """The central element already lies in the relation space."""


class NoStableCentral(AlgebraError):
    """No central degree-2 dual element acts bijectively in the stable range."""


class NotSemisimple(AlgebraError):
    """Operation requires a semisimple algebra."""


class NonSplit(AlgebraError):
    """Idempotent extraction hit a min-poly that does not split over the field.

    Carries the offending polynomial factor and whatever partial central
    decomposition was certified before the failure.  ``decided`` is True
    when a central factor was proved to have no further roots in the field,
    and False when the search for a proper idempotent in a matrix block
    gave up, so the block may still split.
    """

    def __init__(self, message, factor=None, partial=(), decided=True):
        super().__init__(message)
        self.factor = factor
        self.partial = tuple(partial)
        self.decided = decided


class AdditivityViolated(AlgebraError):
    """Summand Hilbert functions failed to add up to the module's."""


class ParseError(AlgebraError):
    """Syntax or semantic error in a presentation file."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col
