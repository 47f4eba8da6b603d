"""Exception types raised by qhal.

Every error derives from :class:`QhalError` so callers can catch the whole
family at once.  The CLI maps :class:`QhalError` subclasses to exit code 1
(configuration / input problems) except for the degeneracy signals, which
map to exit code 2: ``NotRieszError``, ``SupportViolationError``,
``DivisionByZeroError`` and ``FullLatticeError``.  No window is checked
when built; the Riesz gate (``NotRieszError``) decides about generators.
"""


class QhalError(Exception):
    """Base class for all qhal errors."""


class NonDivisorError(QhalError):
    """A lattice step does not divide the ambient dimension L."""


class NotSeparableError(QhalError):
    """The lattice is not of the product form aZ x bZ."""


class ParityError(QhalError):
    """A centered box was requested for an even side length."""


class EvenDimensionError(QhalError):
    """The operation needs 2 to be invertible mod L, so L must be odd."""


class BadExponentError(QhalError):
    """Schatten exponent outside [1, inf]."""


class DimensionMismatchError(QhalError):
    """Operands live over different dimensions L."""


class LatticeMismatchError(QhalError):
    """Operands are indexed by different lattices."""


class NotRieszError(QhalError):
    """The lattice orbit of the generator is not a Riesz sequence."""


class FullLatticeError(QhalError):
    """The lattice is all of Z_L x Z_L, so no outside vector exists."""


class SupportViolationError(QhalError):
    """A spreading function sticks out of the declared domain."""


class DivisionByZeroError(QhalError):
    """The divisor's spreading function vanishes somewhere on the domain."""


class FormatError(QhalError):
    """A file does not follow the declared QHAL serialization format."""


class NonFiniteError(QhalError):
    """An input array holds NaN or infinite entries."""
