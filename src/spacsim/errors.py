"""Exception hierarchy.

Validation errors subclass ValueError (CLI exit code 2); numerical
failures subclass RuntimeError (CLI exit code 3).
"""


class SpacsimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(SpacsimError, ValueError):
    """Fock-space dimension is not an integer >= 2."""


class InvalidParameterError(SpacsimError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DimensionMismatchError(SpacsimError, ValueError):
    """Operator and state (or two states) live in different dimensions."""


class UndefinedWeakValueError(SpacsimError, ValueError):
    """Pre- and postselection are orthogonal; the weak value diverges."""


class UndefinedQError(SpacsimError, ValueError):
    """Mandel Q is undefined for states with zero mean photon number."""


class TruncationError(SpacsimError, RuntimeError):
    """Requested state carries more tail mass than the tolerance allows."""


class ConvergenceError(SpacsimError, RuntimeError):
    """Adaptive truncation did not converge below the dimension cap."""


class DegeneratePostselectionError(SpacsimError, RuntimeError):
    """The two displaced branches cancel; the pointer state has no norm."""
