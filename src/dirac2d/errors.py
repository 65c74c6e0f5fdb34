"""Exception types shared across the package.

Numerical routines raise subclasses of :class:`Dirac2DError`; the command-line
front end maps them onto exit codes (schema violations -> 2, numerical
failures -> 3, inadmissible parameter combinations -> 4).
"""


class Dirac2DError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(Dirac2DError, ValueError):
    """Operands live on different grids or have incompatible dimensions."""


class GammaValidationError(Dirac2DError, ValueError):
    """A coefficient triple violates its (p, q, F) box bounds on the sample grid."""


class DegenerateCokernelError(Dirac2DError, RuntimeError):
    """The two smallest singular values are too close to isolate a cokernel vector."""


class IllConditionedError(Dirac2DError, RuntimeError):
    """The zero-mean gauge solve's condition number s[0]/s[-2] of i d_+(0) exceeded the limit."""


class GaugeOverflowError(Dirac2DError, RuntimeError):
    """A gauge exponential would exceed the safe floating-point dynamic range."""


class SingularWeightError(Dirac2DError, ValueError):
    """A mode weight vanishes inside the truncation window."""


class ResolutionError(Dirac2DError, ValueError):
    """A quadrature grid is too coarse to resolve the requested oscillation."""


class NonHermitianError(Dirac2DError, ValueError):
    """A self-adjoint eigenvalue path was requested for a non-Hermitian fiber."""


class ConfigSchemaError(Dirac2DError, ValueError):
    """A run configuration does not match the documented schema."""


class InadmissibleParameterError(Dirac2DError, ValueError):
    """Parameters are individually valid but jointly inadmissible."""
