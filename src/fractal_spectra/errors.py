"""Exception types shared across the package."""


class FractalSpectraError(Exception):
    """Base class for all package errors."""


class NotSymmetric(FractalSpectraError):
    """Matrix is not (complex-)symmetric within tolerance."""


class NotHermitian(FractalSpectraError):
    """Matrix is not Hermitian within tolerance."""


class NonPositiveWeight(FractalSpectraError):
    """A measure / weight vector has a non-positive entry."""


class NotADirichletForm(FractalSpectraError):
    """Matrix lies outside the cone of electrical-network forms."""


class SingularInterior(FractalSpectraError):
    """Interior block of a boundary reduction is numerically singular.

    This is the pole set of the rational boundary-trace map.
    """


class AtInfinity(FractalSpectraError):
    """Lagrangian frame meets 0 + E*: it has no symmetric-matrix chart."""


class ZeroScale(FractalSpectraError):
    """Scaling lift requested with factor 0."""


class OrderUnstable(FractalSpectraError):
    """Numeric order-of-vanishing estimates did not stabilize."""


class NotEquivariant(FractalSpectraError):
    """Matrix does not commute with the chart projectors."""


class DegreeUnresolved(FractalSpectraError):
    """No rational fit of admissible degree matched the samples."""


class ResidueUnresolved(FractalSpectraError):
    """A residue pivot of the trace lies too near its cut to be ranked."""


class InvalidStructure(FractalSpectraError):
    """Self-similar structure data violates its invariants."""


class ConfigError(FractalSpectraError):
    """Structure config file is malformed."""
