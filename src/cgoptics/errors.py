"""Exception types raised by the beam construction and verification pipeline."""


class CGOError(Exception):
    """Base class for all library-specific failures."""


class ConfigError(CGOError):
    """Invalid or incomplete scenario/system configuration (CLI exit code 2)."""


class NumericsError(CGOError):
    """Base class for numerical failures detected at run time (CLI exit code 3)."""


class NonHermitianError(NumericsError):
    """A coefficient matrix or assembled symbol is not Hermitian within tolerance."""


class GapCollapseError(NumericsError):
    """Eigenvalue clusters cannot be separated by the configured minimum gap."""


class DomainExitError(NumericsError):
    """A ray left the shrinking domain of determinacy before the final time."""


class EmbeddingFailureError(NumericsError):
    """Rays crossed or the chart Jacobian degenerated (caustic onset)."""


class FrameDriftError(NumericsError):
    """The transported normal frame lost orthonormality beyond tolerance."""


class OutOfChartError(NumericsError):
    """A requested point could not be mapped into the tube coordinates."""


class SingularJacobianError(NumericsError):
    """The chart Jacobian is singular at the requested point."""


class PositivityLossError(NumericsError):
    """The imaginary part of the phase curvature matrix lost positive definiteness."""


class BlowUpError(NumericsError):
    """The Riccati solution norm exceeded the blow-up threshold (focal point)."""


class PolarizationDriftError(NumericsError):
    """The transported amplitude left the polarization eigenspace."""


class SeparationFailureError(NumericsError):
    """No positive lower bound on competing-mode separation inside the tube."""


class TubeOverlapError(NumericsError):
    """Two wave components claim the same grid node at assembly time."""


class CFLViolationError(NumericsError):
    """A requested reference-solver time step violates the CFL limit."""


class ResolutionError(NumericsError):
    """The reference grid does not resolve the 1/epsilon oscillation."""


class GridMismatchError(NumericsError):
    """Two fields that should share a grid do not."""


class DegenerateFitError(NumericsError):
    """A rate fit was requested on data containing exact (zero) errors."""
