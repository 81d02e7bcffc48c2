"""Exception types shared across the package."""


class TannoLabError(Exception):
    """Base class for all package errors."""


class OutOfDomain(TannoLabError):
    """A chart point lies outside the chart's domain radius."""


class SingularMetric(TannoLabError):
    """The metric is (numerically) degenerate at the evaluation point."""


class NotLightlike(TannoLabError):
    """A geodesic path does not carry the lightlike causal tag."""


class NonConvergence(TannoLabError):
    """An iterative linear-algebra routine failed to converge."""


class IllConditioned(TannoLabError):
    """Eigenvalue clusters overlap within tolerance; result unreliable."""


class NoRealSplit(TannoLabError):
    """Fewer than two real eigenvalue clusters; no projector polynomial exists."""


class NotProjector(TannoLabError):
    """The extended operator is not idempotent at the requested point."""


class DimensionMismatch(TannoLabError):
    """Operands live on charts of different dimension."""


class DegenerateBasis(TannoLabError):
    """Basis vectors for a restriction are (numerically) linearly dependent."""


class NoExtremalPoint(TannoLabError):
    """Sampling plus refinement found no point with small gradient norm."""


class ConfigError(TannoLabError):
    """A suite configuration is invalid; message names the offending field."""
