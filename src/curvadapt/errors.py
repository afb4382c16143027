"""Exception types shared across the package."""

from __future__ import annotations


class CurvAdaptError(ValueError):
    """Base class for all domain errors raised by this package."""


class NormalizationError(CurvAdaptError):
    """A vector that must be unit length (or nonzero) is not."""


class DegeneratePlaneError(CurvAdaptError):
    """A sectional-curvature request on a (numerically) degenerate plane."""


class FocalPointError(CurvAdaptError):
    """Evaluation of a principal-curvature flow at or beyond a pole.

    Attributes:
        focal_radius: location of the pole that was hit.
    """

    def __init__(self, message: str, focal_radius: float):
        super().__init__(message)
        self.focal_radius = focal_radius


class BoundaryAngleError(CurvAdaptError):
    """An operation requested at an angle where its output degenerates."""


class ExcludedAngleError(CurvAdaptError):
    """An angle in the excluded set where eigenvalue multiplicities jump."""


class InconsistentPowerSumsError(CurvAdaptError):
    """Power sums that do not come from any real eigenvalue multiset."""
