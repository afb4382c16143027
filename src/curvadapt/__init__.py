"""Curvature machinery for octonionic planes and quaternionic Grassmannians.

Submodule map:
    octonion       division-algebra arithmetic over the eight-dimensional basis
    operators      eigencluster bookkeeping for self-adjoint operators
    cayley_plane   sixteen-dimensional curvature tensor, Jacobi operators
    grassmannian   Kaehler + quaternionic structure bundles and their tensor
    tube_flow      Riccati evolution, tube spectra, focal-configuration search
    isoparametric  mean-curvature profiles, pole stripping, power-sum cascade
    certificates   verdict objects shared by the oracles
    cli            command-line front end
"""

from .certificates import Certificate
from .errors import (
    BoundaryAngleError,
    CurvAdaptError,
    DegeneratePlaneError,
    ExcludedAngleError,
    FocalPointError,
    InconsistentPowerSumsError,
    NoMinimalTubeError,
    NormalizationError,
    UnsupportedRegimeError,
)
from .operators import EigenCluster, SelfAdjointOperator, Spectrum
from .tube_flow import CurvatureBranch, PCSystem, TubeDescriptor

__version__ = "0.1.0"

__all__ = [
    "BoundaryAngleError",
    "Certificate",
    "CurvAdaptError",
    "CurvatureBranch",
    "DegeneratePlaneError",
    "EigenCluster",
    "ExcludedAngleError",
    "FocalPointError",
    "InconsistentPowerSumsError",
    "NoMinimalTubeError",
    "NormalizationError",
    "PCSystem",
    "SelfAdjointOperator",
    "Spectrum",
    "TubeDescriptor",
    "UnsupportedRegimeError",
    "__version__",
]
