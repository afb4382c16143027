"""Curvature machinery for octonionic planes and quaternionic Grassmannians.

Submodule map:
    octonion_table the signed basis table, in pure Python
    octonion       division-algebra arithmetic over the eight-dimensional basis
    operators      eigencluster bookkeeping for self-adjoint operators
    cayley_plane   sixteen-dimensional curvature tensor, Jacobi operators
    grassmannian   Kaehler + quaternionic structure bundles and their tensor
    tube_flow      branch kernel and Riccati evolution, focal-configuration
                   search, tube spectra built from its core catalog
    isoparametric  mean-curvature profiles, pole stripping, power-sum cascade
    certificates   verdict objects shared by the oracles
    cli            command-line front end

operators, cayley_plane, grassmannian and octonion import numpy.  The
other modules import numpy, or those four, only inside the functions that
do linear algebra, and the operator classes below load operators on first
access, so importing the package or the cli loads no numpy.
"""

from .certificates import Certificate
from .errors import (
    BoundaryAngleError,
    CurvAdaptError,
    DegeneratePlaneError,
    ExcludedAngleError,
    FocalPointError,
    InconsistentPowerSumsError,
    NormalizationError,
    UnsupportedRegimeError,
)
from .tube_flow import CurvatureBranch, PCSystem

__version__ = "0.1.0"

_OPERATOR_CLASSES = ("EigenCluster", "SelfAdjointOperator", "Spectrum")


def __getattr__(name):
    if name in _OPERATOR_CLASSES:
        from . import operators

        return getattr(operators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
    "NormalizationError",
    "PCSystem",
    "SelfAdjointOperator",
    "Spectrum",
    "UnsupportedRegimeError",
    "__version__",
]
