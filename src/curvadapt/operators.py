"""Self-adjoint operators, clustered spectra and the Jacobi operator build.

Eigenvalues coming out of the curvature machinery are exact integers or
smooth functions of an angle, so clustering nearby numerical eigenvalues
into multiplicities is safe: the cluster gap (1e-6) sits many orders of
magnitude above eigensolver noise and below any genuine spectral gap used
in this package.

Both geometries build K_xi = R(., xi) xi through ``jacobi_matrices``, the
one unit check on xi, and a ``SelfAdjointOperator`` rejects a matrix whose
asymmetry exceeds SYMMETRY_RTOL * max(1, max|M|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError

CLUSTER_GAP = 1e-6
UNIT_TOL = 1e-10
SYMMETRY_RTOL = 1e-12


def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise inner products over the last axis, kept as a trailing axis
    of length one so that they scale vectors of the same batch."""
    return np.vecdot(u, v)[..., None]


def jacobi_matrices(curvature, xi) -> np.ndarray:
    """C-order K_xi = R(., xi) xi per row of xi (..., n), from a curvature
    R(x, y)z that broadcasts; a row of xi off unit length by more than
    UNIT_TOL raises NormalizationError."""
    xi = np.asarray(xi, dtype=float)[..., None, :]
    norm = np.sqrt(np.vecdot(xi, xi))
    bad = ~(np.abs(norm - 1.0) <= UNIT_TOL)
    if bad.any():
        raise NormalizationError(f"xi must be a unit vector, |xi|={float(norm[bad][0])!r}")
    rows = curvature(np.eye(xi.shape[-1]), xi, xi)
    return np.ascontiguousarray(np.swapaxes(rows, -1, -2))


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue with its multiplicity and an orthonormal eigenbasis."""

    value: float
    multiplicity: int
    vectors: np.ndarray  # shape (dim, multiplicity), columns are eigenvectors


@dataclass(frozen=True)
class SelfAdjointOperator:
    """A dense square matrix, symmetric to SYMMETRY_RTOL * max(1, max|M|)."""

    matrix: np.ndarray

    def __post_init__(self):
        # C order whatever the caller's layout, so products with the
        # matrix round the same way
        m = np.ascontiguousarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        defect = float(np.max(np.abs(m - m.T), initial=0.0))
        if not defect <= SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(m), initial=0.0))):
            raise NormalizationError(f"operator matrix is not symmetric: defect {defect!r}")
        object.__setattr__(self, "matrix", m)

    def spectrum(self) -> tuple[EigenCluster, ...]:
        """Eigendecomposition with eigenvalues clustered by CLUSTER_GAP, in
        increasing order of value."""
        evals, evecs = np.linalg.eigh(0.5 * (self.matrix + self.matrix.T))
        clusters: list[EigenCluster] = []
        start = 0
        for i in range(1, len(evals) + 1):
            if i == len(evals) or evals[i] - evals[i - 1] > CLUSTER_GAP:
                block = evecs[:, start:i]
                clusters.append(
                    EigenCluster(
                        value=float(np.mean(evals[start:i])),
                        multiplicity=i - start,
                        vectors=block,
                    )
                )
                start = i
        return tuple(clusters)

    def max_eigen_residual(self, spectrum: tuple[EigenCluster, ...]) -> float:
        """max over the clustered eigenvectors of |K v - lambda v|."""
        worst = 0.0
        for c in spectrum:
            resid = self.matrix @ c.vectors - c.value * c.vectors
            worst = max(worst, float(np.max(np.abs(resid))) if resid.size else 0.0)
        return worst
