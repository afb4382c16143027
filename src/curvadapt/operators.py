"""Self-adjoint operators, clustered spectra and the Jacobi operator build.

Eigenvalues coming out of the curvature machinery are exact integers or
smooth functions of an angle.  eigh is backward stable, so a computed
eigenvalue lies within about n eps ||K|| of a true one (Parlett, The
Symmetric Eigenvalue Problem, 1998), and a spectrum clusters eigenvalues
closer than CLUSTER_GAP_FACTOR times that: 9.1e-13 for n = 8, ||K|| = 8,
which keeps the Grassmannian's 2 alpha^2 apart from 0 down to alpha 7e-7.

Both geometries build K_xi = R(., xi) xi through ``jacobi_matrices``, the
one unit check on xi, and a ``SelfAdjointOperator`` rejects a matrix whose
asymmetry exceeds SYMMETRY_RTOL * max(1, max|M|).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import NormalizationError

#: a new cluster starts where the gap exceeds this times n eps max|lambda|
CLUSTER_GAP_FACTOR = 64
_EPS = float(np.finfo(float).eps)
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


class EigenCluster(namedtuple("EigenCluster", "value multiplicity vectors")):
    """One eigenvalue with its multiplicity and an orthonormal eigenbasis,
    vectors of shape (dim, multiplicity) with eigenvectors as columns.

    A named tuple: read-only fields, equal to the plain tuple of them.
    """

    __slots__ = ()


class SelfAdjointOperator(namedtuple("SelfAdjointOperator", "matrix")):
    """A dense square matrix, symmetric to SYMMETRY_RTOL * max(1, max|M|),
    held in C order whatever the caller's layout, so products round alike.

    A named tuple: read-only fields, equal to the plain tuple of them;
    _make and _replace skip the checks of __new__.
    """

    __slots__ = ()

    def __new__(cls, matrix: np.ndarray):
        m = np.ascontiguousarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        defect = float(np.max(np.abs(m - m.T), initial=0.0))
        if not defect <= SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(m), initial=0.0))):
            raise NormalizationError(f"operator matrix is not symmetric: defect {defect!r}")
        return super().__new__(cls, m)

    def spectrum(self) -> tuple[EigenCluster, ...]:
        """Eigendecomposition in increasing order of value, a gap above
        CLUSTER_GAP_FACTOR n eps max|lambda| starting a new cluster."""
        evals, evecs = np.linalg.eigh(0.5 * (self.matrix + self.matrix.T))
        n = len(evals)
        # evals increase, so max|lambda| is at one end
        gap = CLUSTER_GAP_FACTOR * n * _EPS * max(-evals[0], evals[-1]) if n else 0.0
        clusters: list[EigenCluster] = []
        start = 0
        for i in range(1, n + 1):
            if i == n or evals[i] - evals[i - 1] > gap:
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
