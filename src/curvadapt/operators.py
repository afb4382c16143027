"""Self-adjoint operators and clustered spectra.

Eigenvalues coming out of the curvature machinery are exact integers or
smooth functions of an angle, so clustering nearby numerical eigenvalues
into multiplicities is safe: the cluster gap (1e-6) sits many orders of
magnitude above eigensolver noise and below any genuine spectral gap used
in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue with its multiplicity and an orthonormal eigenbasis."""

    value: float
    multiplicity: int
    vectors: np.ndarray  # shape (dim, multiplicity), columns are eigenvectors


@dataclass(frozen=True)
class Spectrum:
    """Clustered spectrum of a self-adjoint operator."""

    clusters: tuple[EigenCluster, ...]


@dataclass(frozen=True)
class SelfAdjointOperator:
    """A dense symmetric matrix with verified self-adjointness."""

    matrix: np.ndarray
    symmetry_defect: float = field(init=False)

    def __post_init__(self):
        # C order whatever the caller's layout (a Jacobi build passes a
        # transpose), so products with the matrix round the same way
        m = np.ascontiguousarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "symmetry_defect", float(np.max(np.abs(m - m.T))))

    def spectrum(self) -> Spectrum:
        """Eigendecomposition with eigenvalues clustered by CLUSTER_GAP."""
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
        return Spectrum(clusters=tuple(clusters))

    def max_eigen_residual(self, spectrum: Spectrum) -> float:
        """max over the spectrum's clustered eigenvectors of |K v - lambda v|."""
        worst = 0.0
        for c in spectrum.clusters:
            resid = self.matrix @ c.vectors - c.value * c.vectors
            worst = max(worst, float(np.max(np.abs(resid))) if resid.size else 0.0)
        return worst
