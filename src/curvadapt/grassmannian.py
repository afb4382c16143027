"""Curvature model for the complex two-plane Grassmannian tangent space.

The tangent space is R^{4m} read as m quaternions.  The Kaehler structure
J is left multiplication by the first imaginary unit; the quaternionic
triple J1, J2, J3 consists of right multiplications.  Right multiplications
compose in reverse order, so the constructor picks unit quaternions
(q1, q2, q3) = (i, j, -k), which makes J1 J2 = J3, J2 J3 = J1 and
J3 J1 = J2 hold exactly; the relations are verified, never assumed.

The curvature tensor implemented by default repairs a sign-level defect in
one published display of this tensor: the second term of each Kaehler and
quaternionic block must read <JX,Z> JY (respectively <J_nu X,Z> J_nu Y).
The uncorrected reading (``curvature_g2(..., verbatim=True)``) is kept
only as a negative control: it fails the pair-symmetry identity and is
rejected by tests.  It cannot change a Jacobi operator R(., xi) xi, where
Y = Z makes both readings agree.

For a unit tangent xi, the angle alpha in [0, pi/2] measures how far J xi
leans out of the quaternionic span of xi:  J xi = cos(alpha) J1 xi +
sin(alpha) J1 Z with Z a unit vector orthogonal to the quaternionic span.
The distinguished normal-Jacobi eigenvectors X1, X2 built from (J1, Z)
carry eigenvalues c (1 + cos alpha) and c (1 - cos alpha); the shared
constant c is measured from the model (it comes out as 4 in this
normalization), not asserted.

``curvature_g2`` broadcasts over leading batch axes (an (N, 4m) array is
N tangent vectors; structures act on the last axis, as ``X @ J.T``), so
``hopf_eigenvectors`` measures the eigenpairs over a list of angles at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryAngleError, NormalizationError
from .operators import SelfAdjointOperator

_UNIT_TOL = 1e-10
_STRUCTURE_TOL = 1e-12


def _left_mult(q):
    a, b, c, d = q
    return np.array(
        [[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]], dtype=float
    )


def _right_mult(q):
    a, b, c, d = q
    return np.array(
        [[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]], dtype=float
    )


def _blockdiag(m: int, block: np.ndarray) -> np.ndarray:
    out = np.zeros((4 * m, 4 * m))
    for s in range(m):
        out[4 * s : 4 * s + 4, 4 * s : 4 * s + 4] = block
    return out


@dataclass(frozen=True)
class StructureBundle:
    """Kaehler structure J plus a quaternionic triple (J1, J2, J3) on R^{4m}."""

    m: int
    J: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray

    @classmethod
    def standard(cls, m: int = 2) -> "StructureBundle":
        if m < 2:
            raise NormalizationError(f"model needs m >= 2 quaternionic slots, got {m}")
        bundle = cls(
            m=m,
            J=_blockdiag(m, _left_mult((0, 1, 0, 0))),
            J1=_blockdiag(m, _right_mult((0, 1, 0, 0))),
            J2=_blockdiag(m, _right_mult((0, 0, 1, 0))),
            J3=-_blockdiag(m, _right_mult((0, 0, 0, 1))),
        )
        defect = bundle.verify()
        if defect > _STRUCTURE_TOL:
            raise NormalizationError(f"structure relations violated: defect {defect!r}")
        return bundle

    @property
    def dim(self) -> int:
        return 4 * self.m

    @property
    def triple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.J1, self.J2, self.J3)

    def verify(self) -> float:
        """Max defect over the defining relations; 0 for a valid bundle."""
        eye = np.eye(self.dim)
        J, J1, J2, J3 = self.J, self.J1, self.J2, self.J3
        defects = [
            np.max(np.abs(J @ J + eye)),
            np.max(np.abs(J + J.T)),
            np.max(np.abs(J1 @ J2 - J3)),
            np.max(np.abs(J2 @ J3 - J1)),
            np.max(np.abs(J3 @ J1 - J2)),
        ]
        for Jn in self.triple:
            defects.append(np.max(np.abs(Jn @ Jn + eye)))
            defects.append(np.max(np.abs(Jn + Jn.T)))
            defects.append(np.max(np.abs(J @ Jn - Jn @ J)))
        return float(max(defects))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise inner products over the last axis, kept as a trailing axis
    of length one so that they scale vectors of the same batch."""
    return np.vecdot(u, v)[..., None]


def curvature_g2(
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    bundle: StructureBundle,
    verbatim: bool = False,
) -> np.ndarray:
    """Curvature tensor R(X, Y)Z of the Grassmannian model.

    X, Y, Z have shape (..., 4m); the result has their broadcast shape,
    and each row of it equals the call on that row alone.

    Args:
        verbatim: keep the uncorrected <J.X,Z> J.Z reading of the second
            Kaehler/quaternionic terms.  Only useful as a negative control;
            the result is not a curvature tensor (pair symmetry fails).
    """
    JT = bundle.J.T
    JX, JY, JZ = X @ JT, Y @ JT, Z @ JT
    out = _dot(Y, Z) * X - _dot(X, Z) * Y
    out += _dot(JY, Z) * JX - _dot(JX, Z) * (JZ if verbatim else JY) - 2.0 * _dot(JX, Y) * JZ
    for Jn in bundle.triple:
        JnT = Jn.T
        JnX, JnY, JnZ = X @ JnT, Y @ JnT, Z @ JnT
        out += _dot(JnY, Z) * JnX - _dot(JnX, Z) * (JnZ if verbatim else JnY)
        out -= 2.0 * _dot(JnX, Y) * JnZ
        JnJX, JnJY = JX @ JnT, JY @ JnT
        out += _dot(JnJY, Z) * JnJX - _dot(JnJX, Z) * JnJY
    return out


def _jacobi_matrices(xi, bundle: StructureBundle) -> np.ndarray:
    """C-order K_xi = R(., xi) xi per row of xi (..., 4m); the one unit check."""
    xi = np.asarray(xi, dtype=float)[..., None, :]
    if np.any(np.abs(np.sqrt(np.vecdot(xi, xi)) - 1.0) > _UNIT_TOL):
        raise NormalizationError("xi must be a unit vector")
    rows = curvature_g2(np.eye(bundle.dim), xi, xi, bundle)
    return np.ascontiguousarray(np.swapaxes(rows, -1, -2))


def jacobi_operator_g2(xi: np.ndarray, bundle: StructureBundle) -> SelfAdjointOperator:
    """Normal Jacobi operator K_xi = R(., xi) xi on R^{4m}."""
    return SelfAdjointOperator(_jacobi_matrices(xi, bundle))


def unit_with_angle(alpha: float, bundle: StructureBundle) -> np.ndarray:
    """A unit vector whose angle is exactly alpha.

    Mixing the first quaternionic slot with a j-component in the second
    slot sweeps the angle linearly: xi(s) = (cos s) e_1 + (sin s) e_j2 has
    angle 2s, so s = alpha / 2.
    """
    if (error := angle_error(alpha)) is not None:
        raise error
    s = alpha / 2.0
    xi = np.zeros(bundle.dim)
    xi[0] = np.cos(s)
    xi[6] = np.sin(s)  # j-component of the second quaternionic slot
    return xi


def angle_error(alpha: float) -> BoundaryAngleError | None:
    """The error for an angle outside [0, pi/2], else None."""
    if not 0.0 <= alpha <= np.pi / 2 + 1e-12:
        return BoundaryAngleError(f"alpha must lie in [0, pi/2], got {alpha!r}")
    return None


@dataclass(frozen=True)
class HopfPair:
    """The two distinguished eigenvalues of K_xi at a measured angle.

    ``alpha`` is measured back from xi.  ``ratio_defect`` is the ratio law
    at the requested angle a without its division, |lambda1 (1 - cos a) -
    lambda2 (1 + cos a)|; so a tolerance tol misses a relative error in
    lambda2 below about tol / (2 lambda2), 5e-9 / lambda2 at tol = 1e-8.
    """

    lambda1: float
    lambda2: float
    residual: float
    alpha: float
    ratio_defect: float


def hopf_eigenvectors(alphas, bundle: StructureBundle) -> list[HopfPair]:
    """Eigenvalues of K_xi on X1, X2 at xi = ``unit_with_angle(alpha)``, one
    pair per angle, in order, from one stacked evaluation; each pair equals
    the one for its angle alone, bit for bit.  The angle is measured back
    from xi through the splitting J xi = cos(alpha) J1 xi + sin(alpha) J1 Z,
    with the sign of Z pinned by <J xi, J1 Z> >= 0, and X1, X2 are built
    from (J1 xi, J1 Z) at beta = alpha / 2.

    Raises:
        BoundaryAngleError: for the first angle outside [0, pi/2], else the
            first measured at 0 or pi/2, where Z (or J1) is not well defined.
    """
    alphas = [float(a) for a in alphas]
    xi = np.array([unit_with_angle(a, bundle) for a in alphas]).reshape(-1, bundle.dim)
    jxi = xi @ bundle.J.T
    u = np.stack([np.vecdot(jxi, xi @ Jn.T) for Jn in bundle.triple], axis=-1)
    cos_alpha = np.sqrt(np.vecdot(u, u))
    measured = np.arccos(np.clip(cos_alpha, 0.0, 1.0))
    if bad := [(a, m) for a, m in zip(alphas, measured.tolist())
               if m > np.pi / 2 - 1e-9 or m < 1e-9]:
        requested, measured_alpha = bad[0]
        raise BoundaryAngleError(
            f"hopf eigenvectors need 0 < alpha < pi/2 as measured back from xi; "
            f"requested alpha={requested!r} measures alpha={measured_alpha!r}"
        )
    j1 = sum(c[:, None, None] * Jn for c, Jn in zip((u / cos_alpha[:, None]).T, bundle.triple))
    j1xi = (j1 @ xi[..., None])[..., 0]  # stacked matrix-vector products, as columns
    w = (jxi - cos_alpha[:, None] * j1xi) / np.sin(measured)[:, None]
    j1z = -(j1 @ (j1 @ w[..., None]))[..., 0]  # J1 Z = w: <J xi, J1 Z> = sin(alpha) >= 0
    cb, sb = np.cos(measured / 2.0)[:, None], np.sin(measured / 2.0)[:, None]
    x = np.stack([cb * j1xi + sb * j1z, sb * j1xi - cb * j1z])  # X1, X2
    kx = (_jacobi_matrices(xi, bundle) @ x[..., None])[..., 0]
    lam = np.vecdot(x, kx)
    r = kx - lam[..., None] * x
    residual = np.sqrt(np.vecdot(r, r)).max(axis=0)
    cos_a = np.array([math.cos(a) for a in alphas])  # of the requested angles
    defect = np.abs(lam[0] * (1.0 - cos_a) - lam[1] * (1.0 + cos_a))
    rows = zip(*lam.tolist(), residual.tolist(), measured.tolist(), defect.tolist())
    return [HopfPair(*row) for row in rows]


def eigenvalue_constant(bundle: StructureBundle) -> float:
    """The shared constant c with eigenvalues c (1 +/- cos alpha), measured.

    Computed from the model at the generic angle 0.7 and cross-checked at
    a second angle; the two estimates must agree to 1e-9.
    """
    estimates = []
    for pair in hopf_eigenvectors((0.7, 0.7 / 2.0 + 0.3), bundle):
        estimates.append(pair.lambda1 / (1.0 + np.cos(pair.alpha)))
        estimates.append(pair.lambda2 / (1.0 - np.cos(pair.alpha)))
    c = float(np.mean(estimates))
    if max(abs(e - c) for e in estimates) > 1e-9:
        raise NormalizationError(f"eigenvalue constant is not constant: {estimates!r}")
    return c


def shape_consistency(
    lambda1: float,
    lambda2: float,
    a_jj: float,
    a_zz: float,
    alpha: float,
) -> tuple[float, float]:
    """Residuals of the two shape-operator compatibility equations.

    With beta = alpha/2, t = tan(beta)^2 and its reciprocal q = cot(beta)^2,
    a symmetric shape operator that has X1, X2 as eigenvectors (eigenvalues
    lambda1, lambda2) and diagonal entries a_jj = <A J1 xi, J1 xi>,
    a_zz = <A J1 Z, J1 Z> must satisfy

        a_zz = lambda1 (1 - q) + q a_jj        (first residual)
        a_zz = lambda2 (1 + t) + t a_jj        (second residual)

    Both residuals vanish iff the constraints hold.  At the boundary
    beta = pi/4 (alpha = pi/2) the first equation degenerates to
    a_zz = a_jj and the pair forces lambda2 = 0, so the residuals returned
    are (a_zz - a_jj, lambda2).
    """
    if not 0.0 < alpha <= np.pi / 2 + 1e-12:
        raise BoundaryAngleError(f"alpha must lie in (0, pi/2], got {alpha!r}")
    beta = alpha / 2.0
    cb, sb = np.cos(beta), np.sin(beta)
    if abs(cb - sb) < 1e-12:
        return (a_zz - a_jj, lambda2)
    q = (cb / sb) ** 2
    t = (sb / cb) ** 2
    r1 = a_zz - (lambda1 * (1.0 - q) + q * a_jj)
    r2 = a_zz - (lambda2 * (1.0 + t) + t * a_jj)
    return (float(r1), float(r2))
