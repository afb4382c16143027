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
The uncorrected reading ("verbatim=True") is kept only as a negative
control: it fails the pair-symmetry identity and is rejected by tests.

For a unit tangent xi, the angle alpha in [0, pi/2] measures how far J xi
leans out of the quaternionic span of xi:  J xi = cos(alpha) J1 xi +
sin(alpha) J1 Z with Z a unit vector orthogonal to the quaternionic span.
The distinguished normal-Jacobi eigenvectors X1, X2 built from (J1, Z)
carry eigenvalues c (1 + cos alpha) and c (1 - cos alpha); the shared
constant c is measured from the model (it comes out as 4 in this
normalization), not asserted.

``curvature_g2`` broadcasts over leading batch axes: an (N, 4m) array is
N tangent vectors, and a (4m,) vector is a batch of one.  Structures act
on the last axis, as ``X @ J.T``.
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


def jacobi_operator_g2(
    xi: np.ndarray, bundle: StructureBundle, verbatim: bool = False
) -> SelfAdjointOperator:
    """Normal Jacobi operator K_xi = R(., xi) xi on R^{4m}."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > _UNIT_TOL:
        raise NormalizationError("xi must be a unit vector")
    rows = curvature_g2(np.eye(bundle.dim), xi, xi, bundle, verbatim)
    return SelfAdjointOperator(rows.T)


def unit_with_angle(alpha: float, bundle: StructureBundle) -> np.ndarray:
    """A unit vector whose angle is exactly alpha.

    Mixing the first quaternionic slot with a j-component in the second
    slot sweeps the angle linearly: xi(s) = (cos s) e_1 + (sin s) e_j2 has
    angle 2s, so s = alpha / 2.
    """
    if not 0.0 <= alpha <= np.pi / 2 + 1e-12:
        raise BoundaryAngleError(f"alpha must lie in [0, pi/2], got {alpha!r}")
    s = alpha / 2.0
    xi = np.zeros(bundle.dim)
    xi[0] = np.cos(s)
    xi[6] = np.sin(s)  # j-component of the second quaternionic slot
    return xi


@dataclass(frozen=True)
class HopfPair:
    """The two distinguished eigenvalues of K_xi at a measured angle.

    ``ratio_defect`` is |lambda1 / lambda2 - (1 + cos a) / (1 - cos a)| at
    the requested angle a; ``alpha`` is the angle measured back from xi.
    """

    lambda1: float
    lambda2: float
    residual: float
    alpha: float
    ratio_defect: float


def hopf_eigenvectors(alpha: float, bundle: StructureBundle) -> HopfPair:
    """Eigenvalues of K_xi on X1, X2 at xi = ``unit_with_angle(alpha)``.

    The angle is measured back from xi through the splitting
    J xi = cos(alpha) J1 xi + sin(alpha) J1 Z, with the sign of Z pinned by
    <J xi, J1 Z> >= 0, and X1, X2 are built from (J1 xi, J1 Z) at
    beta = alpha / 2.

    Raises:
        BoundaryAngleError: outside [0, pi/2], and at alpha = 0 or
            alpha = pi/2, where Z (or the J1 choice) degenerates and the
            pair is not well defined.
    """
    xi = unit_with_angle(alpha, bundle)
    op = jacobi_operator_g2(xi, bundle)
    Jxi = bundle.J @ xi
    u = np.array([float(Jxi @ (Jn @ xi)) for Jn in bundle.triple])
    cos_alpha = float(np.linalg.norm(u))
    measured = float(np.arccos(np.clip(cos_alpha, 0.0, 1.0)))
    if measured > np.pi / 2 - 1e-9 or measured < 1e-9:
        raise BoundaryAngleError(
            f"hopf eigenvectors need 0 < alpha < pi/2, got alpha={measured!r}"
        )
    J1 = sum(c * Jn for c, Jn in zip(u / cos_alpha, bundle.triple))
    j1xi = J1 @ xi
    w = (Jxi - cos_alpha * j1xi) / float(np.sin(measured))
    j1z = J1 @ -(J1 @ w)  # J1 Z = w, so <J xi, J1 Z> = sin(alpha) >= 0
    beta = measured / 2.0
    x1 = np.cos(beta) * j1xi + np.sin(beta) * j1z
    x2 = np.sin(beta) * j1xi - np.cos(beta) * j1z
    k1, k2 = op.apply(x1), op.apply(x2)
    lam1, lam2 = float(x1 @ k1), float(x2 @ k2)
    residual = max(
        float(np.linalg.norm(k1 - lam1 * x1)), float(np.linalg.norm(k2 - lam2 * x2))
    )
    cos_a = math.cos(alpha)
    ratio_defect = abs(lam1 / lam2 - (1.0 + cos_a) / (1.0 - cos_a))
    return HopfPair(lam1, lam2, residual, measured, ratio_defect)


def eigenvalue_constant(bundle: StructureBundle) -> float:
    """The shared constant c with eigenvalues c (1 +/- cos alpha), measured.

    Computed from the model at the generic angle 0.7 and cross-checked at
    a second angle; the two estimates must agree to 1e-9.
    """
    estimates = []
    for a in (0.7, 0.7 / 2.0 + 0.3):
        pair = hopf_eigenvectors(a, bundle)
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
