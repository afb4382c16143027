"""Helpers that only the tests use, built on the package's public kernels.

They construct, transform or probe the package's objects in ways no
subcommand needs: re-based and value-seeded branches, the Jacobi closed
form and minimal radii of tubes, adapted eigenframes, rotated quaternionic
triples, octonion associators.
"""

import math
from dataclasses import dataclass

import numpy as np

from curvadapt import cayley_plane
from curvadapt.errors import (
    CurvAdaptError,
    FocalPointError,
    NormalizationError,
    UnsupportedRegimeError,
)
from curvadapt.grassmannian import StructureBundle
from curvadapt.isoparametric import default_window
from curvadapt.octonion import multiply
from curvadapt.operators import EigenCluster
from curvadapt.tube_flow import (
    CurvatureBranch,
    PCSystem,
    branch_value,
    evolve,
    linspace,
    tube_spectrum,
)

# --------------------------------------------------------------------------
# Branches and systems
# --------------------------------------------------------------------------


def branch_from_value(kappa: float, value: float, multiplicity: int = 1) -> CurvatureBranch:
    """Compact branch through lambda(0) = value."""
    theta = math.atan2(kappa, value) % math.pi
    return CurvatureBranch.compact(kappa, theta, multiplicity)


def focal_radius(branch: CurvatureBranch) -> float:
    """First pole of the flow in t > 0, or +inf when the flow never blows up."""
    return branch.regularity_interval()[1]


def translated(branch: CurvatureBranch, s: float) -> CurvatureBranch:
    """The branch re-based at parameter s: evolve(translated(b, s), t) = evolve(b, s+t)."""
    if branch.space_sign == 1:
        return CurvatureBranch.compact(
            branch.kappa, branch.phase - branch.kappa * s, branch.multiplicity
        )
    value = evolve(branch, s)
    if branch.space_sign == 0:
        return CurvatureBranch.flat(value, branch.multiplicity)
    return CurvatureBranch.hyperbolic(branch.kappa, value, branch.multiplicity)


def values_at(system: PCSystem, t: float) -> list[tuple[float, int]]:
    """(evolved value, multiplicity) of each branch of the system at t."""
    return [(evolve(b, t), b.multiplicity) for b in system.branches]


def well_conditioned_time(
    sys: PCSystem, cap: float = 4.0, window: tuple[float, float] | None = None
) -> float | None:
    """A t in the window where every branch value stays within cap.

    Finite-difference checks of high power sums lose accuracy near poles;
    this picks the evaluation point with the smallest worst branch value,
    returning None when even that exceeds cap.
    """
    if window is None:
        window = default_window(sys)
    lo, hi = window
    best_t, best_worst = None, math.inf
    for t in linspace(lo, hi, 259)[1:-1]:
        try:
            worst = max(abs(branch_value(b, t)) for b in sys.branches)
        except FocalPointError:
            continue
        if worst < best_worst:
            best_t, best_worst = t, worst
    if best_t is None or best_worst > cap:
        return None
    return best_t


def reduced_phase(branch: CurvatureBranch, t: float) -> float:
    """Evolved phase theta - kappa t reduced to (-pi/2, pi/2]."""
    if branch.space_sign != 1:
        raise UnsupportedRegimeError("phase reduction applies to compact branches")
    x = branch.phase - branch.kappa * t
    return x - math.pi * round(x / math.pi)


def branch_sign_divergence(
    p: CurvatureBranch,
    q: CurvatureBranch,
    t_max: float = 20.0,
    samples: int = 4096,
) -> float | None:
    """First t > 0 where the two flows disagree in sign.

    Two compact branches sharing their first pole but with different
    frequencies drift apart modulo the cot period, so their values
    eventually take opposite signs; returns a witnessing t or None.
    """
    for t in linspace(0.0, t_max, samples + 1)[1:]:
        try:
            a = branch_value(p, t)
            b = branch_value(q, t)
        except FocalPointError:
            continue
        if abs(a) < 1e-6 or abs(b) < 1e-6:
            continue
        if (a > 0) != (b > 0):
            return t
    return None


# --------------------------------------------------------------------------
# Tubes
# --------------------------------------------------------------------------


def jacobi_tube_curvature(kappa_sq: float, boundary: str, r: float) -> float:
    """Y'(r) / Y(r) for the Jacobi field Y'' + kappa_sq Y = 0, the principal
    curvature at radius r of a tube branch with Jacobi eigenvalue kappa_sq
    (positive compact, negative hyperbolic).  A "tangent" direction of the
    core starts at Y(0) = 1, Y'(0) = 0, a "normal" one at Y(0) = 0, Y'(0) = 1.
    """
    k = math.sqrt(abs(kappa_sq))
    if kappa_sq > 0.0:
        return -k * math.tan(k * r) if boundary == "tangent" else k / math.tan(k * r)
    return k * math.tanh(k * r) if boundary == "tangent" else k / math.tanh(k * r)


class NoMinimalTubeError(CurvAdaptError):
    """A tube family whose mean curvature vanishes at no radius."""


#: Zeros of the op2 tube mean curvature, from the tube_spectrum tables with
#: 2 cot 2r = cot r - tan r:  H = 15 cot r - 7 tan r (point),
#: 7 cot r - 15 tan r (line), 14 cot 2r - 8 tan 2r (hp2).
_MINIMAL_TUBE_RADII = {
    "point": math.atan(math.sqrt(15.0 / 7.0)),
    "line": math.atan(math.sqrt(7.0 / 15.0)),
    "hp2": 0.5 * math.atan(math.sqrt(7.0 / 4.0)),
}


def minimal_tube_radius(ambient: str, core: str) -> float:
    """Radius at which the tube's mean curvature vanishes, in closed form.

    Raises:
        NoMinimalTubeError: in oh2, where every branch value of every tube
            and of the horosphere is positive, so no radius is minimal.
        NormalizationError: for an unknown ambient or core, or a
            horosphere outside oh2.
    """
    if ambient == "op2" and core in _MINIMAL_TUBE_RADII:
        return _MINIMAL_TUBE_RADII[core]
    tube_spectrum(ambient, core, None if core == "horosphere" else 1.0)
    raise NoMinimalTubeError(
        f"the mean curvature never vanishes for core {core!r} in {ambient!r}"
    )


# --------------------------------------------------------------------------
# Linear algebra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptedFrame:
    """Eigenframe of K_xi on the complement of xi.

    four_space spans the |4|-eigenvalue directions (dimension 7) and
    one_space the |1|-eigenvalue directions (dimension 8); columns are
    orthonormal.
    """

    xi: np.ndarray  # (16,)
    four_space: np.ndarray  # (16, 7)
    one_space: np.ndarray  # (16, 8)
    spectrum: tuple[EigenCluster, ...]


def adapted_frame(xi: np.ndarray, sign: int = 1) -> AdaptedFrame:
    """Orthonormal eigenframe of the Cayley-plane normal Jacobi operator at xi."""
    spec = cayley_plane.jacobi_operator(xi, sign).spectrum()
    by_value = {round(c.value): c for c in spec}
    four = by_value.get(4 * sign)
    one = by_value.get(1 * sign)
    if four is None or one is None or four.multiplicity != 7 or one.multiplicity != 8:
        pairs = [(c.value, c.multiplicity) for c in spec]
        raise NormalizationError(f"unexpected Jacobi spectrum {pairs!r} at xi={xi!r}")
    return AdaptedFrame(xi=xi, four_space=four.vectors, one_space=one.vectors, spectrum=spec)


def rotated(bundle: StructureBundle, rotation: np.ndarray) -> StructureBundle:
    """The bundle with (J1, J2, J3) replaced by an SO(3)-rotated triple; J is untouched."""
    R = np.asarray(rotation, dtype=float)
    if R.shape != (3, 3) or np.max(np.abs(R @ R.T - np.eye(3))) > 1e-10:
        raise NormalizationError("rotation must be a 3x3 orthogonal matrix")
    if np.linalg.det(R) < 0:
        raise NormalizationError("rotation must be orientation preserving")
    old = bundle.triple
    new = [sum(R[n, k] * old[k] for k in range(3)) for n in range(3)]
    turned = StructureBundle(m=bundle.m, J=bundle.J, J1=new[0], J2=new[1], J3=new[2])
    defect = turned.verify()
    if defect > 1e-10:
        raise NormalizationError(f"rotated triple broke the relations: {defect!r}")
    return turned


def inner(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """The Euclidean inner product of octonions over the last axis: a float
    for single octonions, an array of the batch shape for batches."""
    return np.vecdot(a, b)


def associator(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(ab)c - a(bc); alternating, and zero when any two arguments agree."""
    return multiply(multiply(a, b), c) - multiply(a, multiply(b, c))
