"""Helpers that only the tests use, built on the package's public kernels.

They construct, transform or probe the package's objects in ways no
subcommand needs: re-based and value-seeded branches, the Jacobi closed
form and minimal radii of tubes, the tube tables and core signatures
measured from the Cayley-plane model, adapted eigenframes, rotated
quaternionic triples, octonion associators.
"""

import math
from dataclasses import dataclass

import numpy as np

from curvadapt import cayley_plane, octonion_table
from curvadapt.errors import (
    CurvAdaptError,
    FocalPointError,
    NormalizationError,
)
from curvadapt.grassmannian import StructureBundle
from curvadapt.octonion import multiply
from curvadapt.operators import EigenCluster, SelfAdjointOperator
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


def sample_branches(rng: np.random.Generator, n: int) -> list[CurvatureBranch]:
    """Seeded branches covering every regime, kappa in the geometric range."""
    out = []
    for _ in range(n):
        kappa = float(rng.choice([1.0, 2.0]))
        kind = rng.integers(0, 5)
        if kind == 0:
            theta = float(rng.uniform(0.15, math.pi - 0.15))
            out.append(CurvatureBranch.compact(kappa, theta))
        elif kind == 1:
            out.append(CurvatureBranch.flat(float(rng.uniform(-3.0, 3.0))))
        elif kind == 2:  # coth regime
            lam0 = float(rng.uniform(1.1, 4.0) * kappa * rng.choice([-1.0, 1.0]))
            out.append(CurvatureBranch.hyperbolic(kappa, lam0))
        elif kind == 3:  # tanh regime
            lam0 = float(rng.uniform(-0.9, 0.9) * kappa)
            out.append(CurvatureBranch.hyperbolic(kappa, lam0))
        else:  # const regime
            out.append(CurvatureBranch.hyperbolic(kappa, kappa * rng.choice([-1.0, 1.0])))
    return out


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


class NotCompactError(CurvAdaptError):
    """A compact-only helper given a branch of another regime."""


def reduced_phase(branch: CurvatureBranch, t: float) -> float:
    """Evolved phase theta - kappa t reduced to (-pi/2, pi/2]."""
    if branch.space_sign != 1:
        raise NotCompactError("phase reduction applies to compact branches")
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
# Tubes from the Cayley-plane model
# --------------------------------------------------------------------------

#: the quaternion subalgebra H = span{1, J1, J2, J4} of the index triple (1, 2, 4)
_QUATERNIONS = (0, *octonion_table.TRIPLES[0])
#: coordinates spanning each catalog core's tangent space T at the origin of
#: the pair model: none for a point, the first octonion slot for OP^1 (line),
#: and H + H, one copy in each slot, for HP^2
CORE_TANGENT_COORDINATES = {
    "point": (),
    "line": tuple(range(8)),
    "hp2": _QUATERNIONS + tuple(8 + i for i in _QUATERNIONS),
}


def coordinate_frame(coords) -> np.ndarray:
    """The orthonormal columns e_i for i in coords, shape (16, len(coords))."""
    return np.eye(cayley_plane.DIM)[:, list(coords)]


def lie_triple_defect(frame: np.ndarray, sign: int) -> float:
    """max |R(x, y)z| off the span of frame's orthonormal columns, over all
    columns x, y, z, in one batched curvature call.  It is 0 exactly when
    the span is a Lie triple system, the tangent space of a totally
    geodesic submanifold."""
    b = frame.T
    r = cayley_plane.curvature(b[:, None, None], b[None, :, None], b[None, None, :], sign)
    return float(np.max(np.abs(r - (r @ frame) @ frame.T), initial=0.0))


def seeded_normals(rng: np.random.Generator, core: str, n: int) -> np.ndarray:
    """n Gaussian unit normals of the core at the origin, shape (n, 16); a
    horosphere has no core, so its normals are any unit vectors."""
    v = rng.normal(size=(n, cayley_plane.DIM))
    v[:, list(CORE_TANGENT_COORDINATES.get(core, ()))] = 0.0
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class CoreSplit:
    """K_xi of the Cayley-plane model split along a core's tangent space T.

    tangent and normal are the clusters of K_xi on T and on the normal
    space minus xi; off_diagonal is max |P_nu K_xi P_T|, which is 0 exactly
    when K_xi keeps T invariant, that is when the core is curvature-adapted
    at xi.
    """

    tangent: tuple[EigenCluster, ...]
    normal: tuple[EigenCluster, ...]
    off_diagonal: float


def split_jacobi(frame: np.ndarray, xi: np.ndarray, sign: int) -> CoreSplit:
    """K_xi = cayley_plane.jacobi_operator(xi, sign) split along the span
    of frame's orthonormal columns, for a unit xi orthogonal to them."""
    k = cayley_plane.jacobi_operator(xi, sign).matrix
    taken = np.column_stack([frame, xi])
    rest = np.linalg.svd(taken)[0][:, taken.shape[1]:]
    k_t = k @ frame
    return CoreSplit(
        tangent=SelfAdjointOperator(frame.T @ k @ frame).spectrum(),
        normal=SelfAdjointOperator(rest.T @ k @ rest).spectrum(),
        off_diagonal=float(np.max(np.abs(k_t - frame @ (frame.T @ k_t)), initial=0.0)),
    )


def model_tube_table(ambient: str, core: str, radius: float | None,
                     xi: np.ndarray) -> list[tuple[float, int]]:
    """(principal curvature, multiplicity) rows of the tube of the given
    radius about the core, in increasing order, from the model's K_xi at a
    unit normal xi and never from tube_flow.

    Each cluster mu of K_xi on the normal space minus xi and on T gives the
    Riccati closed form of jacobi_tube_curvature: sqrt(mu) cot(sqrt(mu) r)
    and -sqrt(mu) tan(sqrt(mu) r) in op2, sqrt|mu| coth(sqrt|mu| r) and
    sqrt|mu| tanh(sqrt|mu| r) in oh2.  The horosphere, radius None, has no
    core: each cluster of K_xi on xi's complement gives sqrt|mu|.
    """
    sign = {"op2": 1, "oh2": -1}[ambient]
    split = split_jacobi(coordinate_frame(CORE_TANGENT_COORDINATES.get(core, ())), xi, sign)
    if core == "horosphere":
        return sorted((math.sqrt(abs(c.value)), c.multiplicity) for c in split.normal)
    return sorted(
        (jacobi_tube_curvature(c.value, boundary, radius), c.multiplicity)
        for boundary, clusters in (("tangent", split.tangent), ("normal", split.normal))
        for c in clusters
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
    if turned.defect > 1e-10:
        raise NormalizationError(f"rotated triple broke the relations: {turned.defect!r}")
    return turned


def holonomy_algebra(curvature, n: int) -> tuple[int, float, float]:
    """(dim h, closure defect, invariance defect) of the span h of the
    operators R(e_i, e_j), i < j, of a broadcasting curvature R(x, y)z on
    R^n.  The tensor of a symmetric space gives a Lie algebra h, closed
    under the bracket, and is invariant under it: A.R = 0 for A in h, with
    (A.R)(x, y)z = A R(x, y)z - R(Ax, y)z - R(x, Ay)z - R(x, y)Az.

    The generators are a spanning subset of the R(e_i, e_j) themselves,
    taken greedily, not a float basis: where the tensor has integer entries
    on the basis, as both models have, every number of the invariance
    check is a small integer, so that defect is exact.  The closure defect
    is the largest distance of a bracket of two generators from h."""
    eye = np.eye(n)
    # t[i, j, k] = R(e_i, e_j)e_k, so R(e_i, e_j) is the matrix t[i, j].T
    t = curvature(eye[:, None, None], eye[None, :, None], eye[None, None, :])
    gens = []
    for i, j in zip(*np.triu_indices(n, 1)):
        op = t[i, j].T
        if np.linalg.matrix_rank(np.array([*gens, op]).reshape(len(gens) + 1, -1)) > len(gens):
            gens.append(op)
    gens = np.array(gens)
    basis = np.linalg.svd(gens.reshape(len(gens), -1), full_matrices=False)[2]
    brackets = (gens[:, None] @ gens[None] - gens[None] @ gens[:, None]).reshape(-1, n * n)
    closure = brackets - (brackets @ basis.T) @ basis
    invariance = 0.0
    for a in gens:
        d = (np.einsum("lm,ijkm->ijkl", a, t, optimize=True)
             - np.einsum("pi,pjkl->ijkl", a, t, optimize=True)
             - np.einsum("pj,ipkl->ijkl", a, t, optimize=True)
             - np.einsum("pk,ijpl->ijkl", a, t, optimize=True))
        invariance = max(invariance, float(np.max(np.abs(d))))
    return len(gens), float(np.max(np.abs(closure))), invariance


def inner(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """The Euclidean inner product of octonions over the last axis: a float
    for single octonions, an array of the batch shape for batches."""
    return np.vecdot(a, b)


def associator(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(ab)c - a(bc); alternating, and zero when any two arguments agree."""
    return multiply(multiply(a, b), c) - multiply(a, multiply(b, c))
