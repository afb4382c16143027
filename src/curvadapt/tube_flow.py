"""Principal-curvature flow along normal geodesics of tubes.

Each principal curvature of a tube satisfies a scalar Riccati equation
lambda' = lambda^2 + s * kappa^2, where kappa^2 is the eigenvalue of the
normal Jacobi operator on the branch and s = +1, 0, -1 the curvature sign
of the ambient space.  branch_value evaluates every closed-form family:

    compact     lambda(t) = kappa cot(theta - kappa t)
    flat        lambda(t) = 1 / (r - t)   (or identically 0)
    coth        lambda(t) = kappa coth(theta0 - kappa t),  |lambda0| > kappa
    tanh        lambda(t) = kappa tanh(theta0 - kappa t),  |lambda0| < kappa
    const       lambda(t) = +/- kappa,                     |lambda0| = kappa

Orientation convention for tubes: the flow parameter t moves toward the
core, so a branch built at tube radius r focalizes at t = r exactly when
the branch direction is normal to the core.  Tangent directions of a
totally geodesic core carry -kappa tan(kappa r) (compact) or
+kappa tanh(kappa r) (hyperbolic); normal directions carry
kappa cot(kappa r) / kappa coth(kappa r).  These signs reproduce the
known five-column principal-curvature table for tubes in the octonionic
planes and are locked in by golden tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .certificates import Certificate
from .errors import (
    ExcludedAngleError,
    FocalPointError,
    NoMinimalTubeError,
    NormalizationError,
    UnsupportedRegimeError,
)

if TYPE_CHECKING:
    from . import grassmannian

_CONST_REGIME_RTOL = 1e-12


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced floats from start to stop, bit for bit those of
    numpy.linspace: point i is i * step + start, and the last is stop."""
    div = num - 1
    step = (stop - start) / div if div > 0 else 0.0
    if step == 0.0:  # one point, or a step that underflows: numpy scales by i / div
        grid = [i / max(div, 1) * (stop - start) + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    if num > 1:
        grid[-1] = stop
    return grid


@dataclass(frozen=True)
class CurvatureBranch:
    """One principal-curvature branch of the Riccati flow.

    Attributes:
        kappa: nonnegative Jacobi frequency (sqrt of |K_xi eigenvalue|).
        space_sign: +1 compact, -1 hyperbolic, 0 flat.
        phase: theta in (0, pi) for compact branches; the initial value
            lambda(0) otherwise.
        multiplicity: dimension of the branch's eigenspace.
    """

    kappa: float
    space_sign: int
    phase: float
    multiplicity: int

    def __post_init__(self):
        if self.space_sign not in (1, 0, -1):
            raise NormalizationError(f"space_sign must be +1, 0 or -1: {self.space_sign!r}")
        if self.kappa < 0:
            raise NormalizationError(f"kappa must be nonnegative: {self.kappa!r}")
        if self.multiplicity < 1:
            raise NormalizationError(f"multiplicity must be >= 1: {self.multiplicity!r}")
        if self.space_sign != 0 and self.kappa == 0:
            raise NormalizationError("curved branches need kappa > 0; use flat()")
        if self.space_sign == 1 and not 0.0 < self.phase < math.pi:
            raise NormalizationError(
                f"compact phase must lie in (0, pi), got {self.phase!r}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def compact(cls, kappa: float, theta: float, multiplicity: int = 1) -> "CurvatureBranch":
        """Branch lambda(t) = kappa cot(theta - kappa t); theta reduced mod pi."""
        theta = theta % math.pi
        if theta == 0.0:
            raise NormalizationError("phase is a pole: theta must not be 0 mod pi")
        return cls(kappa=kappa, space_sign=1, phase=theta, multiplicity=multiplicity)

    @classmethod
    def from_value(cls, kappa: float, value: float, multiplicity: int = 1) -> "CurvatureBranch":
        """Compact branch through lambda(0) = value."""
        theta = math.atan2(kappa, value) % math.pi
        return cls.compact(kappa, theta, multiplicity)

    @classmethod
    def hyperbolic(cls, kappa: float, value: float, multiplicity: int = 1) -> "CurvatureBranch":
        """Noncompact branch through lambda(0) = value; regime inferred."""
        return cls(kappa=kappa, space_sign=-1, phase=value, multiplicity=multiplicity)

    @classmethod
    def flat(cls, value: float, multiplicity: int = 1) -> "CurvatureBranch":
        return cls(kappa=0.0, space_sign=0, phase=value, multiplicity=multiplicity)

    # -- structure ---------------------------------------------------------

    @property
    def regime(self) -> str:
        if self.space_sign == 1:
            return "compact"
        if self.space_sign == 0 or self.kappa == 0.0:
            return "flat"
        lam0 = abs(self.phase)
        if abs(lam0 - self.kappa) <= _CONST_REGIME_RTOL * max(1.0, self.kappa):
            return "const"
        return "coth" if lam0 > self.kappa else "tanh"

    def regularity_interval(self) -> tuple[float, float]:
        """Open interval around 0 on which the branch stays finite."""
        if self.space_sign == 1:
            return ((self.phase - math.pi) / self.kappa, self.phase / self.kappa)
        if self.regime == "flat":
            lam0 = self.phase
            if lam0 == 0.0:
                return (-math.inf, math.inf)
            r = 1.0 / lam0
            return (-math.inf, r) if r > 0 else (r, math.inf)
        if self.regime == "coth":
            theta0 = math.atanh(self.kappa / self.phase)
            t_pole = theta0 / self.kappa
            return (-math.inf, t_pole) if self.phase > 0 else (t_pole, math.inf)
        return (-math.inf, math.inf)  # tanh, const


_POLE_PROXIMITY = 1e-12


def branch_value(branch: CurvatureBranch, t: float) -> float:
    """Closed form of the branch at t, continued past its poles.

    This is the one evaluator of the five solution families.  It is the
    meromorphic function, so only its isolated poles are off limits; the
    mean-curvature profile evaluates it everywhere, while evolve first
    confines t to the flow's regularity interval.

    Raises:
        FocalPointError: if the denominator of the closed form is within
            1e-12 of zero, that is at a pole.
    """
    k = branch.kappa
    if branch.space_sign == 1:
        arg = branch.phase - k * t
        num, den = k * math.cos(arg), math.sin(arg)
    else:
        regime = branch.regime
        if regime == "flat":
            num, den = branch.phase, 1.0 - branch.phase * t
        elif regime == "coth":
            num, den = k, math.tanh(math.atanh(k / branch.phase) - k * t)
        elif regime == "const":
            return branch.phase
        else:
            return k * math.tanh(math.atanh(branch.phase / k) - k * t)
    if abs(den) < _POLE_PROXIMITY:
        raise FocalPointError(
            f"evaluation at a pole of the {branch.regime} branch: t={t!r}",
            focal_radius=t,
        )
    return num / den


def evolve(branch: CurvatureBranch, t: float) -> float:
    """Value of the branch's Riccati flow at parameter t.

    The geodesic flow ends at its first focal point, so t must lie in the
    branch's regularity interval; inside it this is branch_value.

    Raises:
        FocalPointError: if t sits at or beyond a pole of the flow.
    """
    lo, hi = branch.regularity_interval()
    if not lo < t < hi:
        boundary = hi if t >= hi else lo
        raise FocalPointError(
            f"flow evaluated at t={t!r}, outside regular interval ({lo!r}, {hi!r})",
            focal_radius=boundary,
        )
    return branch_value(branch, t)


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


@dataclass(frozen=True)
class PCSystem:
    """A full principal-curvature system: branches with multiplicities.

    The label names the system in the witnesses of profile comparisons.
    """

    branches: tuple[CurvatureBranch, ...]
    label: str = "p"

    def __post_init__(self):
        if not self.branches:
            raise NormalizationError("a principal-curvature system needs branches")
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def total_multiplicity(self) -> int:
        return sum(b.multiplicity for b in self.branches)

    def values_at(self, t: float) -> list[tuple[float, int]]:
        return [(evolve(b, t), b.multiplicity) for b in self.branches]

    def regularity_interval(self) -> tuple[float, float]:
        los, his = zip(*(b.regularity_interval() for b in self.branches))
        return (max(los), min(his))


def mean_curvature(system: PCSystem, t: float = 0.0) -> float:
    """Trace of the shape operator: sum of multiplicity-weighted branch values."""
    return sum(evolve(b, t) * b.multiplicity for b in system.branches)


# --------------------------------------------------------------------------
# Tube principal-curvature tables
# --------------------------------------------------------------------------

AMBIENTS = ("op2", "oh2")
CORES = ("point", "line", "hp2", "horosphere")


@dataclass(frozen=True)
class TubeDescriptor:
    """A tube: ambient plane, totally geodesic core, and radius.

    The horosphere is the radius-free limit object of the hyperbolic
    ambient; its descriptor takes radius None.
    """

    ambient: str
    core: str
    radius: float | None

    def __post_init__(self):
        if self.ambient not in AMBIENTS:
            raise NormalizationError(f"ambient must be one of {AMBIENTS}: {self.ambient!r}")
        if self.core not in CORES:
            raise NormalizationError(f"core must be one of {CORES}: {self.core!r}")
        if self.core == "horosphere":
            if self.ambient != "oh2":
                raise NormalizationError("horospheres only exist in the hyperbolic plane")
            if self.radius is not None:
                raise NormalizationError("a horosphere has no radius; pass None")
            return
        if self.radius is None or self.radius <= 0.0:
            raise NormalizationError(f"tube radius must be positive, got {self.radius!r}")
        if self.ambient == "op2":
            limit = math.pi / 4 if self.core == "hp2" else math.pi / 2
            if self.radius >= limit:
                raise FocalPointError(
                    f"radius {self.radius!r} reaches the focal set of core "
                    f"{self.core!r} at {limit!r}",
                    focal_radius=limit,
                )


def jacobi_tube_curvature(kappa_sq: float, boundary: str, r: float) -> float:
    """Principal curvature of a tube branch from the Jacobi equation Y'' + kappa_sq Y = 0.

    Args:
        kappa_sq: Jacobi eigenvalue; positive compact, negative hyperbolic,
            zero flat.
        boundary: "tangent" for directions tangent to the core
            (Y(0)=1, Y'(0)=0), "normal" for directions normal to it
            (Y(0)=0, Y'(0)=1).
        r: tube radius, inside the first focal radius.
    """
    if boundary not in ("tangent", "normal"):
        raise NormalizationError(f"boundary must be tangent|normal: {boundary!r}")
    if r <= 0.0:
        raise NormalizationError(f"radius must be positive: {r!r}")
    if kappa_sq > 0.0:
        k = math.sqrt(kappa_sq)
        if boundary == "tangent":
            if k * r >= math.pi / 2:
                raise FocalPointError(
                    "tangent branch focalizes", focal_radius=math.pi / (2 * k)
                )
            return -k * math.tan(k * r)
        if k * r >= math.pi:
            raise FocalPointError("normal branch focalizes", focal_radius=math.pi / k)
        return k / math.tan(k * r)
    if kappa_sq < 0.0:
        k = math.sqrt(-kappa_sq)
        if boundary == "tangent":
            return k * math.tanh(k * r)
        return k / math.tanh(k * r)
    return 0.0 if boundary == "tangent" else 1.0 / r


#: (jacobi eigenvalue magnitude, boundary, multiplicity) rows per core; the
#: eigenvalue split 7/8 is the adapted-frame dimension count, and the core
#: tangencies are the catalog dimension counts (line: tangent to the whole
#: 1-eigenspace; quaternionic plane: 4+4 tangent split with 3+4 normal).
_CORE_ROWS: dict[str, tuple[tuple[float, str, int], ...]] = {
    "point": ((1.0, "normal", 8), (4.0, "normal", 7)),
    "line": ((1.0, "tangent", 8), (4.0, "normal", 7)),
    "hp2": (
        (1.0, "normal", 4),
        (1.0, "tangent", 4),
        (4.0, "normal", 3),
        (4.0, "tangent", 4),
    ),
}


def tube_spectrum(descriptor: TubeDescriptor) -> PCSystem:
    """Principal-curvature system of the tube, with multiplicities.

    The values agree with jacobi_tube_curvature row by row; the op2
    branch phases are set so that evolving toward the core (increasing t)
    focalizes the normal branches at t = radius, and the oh2 branches
    start from jacobi_tube_curvature.
    """
    if descriptor.core == "horosphere":
        return PCSystem(
            branches=(
                CurvatureBranch.hyperbolic(1.0, 1.0, 8),
                CurvatureBranch.hyperbolic(2.0, 2.0, 7),
            )
        )
    r = descriptor.radius
    branches = []
    for magnitude, boundary, mult in _CORE_ROWS[descriptor.core]:
        k = math.sqrt(magnitude)
        if descriptor.ambient == "op2":
            theta = k * r if boundary == "normal" else k * r + math.pi / 2
            branches.append(CurvatureBranch.compact(k, theta, mult))
        else:
            value = jacobi_tube_curvature(-magnitude, boundary, r)
            branches.append(CurvatureBranch.hyperbolic(k, value, mult))
    return PCSystem(branches=tuple(branches))


#: Zeros of the op2 tube mean curvature, from the _CORE_ROWS tables with
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
    TubeDescriptor(ambient, core, None if core == "horosphere" else 1.0)
    raise NoMinimalTubeError(
        f"the mean curvature never vanishes for core {core!r} in {ambient!r}"
    )


# --------------------------------------------------------------------------
# Finite search over focal configurations (two eigenvalue families)
# --------------------------------------------------------------------------

#: admissible signatures for a totally geodesic core: name -> (dimension,
#: normal multiplicity in the 4-eigenvalue family, in the 1-eigenvalue family)
CATALOG_CORES: dict[str, tuple[int, int, int]] = {
    "point": (0, 7, 8),
    "line": (8, 7, 0),
    "hp2": (8, 3, 4),
}

#: numbers of distinct principal curvatures searched (see
#: admissible_focal_configurations for the restriction)
_G_VALUES = (1, 2)
#: branch phases at Q1, as integers in units of pi/4
_PHASES = (0, 1, 2, 3)
_PHASE_LABELS = ("0", "1/4", "1/2", "3/4")  # phase / pi
_COT_AT = (1, 0, -1)  # cot(pi * p / 4) for p = 1, 2, 3, exact on the lattice
#: the two focal sets, in the order and under the keys of the certificate payload
FOCAL_SETS = ("q1", "q2")


def _on_focal_lattice(g: int, kappa: int, phase: int) -> bool:
    """Whether every pole of the branch lands on a focal set.

    The poles of kappa cot(pi p / 4 - kappa t) sit at (4 - p) / kappa plus
    multiples of 4 / kappa (units of pi/4); the focal sets are spaced
    2 / g apart.
    """
    return (2 * g) % kappa == 0 and ((4 - phase) * g) % (2 * kappa) == 0


@dataclass(frozen=True)
class FocalConfiguration:
    """One candidate focal configuration along a closed normal geodesic.

    Branch phases are integers in units of pi/4, measured at the first
    focal set Q1; phase 0 marks branches normal to Q1 (they focalize
    there).  The second focal set Q2 sits at distance pi/(2g).
    """

    g: int
    multiplicities: dict[tuple[int, int], int]  # (kappa, phase) -> mult

    @property
    def spacing(self) -> int:
        """Distance from Q1 to Q2 in units of pi/4."""
        return 2 // self.g

    def _poles_admissible(self) -> bool:
        return all(
            _on_focal_lattice(self.g, kappa, phase)
            for (kappa, phase), mult in self.multiplicities.items()
            if mult
        )

    def branches_at(self, q: str) -> list[tuple[int, int, int]]:
        """(kappa, phase at focal set q, mult) of each occupied branch; the
        phase at Q2 is the phase at Q1 shifted by kappa * spacing, mod 4."""
        shift = self.spacing * FOCAL_SETS.index(q)
        return [(k, (p + k * shift) % 4, m) for (k, p), m in self.multiplicities.items() if m]

    def normal_mults(self, q: str) -> tuple[int, int]:
        """(kappa=2 mult, kappa=1 mult) of branches focalizing at q."""
        mults = [0, 0, 0]  # indexed by kappa
        for k, p, m in self.branches_at(q):
            if p == 0:
                mults[k] += m
        return mults[2], mults[1]

    def tangent_values(self, q: str) -> list[tuple[int, int, int]]:
        """(kappa, cot value, mult) of branches tangent to q."""
        return [(k, k * _COT_AT[p - 1], m) for k, p, m in self.branches_at(q) if p]

    def signature(self, q: str) -> tuple[int, int, int]:
        m2, m1 = self.normal_mults(q)
        return (15 - m2 - m1, m2, m1)

    def totally_geodesic(self, q: str) -> bool:
        return all(v == 0 for _, v, _ in self.tangent_values(q))

    def minimal(self, q: str) -> bool:
        return sum(v * m for _, v, m in self.tangent_values(q)) == 0

    def matched_cores(self) -> dict[str, str]:
        """Catalog names of the totally geodesic focal sets, keyed q1/q2."""
        out = {}
        for q in filter(self.totally_geodesic, FOCAL_SETS):
            sig = self.signature(q)
            names = [n for n, cat in CATALOG_CORES.items() if cat == sig]
            if names:
                out[q] = names[0]
        return out

    def realize(self, s: float) -> PCSystem:
        """The compact principal-curvature system of the tube at distance s from Q1."""
        branches = []
        for (k, p), m in sorted(self.multiplicities.items()):
            if m == 0:
                continue
            # phase-0 branches must focalize after flowing distance s
            theta = (p / 4 * math.pi + k * s) % math.pi
            branches.append(CurvatureBranch.compact(float(k), theta, m))
        return PCSystem(branches=tuple(branches))

    def to_json_dict(self) -> dict:
        rows = [
            {"kappa": k, "phase_over_pi": _PHASE_LABELS[p], "multiplicity": m}
            for (k, p), m in sorted(self.multiplicities.items())
            if m > 0
        ]
        return {
            "g": self.g,
            "branches": rows,
            **{
                q: {
                    "signature": list(self.signature(q)),
                    "totally_geodesic": self.totally_geodesic(q),
                    "minimal": self.minimal(q),
                }
                for q in FOCAL_SETS
            },
            "cores": self.matched_cores(),
        }


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _configuration(g: int, m2: tuple[int, ...], m1: tuple[int, ...]) -> FocalConfiguration:
    """The configuration with kappa=2 multiplicities m2 and kappa=1
    multiplicities m1 over the phases."""
    mult = {(2, p): m for p, m in zip(_PHASES, m2)}
    mult.update({(1, p): m for p, m in zip(_PHASES, m1)})
    return FocalConfiguration(g=g, multiplicities=mult)


#: len(enumerate_focal_configurations()): the compositions of 7 and of 8
#: into the four phases, for each g
_ENUMERATED = len(_G_VALUES) * math.comb(7 + 3, 3) * math.comb(8 + 3, 3)


def enumerate_focal_configurations() -> list[FocalConfiguration]:
    """All phase assignments for the 7+8 eigenvalue split, before filtering.

    The brute-force reference for admissible_focal_configurations, which
    never builds this list.
    """
    return [
        _configuration(g, m2, m1)
        for g in _G_VALUES
        for m2 in _compositions(7, len(_PHASES))
        for m1 in _compositions(8, len(_PHASES))
    ]


def _lattice_compositions(g: int, kappa: int, total: int) -> list[tuple[int, ...]]:
    """Compositions of one family's multiplicity over the phases, keeping
    those whose occupied phases all put the family's poles on the focal
    lattice of g."""
    return [
        m for m in _compositions(total, len(_PHASES))
        if all(_on_focal_lattice(g, kappa, p) for p, mult in zip(_PHASES, m) if mult)
    ]


def admissible_focal_configurations() -> list[FocalConfiguration]:
    """Configurations surviving all structural filters.

    Filters, in order: every branch's poles land on the focal lattice
    (this forces the 4-family principal curvatures at the focal sets to
    vanish and restricts the 1-family values to {1, 0, -1}); both focal
    sets are proper (something focalizes at each); both focal sets are
    minimal; at least one focal set is totally geodesic; each totally
    geodesic focal set carries a catalog signature.

    The pole-lattice filter acts on each branch alone, so it runs on each
    (g, kappa) family before the families are combined; the other filters
    see only the product of the surviving families.  The filters commute,
    so at each focal set minimality, which rejects most candidates, is
    tested before properness.  Survivors come in the order of
    enumerate_focal_configurations.

    The search assumes g in {1, 2} distinct principal curvatures.
    Muenzner's restriction for isoparametric hypersurfaces allows
    g in {1, 2, 3, 4, 6}; the larger values are not searched.
    """
    out = []
    for g in _G_VALUES:
        m1_lattice = _lattice_compositions(g, 1, 8)
        for m2 in _lattice_compositions(g, 2, 7):
            for m1 in m1_lattice:
                cfg = _configuration(g, m2, m1)
                if not all(cfg.minimal(q) and sum(cfg.normal_mults(q)) for q in FOCAL_SETS):
                    continue
                geodesic = [q for q in FOCAL_SETS if cfg.totally_geodesic(q)]
                cores = cfg.matched_cores()
                if geodesic and all(q in cores for q in geodesic):
                    out.append(cfg)
    return out


def verify_configuration_by_evolution(cfg: FocalConfiguration) -> dict:
    """Brute-force check of a configuration by evolving its realized system.

    Evolves the tube system at the midpoint between the focal sets and
    confirms: no branch focalizes strictly between the focal sets, the
    branches focalizing at each end match the configuration's counts, and
    the mean curvature stays finite inside the interval.
    """
    spacing = cfg.spacing / 4 * math.pi
    mid = spacing / 2.0
    system = cfg.realize(mid)
    # flow toward Q1 is +t, toward Q2 is -t from the midpoint
    toward_q1 = toward_q2 = 0
    interior_poles = 0
    for b in system.branches:
        lo, hi = b.regularity_interval()
        if hi < mid - 1e-12 or lo > -(spacing - mid) + 1e-12:
            interior_poles += b.multiplicity
        if abs(hi - mid) <= 1e-12:
            toward_q1 += b.multiplicity
        if abs(lo + (spacing - mid)) <= 1e-12:
            toward_q2 += b.multiplicity
    counted = dict(zip(FOCAL_SETS, (toward_q1, toward_q2)))
    grid = linspace(-mid * 0.98, mid * 0.98, 41)
    finite = all(math.isfinite(mean_curvature(system, t)) for t in grid)
    return {
        "interior_poles": interior_poles,
        **{f"{q}_focal_mult_ok": counted[q] == sum(cfg.normal_mults(q)) for q in FOCAL_SETS},
        "mean_curvature_finite": finite,
    }


def theorem2_certificate(validate: bool = True) -> Certificate:
    """Search all focal configurations; survivors must be the catalog tubes.

    Returns a certificate whose details list the surviving configurations
    and the distinct families they form (a family and its orientation
    reversal both survive).  Verdict "equivalent" means the survivors
    realize exactly the catalog cores {point/line, hp2}.
    """
    survivors = admissible_focal_configurations()
    families = set()
    for cfg in survivors:
        cores = cfg.matched_cores()
        names = set(cores.values())
        if names <= {"point", "line"}:
            families.add("sphere")
        elif "hp2" in names:
            families.add("hp2")
        else:
            families.add("unmatched:" + ",".join(sorted(names)))
    expected = {"sphere", "hp2"}
    checks = {}
    if validate:
        checks = {
            f"config{i}": verify_configuration_by_evolution(cfg)
            for i, cfg in enumerate(survivors)
        }
        evolution_ok = all(
            c["interior_poles"] == 0 and c["mean_curvature_finite"]
            and all(c[f"{q}_focal_mult_ok"] for q in FOCAL_SETS)
            for c in checks.values()
        )
    else:
        evolution_ok = True
    ok = families == expected and evolution_ok
    return Certificate(
        verdict="equivalent" if ok else "contradiction",
        residual=0.0 if ok else 1.0,
        witness=None if ok else {"families": sorted(families)},
        details={
            "survivors": [cfg.to_json_dict() for cfg in survivors],
            "families": sorted(families),
            "evolution_checks": checks,
            "total_enumerated": _ENUMERATED,
        },
    )


# --------------------------------------------------------------------------
# Proportional-eigenvalue sweep (non-existence certificate)
# --------------------------------------------------------------------------

EXCLUDED_COSINES = (0.0, 3.0 / 5.0, 4.0 / 5.0, 1.0)
CONSTRAINT_MODES = ("a_jj_const", "a_zz_const", "ratio_const")


def _flipped_sign_floor(mu1: float, mu2: float) -> dict:
    """Residual floor when both Riccati equations carry flipped frequency
    signs (lambda' = lambda^2 - mu).  The constant solution
    lambda2 = sqrt(mu2) with c = sqrt(mu1/mu2) then satisfies both, so the
    floor collapses to the rounding error of that closed form; reported
    for comparison, never asserted."""
    exact_c = math.sqrt(mu1 / mu2)
    exact = abs(exact_c * (1 - exact_c) * mu2 - exact_c * mu2 + mu1)
    return {
        "floor": exact,
        "constant_solution_c": exact_c,
        "constant_solution_lambda2_0": math.sqrt(mu2),
    }


def theorem3_sweep(
    alpha_grid,
    constraint: str = "a_jj_const",
    bundle: "grassmannian.StructureBundle | None" = None,
    ratio_tol: float = 1e-8,
) -> Certificate:
    """Non-existence certificate for proportionally-curved pairs at generic angles.

    For each angle the two distinguished Jacobi eigenvalues mu1 > mu2 > 0
    are measured from the Grassmannian model (never hand-set).  Putting
    lambda1 = c lambda2 into both Riccati equations lambda_i' =
    lambda_i^2 + mu_i leaves the defect c(1 - c) lambda2^2 + c mu2 - mu1,
    which must vanish on an interval.  There lambda2' = lambda2^2 + mu2 > 0,
    so lambda2^2 takes infinitely many values and c(1 - c) = 0 and
    c mu2 = mu1 follow: c = 0 needs mu1 = 0, and c = 1 needs mu1 = mu2,
    i.e. cos(alpha) = 0.  On the maximal forward window lambda2 runs to its
    pole, so the sup of the defect is finite only for c in {0, 1}, where it
    is mu1 or mu1 - mu2.  Each row's floor is therefore exactly mu1 - mu2,
    with witness c = 1 at every lambda2(0); the certificate reports the
    smallest row, and a positive floor is a "contradiction" verdict.  The
    a_jj and a_zz shape constraints only add conditions, so mu1 - mu2
    bounds every mode from below and ``constraint`` only labels the
    payload.

    Raises:
        ExcludedAngleError: if any grid angle has cos(alpha) in
            {0, 3/5, 4/5, 1} (within 1e-9), where eigenvalue
            multiplicities jump.
        NormalizationError: on an unknown constraint, or when the measured
            eigenvectors or the eigenvalue ratio (1 + cos) / (1 - cos) miss
            their tolerances.
    """
    from . import grassmannian  # numpy, paid only by the theorem-3 callers

    if constraint not in CONSTRAINT_MODES:
        raise NormalizationError(f"constraint must be one of {CONSTRAINT_MODES}")
    if bundle is None:
        bundle = grassmannian.StructureBundle.standard(2)
    rows = []
    floor = math.inf
    witness = None
    for alpha in alpha_grid:
        alpha = float(alpha)
        cos_a = math.cos(alpha)
        if any(abs(cos_a - x) < 1e-9 for x in EXCLUDED_COSINES):
            raise ExcludedAngleError(
                f"cos(alpha) = {cos_a!r} is in the excluded set {EXCLUDED_COSINES}"
            )
        pair = grassmannian.hopf_eigenvectors(
            grassmannian.unit_with_angle(alpha, bundle), bundle
        )
        if pair.residual > 1e-8:
            raise NormalizationError(
                f"model eigenvector residual {pair.residual!r} too large at alpha={alpha!r}"
            )
        mu1, mu2 = pair.lambda1, pair.lambda2
        ratio_defect = abs(mu1 / mu2 - (1.0 + cos_a) / (1.0 - cos_a))
        if ratio_defect > ratio_tol:
            raise NormalizationError(
                f"eigenvalue ratio defect {ratio_defect!r} at alpha={alpha!r}"
            )
        residual = mu1 - mu2
        rows.append(
            {
                "alpha": alpha,
                "mu1": mu1,
                "mu2": mu2,
                "ratio_defect": ratio_defect,
                "min_residual": residual,
                "c": 1.0,
                "flipped_sign_variant": _flipped_sign_floor(mu1, mu2),
            }
        )
        if residual < floor:
            floor = residual
            witness = {"alpha": alpha, "c": 1.0, "residual": residual}
    return Certificate(
        verdict="contradiction" if floor > 0.0 else "equivalent",
        residual=float(floor),
        witness=witness,
        details={"constraint": constraint, "alphas": rows},
    )


def theorem3_boundary_case(bundle: "grassmannian.StructureBundle | None" = None) -> Certificate:
    """The alpha = pi/2 corner: the shape equations force lambda2 = 0,
    which the second Riccati equation rejects outright."""
    from . import grassmannian

    if bundle is None:
        bundle = grassmannian.StructureBundle.standard(2)
    xi = grassmannian.unit_with_angle(math.pi / 2, bundle)
    op = grassmannian.jacobi_operator_g2(xi, bundle)
    spec = op.spectrum()
    # at the boundary the would-be lambda2 eigenvalue is the top cluster's
    # partner 4(1 - cos) = 4; lambda2 = 0 constant has Riccati defect mu2
    mu2 = max(c.value for c in spec.clusters)  # equals 4(1 - 0) here
    residual = abs(0.0 - (0.0**2 + mu2))
    return Certificate(
        verdict="contradiction",
        residual=float(residual),
        witness={"alpha": math.pi / 2, "lambda2": 0.0, "riccati_defect": residual},
        details={"spectrum": [[c.value, c.multiplicity] for c in spec.clusters]},
    )
