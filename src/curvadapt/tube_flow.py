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

from .certificates import Certificate
from .errors import ExcludedAngleError, FocalPointError, NormalizationError

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
        if self.space_sign == 0:
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


#: branch_value treats a closed-form denominator below this as a pole
POLE_PROXIMITY = 1e-12


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
    if abs(den) < POLE_PROXIMITY:
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


def mean_curvature(system: PCSystem, t: float = 0.0) -> float:
    """Trace of the shape operator: sum of multiplicity-weighted branch values."""
    return sum(evolve(b, t) * b.multiplicity for b in system.branches)


# --------------------------------------------------------------------------
# Tube principal-curvature tables
# --------------------------------------------------------------------------

AMBIENTS = ("op2", "oh2")
CORES = ("point", "line", "hp2", "horosphere")


def tube_spectrum(ambient: str, core: str, radius: float | None) -> PCSystem:
    """Principal-curvature system of the tube of the given radius about a
    totally geodesic core, with multiplicities.

    The horosphere is the radius-free limit object of the hyperbolic
    ambient and takes radius None.  A tube about a catalog core is the
    theorem-2 configuration whose focal set Q1 is that core
    (_catalog_configuration; its phases at Q1 do not depend on g).  In op2
    it is realized at distance radius from Q1, so evolving toward the core
    (increasing t) focalizes the normal branches at t = radius.  In oh2 a
    phase-0 branch is normal to the core and starts at kappa coth(kappa r);
    a tangent one (phase pi/2) starts at kappa tanh(kappa r).

    Raises:
        NormalizationError: on an unknown ambient or core, a horosphere
            outside oh2 or with a radius, or a radius that is not positive.
        FocalPointError: if an op2 radius reaches the focal set of the core,
            at pi/2 (pi/4 for hp2); focal_radius is that limit.
    """
    if ambient not in AMBIENTS:
        raise NormalizationError(f"ambient must be one of {AMBIENTS}: {ambient!r}")
    if core not in CORES:
        raise NormalizationError(f"core must be one of {CORES}: {core!r}")
    if core == "horosphere":
        if ambient != "oh2":
            raise NormalizationError("horospheres only exist in the hyperbolic plane")
        if radius is not None:
            raise NormalizationError("a horosphere has no radius; pass None")
        return PCSystem(
            branches=(
                CurvatureBranch.hyperbolic(1.0, 1.0, 8),
                CurvatureBranch.hyperbolic(2.0, 2.0, 7),
            )
        )
    if radius is None or radius <= 0.0:
        raise NormalizationError(f"tube radius must be positive, got {radius!r}")
    cfg = _catalog_configuration(1, "q1", core)
    if ambient == "oh2":
        return PCSystem(branches=tuple(
            CurvatureBranch.hyperbolic(
                float(k), k * math.tanh(k * radius) if p else k / math.tanh(k * radius), m
            )
            for k, p, m in cfg.branches_at("q1")
        ))
    limit = math.pi / 4 if core == "hp2" else math.pi / 2
    if radius >= limit:
        raise FocalPointError(
            f"radius {radius!r} reaches the focal set of core {core!r} at {limit!r}",
            focal_radius=limit,
        )
    return cfg.realize(radius)


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

#: focal-set spacings searched: Q2 lies pi/(2g) from Q1 (see
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


def _phase_shift(g: int, kappa: int, q: str) -> int:
    """Advance of a kappa branch's phase from Q1 to focal set q, in pi/4."""
    return kappa * (2 // g) * FOCAL_SETS.index(q)


@dataclass(frozen=True, order=True)
class FocalConfiguration:
    """One candidate focal configuration along a closed normal geodesic.

    m2 and m1 are the kappa=2 and kappa=1 multiplicities, indexed by branch
    phase at the first focal set Q1 in units of pi/4; phase 0 marks branches
    normal to Q1 (they focalize there).  The second focal set Q2 sits at
    distance pi/(2g).  The order is that of enumerate_focal_configurations.
    """

    g: int
    m2: tuple[int, int, int, int]
    m1: tuple[int, int, int, int]

    @property
    def spacing(self) -> int:
        """Distance from Q1 to Q2 in units of pi/4."""
        return 2 // self.g

    def _poles_admissible(self) -> bool:
        return all(_on_focal_lattice(self.g, k, p) for k, p, _ in self.branches_at("q1"))

    def branches_at(self, q: str) -> list[tuple[int, int, int]]:
        """(kappa, phase at focal set q, mult) of each occupied branch,
        kappa=1 first; the phase at Q2 is the phase at Q1 shifted by
        kappa * spacing, mod 4."""
        return [
            (k, (p + _phase_shift(self.g, k, q)) % 4, m)
            for k, mults in ((1, self.m1), (2, self.m2))
            for p, m in enumerate(mults)
            if m
        ]

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
        return PCSystem(branches=tuple(
            _realized_branch(k, p, m, s) for k, p, m in self.branches_at("q1")
        ))

    def to_json_dict(self) -> dict:
        rows = [
            {"kappa": k, "phase_over_pi": _PHASE_LABELS[p], "multiplicity": m}
            for k, p, m in self.branches_at("q1")
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


def _realized_branch(kappa: int, phase: int, mult: int, s: float) -> CurvatureBranch:
    """The branch of the given phase at Q1 (units of pi/4), at distance s from Q1.

    Raises:
        NormalizationError: if the branch focalizes at distance s itself.
    """
    # phase-0 branches must focalize after flowing distance s
    theta = (phase / 4 * math.pi + kappa * s) % math.pi
    return CurvatureBranch.compact(float(kappa), theta, mult)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


#: len(enumerate_focal_configurations()): the compositions of 7 and of 8
#: into the four phases, for each g
_ENUMERATED = len(_G_VALUES) * math.comb(7 + 3, 3) * math.comb(8 + 3, 3)


def enumerate_focal_configurations() -> list[FocalConfiguration]:
    """All phase assignments for the 7+8 eigenvalue split, before filtering.

    The brute-force reference for admissible_focal_configurations, which
    never builds this list.
    """
    return [
        FocalConfiguration(g, m2, m1)
        for g in _G_VALUES
        for m2 in _compositions(7, len(_PHASES))
        for m1 in _compositions(8, len(_PHASES))
    ]


def _catalog_configuration(g: int, q: str, core: str) -> FocalConfiguration:
    """The one configuration of spacing g whose focal set q is totally
    geodesic with the core's catalog signature: there every tangent branch
    sits at phase pi/2, the only zero of cot, and the normal multiplicities
    at phase 0; shifting those phases back to Q1 gives the configuration."""
    _, n2, n1 = CATALOG_CORES[core]
    return FocalConfiguration(g, *(
        tuple(at_q[(p + _phase_shift(g, k, q)) % 4] for p in _PHASES)
        for k, at_q in ((2, (n2, 0, 7 - n2, 0)), (1, (n1, 0, 8 - n1, 0)))
    ))


def admissible_focal_configurations() -> list[FocalConfiguration]:
    """Configurations surviving all structural filters.

    Filters, in order: every branch's poles land on the focal lattice
    (this forces the 4-family principal curvatures at the focal sets to
    vanish and restricts the 1-family values to {1, 0, -1}); both focal
    sets are proper (something focalizes at each); both focal sets are
    minimal; at least one focal set is totally geodesic; each totally
    geodesic focal set carries a catalog signature.

    The last two filters fix each survivor in closed form by its g, its
    totally geodesic focal set and that set's core, so the chain runs on
    those at most 12 candidates (_catalog_configuration), not on the
    39,600 of enumerate_focal_configurations.  The filters commute, so at
    each focal set minimality is tested before properness.  Survivors come
    in the order of enumerate_focal_configurations.

    g sets the focal spacing: Q2 lies pi/(2g) from Q1, so the closed
    normal geodesic carries 2g focal points.  The search covers g in
    {1, 2}; Muenzner's restriction for isoparametric hypersurfaces allows
    g in {1, 2, 3, 4, 6}, and the larger values are not searched.
    """
    out = set()
    for g in _G_VALUES:
        for q0 in FOCAL_SETS:
            for core in CATALOG_CORES:
                cfg = _catalog_configuration(g, q0, core)
                if not cfg._poles_admissible() or not all(
                    cfg.minimal(q) and sum(cfg.normal_mults(q)) for q in FOCAL_SETS
                ):
                    continue
                geodesic = [q for q in FOCAL_SETS if cfg.totally_geodesic(q)]
                cores = cfg.matched_cores()
                if geodesic and all(q in cores for q in geodesic):
                    out.add(cfg)
    return sorted(out)


def verify_configuration_by_evolution(cfg: FocalConfiguration) -> dict:
    """Brute-force check of a configuration by evolving its realized system.

    Evolves the tube system at the midpoint between the focal sets and
    confirms: no branch focalizes strictly between the focal sets, the
    branches focalizing at each end match the configuration's counts, and
    the mean curvature stays finite on a grid inside the interval.  A
    configuration that fails any of these says so in the returned dict;
    a branch that focalizes at the midpoint itself is an interior pole.
    """
    spacing = cfg.spacing / 4 * math.pi
    mid = spacing / 2.0
    # flow toward Q1 is +t, toward Q2 is -t from the midpoint
    toward_q1 = toward_q2 = 0
    interior_poles = 0
    rows = cfg.branches_at("q1")
    branches = []
    for k, p, m in rows:
        try:
            b = _realized_branch(k, p, m, mid)
        except NormalizationError:  # a pole at the midpoint
            interior_poles += m
            continue
        branches.append(b)
        lo, hi = b.regularity_interval()
        if hi < mid - 1e-12 or lo > -(spacing - mid) + 1e-12:
            interior_poles += b.multiplicity
        if abs(hi - mid) <= 1e-12:
            toward_q1 += b.multiplicity
        if abs(lo + (spacing - mid)) <= 1e-12:
            toward_q2 += b.multiplicity
    counted = dict(zip(FOCAL_SETS, (toward_q1, toward_q2)))
    grid = linspace(-mid * 0.98, mid * 0.98, 41)
    finite = len(branches) == len(rows)  # the grid runs through the midpoint
    if finite:
        system = PCSystem(tuple(branches))
        try:
            finite = all(math.isfinite(mean_curvature(system, t)) for t in grid)
        except FocalPointError:  # the grid crosses a pole
            finite = False
    return {
        "interior_poles": interior_poles,
        **{f"{q}_focal_mult_ok": counted[q] == sum(cfg.normal_mults(q)) for q in FOCAL_SETS},
        "mean_curvature_finite": finite,
    }


def theorem2_certificate() -> Certificate:
    """Search all focal configurations; survivors must be the catalog tubes.

    Returns a certificate whose details list the surviving configurations,
    the distinct families they form (a family and its orientation reversal
    both survive) and the evolution cross-check of each survivor.  Verdict
    "equivalent" means the survivors realize exactly the catalog cores
    {point/line, hp2} and every survivor passes its evolution check.
    total_enumerated is the size of the candidate space the verdict
    covers, not the number of candidates the search builds.
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
    checks = {
        f"config{i}": verify_configuration_by_evolution(cfg)
        for i, cfg in enumerate(survivors)
    }
    evolution_ok = all(
        c["interior_poles"] == 0 and c["mean_curvature_finite"]
        and all(c[f"{q}_focal_mult_ok"] for q in FOCAL_SETS)
        for c in checks.values()
    )
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


def _excluded_error(alpha: float) -> ExcludedAngleError | None:
    """The error for an angle whose cosine is excluded, else None."""
    cos_a = math.cos(alpha)
    if any(abs(cos_a - x) < 1e-9 for x in EXCLUDED_COSINES):
        return ExcludedAngleError(
            f"cos(alpha) = {cos_a!r} is in the excluded set {EXCLUDED_COSINES}"
        )
    return None


def theorem3_sweep(
    alpha_grid, constraint: str = "a_jj_const", ratio_tol: float = 1e-8
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

    Every grid angle is measured in one batched model evaluation.

    Raises (for the first failing angle in grid order):
        ExcludedAngleError: if a grid angle has cos(alpha) in
            {0, 3/5, 4/5, 1} (within 1e-9), where eigenvalue
            multiplicities jump.
        BoundaryAngleError: if a grid angle lies outside [0, pi/2].
        NormalizationError: on an unknown constraint, or when the measured
            eigenvectors or the eigenvalue ratio (1 + cos) / (1 - cos) miss
            their tolerances.
    """
    from . import grassmannian  # numpy, paid only by the theorem-3 callers

    if constraint not in CONSTRAINT_MODES:
        raise NormalizationError(f"constraint must be one of {CONSTRAINT_MODES}")
    bundle = grassmannian.StructureBundle.standard(2)
    alphas = [float(alpha) for alpha in alpha_grid]
    # checks needing no model run first; the angles before the first failure
    # form one batch, checked row by row, so the first failing angle raises
    errors = [_excluded_error(alpha) or grassmannian.angle_error(alpha) for alpha in alphas]
    stop = next((k for k, error in enumerate(errors) if error), len(alphas))
    rows = []
    floor = math.inf
    witness = None
    for alpha, pair in zip(alphas, grassmannian.hopf_eigenvectors(alphas[:stop], bundle)):
        if pair.residual > 1e-8:
            raise NormalizationError(
                f"model eigenvector residual {pair.residual!r} too large at alpha={alpha!r}"
            )
        mu1, mu2 = pair.lambda1, pair.lambda2
        if pair.ratio_defect > ratio_tol:
            raise NormalizationError(
                f"eigenvalue ratio defect {pair.ratio_defect!r} at alpha={alpha!r}"
            )
        residual = mu1 - mu2
        rows.append(
            {
                "alpha": alpha,
                "mu1": mu1,
                "mu2": mu2,
                "ratio_defect": pair.ratio_defect,
                "min_residual": residual,
                "c": 1.0,
                "flipped_sign_variant": _flipped_sign_floor(mu1, mu2),
            }
        )
        if residual < floor:
            floor = residual
            witness = {"alpha": alpha, "c": 1.0, "residual": residual}
    if stop < len(alphas):
        raise errors[stop]
    return Certificate(
        verdict="contradiction" if floor > 0.0 else "equivalent",
        residual=float(floor),
        witness=witness,
        details={"constraint": constraint, "alphas": rows},
    )


def theorem3_boundary_case() -> Certificate:
    """The alpha = pi/2 corner: the shape equations force lambda2 = 0,
    which the second Riccati equation rejects outright."""
    from . import grassmannian

    bundle = grassmannian.StructureBundle.standard(2)
    xi = grassmannian.unit_with_angle(math.pi / 2, bundle)
    op = grassmannian.jacobi_operator_g2(xi, bundle)
    spec = op.spectrum()
    # at the boundary the would-be lambda2 eigenvalue is the top cluster's
    # partner 4(1 - cos) = 4; lambda2 = 0 constant has Riccati defect mu2
    mu2 = max(c.value for c in spec)  # equals 4(1 - 0) here
    residual = abs(0.0 - (0.0**2 + mu2))
    return Certificate(
        verdict="contradiction",
        residual=float(residual),
        witness={"alpha": math.pi / 2, "lambda2": 0.0, "riccati_defect": residual},
        details={"spectrum": [[c.value, c.multiplicity] for c in spec]},
    )
