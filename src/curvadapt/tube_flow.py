"""Principal-curvature flow along normal geodesics of tubes.

Each principal curvature of a tube satisfies a scalar Riccati equation
lambda' = lambda^2 + s * kappa^2, where kappa^2 is the eigenvalue of the
normal Jacobi operator on the branch and s = +1, 0, -1 the curvature sign
of the ambient space.  branch_values evaluates every closed-form family:

    compact     lambda(t) = kappa cot(theta - kappa t)
    flat        lambda(t) = 1 / (r - t)   (or identically 0)
    coth        lambda(t) = kappa coth(theta0 - kappa t),  |lambda0| > kappa
    tanh        lambda(t) = kappa tanh(theta0 - kappa t),  |lambda0| < kappa
    const       lambda(t) = +/- kappa,                     |lambda0| = kappa

CurvatureBranch.poles is the one pole model of these families, and a
compact branch's poles are the lattice (theta + j pi)/kappa, j an integer,
in closed form.  The profile comparator and the theorem-2 pole check read
it, and so does the regularity interval, whose compact ends are the
lattice at j = -1 and j = 0.

Orientation convention for tubes: the flow parameter t moves toward the
core, so a branch built at tube radius r focalizes at t = r exactly when
the branch direction is normal to the core.  Tangent directions of a
totally geodesic core carry -kappa tan(kappa r) (compact) or
+kappa tanh(kappa r) (hyperbolic); normal directions carry
kappa cot(kappa r) / kappa coth(kappa r).  These signs reproduce the
known five-column principal-curvature table for tubes in the octonionic
planes.  The tests check every table against an oracle that derives it
from the Cayley-plane model instead: the clusters of
cayley_plane.jacobi_operator on the core's tangent space and on its
normal space, through these closed forms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .certificates import Certificate
from .errors import ExcludedAngleError, FocalPointError, NormalizationError

#: Most poles one compact branch may place in a window.
#: isoparametric.default_window lists the poles of two periods of the
#: slowest branch, so a branch places about 2 kappa / kappa_min poles there:
#: 8 at a frequency ratio of 4, but 2e9 for kappa 1e-9 beside kappa 1.
MAX_BRANCH_POLES = 10_000


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


class CurvatureBranch(namedtuple("CurvatureBranch", "kappa space_sign phase multiplicity")):
    """One principal-curvature branch of the Riccati flow.

    Attributes:
        kappa: nonnegative Jacobi frequency (sqrt of |K_xi eigenvalue|).
        space_sign: +1 compact, -1 hyperbolic, 0 flat.
        phase: theta in (0, pi) for compact branches; the initial value
            lambda(0) otherwise.
        multiplicity: dimension of the branch's eigenspace.

    A named tuple: read-only fields, equal to the plain tuple of them;
    _make and _replace skip the checks of __new__.
    """

    __slots__ = ()

    def __new__(cls, kappa: float, space_sign: int, phase: float, multiplicity: int):
        if space_sign not in (1, 0, -1):
            raise NormalizationError(f"space_sign must be +1, 0 or -1: {space_sign!r}")
        if kappa < 0:
            raise NormalizationError(f"kappa must be nonnegative: {kappa!r}")
        if multiplicity < 1:
            raise NormalizationError(f"multiplicity must be >= 1: {multiplicity!r}")
        if space_sign != 0 and kappa == 0:
            raise NormalizationError(
                "curved branches need kappa > 0; kappa 0 is the flat regime")
        if space_sign == 1 and not 0.0 < phase < math.pi:
            raise NormalizationError(
                f"compact phase must lie in (0, pi), got {phase!r}; "
                "a phase that is a multiple of pi is a pole"
            )
        return super().__new__(cls, kappa, space_sign, phase, multiplicity)

    # -- constructors ------------------------------------------------------

    @classmethod
    def compact(cls, kappa: float, theta: float, multiplicity: int = 1) -> "CurvatureBranch":
        """Branch lambda(t) = kappa cot(theta - kappa t); theta reduced mod pi."""
        return cls(kappa=kappa, space_sign=1, phase=theta % math.pi, multiplicity=multiplicity)

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
        if lam0 == self.kappa:
            return "const"
        return "coth" if lam0 > self.kappa else "tanh"

    def poles(self, lo: float, hi: float) -> list[float]:
        """The branch's poles in the open interval (lo, hi), increasing.

        A compact branch has one at (theta + j pi)/kappa for each integer
        j, a float that depends on j alone, not on the window; a flat
        branch one at 1/lambda(0) unless lambda(0) = 0; a coth branch one
        at atanh(kappa/lambda(0))/kappa; tanh and const branches none.

        Raises:
            NormalizationError: if a compact branch has more than
                MAX_BRANCH_POLES poles in the window.
        """
        if self.space_sign != 1:
            if self.regime == "flat" and self.phase:
                r = 1.0 / self.phase
            elif self.regime == "coth":
                r = math.atanh(self.kappa / self.phase) / self.kappa
            else:
                return []
            return [r] if lo < r < hi else []
        k, phase = self.kappa, self.phase
        count = (hi - lo) * k / math.pi
        if not count <= MAX_BRANCH_POLES:
            raise NormalizationError(
                f"window ({lo!r}, {hi!r}) holds {count:.3g} poles of the branch "
                f"with kappa={k!r}, more than {MAX_BRANCH_POLES}; "
                "narrow the window or bring the frequencies closer"
            )
        out = []
        j = math.floor((lo * k - phase) / math.pi)
        while (r := (phase + j * math.pi) / k) < hi:
            if r > lo:
                out.append(r)
            j += 1
        return out

    def regularity_interval(self) -> tuple[float, float]:
        """Open interval around 0 on which the branch stays finite: up to
        the nearest pole on each side.  A compact branch's ends are the
        poles at j = -1 and j = 0, bit for bit, written out since evolve
        reads them on every call."""
        if self.space_sign == 1:
            return ((self.phase - math.pi) / self.kappa, self.phase / self.kappa)
        for r in self.poles(-math.inf, math.inf):  # a lone pole, on lambda(0)'s side
            return (-math.inf, r) if self.phase > 0 else (r, math.inf)
        return (-math.inf, math.inf)


#: distance in t within which branch_values takes a point to be a pole
POLE_PROXIMITY = 1e-12


def branch_values(branch: CurvatureBranch, ts: list) -> list:
    """Closed form of the branch at each t of ts, continued past its poles.

    This is the one evaluator of the five solution families, read a
    column at a time: each point takes the float operations of a lone
    call, so a column equals its points bit for bit.  It is the
    meromorphic function, so only its isolated poles are off limits; the
    mean-curvature profile evaluates it everywhere, while evolve first
    confines t to the flow's regularity interval.  A column of complex t
    takes cos, sin and tanh from cmath, and its distance to a pole is
    that of its real part.

    Raises:
        FocalPointError: at the first t within POLE_PROXIMITY of a pole,
            a distance in t whatever the branch's frequency; focal_radius
            is that pole, the float CurvatureBranch.poles lists.
        NormalizationError: where kappa t of a compact branch overflows.
    """
    lib = math
    if ts and isinstance(ts[0], complex):
        import cmath as lib  # only power_sum_cascade's complex step needs it
    k, phase = branch.kappa, branch.phase  # locals: the loop reads them per point
    regime = branch.regime
    if regime == "const":
        return [phase if lib is math else complex(phase)] * len(ts)
    if regime == "tanh":
        shift = math.atanh(phase / k)
        return [k * lib.tanh(shift - k * t) for t in ts]
    if regime == "coth":
        shift = math.atanh(k / phase)
    # |x| / scale, x reduced mod pi if compact, is the distance in t to a pole
    # and bounds |den| / scale: most points pay one comparison, and a zero den
    # (<=) reaches the confirmation even where near underflows to 0
    scale = abs(phase) if regime == "flat" else k
    near = scale * POLE_PROXIMITY
    values = []
    for t in ts:
        if regime == "compact":
            x = phase - k * t
            try:
                num, den = k * lib.cos(x), lib.sin(x)
            except ValueError:  # cos of an infinite phase
                raise NormalizationError(f"kappa={k!r} times t={t!r} overflows a float") from None
        elif regime == "flat":
            num = phase
            den = x = 1.0 - phase * t
        else:
            x = shift - k * t
            num, den = k, lib.tanh(x)
        if abs(den) <= near:
            offset = math.remainder(x.real, math.pi) if regime == "compact" else x.real
            if abs(offset) / scale < POLE_PROXIMITY:
                if regime == "compact":  # the lattice point poles lists, j nearest t
                    j = round((k * t.real - phase) / math.pi)
                    pole = (phase + j * math.pi) / k
                else:
                    (pole,) = branch.poles(-math.inf, math.inf)
                raise FocalPointError(
                    f"evaluation at a pole of the {regime} branch: t={t!r}",
                    focal_radius=pole,
                )
        values.append(num / den)
    return values


def branch_value(branch: CurvatureBranch, t: float | complex) -> float | complex:
    """Closed form of the branch at one t: branch_values at a single point."""
    return branch_values(branch, [t])[0]


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


class PCSystem(namedtuple("PCSystem", "branches label")):
    """A full principal-curvature system: branches with multiplicities.

    The branches are stored as a tuple, which must not be empty.  The label
    names the system in the witnesses of profile comparisons.

    A named tuple: read-only fields, equal to the plain tuple of them;
    _make and _replace skip the checks of __new__.
    """

    __slots__ = ()

    def __new__(cls, branches, label: str = "p"):
        branches = tuple(branches)
        if not branches:
            raise NormalizationError("a principal-curvature system needs branches")
        return super().__new__(cls, branches, label)

    @property
    def total_multiplicity(self) -> int:
        return sum(b.multiplicity for b in self.branches)


# --------------------------------------------------------------------------
# Tube principal-curvature tables
# --------------------------------------------------------------------------

AMBIENTS = ("op2", "oh2")
#: d, the real dimension of the octonions: K_xi has d - 1 directions at
#: kappa = 2 and d at kappa = 1, so a tube has dimension 2d - 1
_D = 8
#: N, the phase denominator: focal phases are integer multiples of pi/N
_N = 4

#: admissible signatures for a totally geodesic core: name -> (dimension,
#: normal multiplicity in the 4-eigenvalue family, in the 1-eigenvalue family)
CATALOG_CORES: dict[str, tuple[int, int, int]] = {
    "point": (0, 7, 8),
    "line": (8, 7, 0),
    "hp2": (8, 3, 4),
}
CORES = (*CATALOG_CORES, "horosphere")
#: theorem-2 families: name -> the exact set of catalog cores that a
#: survivor's totally geodesic focal sets carry
FAMILIES = {"sphere": frozenset({"point", "line"}), "hp2": frozenset({"hp2"})}


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
            outside oh2 or with a radius, or a missing or nonpositive radius.
        FocalPointError: if an op2 radius reaches the focal set of the core,
            the first pole of its branches: pi/2 (pi/4 for hp2);
            focal_radius is that limit.  Also within POLE_PROXIMITY of a
            focal set, 0 or that limit, where branch_values refuses t = 0.
    """
    if ambient not in AMBIENTS:
        raise NormalizationError(f"ambient must be one of {AMBIENTS}: {ambient!r}")
    if core not in CORES:
        raise NormalizationError(f"core must be one of {CORES}: {core!r}")
    if core == "horosphere":
        if ambient != "oh2":
            raise NormalizationError("horospheres only exist in the hyperbolic plane")
        if radius is not None:
            raise NormalizationError(f"core 'horosphere' takes no radius, got {radius!r}")
        return PCSystem(
            branches=(
                CurvatureBranch.hyperbolic(1.0, 1.0, _D),
                CurvatureBranch.hyperbolic(2.0, 2.0, _D - 1),
            )
        )
    if radius is None:
        raise NormalizationError(f"core {core!r} needs a radius")
    if not radius > 0.0:
        raise NormalizationError(f"core {core!r} needs a positive radius, got {radius!r}")
    cfg = _catalog_configuration(1, "q1", core)
    # phase pi p/N + kappa r first reaches pi at r = (N - p) pi / (N kappa)
    limit = math.pi / _N * min((_N - p) / k for k, p, _ in cfg.branches_at("q1"))
    if ambient == "op2" and radius >= limit:
        raise FocalPointError(
            f"radius {radius!r} reaches the focal set of core {core!r} at {limit!r}",
            focal_radius=limit,
        )
    # <=: at r = POLE_PROXIMITY the oh2 shift atanh(tanh(kappa r)) rounds below kappa r
    for focal in (0.0, limit) if ambient == "op2" else (0.0,):
        if abs(radius - focal) <= POLE_PROXIMITY:
            raise FocalPointError(
                f"the tube of radius {radius!r} lies within {POLE_PROXIMITY!r} of a focal "
                f"set of core {core!r}, so no finite table can be evaluated",
                focal_radius=focal,
            )
    if ambient == "oh2":
        return PCSystem(branches=tuple(
            CurvatureBranch.hyperbolic(
                float(k), k * math.tanh(k * radius) if p else k / math.tanh(k * radius), m
            )
            for k, p, m in cfg.branches_at("q1")
        ))
    return cfg.realize(radius)


# --------------------------------------------------------------------------
# Finite search over focal configurations (two eigenvalue families)
# --------------------------------------------------------------------------

#: focal-set spacings searched: Q2 lies pi/(2g) from Q1 (see
#: admissible_focal_configurations for the restriction)
_G_VALUES = (1, 2)
_PHASE_LABELS = ("0", "1/4", "1/2", "3/4")  # phase p / pi for p in range(N)
_COT_AT = (1, 0, -1)  # cot(pi * p / N) for p = 1 .. N - 1, exact on the lattice
#: the two focal sets, in the order and under the keys of the certificate payload
FOCAL_SETS = ("q1", "q2")


def _on_focal_lattice(g: int, kappa: int, phase: int) -> bool:
    """Whether every pole of the branch lands on a focal set.

    The poles of kappa cot(pi p / N - kappa t) sit at (N - p) / kappa plus
    multiples of N / kappa (units of pi/N); the focal sets are spaced
    N / (2g) apart.
    """
    return (2 * g) % kappa == 0 and ((_N - phase) * 2 * g) % (_N * kappa) == 0


def _phase_shift(g: int, kappa: int, q: str) -> int:
    """Advance of a kappa branch's phase from Q1 to focal set q, in units of pi/N."""
    return kappa * (_N // (2 * g)) * FOCAL_SETS.index(q)


class FocalConfiguration(namedtuple("FocalConfiguration", "g m2 m1")):
    """One candidate focal configuration along a closed normal geodesic.

    m2 and m1 are the kappa=2 and kappa=1 multiplicities, indexed by branch
    phase at the first focal set Q1 in units of pi/N; phase 0 marks branches
    normal to Q1 (they focalize there).  The second focal set Q2 sits at
    distance pi/(2g).  The order is that of enumerate_focal_configurations.

    A named tuple: read-only fields, equal to the plain tuple of them.
    Its __dict__ holds the cached _branch_table and takes new attributes.
    """

    def _poles_admissible(self) -> bool:
        return all(_on_focal_lattice(self.g, k, p) for k, p, _ in self.branches_at("q1"))

    def branches_at(self, q: str) -> tuple[tuple[int, int, int], ...]:
        """(kappa, phase at focal set q, mult) of each occupied branch,
        kappa=1 first; the phase at Q2 is the phase at Q1 advanced by
        _phase_shift, mod N.  Read from _branch_table, derived once per
        instance, so every call returns the same tuple."""
        return self._branch_table[q]

    @cached_property
    def _branch_table(self) -> dict[str, tuple[tuple[int, int, int], ...]]:
        at_q1 = [(k, p, m) for k, mults in ((1, self.m1), (2, self.m2))
                 for p, m in enumerate(mults) if m]
        shift = _phase_shift(self.g, 1, "q2")  # a kappa branch advances kappa * shift
        at_q2 = [(k, (p + k * shift) % _N, m) for k, p, m in at_q1]
        return dict(zip(FOCAL_SETS, (tuple(at_q1), tuple(at_q2))))

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
        return (2 * _D - 1 - m2 - m1, m2, m1)

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
    """The branch of the given phase at Q1 (units of pi/N), at distance s from Q1.

    Raises:
        NormalizationError: if the branch focalizes at distance s itself.
    """
    # phase-0 branches must focalize after flowing distance s
    theta = (phase / _N * math.pi + kappa * s) % math.pi
    return CurvatureBranch.compact(float(kappa), theta, mult)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


#: len(enumerate_focal_configurations()): the compositions of d - 1 and of
#: d into the N phases, for each g
_ENUMERATED = len(_G_VALUES) * math.comb(_D - 1 + _N - 1, _N - 1) * math.comb(_D + _N - 1, _N - 1)


def enumerate_focal_configurations() -> list[FocalConfiguration]:
    """All phase assignments for the (d - 1) + d eigenvalue split, unfiltered.

    The brute-force reference for admissible_focal_configurations, which
    never builds this list.
    """
    return [
        FocalConfiguration(g, m2, m1)
        for g in _G_VALUES
        for m2 in _compositions(_D - 1, _N)
        for m1 in _compositions(_D, _N)
    ]


def _catalog_configuration(g: int, q: str, core: str) -> FocalConfiguration:
    """The one configuration of spacing g whose focal set q is totally
    geodesic with the core's catalog signature: there every tangent branch
    sits at phase pi/2 (N/2), the only zero of cot, and the normal ones at
    phase 0; shifting those phases back to Q1 gives the configuration."""
    _, n2, n1 = CATALOG_CORES[core]
    return FocalConfiguration(g, *(
        tuple(at_q.get((p + _phase_shift(g, k, q)) % _N, 0) for p in range(_N))
        for k, at_q in ((2, {0: n2, _N // 2: _D - 1 - n2}), (1, {0: n1, _N // 2: _D - n1}))
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
    """Check a configuration from the poles of its realized tube.

    Realizes the tube at the midpoint between the focal sets and locates
    each branch's poles with CurvatureBranch.poles: a tube is smooth
    exactly between consecutive focal sets, its focal points being the
    poles of the closed forms.  interior_poles counts, with multiplicity,
    the branches that focalize strictly between the focal sets, the
    midpoint included; q1_focal_mult_ok and q2_focal_mult_ok say whether
    the branches focalizing at each focal set match its counts.
    """
    mid = _phase_shift(cfg.g, 1, "q2") / (2 * _N) * math.pi
    # flow toward Q1 is +t, toward Q2 is -t from the midpoint
    focal = dict.fromkeys(FOCAL_SETS, 0)
    interior_poles = 0
    for k, p, m in cfg.branches_at("q1"):
        try:
            b = _realized_branch(k, p, m, mid)
        except NormalizationError:  # a pole at the midpoint
            interior_poles += m
            continue
        poles = b.poles(-mid - POLE_PROXIMITY, mid + POLE_PROXIMITY)
        interior_poles += m * any(abs(r) < mid - POLE_PROXIMITY for r in poles)
        for q, end in zip(FOCAL_SETS, (mid, -mid)):
            focal[q] += m * any(abs(r - end) <= POLE_PROXIMITY for r in poles)
    return {
        "interior_poles": interior_poles,
        **{f"{q}_focal_mult_ok": focal[q] == sum(cfg.normal_mults(q)) for q in FOCAL_SETS},
    }


def theorem2_certificate() -> Certificate:
    """Search all focal configurations; survivors must be the catalog tubes.

    Returns a certificate whose details list the surviving configurations,
    the distinct families they form (a family and its orientation reversal
    both survive) and the pole check of each survivor's realized tube
    (verify_configuration_by_evolution).  A survivor belongs to the family
    whose FAMILIES entry equals its set of matched cores; any other set is
    the family "unmatched:<cores>".  Verdict "equivalent" means the
    survivors form exactly the FAMILIES families and every survivor passes
    its pole check.
    total_enumerated is the size of the candidate space the verdict
    covers, not the number of candidates the search builds.
    """
    survivors = admissible_focal_configurations()
    family_of = {cores: name for name, cores in FAMILIES.items()}
    families = set()
    for cfg in survivors:
        names = frozenset(cfg.matched_cores().values())
        families.add(family_of.get(names, "unmatched:" + ",".join(sorted(names))))
    checks = {
        f"config{i}": verify_configuration_by_evolution(cfg)
        for i, cfg in enumerate(survivors)
    }
    evolution_ok = all(
        c["interior_poles"] == 0 and all(c[f"{q}_focal_mult_ok"] for q in FOCAL_SETS)
        for c in checks.values()
    )
    ok = families == FAMILIES.keys() and evolution_ok
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
DEFAULT_RATIO_TOL = 1e-8  # theorem3_sweep's bound on each angle's ratio defect
EIGENVECTOR_RESIDUAL_TOL = 1e-8  # theorem3_sweep's bound on each HopfPair.residual


def _excluded_error(alpha: float) -> ExcludedAngleError | None:
    """The error for an angle whose cosine is excluded, else None."""
    cos_a = math.cos(alpha)
    if any(abs(cos_a - x) < 1e-9 for x in EXCLUDED_COSINES):
        return ExcludedAngleError(
            f"cos(alpha) = {cos_a!r} is in the excluded set {EXCLUDED_COSINES}"
        )
    return None


def theorem3_sweep(alpha_grid, ratio_tol: float = DEFAULT_RATIO_TOL) -> Certificate:
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
    with witness c = 1 at every lambda2(0).  A row holds alpha, mu1, mu2,
    ratio_defect and min_residual; the certificate reports the smallest
    row, and a positive floor is a "contradiction" verdict.  The a_jj and
    a_zz shape constraints only add conditions, so this one floor bounds
    every constraint mode from below.

    Every grid angle is measured in one batched model evaluation.

    Raises (for the first failing angle in grid order):
        ExcludedAngleError: if a grid angle has cos(alpha) in
            {0, 3/5, 4/5, 1} (within 1e-9), where eigenvalue
            multiplicities jump.
        BoundaryAngleError: if a grid angle lies outside [0, pi/2].
        NormalizationError: when the eigenvector residual exceeds
            EIGENVECTOR_RESIDUAL_TOL or the ratio defect exceeds ratio_tol.
    """
    from . import grassmannian  # numpy, paid only by the theorem-3 callers

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
        if pair.residual > EIGENVECTOR_RESIDUAL_TOL:
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
        details={"alphas": rows},
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
