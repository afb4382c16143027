"""Mean-curvature profile analysis for principal-curvature systems.

The mean-curvature profile of a system is t -> sum_i m_i lambda_i(t).
Two germs are compared by the pole structure of their profiles: every
branch contributes simple poles of residue equal to its multiplicity
(kappa cot(theta - kappa t) ~ m/(r - t) near r = theta/kappa, and the
same normalization holds for coth and 1/(r - t) branches), so matching
the pole lists innermost-first and checking that the leftover smooth
part vanishes on a grid decides equality of profiles.  The branch-level
restatement is multiset equality modulo the cot period; both comparators
are run and cross-checked.

Caveat, documented and tested: 2 cot(2x) = cot(x) + cot(x + pi/2), so a
single frequency-2 branch has the same profile as a split pair of
frequency-1 branches.  Profile equality therefore does not imply branch
multiset equality on that measure-zero locus; the analytic comparator is
authoritative and the multiset comparator is reported alongside it.

Systems are tube_flow.PCSystem values; their labels name them in the
witnesses.  Branch values come from tube_flow.branch_value, the one
closed-form evaluator.  The profile is the meromorphic function, so it is
evaluated past the first pole, where the flow of tube_flow.evolve ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .certificates import Certificate
from .errors import (
    FocalPointError,
    InconsistentPowerSumsError,
    NormalizationError,
    UnsupportedRegimeError,
)
from .tube_flow import CurvatureBranch, PCSystem, branch_value, linspace

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MERGE_TOL = 1e-9
DEFAULT_GRID_TOL = 1e-9
GRID_POINTS = 256


def profile(sys: PCSystem, t: float) -> float:
    """Multiplicity-weighted sum of all branch values at parameter t."""
    total = 0.0
    for b in sys.branches:
        try:
            total += b.multiplicity * branch_value(b, t)
        except FocalPointError as exc:
            raise FocalPointError(
                f"profile of {sys.label!r} hits a pole at t={t!r}",
                focal_radius=exc.focal_radius,
            ) from exc
    return total


@dataclass(frozen=True)
class Pole:
    location: float
    weight: int
    kappa: float


@dataclass(frozen=True)
class PoleData:
    poles: tuple[Pole, ...] = field(default_factory=tuple)

    def __post_init__(self):
        locs = [p.location for p in self.poles]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise NormalizationError("pole locations must be strictly increasing")
        if any(p.weight < 1 for p in self.poles):
            raise NormalizationError("pole weights must be positive integers")

    @property
    def locations(self) -> tuple[float, ...]:
        return tuple(p.location for p in self.poles)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(p.weight for p in self.poles)


#: Most poles one compact branch may place in a window.  default_window
#: scans five periods of the slowest branch, so a branch places about
#: 5 kappa / kappa_min poles there: 20 at a frequency ratio of 4, but 5e9
#: for kappa 1e-9 beside kappa 1, whose walk would never end.
_MAX_BRANCH_POLES = 10_000


def _branch_poles_in(branch: CurvatureBranch, lo: float, hi: float):
    """Pole locations of one branch inside (lo, hi).

    Raises:
        NormalizationError: if a compact branch has more than
            _MAX_BRANCH_POLES poles in the window.
    """
    if branch.space_sign == 1:
        count = (hi - lo) * branch.kappa / math.pi
        if not count <= _MAX_BRANCH_POLES:
            raise NormalizationError(
                f"window ({lo!r}, {hi!r}) holds {count:.3g} poles of the branch "
                f"with kappa={branch.kappa!r}, more than {_MAX_BRANCH_POLES}; "
                "narrow the window or bring the frequencies closer"
            )
        r0 = branch.phase / branch.kappa
        step = math.pi / branch.kappa
        j = math.ceil((lo - r0) / step)
        r = r0 + j * step
        # bounded by the count, since r += step stalls once step < ulp(r)
        for _ in range(math.ceil(count) + 2):
            if r >= hi:
                break
            if r > lo:
                yield r
            r += step
        return
    # a non-compact branch has at most one pole, a finite end of its
    # regularity interval
    for r in branch.regularity_interval():
        if lo < r < hi:
            yield r


def extract_poles(
    sys: PCSystem,
    window: tuple[float, float],
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> PoleData:
    """All profile poles inside the window, weights merged when coincident.

    Weight of a pole is the sum of multiplicities of the branches whose
    flow blows up there; the kappa recorded for a merged pole is the
    smallest contributing frequency.
    """
    lo, hi = window
    if not lo < hi:
        raise NormalizationError(f"window must be a nonempty interval: {window!r}")
    raw = []
    for b in sys.branches:
        for r in _branch_poles_in(b, lo, hi):
            raw.append((r, b.multiplicity, b.kappa))
    raw.sort()
    merged: list[list] = []
    for r, m, k in raw:
        if merged and r - merged[-1][0] <= merge_tol:
            merged[-1][1] += m
            merged[-1][2] = min(merged[-1][2], k)
        else:
            merged.append([r, m, k])
    return PoleData(poles=tuple(Pole(r, m, k) for r, m, k in merged))


def _kappa_min(*systems: PCSystem) -> float:
    kappas = [b.kappa for s in systems for b in s.branches if b.kappa > 0]
    return min(kappas) if kappas else 1.0


def default_window(*systems: PCSystem) -> tuple[float, float]:
    """One cot period of the slowest branch, shifted clear of endpoint poles."""
    span = math.pi / _kappa_min(*systems)
    all_poles = [
        r
        for s in systems
        for b in s.branches
        for r in _branch_poles_in(b, -2 * span, 3 * span)
    ]
    for k in range(997):
        lo = span * k / 997.0
        hi = lo + span
        if all(abs(r - lo) > 1e-6 and abs(r - hi) > 1e-6 for r in all_poles):
            return (lo, hi)
    raise NormalizationError("could not place a pole-free window boundary")


def _refuse_tanh(*systems: PCSystem) -> None:
    for s in systems:
        for b in s.branches:
            if b.space_sign == -1 and b.regime == "tanh":
                raise UnsupportedRegimeError(
                    "profile comparison requires |lambda(0)| >= kappa on "
                    f"every branch; system {s.label!r} has a sub-frequency "
                    "branch"
                )


def _same_phase(space_sign: int, a: float, b: float, tol: float) -> bool:
    """Phases equal within tol; compact phases also modulo the cot period pi."""
    return abs(a - b) <= tol or (space_sign == 1 and abs(abs(a - b) - math.pi) <= tol)


def canonical_branch_multiset(
    sys: PCSystem, tol: float = DEFAULT_MERGE_TOL
) -> tuple[tuple[int, float, float, int], ...]:
    """Branches as (space_sign, kappa, canonical phase, merged multiplicity).

    Compact phases are reduced modulo the cot period; branches equal up
    to tol in (kappa, phase) are merged.  This is the branch-level form
    of profile equality (away from the frequency-doubling locus).
    """
    keys = []
    for b in sys.branches:
        phase = b.phase % math.pi if b.space_sign == 1 else b.phase
        keys.append([b.space_sign, b.kappa, phase, b.multiplicity])
    keys.sort()
    merged: list[list] = []
    for s, k, p, m in keys:
        if merged:
            s0, k0, p0, m0 = merged[-1]
            if s == s0 and abs(k - k0) <= tol and _same_phase(s, p, p0, tol):
                merged[-1][3] += m
                continue
        merged.append([s, k, p, m])
    return tuple((int(s), k, p, m) for s, k, p, m in merged)


def multisets_match(
    p: PCSystem, q: PCSystem, tol: float = DEFAULT_MERGE_TOL
) -> bool:
    a = canonical_branch_multiset(p, tol)
    b = canonical_branch_multiset(q, tol)
    if len(a) != len(b):
        return False
    for (sa, ka, pa, ma), (sb, kb, pb, mb) in zip(a, b):
        if sa != sb or ma != mb or abs(ka - kb) > tol:
            return False
        if not _same_phase(sa, pa, pb, tol):
            return False
    return True


def _masked_grid_residual(
    p: PCSystem,
    q: PCSystem,
    window: tuple[float, float],
    pole_locations,
    points: int = GRID_POINTS,
) -> tuple[float, float]:
    """(max |profile_p - profile_q|, argmax t) over grid points clear of poles."""
    lo, hi = window
    grid = linspace(lo, hi, points + 2)[1:-1]
    mask_radius = max(1e-2, 2.0 * (hi - lo) / points)
    worst = -1.0
    worst_t = lo
    for t in grid:
        if any(abs(t - r) < mask_radius for r in pole_locations):
            continue
        d = abs(profile(p, t) - profile(q, t))
        if d > worst:
            worst, worst_t = d, t
    if worst < 0.0:
        raise NormalizationError("grid entirely masked; window too crowded")
    return worst, worst_t


def profiles_equivalent(
    p: PCSystem,
    q: PCSystem,
    window: tuple[float, float] | None = None,
    grid_tol: float = DEFAULT_GRID_TOL,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> Certificate:
    """Decide equality of two mean-curvature profiles on a window.

    Strips poles innermost-first: the nearest pole of either profile must
    be matched by the other in both location (within merge_tol) and
    residue weight; once all poles are consumed the leftover smooth part
    must vanish on a masked grid within grid_tol.  The branch-multiset
    comparator runs alongside and its verdict is reported in the details.

    Raises:
        UnsupportedRegimeError: if either system carries a noncompact
            branch with |lambda(0)| < kappa.
    """
    _refuse_tanh(p, q)
    if window is None:
        window = default_window(p, q)
    poles_p = list(extract_poles(p, window, merge_tol).poles)
    poles_q = list(extract_poles(q, window, merge_tol).poles)
    matched_locations = []
    witness = None
    residual = 0.0
    # innermost-first stripping: peel the nearest remaining pole each round
    while poles_p and poles_q:
        a, b = poles_p[0], poles_q[0]
        if abs(a.location - b.location) > merge_tol:
            inner = a if a.location < b.location else b
            witness = {
                "kind": "pole_location",
                "location": inner.location,
                "side": p.label if inner is a else q.label,
            }
            residual = abs(a.location - b.location)
            break
        if a.weight != b.weight:
            witness = {
                "kind": "pole_weight",
                "location": a.location,
                "weights": [a.weight, b.weight],
            }
            residual = float(abs(a.weight - b.weight))
            break
        matched_locations.append(a.location)
        poles_p.pop(0)
        poles_q.pop(0)
    if witness is None and (poles_p or poles_q):
        leftover = (poles_p or poles_q)[0]
        witness = {
            "kind": "pole_unmatched",
            "location": leftover.location,
            "side": p.label if poles_p else q.label,
        }
        residual = 1.0
    details = {
        "window": list(window),
        "matched_poles": matched_locations,
        "multiset_match": multisets_match(p, q, merge_tol),
    }
    if witness is None:
        residual, worst_t = _masked_grid_residual(p, q, window, matched_locations)
        if residual <= grid_tol:
            details["comparators_agree"] = details["multiset_match"]
            return Certificate(verdict="equivalent", residual=residual, details=details)
        witness = {"kind": "smooth_part", "t": worst_t, "difference": residual}
    return Certificate(verdict="distinct", residual=residual, witness=witness, details=details)


def isoparametric_verdict(
    family, kappa_constant: bool = True, grid_tol: float = DEFAULT_GRID_TOL
) -> Certificate:
    """Certify that a family of germs shares one mean-curvature profile.

    Every member is compared to the first by profiles_equivalent; with
    kappa_constant the frequency multisets must also agree exactly, which
    is the second half of the constancy characterization (principal
    curvatures constant and Jacobi eigenvalues constant).
    """
    family = list(family)
    if not family:
        raise NormalizationError("family must be nonempty")
    base = family[0]
    base_kappas = sorted(
        (b.kappa, b.multiplicity) for b in base.branches
    )
    worst = 0.0
    for member in family[1:]:
        if kappa_constant:
            member_kappas = sorted(
                (b.kappa, b.multiplicity) for b in member.branches
            )
            if member_kappas != base_kappas:
                return Certificate(
                    verdict="distinct",
                    residual=1.0,
                    witness={
                        "kind": "kappa_multiset",
                        "labels": [base.label, member.label],
                    },
                )
        cert = profiles_equivalent(base, member, grid_tol=grid_tol)
        if cert.verdict != "equivalent":
            return Certificate(
                verdict="distinct",
                residual=cert.residual,
                witness={"labels": [base.label, member.label], **(cert.witness or {})},
                details=cert.details,
            )
        worst = max(worst, cert.residual)
    return Certificate(verdict="equivalent", residual=worst,
                       details={"family_size": len(family)})


# --------------------------------------------------------------------------
# Newton's identities and the power-sum cascade
# --------------------------------------------------------------------------


def newton_recover(power_sums, n: int | None = None, tol: float = 1e-8):
    """Recover the real multiset behind the power sums p_1..p_n.

    Newton's identities produce the elementary symmetric functions, whose
    monic polynomial is rooted numerically.  The recovered multiset must
    reproduce the input power sums within tol.

    Raises:
        InconsistentPowerSumsError: complex roots beyond tol, or a failed
            round-trip.
    """
    p = [float(x) for x in power_sums]
    if n is None:
        n = len(p)
    if n != len(p):
        raise NormalizationError(f"need exactly n={n} power sums, got {len(p)}")
    if n == 0:
        return []
    e = [1.0] + [0.0] * n
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e[k] = acc / k
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]
    import numpy as np  # for np.roots alone, so the other kernels here stay numpy-free

    roots = np.roots(coeffs)
    worst_imag = float(np.max(np.abs(roots.imag))) if len(roots) else 0.0
    if worst_imag > tol:
        raise InconsistentPowerSumsError(
            f"power sums are not those of a real multiset: max imaginary "
            f"part {worst_imag!r}"
        )
    values = sorted(float(x) for x in roots.real)
    scale = max(1.0, max(abs(x) for x in p))
    for k in range(1, n + 1):
        got = sum(v**k for v in values)
        if abs(got - p[k - 1]) > tol * scale * 10 ** (k - 1):
            raise InconsistentPowerSumsError(
                f"round-trip failed at p_{k}: {got!r} vs {p[k - 1]!r}"
            )
    return values


def power_sums(sys: PCSystem, t: float, k_max: int) -> list[float]:
    """p_k(t) = sum_i m_i lambda_i(t)^k for k = 1..k_max.

    Raises:
        NormalizationError: if a power lambda_i(t)^k overflows a float.
    """
    values = [(branch_value(b, t), b.multiplicity) for b in sys.branches]
    top = max(abs(v) for v, _ in values)
    try:
        top**k_max  # the largest power taken below
    except OverflowError:
        raise NormalizationError(
            f"power {k_max} of the branch value {top!r} at t={t!r} overflows "
            "a float; lower k_max"
        ) from None
    return [sum(m * v**k for v, m in values) for k in range(1, k_max + 1)]


def power_sum_cascade(
    sys: PCSystem, k_max: int, t: float, fd_step: float = 1e-4
) -> list[float]:
    """Relative residuals of the differentiated power-sum identities at t.

    The flow equation lambda' = lambda^2 + s kappa^2 turns each power-sum
    derivative into p_k' = k (p_{k+1} + sum_i m_i s_i kappa_i^2
    lambda_i^{k-1}); each residual compares that closed form against a
    Richardson-extrapolated central difference, divided by
    max(1, k sum_i m_i (|lambda_i|^{k+1} + kappa_i^2 |lambda_i|^{k-1})),
    the size of the terms compared, so that it does not grow with the
    multiplicities or the branch values.  High powers amplify
    truncation error steeply, so the step is kept moderate and one
    extrapolation level removes the h^2 term; callers should evaluate at
    points where the branch values are O(1) (see well_conditioned_time).
    """
    if k_max < 1:
        raise NormalizationError("k_max must be >= 1")

    def derivative(offset: float):
        ahead = power_sums(sys, t + offset, k_max)
        behind = power_sums(sys, t - offset, k_max)
        return [(a - b) / (2 * offset) for a, b in zip(ahead, behind)]

    coarse = derivative(fd_step)
    fine = derivative(fd_step / 2)
    fd = [(4 * f - c) / 3 for f, c in zip(fine, coarse)]
    here = power_sums(sys, t, k_max + 1)
    values = [(branch_value(b, t), b.multiplicity, b.space_sign * b.kappa**2)
              for b in sys.branches]
    residuals = []
    for k in range(1, k_max + 1):
        curvature_term = sum(m * s_kappa_sq * v ** (k - 1)
                             for v, m, s_kappa_sq in values)
        closed = k * (here[k] + curvature_term)
        size = k * sum(m * (abs(v) ** (k + 1) + abs(s_kappa_sq) * abs(v) ** (k - 1))
                       for v, m, s_kappa_sq in values)
        residuals.append(abs(fd[k - 1] - closed) / max(1.0, size))
    return residuals


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


# --------------------------------------------------------------------------
# Randomized systems and the phase-drift witness
# --------------------------------------------------------------------------


def random_profile_system(
    rng: np.random.Generator,
    label: str = "p",
    max_branches: int = 6,
    kappas=(1.0, 2.0),
) -> PCSystem:
    """Seeded random compact system: frequencies from kappas, phases clear
    of the pole lattice, multiplicities small."""
    count = int(rng.integers(1, max_branches + 1))
    branches = []
    for _ in range(count):
        kappa = float(rng.choice(kappas))
        theta = float(rng.uniform(0.08, math.pi - 0.08))
        mult = int(rng.integers(1, 5))
        branches.append(CurvatureBranch.compact(kappa, theta, mult))
    return PCSystem(branches=tuple(branches), label=label)


def random_profile_pair(
    rng: np.random.Generator,
) -> tuple[PCSystem, PCSystem, bool]:
    """A labeled pair (p, q, expected_equal) for comparator cross-checks.

    Equal pairs are built by branch permutation and phase translation by
    the cot period; unequal pairs perturb one phase by at least 1e-2 or
    are drawn independently.
    """
    p = random_profile_system(rng, label="p")
    style = int(rng.integers(0, 4))
    if style == 0:
        # permuted copy
        order = rng.permutation(len(p.branches))
        branches = tuple(p.branches[i] for i in order)
        return p, PCSystem(branches, label="q"), True
    if style == 1:
        # permuted copy with phases translated by the cot period
        branches = []
        for b in p.branches:
            shift = math.pi if rng.random() < 0.5 else 0.0
            branches.append(
                CurvatureBranch.compact(b.kappa, b.phase + shift, b.multiplicity)
            )
        order = rng.permutation(len(branches))
        branches = tuple(branches[i] for i in order)
        return p, PCSystem(branches, label="q"), True
    if style == 2:
        # one phase nudged by >= 1e-2: profile must differ
        idx = int(rng.integers(0, len(p.branches)))
        branches = list(p.branches)
        b = branches[idx]
        delta = float(rng.uniform(1e-2, 5e-2)) * (1 if rng.random() < 0.5 else -1)
        new_phase = min(max(b.phase + delta, 0.04), math.pi - 0.04)
        branches[idx] = CurvatureBranch.compact(b.kappa, new_phase, b.multiplicity)
        return p, PCSystem(tuple(branches), label="q"), False
    return p, random_profile_system(rng, label="q"), False


def doubling_identity_pair() -> tuple[PCSystem, PCSystem]:
    """The frequency-doubling pair with equal profiles but different
    branch multisets: 2 cot(2x) = cot(x) + cot(x + pi/2)."""
    theta = 0.7
    single = PCSystem((CurvatureBranch.compact(2.0, 2 * theta, 3),), label="p")
    split = PCSystem(
        (
            CurvatureBranch.compact(1.0, theta, 3),
            CurvatureBranch.compact(1.0, theta + math.pi / 2, 3),
        ),
        label="q",
    )
    return single, split


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
