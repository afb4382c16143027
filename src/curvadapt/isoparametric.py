"""Mean-curvature profile analysis for principal-curvature systems.

The mean-curvature profile of a system is t -> sum_i m_i lambda_i(t).
Two germs are compared by the pole structure of their profiles: every
branch contributes simple poles of residue equal to its multiplicity
(kappa cot(theta - kappa t) ~ m/(r - t) near r = theta/kappa, and the
same normalization holds for coth and 1/(r - t) branches), so matching
the pole lists innermost-first and checking that the leftover smooth
part vanishes on a grid decides equality of profiles.  The branch-level
restatement is multiset equality modulo the cot period.  Only the
profile comparator decides the verdict: the multiset comparator's answer
is reported beside it (multiset_match, and comparators_agree on an
equivalent verdict) and gates nothing.  Every regime takes this one
path: tanh and const branches add no real pole, so they are decided on
the grid alone.

Caveat, documented and tested: 2 cot(2x) = cot(x) + cot(x + pi/2) and
2 coth(2x) = coth(x) + tanh(x), so a single frequency-2 branch has the
same profile as a split pair of frequency-1 branches, compact or
hyperbolic.  Profile equality therefore does not imply branch multiset
equality on that measure-zero locus; the analytic comparator is
authoritative and the multiset comparator is reported alongside it.

Systems are tube_flow.PCSystem values; their labels name them in the
witnesses.  Branch values come from tube_flow.branch_values, the one
closed-form evaluator, and pole locations from CurvatureBranch.poles;
this module only merges and matches them.  A profile's poles are two
parallel lists, (locations, weights).  The smooth-part grid masks every
branch pole of both systems, whatever the merge tolerance, and passes
its kept points to profile, the one profile evaluator, which reads
branch_values a column per branch and sums the columns in branch order.
The profile is the meromorphic function, so it is evaluated past the
first pole, where the flow of tube_flow.evolve ends.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce
from operator import add

from .certificates import Certificate
from .errors import InconsistentPowerSumsError, NormalizationError
from .tube_flow import CurvatureBranch, PCSystem, branch_value, branch_values, linspace

DEFAULT_MERGE_TOL = 1e-9
DEFAULT_GRID_TOL = 1e-9
GRID_POINTS = 256


def profile(sys: PCSystem, ts: list[float]) -> list[float]:
    """The mean-curvature profile at each t of ts: the multiplicity-weighted
    branch columns summed in branch order, starting from 0.0.

    Raises:
        FocalPointError: from branch_values, at the first t of ts within
            POLE_PROXIMITY of a pole of a branch, in branch order.
    """
    total = [0.0] * len(ts)
    for b in sys.branches:
        m = b.multiplicity
        total = [s + m * v for s, v in zip(total, branch_values(b, ts))]
    return total


def extract_poles(
    sys: PCSystem,
    window: tuple[float, float],
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> tuple[list[float], list[int]]:
    """All profile poles inside the window, as (locations, weights).

    Branch poles are taken in increasing location, and each joins the
    last cluster when it lies within merge_tol of that cluster's first
    pole, else starts a cluster there.  A location is a cluster's first
    pole, and its weight is the sum of the multiplicities of the branches
    whose flow blows up in the cluster.
    """
    lo, hi = window
    if not lo < hi:
        raise NormalizationError(f"window must be a nonempty interval: {window!r}")
    locations: list[float] = []
    weights: list[int] = []
    for r, m in sorted((r, b.multiplicity) for b in sys.branches for r in b.poles(lo, hi)):
        if locations and r - locations[-1] <= merge_tol:
            weights[-1] += m
        else:
            locations.append(r)
            weights.append(m)
    return locations, weights


def _kappa_min(*systems: PCSystem) -> float:
    kappas = [b.kappa for s in systems for b in s.branches if b.kappa > 0]
    return min(kappas) if kappas else 1.0


def default_window(*systems: PCSystem) -> tuple[float, float]:
    """One cot period of the slowest branch, shifted clear of endpoint poles.

    The window's ends are scanned over [0, 2 span], span = pi/kappa_min,
    so only the poles within the 1e-6 clearance of that range are listed.

    Raises:
        NormalizationError: if a compact branch has more than
            MAX_BRANCH_POLES poles in the scanned range (CurvatureBranch.poles),
            if the period overflows a float, or if no scanned window has
            both ends 1e-6 clear of every pole.
    """
    kappa = _kappa_min(*systems)
    span = math.pi / kappa
    all_poles = [
        r
        for s in systems
        for b in s.branches
        for r in b.poles(-2e-6, 2 * span + 2e-6)
    ]
    if span == math.inf:  # after the listing, which names a compact branch's pole count
        raise NormalizationError(
            f"the period pi/kappa of the slowest branch, kappa={kappa!r}, overflows "
            "a float, so there is no default window; pass --window A,B"
        )
    for k in range(997):
        lo = span * k / 997.0
        hi = lo + span
        if all(abs(r - lo) > 1e-6 and abs(r - hi) > 1e-6 for r in all_poles):
            return (lo, hi)
    raise NormalizationError("could not place a pole-free window boundary")


def _same_phase(space_sign: int, a: float, b: float, tol: float) -> bool:
    """Phases equal within tol; compact phases also modulo the cot period pi."""
    return abs(a - b) <= tol or (space_sign == 1 and abs(abs(a - b) - math.pi) <= tol)


def canonical_branch_multiset(
    sys: PCSystem, tol: float = DEFAULT_MERGE_TOL
) -> tuple[tuple[int, float, float, int], ...]:
    """Branches as (space_sign, kappa, canonical phase, merged multiplicity).

    Compact phases already lie in (0, pi), one cot period, and match
    across its ends; branches equal up to tol in (kappa, phase) are merged.
    This is the branch-level form of profile equality (away from the
    frequency-doubling locus).
    """
    merged: list[list] = []
    for s, k, p, m in sorted([b.space_sign, b.kappa, b.phase, b.multiplicity]
                             for b in sys.branches):
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


def _near_pole(t: float, locations: list[float], radius: float) -> bool:
    """Whether t lies within radius of a location, the locations increasing:
    only the two neighbours of t's insertion point can be nearest."""
    i = bisect.bisect_left(locations, t)
    return (i > 0 and t - locations[i - 1] < radius) or (
        i < len(locations) and locations[i] - t < radius)


def _masked_grid_residual(
    p: PCSystem,
    q: PCSystem,
    window: tuple[float, float],
    pole_locations: list[float],
) -> tuple[float, float]:
    """(max |profile_p - profile_q|, argmax t) over grid points clear of
    the poles, whose locations come increasing.  A kept point lies the mask
    radius (>= 1e-2) from each pole inside the window, so FocalPointError
    comes only from a pole on or past an end of a window narrower than about
    257 * POLE_PROXIMITY, or from a t (about 1e13 on) that rounds past one.
    NormalizationError comes when no point is kept, or at the first kept
    point where the difference is inf - inf (NaN); an inf difference, where
    one profile overflows, is returned."""
    lo, hi = window
    grid = linspace(lo, hi, GRID_POINTS + 2)[1:-1]
    mask_radius = max(1e-2, 2.0 * (hi - lo) / GRID_POINTS)
    kept = [t for t in grid if not _near_pole(t, pole_locations, mask_radius)]
    if not kept:
        raise NormalizationError("grid entirely masked; window too crowded")
    diffs = [abs(a - b) for a, b in zip(profile(p, kept), profile(q, kept))]
    for t, d in zip(kept, diffs):
        if math.isnan(d):
            raise NormalizationError(f"both profiles overflow a float at t={t!r}")
    worst = max(diffs)  # the first maximum
    return worst, kept[diffs.index(worst)]


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
    """
    if window is None:
        window = default_window(p, q)
    locs_p, weights_p = extract_poles(p, window, merge_tol)
    locs_q, weights_q = extract_poles(q, window, merge_tol)
    # innermost-first stripping: the poles before the first mismatch i are
    # matched on both sides, and the witness is read at i
    n = min(len(locs_p), len(locs_q))
    i = next((j for j in range(n)
              if abs(locs_p[j] - locs_q[j]) > merge_tol or weights_p[j] != weights_q[j]), n)
    witness = None
    if i < n and abs(locs_p[i] - locs_q[i]) > merge_tol:
        side = p if locs_p[i] < locs_q[i] else q
        witness = {"kind": "pole_location", "location": min(locs_p[i], locs_q[i]),
                   "side": side.label}
        residual = abs(locs_p[i] - locs_q[i])
    elif i < n:
        witness = {"kind": "pole_weight", "location": locs_p[i],
                   "weights": [weights_p[i], weights_q[i]]}
        residual = float(abs(weights_p[i] - weights_q[i]))
    elif i < len(locs_p) or i < len(locs_q):
        side, leftover = (p, locs_p) if i < len(locs_p) else (q, locs_q)
        witness = {"kind": "pole_unmatched", "location": leftover[i], "side": side.label}
        residual = 1.0
    details = {
        "window": list(window),
        "matched_poles": locs_p[:i],
        "multiset_match": multisets_match(p, q, merge_tol),
    }
    if witness is None:
        # every branch pole, so no pole that merge_tol merged away sits on the grid
        mask = sorted(r for s in (p, q) for b in s.branches for r in b.poles(*window))
        residual, worst_t = _masked_grid_residual(p, q, window, mask)
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
# Sums add left to right from 0.0, as sum added floats before Python 3.12
# began to compensate their rounding, so the residuals print the same bytes.


def newton_recover(power_sums, tol: float = 1e-8):
    """Recover the real multiset behind the power sums p_1..p_n.

    Newton's identities produce the elementary symmetric functions, whose
    monic polynomial is rooted numerically.  The recovered multiset must
    reproduce the input power sums within tol.

    Raises:
        InconsistentPowerSumsError: complex roots beyond tol, or a failed
            round-trip.
    """
    p = [float(x) for x in power_sums]
    n = len(p)
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
        got = reduce(add, (v**k for v in values), 0.0)
        if abs(got - p[k - 1]) > tol * scale * 10 ** (k - 1):
            raise InconsistentPowerSumsError(
                f"round-trip failed at p_{k}: {got!r} vs {p[k - 1]!r}"
            )
    return values


def power_sums(sys: PCSystem, t: float | complex, k_max: int) -> list[float | complex]:
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
    # running products: complex ** k is polar above k = 100, where the angle
    # pi - h/|lambda| of a negative lambda + ih rounds to pi and drops the h
    sums, terms = [], [m for _, m in values]
    for _ in range(k_max):
        terms = [w * v for w, (v, _) in zip(terms, values)]
        sums.append(reduce(add, terms, 0.0))
    return sums


#: imaginary step of power_sum_cascade: nothing cancels, so h can be tiny
_COMPLEX_STEP = 1e-30


def power_sum_cascade(sys: PCSystem, k_max: int, t: float) -> list[float]:
    """Relative residuals of the differentiated power-sum identities at t.

    The flow equation lambda' = lambda^2 + s kappa^2 turns each power-sum
    derivative into p_k' = k (p_{k+1} + sum_i m_i s_i kappa_i^2
    lambda_i^{k-1}); each residual compares that closed form against the
    complex-step derivative Im p_k(t + ih) / h of the branches' closed
    forms (Lyness & Moler 1967), divided by
    max(1, k sum_i m_i (|lambda_i|^{k+1} + kappa_i^2 |lambda_i|^{k-1})),
    the size of the terms compared, so that it does not grow with the
    multiplicities or the branch values.  The derivative side never reads
    the flow equation, so the two sides are independent derivations.
    """
    if k_max < 1:
        raise NormalizationError("k_max must be >= 1")
    here = power_sums(sys, t, k_max + 1)
    derivative = [p.imag / _COMPLEX_STEP
                  for p in power_sums(sys, complex(t, _COMPLEX_STEP), k_max)]
    values = [(branch_value(b, t), b.multiplicity, b.space_sign * b.kappa**2)
              for b in sys.branches]
    residuals = []
    for k in range(1, k_max + 1):
        curvature_term = reduce(add, (m * s_kappa_sq * v ** (k - 1)
                                      for v, m, s_kappa_sq in values), 0.0)
        closed = k * (here[k] + curvature_term)
        size = k * reduce(add, (m * (abs(v) ** (k + 1) + abs(s_kappa_sq) * abs(v) ** (k - 1))
                                for v, m, s_kappa_sq in values), 0.0)
        residuals.append(abs(derivative[k - 1] - closed) / max(1.0, size))
    return residuals


# --------------------------------------------------------------------------
# Randomized systems and the frequency-doubling pair
# --------------------------------------------------------------------------


def random_profile_system(rng, label: str = "p") -> PCSystem:
    """Seeded random compact system drawn from rng, a numpy Generator: one
    to six branches of frequency 1 or 2, phases clear of the pole lattice,
    multiplicities small."""
    count = int(rng.integers(1, 7))
    branches = []
    for _ in range(count):
        kappa = float(rng.choice((1.0, 2.0)))
        theta = float(rng.uniform(0.08, math.pi - 0.08))
        mult = int(rng.integers(1, 5))
        branches.append(CurvatureBranch.compact(kappa, theta, mult))
    return PCSystem(branches=tuple(branches), label=label)


def random_profile_pair(rng) -> tuple[PCSystem, PCSystem, bool]:
    """A labeled pair (p, q, expected_equal) for comparator cross-checks,
    drawn from rng, a numpy Generator.

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
