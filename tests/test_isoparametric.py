import math

import numpy as np
import pytest

from curvadapt import isoparametric as iso
from curvadapt.errors import (
    FocalPointError,
    InconsistentPowerSumsError,
    NormalizationError,
)
from curvadapt.tube_flow import (
    CurvatureBranch,
    PCSystem,
    branch_value,
    branch_values,
    evolve,
    linspace,
    tube_spectrum,
)
from helpers import (
    NotCompactError,
    branch_from_value,
    branch_sign_divergence,
    reduced_phase,
    sample_branches,
)


def system_of(*branches, label="p"):
    return PCSystem(tuple(branches), label=label)


class TestProfileEvaluation:
    def test_profile_is_weighted_sum(self):
        sys = system_of(
            CurvatureBranch.compact(1.0, math.pi / 2, 8),
            CurvatureBranch.compact(2.0, math.pi / 2, 7),
        )
        t = 0.2
        expected = 8.0 / math.tan(math.pi / 2 - t) + 14.0 / math.tan(math.pi / 2 - 2 * t)
        assert abs(iso.profile(sys, t) - expected) <= 1e-12

    def test_profile_at_symmetric_point_vanishes(self):
        sys = system_of(CurvatureBranch.compact(1.0, math.pi / 2, 8))
        assert abs(iso.profile(sys, 0.0)) <= 1e-15

    def test_profile_continues_past_first_pole(self):
        # evolve() implements flow semantics and refuses to cross a pole;
        # the profile is meromorphic, so evaluation beyond it must work
        b = CurvatureBranch.compact(1.0, math.pi / 2)
        sys = system_of(b)
        with pytest.raises(FocalPointError):
            evolve(b, 2.0)
        assert abs(iso.profile(sys, 2.0) - math.tan(2.0)) <= 1e-12

    def test_profile_raises_exactly_at_pole(self):
        sys = system_of(CurvatureBranch.compact(1.0, math.pi / 2, 3))
        with pytest.raises(FocalPointError):
            iso.profile(sys, math.pi / 2)

    def test_branch_value_matches_evolve_inside_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            kappa = float(rng.choice([1.0, 2.0]))
            b = CurvatureBranch.compact(kappa, theta)
            lo, hi = b.regularity_interval()
            t = float(rng.uniform(lo + 0.05, hi - 0.05))
            assert abs(branch_value(b, t) - evolve(b, t)) <= 1e-12


class TestPoleExtraction:
    def test_single_branch_pole_lattice(self):
        sys = system_of(CurvatureBranch.compact(2.0, math.pi / 2, 7))
        locations, weights = iso.extract_poles(sys, (0.0, math.pi))
        assert np.allclose(locations, [math.pi / 4, 3 * math.pi / 4], atol=1e-12)
        assert weights == [7, 7]

    def test_union_of_two_branches(self):
        sys = system_of(
            CurvatureBranch.compact(1.0, math.pi / 2, 8),
            CurvatureBranch.compact(2.0, math.pi / 2, 7),
        )
        locations, weights = iso.extract_poles(sys, (0.0, math.pi))
        assert np.allclose(locations, [math.pi / 4, math.pi / 2, 3 * math.pi / 4],
                           atol=1e-12)
        assert weights == [7, 8, 7]

    def test_coincident_poles_merge_weights(self):
        # kappa=1 at theta=0.6 and kappa=2 at theta=1.2 blow up together
        sys = system_of(
            CurvatureBranch.compact(1.0, 0.6, 2),
            CurvatureBranch.compact(2.0, 1.2, 5),
        )
        locations, weights = iso.extract_poles(sys, (0.0, 1.0))
        assert len(locations) == 1
        assert abs(locations[0] - 0.6) <= 1e-12
        assert weights == [7]

    def test_poles_merge_into_the_first_pole_of_a_cluster(self):
        # a chain 0.9 apart: the second pole lies within merge_tol of the
        # first and joins it, the third lies 1.8 from the first and does not
        sys = system_of(*(CurvatureBranch.compact(1.0, theta) for theta in (0.5, 1.4, 2.3)))
        assert iso.extract_poles(sys, (0.0, 2.57), merge_tol=1.0) == ([0.5, 2.3], [2, 1])

    def test_hyperbolic_poles(self):
        coth = system_of(CurvatureBranch.hyperbolic(1.0, 2.0, 4))
        locations, weights = iso.extract_poles(coth, (0.0, 2.0))
        assert len(locations) == 1
        assert abs(locations[0] - math.atanh(0.5)) <= 1e-12
        const = system_of(CurvatureBranch.hyperbolic(1.0, 1.0, 4))
        assert iso.extract_poles(const, (0.0, 50.0)) == ([], [])

    def test_empty_window_rejected(self):
        sys = system_of(CurvatureBranch.compact(1.0, 1.0))
        with pytest.raises(NormalizationError):
            iso.extract_poles(sys, (1.0, 1.0))


class TestDefaultWindow:
    def test_window_span_is_slowest_period(self):
        sys = system_of(
            CurvatureBranch.compact(1.0, 0.8, 2),
            CurvatureBranch.compact(2.0, 0.5, 1),
        )
        lo, hi = iso.default_window(sys)
        assert abs((hi - lo) - math.pi) <= 1e-12

    def test_window_endpoints_clear_of_poles(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            sys = iso.random_profile_system(rng)
            lo, hi = iso.default_window(sys)
            for b in sys.branches:
                for r in b.poles(lo - 1.0, hi + 1.0):
                    assert abs(r - lo) > 1e-6
                    assert abs(r - hi) > 1e-6


class TestProfileEquivalence:
    def test_identical_systems(self):
        rng = np.random.default_rng(43)
        sys = iso.random_profile_system(rng)
        cert = iso.profiles_equivalent(sys, sys)
        assert cert.verdict == "equivalent"
        assert cert.residual <= 1e-9
        assert cert.details["multiset_match"] is True
        assert cert.details["comparators_agree"] is True

    def test_permuted_and_translated_copy(self):
        p = system_of(
            CurvatureBranch.compact(1.0, 0.9, 2),
            CurvatureBranch.compact(2.0, 1.7, 3),
        )
        q = system_of(
            CurvatureBranch.compact(2.0, 1.7 + math.pi, 3),
            CurvatureBranch.compact(1.0, 0.9, 2),
            label="q",
        )
        cert = iso.profiles_equivalent(p, q)
        assert cert.verdict == "equivalent"
        assert cert.details["multiset_match"] is True

    def test_nudged_phase_yields_pole_witness(self):
        p = system_of(CurvatureBranch.compact(1.0, 0.9, 2))
        q = system_of(CurvatureBranch.compact(1.0, 0.93, 2), label="q")
        cert = iso.profiles_equivalent(p, q)
        assert cert.verdict == "distinct"
        assert cert.witness["kind"] == "pole_location"
        assert cert.details["multiset_match"] is False

    def test_weight_mismatch_witness(self):
        p = system_of(CurvatureBranch.compact(1.0, 0.9, 2))
        q = system_of(CurvatureBranch.compact(1.0, 0.9, 3), label="q")
        cert = iso.profiles_equivalent(p, q)
        assert cert.verdict == "distinct"
        assert cert.witness["kind"] == "pole_weight"
        assert cert.witness["weights"] == [2, 3]

    def test_unmatched_pole_witness(self):
        p = system_of(CurvatureBranch.compact(1.0, 0.9, 2))
        q = system_of(
            CurvatureBranch.compact(1.0, 0.9, 2),
            CurvatureBranch.compact(2.0, 1.0, 1),
            label="q",
        )
        cert = iso.profiles_equivalent(p, q)
        assert cert.verdict == "distinct"
        assert cert.witness["kind"] in ("pole_location", "pole_unmatched")

    def test_unmatched_pole_after_matched_ones(self):
        # q's flat branch adds a pole at 3.0 past the pole at 0.9 that both share
        p = system_of(CurvatureBranch.compact(1.0, 0.9, 2))
        q = system_of(CurvatureBranch.compact(1.0, 0.9, 2), CurvatureBranch.flat(1 / 3.0),
                      label="q")
        cert = iso.profiles_equivalent(p, q, window=(0.1, 3.1))
        assert cert.details["matched_poles"] == [pytest.approx(0.9)]
        assert cert.witness == {"kind": "pole_unmatched", "location": 3.0, "side": "q"}

    def test_smooth_part_witness(self):
        # same pole data, profiles offset by a constant: only the masked
        # grid can see the difference
        p = system_of(
            CurvatureBranch.compact(1.0, 0.9, 2),
            CurvatureBranch.hyperbolic(2.0, 2.0, 1),
        )
        q = system_of(
            CurvatureBranch.compact(1.0, 0.9, 2),
            CurvatureBranch.hyperbolic(2.0, -2.0, 1),
            label="q",
        )
        cert = iso.profiles_equivalent(p, q)
        assert cert.verdict == "distinct"
        assert cert.witness["kind"] == "smooth_part"
        assert cert.residual >= 1.0

    def test_equal_mean_at_origin_still_distinct(self):
        # both profiles vanish at t=0, but the branch data differ; the
        # pole layer separates them immediately
        p = system_of(CurvatureBranch.compact(1.0, math.pi / 2, 2))
        q = system_of(
            CurvatureBranch.compact(1.0, 1.1, 1),
            CurvatureBranch.compact(1.0, math.pi - 1.1, 1),
            label="q",
        )
        assert abs(iso.profile(p, 0.0)) <= 1e-12
        assert abs(iso.profile(q, 0.0)) <= 1e-12
        cert = iso.profiles_equivalent(p, q)
        assert cert.verdict == "distinct"

    def test_tanh_branches_compared(self):
        # a tanh branch has no real pole, so only p's pole at 0.9 tells
        # the two apart, and q against itself is decided on the grid alone
        p = system_of(CurvatureBranch.compact(1.0, 0.9))
        q = system_of(CurvatureBranch.hyperbolic(2.0, 0.5), label="q")
        cert = iso.profiles_equivalent(p, q)
        assert cert.verdict == "distinct"
        assert cert.witness["kind"] == "pole_unmatched" and cert.witness["side"] == "p"
        cert = iso.profiles_equivalent(q, q)
        assert cert.verdict == "equivalent"
        assert cert.details["matched_poles"] == []

    @pytest.mark.parametrize("core, radius", [
        *((core, radius) for core in ("point", "line", "hp2") for radius in (0.3, 1.1)),
        ("horosphere", None),
    ])
    def test_oh2_tube_matches_its_reversal(self, core, radius):
        # line and hp2 tubes carry tanh branches, one per direction tangent to the core
        tube = tube_spectrum("oh2", core, radius)
        reversal = PCSystem(tube.branches[::-1], label="q")
        cert = iso.profiles_equivalent(tube, reversal)
        assert cert.verdict == "equivalent"
        assert cert.details["multiset_match"] is True

    def test_equivalence_relation_on_samples(self):
        rng = np.random.default_rng(44)
        systems = [iso.random_profile_system(rng, label=f"s{i}") for i in range(6)]
        # reflexive
        for s in systems:
            assert iso.profiles_equivalent(s, s).verdict == "equivalent"
        # symmetric
        for a in systems[:3]:
            for b in systems[:3]:
                ab = iso.profiles_equivalent(a, b).verdict
                ba = iso.profiles_equivalent(b, a).verdict
                assert ab == ba
        # transitive through translated copies
        base = systems[0]
        copy1 = PCSystem(base.branches, label="c1")
        copy2 = PCSystem(base.branches, label="c2")
        assert iso.profiles_equivalent(base, copy1).verdict == "equivalent"
        assert iso.profiles_equivalent(copy1, copy2).verdict == "equivalent"
        assert iso.profiles_equivalent(base, copy2).verdict == "equivalent"


def point_walk_residual(p, q, window, pole_locations):
    """The smooth-part grid walked a point at a time with profile, each
    point masked by a scan of every pole: the oracle of the column kernel."""
    lo, hi = window
    grid = linspace(lo, hi, iso.GRID_POINTS + 2)[1:-1]
    mask_radius = max(1e-2, 2.0 * (hi - lo) / iso.GRID_POINTS)
    worst, worst_t = -1.0, lo
    for t in grid:
        if any(abs(t - r) < mask_radius for r in pole_locations):
            continue
        d = abs(iso.profile(p, t) - iso.profile(q, t))
        if d > worst:
            worst, worst_t = d, t
    if worst < 0.0:
        raise NormalizationError("grid entirely masked; window too crowded")
    return worst, worst_t


def hexes(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestGridKernel:
    """branch_values reads a branch a column at a time, and the comparator
    sums those columns over a bisected pole mask; each agrees bit for bit
    with its point-at-a-time oracle."""

    def test_column_equals_its_points_bit_for_bit(self):
        rng = np.random.default_rng(23)
        branches = [CurvatureBranch.flat(0.5), CurvatureBranch.flat(0.0),
                    *sample_branches(rng, 200)]
        ts = linspace(-2.93, 3.07, 301)
        steps = [complex(t, 1e-30) for t in ts]
        for b in branches:
            assert hexes(branch_values(b, ts)) == hexes(branch_value(b, t) for t in ts)
            assert hexes(branch_values(b, steps)) == hexes(branch_value(b, t) for t in steps)
        assert {b.regime for b in branches} == {"compact", "flat", "coth", "tanh", "const"}
        assert branch_values(branches[0], []) == []

    def test_column_raises_at_its_first_pole(self):
        b = CurvatureBranch.compact(1.0, 1.5)
        with pytest.raises(FocalPointError, match=r"t=1\.5$") as exc:
            branch_values(b, [0.5, 1.5, 1.5 + math.pi])
        assert exc.value.focal_radius == 1.5

    def test_column_profile_equals_profile_at_unmasked_points(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            p, q, _ = iso.random_profile_pair(rng)
            window = iso.default_window(p, q)
            locations, _ = iso.extract_poles(p, window)
            lo, hi = window
            radius = max(1e-2, 2.0 * (hi - lo) / iso.GRID_POINTS)
            kept = [t for t in linspace(lo, hi, iso.GRID_POINTS + 2)[1:-1]
                    if not any(abs(t - r) < radius for r in locations)]
            for system in (p, q):
                assert hexes(iso._profile_column(system, kept)) == hexes(
                    iso.profile(system, t) for t in kept)

    def test_bisected_mask_keeps_what_a_scan_keeps(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            locations = sorted(rng.uniform(-5.0, 5.0, int(rng.integers(0, 8))).tolist())
            radius = float(rng.choice([1e-2, 0.3, 2.0]))
            probes = rng.uniform(-7.0, 7.0, 40).tolist()
            for r in locations:  # on a pole and on the edges of its mask
                probes += [r, r - radius, r + radius, math.nextafter(r + radius, -math.inf)]
            for t in probes:
                assert iso._near_pole(t, locations, radius) == any(
                    abs(t - r) < radius for r in locations), (t, locations, radius)

    def test_grid_residual_equals_the_point_walk(self):
        rng = np.random.default_rng(2026)
        reached = 0
        for _ in range(80):
            p, q, _ = iso.random_profile_pair(rng)
            window = iso.default_window(p, q)
            locations, _ = iso.extract_poles(p, window)
            try:
                expected = point_walk_residual(p, q, window, locations)
            except NormalizationError:
                with pytest.raises(NormalizationError, match="entirely masked"):
                    iso._masked_grid_residual(p, q, window, locations)
                continue
            reached += 1
            assert hexes(iso._masked_grid_residual(p, q, window, locations)) == hexes(expected)
        assert reached > 40

    def test_merged_away_pole_is_masked_through_the_comparator(self):
        # pole_merge 1 merges the pole at 1.5 into the one at 1, and the mask
        # still covers both, so grid point 1.5 is left out
        p = system_of(CurvatureBranch.compact(1.0, 1.0), CurvatureBranch.compact(1.0, 1.5))
        cert = iso.profiles_equivalent(p, p, window=(0.0, 2.57), merge_tol=1.0)
        assert cert.verdict == "equivalent"
        assert cert.details["matched_poles"] == [1.0]

    @pytest.mark.parametrize("merge_tol", [1e-9, 0.3, 1.0])
    def test_self_comparison_never_hits_a_pole(self, merge_tol):
        # each window puts grid point 100 on a pole of the last branch, which
        # the wider merge_tol merges into an earlier pole's cluster
        rng = np.random.default_rng(46)
        equivalent = 0
        for _ in range(60):
            s = iso.random_profile_system(rng)
            lo, hi = iso.default_window(s)
            step = (hi - lo) / (iso.GRID_POINTS + 1)
            start = s.branches[-1].poles(lo, hi)[0] - 100 * step
            try:
                cert = iso.profiles_equivalent(s, s, window=(start, start + (hi - lo)),
                                               merge_tol=merge_tol)
            except NormalizationError as exc:
                assert "grid entirely masked" in str(exc)
                continue
            assert cert.verdict == "equivalent"
            equivalent += 1
        assert equivalent > 50


class TestComparatorCrossCheck:
    def test_random_pairs_agree_with_construction(self):
        rng = np.random.default_rng(2025)
        for _ in range(150):
            p, q, expected_equal = iso.random_profile_pair(rng)
            cert = iso.profiles_equivalent(p, q)
            assert (cert.verdict == "equivalent") == expected_equal
            # away from the doubling locus the two comparators agree
            assert iso.multisets_match(p, q) == expected_equal

    def test_doubling_identity_is_the_exception(self):
        single, split = iso.doubling_identity_pair()
        cert = iso.profiles_equivalent(single, split)
        assert cert.verdict == "equivalent"
        assert cert.details["multiset_match"] is False
        assert cert.details["comparators_agree"] is False

    def test_doubling_identity_pointwise(self):
        # 2 cot(2x) = cot(x) + cot(x + pi/2)
        for x in np.linspace(0.1, 1.4, 20):
            lhs = 2.0 / math.tan(2.0 * x)
            rhs = 1.0 / math.tan(x) + 1.0 / math.tan(x + math.pi / 2)
            assert abs(lhs - rhs) <= 1e-12

    def test_hyperbolic_doubling_is_the_exception(self):
        # 2 coth(2u) = coth(u) + tanh(u): at u = 0.8 one coth branch of
        # frequency 2 against a coth and a tanh branch of frequency 1
        u = 0.8
        single = system_of(CurvatureBranch.hyperbolic(2.0, 2.0 / math.tanh(2.0 * u)))
        split = system_of(CurvatureBranch.hyperbolic(1.0, 1.0 / math.tanh(u)),
                          CurvatureBranch.hyperbolic(1.0, math.tanh(u)), label="q")
        assert [b.regime for b in split.branches] == ["coth", "tanh"]
        cert = iso.profiles_equivalent(single, split)
        assert cert.verdict == "equivalent"
        assert cert.residual <= 1e-12
        assert cert.details["multiset_match"] is False
        assert cert.details["comparators_agree"] is False
        # the tanh branch nudged from tanh(0.8) = 0.6640... to 0.66
        nudged = system_of(split.branches[0], CurvatureBranch.hyperbolic(1.0, 0.66), label="q")
        cert = iso.profiles_equivalent(single, nudged)
        assert cert.verdict == "distinct"
        assert cert.witness["kind"] == "smooth_part"


class TestIsoparametricVerdict:
    def test_constant_family(self):
        base = system_of(
            CurvatureBranch.compact(1.0, 0.7, 3),
            CurvatureBranch.compact(2.0, 1.9, 2),
        )
        family = [base,
                  PCSystem(base.branches, label="m1"),
                  PCSystem(base.branches, label="m2")]
        cert = iso.isoparametric_verdict(family)
        assert cert.verdict == "equivalent"
        assert cert.details["family_size"] == 3

    def test_kappa_multiset_gate(self):
        # the doubling pair has one profile but different frequency data:
        # with kappa_constant the family must be rejected
        single, split = iso.doubling_identity_pair()
        cert = iso.isoparametric_verdict([single, split], kappa_constant=True)
        assert cert.verdict == "distinct"
        assert cert.witness["kind"] == "kappa_multiset"
        relaxed = iso.isoparametric_verdict([single, split], kappa_constant=False)
        assert relaxed.verdict == "equivalent"

    def test_drifting_member_rejected(self):
        base = system_of(CurvatureBranch.compact(1.0, 0.7, 3))
        drifted = system_of(CurvatureBranch.compact(1.0, 0.75, 3), label="d")
        cert = iso.isoparametric_verdict([base, drifted])
        assert cert.verdict == "distinct"
        assert cert.witness["labels"] == ["p", "d"]

    def test_empty_family_rejected(self):
        with pytest.raises(NormalizationError):
            iso.isoparametric_verdict([])


class TestNewtonRecovery:
    def test_hand_checked_examples(self):
        assert np.allclose(iso.newton_recover([2.0, 2.0]), [1.0, 1.0], atol=1e-10)
        assert np.allclose(iso.newton_recover([0.0, 2.0]), [-1.0, 1.0], atol=1e-10)
        assert iso.newton_recover([]) == []

    def test_round_trip_all_sizes(self):
        rng = np.random.default_rng(45)
        for n in range(1, 9):
            for _ in range(25):
                values = sorted(rng.uniform(-3.0, 3.0, size=n))
                p = [sum(v**k for v in values) for k in range(1, n + 1)]
                recovered = iso.newton_recover(p)
                assert len(recovered) == n
                assert np.max(np.abs(np.array(recovered) - values)) <= 1e-8

    def test_double_root(self):
        values = [2.0, 2.0, -1.0]
        p = [sum(v**k for v in values) for k in range(1, 4)]
        recovered = iso.newton_recover(p, tol=1e-6)
        assert np.allclose(recovered, sorted(values), atol=1e-5)

    def test_triple_root_is_too_ill_conditioned_for_default_tol(self):
        # rooting a cubic with a triple root loses ~cbrt(eps) of accuracy;
        # the strict default tolerance must refuse rather than return junk
        values = [2.0, 2.0, 2.0, -1.0]
        p = [sum(v**k for v in values) for k in range(1, 5)]
        with pytest.raises(InconsistentPowerSumsError):
            iso.newton_recover(p)
        recovered = iso.newton_recover(p, tol=1e-4)
        assert np.allclose(recovered, sorted(values), atol=1e-3)

    def test_complex_data_rejected(self):
        # x + y = 0, x^2 + y^2 = -2 has no real solution
        with pytest.raises(InconsistentPowerSumsError):
            iso.newton_recover([0.0, -2.0])


class TestPowerSumCascade:
    def test_power_sums_hand_check(self):
        sys = system_of(
            branch_from_value(1.0, 2.0, 2),
            branch_from_value(1.0, -1.0, 1),
        )
        p1, p2 = iso.power_sums(sys, 0.0, 2)
        assert abs(p1 - 3.0) <= 1e-12
        assert abs(p2 - 9.0) <= 1e-12

    def test_cascade_identity_single_branch(self):
        # one flat branch with lambda(0) = 0: p_k' = k p_{k+1} exactly,
        # and at t=0 every residual collapses
        sys = system_of(CurvatureBranch.flat(0.5))
        residuals = iso.power_sum_cascade(sys, 3, 0.0)
        assert max(residuals) <= 1e-8

    def test_cascade_on_random_systems(self):
        rng = np.random.default_rng(46)
        worst = 0.0
        for _ in range(30):
            sys = iso.random_profile_system(rng)
            t = float(rng.uniform(*iso.default_window(sys)))
            try:
                worst = max(worst, max(iso.power_sum_cascade(sys, 5, t)))
            except FocalPointError:
                continue
        assert worst <= 1e-6, f"worst cascade residual {worst:.3e}"

    def test_cascade_sweep_over_every_regime(self):
        # the complex step takes no difference, so the residuals stay at
        # rounding level anywhere the branches are regular, next to a pole too
        rng = np.random.default_rng(48)
        worst, evaluated = 0.0, 0
        for _ in range(300):
            sys = system_of(*sample_branches(rng, int(rng.integers(1, 6))))
            lo = max(b.regularity_interval()[0] for b in sys.branches)
            hi = min(b.regularity_interval()[1] for b in sys.branches)
            t = float(rng.uniform(max(lo, -3.0), min(hi, 3.0)))
            try:
                worst = max(worst, max(iso.power_sum_cascade(sys, 5, t)))
            except FocalPointError:
                continue
            evaluated += 1
        assert evaluated >= 290
        assert worst <= 1e-14, f"worst cascade residual {worst:.3e}"

    def test_cascade_far_out_and_at_high_powers(self):
        # the phases kappa t carry no difference step at |t| = 1e12; above
        # k = 100, complex ** k is polar and would lose the imaginary part
        # of a negative branch value
        far = system_of(CurvatureBranch.compact(2.0, 1.2, 3))
        for t in (1e6, -1e6, 1e12):
            assert max(iso.power_sum_cascade(far, 5, t)) <= 1e-14, t
        negative = system_of(branch_from_value(1.0, -0.9, 2), branch_from_value(2.0, 0.5))
        assert max(iso.power_sum_cascade(negative, 200, 0.0)) <= 1e-14

    def test_cascade_includes_curvature_term(self):
        # dropping the sign kappa^2 term must leave a visible residual:
        # compare against the wrong closed form by hand
        sys = system_of(CurvatureBranch.compact(1.0, math.pi / 2, 1))
        t = 0.3
        k = 1
        h = 1e-4
        fine = (iso.power_sums(sys, t + h / 2, k)[0]
                - iso.power_sums(sys, t - h / 2, k)[0]) / h
        wrong = k * iso.power_sums(sys, t, k + 1)[k]
        assert abs(fine - wrong) > 0.5  # missing the kappa^2 sum, which is 1 here

    def test_invalid_k_rejected(self):
        sys = system_of(CurvatureBranch.flat(0.0))
        with pytest.raises(NormalizationError):
            iso.power_sum_cascade(sys, 0, 0.0)

    def test_residuals_are_relative_to_the_power_sums(self):
        # every power sum scales with mult, so the scaled residuals must not
        # move with it; absolute ones grew past the 1e-6 gate at 10**6
        def residuals(mult):
            return iso.power_sum_cascade(
                system_of(CurvatureBranch.compact(2.0, 1.2, mult)), 5, 0.1)

        base = residuals(1)
        for mult in (1, 10**3, 10**6):
            scaled = residuals(mult)
            assert max(scaled) <= 1e-6, mult
            assert all(abs(r - r1) <= 1e-9 for r, r1 in zip(scaled, base)), mult


class TestSignDivergence:
    def test_equal_pole_different_frequency_diverges(self):
        # both flows blow up first at t = 0.9 but drift apart afterwards
        p = CurvatureBranch.compact(1.0, 0.9)
        q = CurvatureBranch.compact(2.0, 1.8)
        assert abs(p.regularity_interval()[1] - q.regularity_interval()[1]) <= 1e-12
        t = branch_sign_divergence(p, q)
        assert t is not None
        a = branch_value(p, t)
        b = branch_value(q, t)
        assert (a > 0) != (b > 0)

    def test_identical_branches_never_diverge(self):
        p = CurvatureBranch.compact(1.0, 0.9)
        assert branch_sign_divergence(p, p) is None

    def test_reduced_phase_range(self):
        b = CurvatureBranch.compact(2.0, 2.5)
        for t in np.linspace(-3.0, 3.0, 50):
            x = reduced_phase(b, float(t))
            assert -math.pi / 2 < x <= math.pi / 2 + 1e-15

    def test_reduced_phase_compact_only(self):
        with pytest.raises(NotCompactError):
            reduced_phase(CurvatureBranch.flat(1.0), 0.0)
