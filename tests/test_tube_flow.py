import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from curvadapt import cayley_plane
from curvadapt import isoparametric as iso
from curvadapt import tube_flow as tf
from curvadapt.errors import ExcludedAngleError, FocalPointError, NormalizationError
from helpers import (
    CORE_TANGENT_COORDINATES,
    NoMinimalTubeError,
    branch_from_value,
    coordinate_frame,
    focal_radius,
    jacobi_tube_curvature,
    lie_triple_defect,
    minimal_tube_radius,
    model_tube_table,
    sample_branches,
    seeded_normals,
    split_jacobi,
    translated,
    values_at,
)


def interior_time(rng, branch, margin=0.1, box=2.0):
    lo, hi = branch.regularity_interval()
    lo, hi = max(lo, -box) + margin, min(hi, box) - margin
    if hi <= lo:
        return None
    return float(rng.uniform(lo, hi))


class TestLinspace:
    """tube_flow.linspace is numpy.linspace bit for bit, as plain floats."""

    @staticmethod
    def assert_same(start, stop, num):
        grid = tf.linspace(start, stop, num)
        assert all(type(t) is float for t in grid)
        assert grid == np.linspace(start, stop, num).tolist()
        # == forgives the sign of a zero; the bytes do not
        assert np.array(grid, dtype=float).tobytes() == np.linspace(start, stop, num).tobytes()

    @pytest.mark.parametrize("start, stop, num", [
        (0.0, math.pi, 258),                     # profile grid, GRID_POINTS + 2
        (0.31, 0.31 + math.pi, 259),             # an offset start, an odd count
        (-math.pi / 4 * 0.98, math.pi / 4 * 0.98, 41),  # evolution check
        (0.0, 20.0, 4097),                       # branch_sign_divergence, samples + 1
        (0.25, 1.30, 24),                        # theorem3 --alpha-grid
        (0.7, 0.7, 1),
        (0.3, 1.9, 2),
        (1.5, 1.5, 5),                           # equal endpoints
        (-0.0, 0.0, 3),
        (0.0, 5e-324, 3),                        # the step underflows to zero
    ])
    def test_grids_in_use_and_edge_cases(self, start, stop, num):
        self.assert_same(start, stop, num)

    def test_random_endpoints(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            start, stop = (float(x) for x in rng.uniform(-50.0, 50.0, 2))
            self.assert_same(start, stop, int(rng.integers(1, 300)))


class TestBranchConstruction:
    def test_regime_classification(self):
        assert tf.CurvatureBranch.compact(1.0, 0.5).regime == "compact"
        assert tf.CurvatureBranch.flat(2.0).regime == "flat"
        assert tf.CurvatureBranch.hyperbolic(1.0, 3.0).regime == "coth"
        assert tf.CurvatureBranch.hyperbolic(1.0, 0.5).regime == "tanh"
        assert tf.CurvatureBranch.hyperbolic(2.0, 2.0).regime == "const"

    def test_const_detection_is_exact(self):
        assert tf.CurvatureBranch.hyperbolic(2.0, -2.0).regime == "const"
        for value, regime in ((math.nextafter(2.0, 3.0), "coth"),
                              (math.nextafter(2.0, 1.0), "tanh")):
            branch = tf.CurvatureBranch.hyperbolic(2.0, value)
            assert branch.regime == regime
            # the one float next to kappa: its atanh argument still rounds below 1
            assert math.isclose(tf.evolve(branch, 0.0), value, rel_tol=1e-15)
        # |lambda(0)| = 5 kappa is coth however small kappa is
        assert tf.CurvatureBranch.hyperbolic(1e-13, 5e-13).regime == "coth"

    def test_invalid_parameters_rejected(self):
        for theta in (0.0, math.pi, -1e-20):  # -1e-20 reduces to pi
            with pytest.raises(NormalizationError, match="a multiple of pi is a pole"):
                tf.CurvatureBranch.compact(1.0, theta)
        with pytest.raises(NormalizationError):
            tf.CurvatureBranch.compact(-1.0, 0.5)
        with pytest.raises(NormalizationError):
            tf.CurvatureBranch.compact(1.0, 0.5, multiplicity=0)
        with pytest.raises(NormalizationError, match="kappa 0 is the flat regime"):
            tf.CurvatureBranch(kappa=0.0, space_sign=1, phase=0.5, multiplicity=1)

    def test_system_needs_branches(self):
        # the argument is converted before the check: an empty generator is
        # truthy, and used to pass as a system with no branches
        for empty in ((), [], (b for b in [])):
            with pytest.raises(NormalizationError, match="needs branches"):
                tf.PCSystem(empty)
        branch = tf.CurvatureBranch.compact(1.0, 0.5)
        assert tf.PCSystem(b for b in [branch]).branches == (branch,)

    def test_from_value_round_trip(self):
        for v in (-5.0, -1.0, 0.0, 0.3, 7.0):
            b = branch_from_value(2.0, v)
            assert abs(tf.evolve(b, 0.0) - v) <= 1e-12 * max(1.0, abs(v))

    def test_phase_reduced_mod_pi(self):
        b = tf.CurvatureBranch.compact(1.0, 0.4 + math.pi)
        assert abs(b.phase - 0.4) <= 1e-12


class TestClosedForms:
    def test_compact_quarter_turn(self):
        # lambda(t) = 2 cot(pi/2 - 2t) passes through 2 at t = pi/8
        b = tf.CurvatureBranch.compact(2.0, math.pi / 2)
        assert abs(tf.evolve(b, 0.0)) <= 1e-15
        assert abs(tf.evolve(b, math.pi / 8) - 2.0) <= 1e-12

    def test_compact_matches_numerical_integration(self):
        sol = solve_ivp(
            lambda t, y: y**2 + 4.0,
            (0.0, math.pi / 8),
            [0.0],
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        assert abs(sol.y[0, -1] - 2.0) <= 1e-8

    def test_flat_hyperbola(self):
        b = tf.CurvatureBranch.flat(2.0)
        assert abs(tf.evolve(b, 0.25) - 4.0) <= 1e-12
        assert focal_radius(b) == 0.5

    def test_hyperbolic_profiles(self):
        coth = tf.CurvatureBranch.hyperbolic(1.0, 2.0)
        theta0 = math.atanh(0.5)
        assert abs(tf.evolve(coth, 0.1) - 1.0 / math.tanh(theta0 - 0.1)) <= 1e-12
        tanh = tf.CurvatureBranch.hyperbolic(1.0, 0.5)
        phi0 = math.atanh(0.5)
        assert abs(tf.evolve(tanh, 0.1) - math.tanh(phi0 - 0.1)) <= 1e-12
        const = tf.CurvatureBranch.hyperbolic(2.0, -2.0)
        assert tf.evolve(const, 5.0) == -2.0

    def test_focal_radii(self):
        assert abs(focal_radius(tf.CurvatureBranch.compact(2.0, math.pi / 2))
                   - math.pi / 4) <= 1e-15
        assert focal_radius(tf.CurvatureBranch.hyperbolic(1.0, 0.5)) == math.inf
        assert focal_radius(tf.CurvatureBranch.flat(-1.0)) == math.inf
        coth = tf.CurvatureBranch.hyperbolic(1.0, 2.0)
        assert abs(focal_radius(coth) - math.atanh(0.5)) <= 1e-15

    def test_focal_point_error_carries_radius(self):
        b = tf.CurvatureBranch.compact(2.0, math.pi / 2)
        with pytest.raises(FocalPointError) as err:
            tf.evolve(b, math.pi / 4)
        assert abs(err.value.focal_radius - math.pi / 4) <= 1e-15
        with pytest.raises(FocalPointError):
            tf.evolve(b, 10.0)

    @staticmethod
    def real_closed_form(branch, t):
        """The kernel's float arithmetic for each regime, written out."""
        k, phase = branch.kappa, branch.phase
        regime = branch.regime
        if regime == "compact":
            return k * math.cos(phase - k * t) / math.sin(phase - k * t)
        if regime == "flat":
            return phase / (1.0 - phase * t)
        if regime == "coth":
            return k / math.tanh(math.atanh(k / phase) - k * t)
        if regime == "const":
            return phase
        return k * math.tanh(math.atanh(phase / k) - k * t)

    def test_float_t_keeps_the_float_arithmetic(self):
        # the complex path must not move a bit of any real evaluation
        rng = np.random.default_rng(303)
        checked = 0
        for branch in sample_branches(rng, 300) + [tf.CurvatureBranch.flat(0.0)]:
            t = float(rng.uniform(-3.0, 3.0))
            try:
                value = tf.branch_value(branch, t)
            except FocalPointError:
                continue
            assert isinstance(value, float)
            assert value.hex() == self.real_closed_form(branch, t).hex(), (branch, t)
            checked += 1
        assert checked >= 250

class TestRiccatiConsistency:
    def test_finite_difference_defect(self):
        rng = np.random.default_rng(301)
        h = 1e-5
        checked = 0
        worst = 0.0
        while checked < 1000:
            branch = sample_branches(rng, 1)[0]
            t = interior_time(rng, branch)
            if t is None:
                continue
            lam_m, lam_0, lam_p = (tf.evolve(branch, t + dt) for dt in (-h, 0.0, h))
            if max(abs(lam_m), abs(lam_p)) > 8.0:
                continue  # too close to a pole for an honest O(h^2) stencil
            fd = (lam_p - lam_m) / (2.0 * h)
            rhs = lam_0**2 + branch.space_sign * branch.kappa**2
            worst = max(worst, abs(fd - rhs))
            checked += 1
        assert worst <= 1e-6, f"worst Riccati FD defect {worst:.3e}"

    def test_complex_step_defect(self):
        # Im lambda(t + ih) / h is lambda'(t) with no difference taken, so it
        # meets the flow equation to rounding, near a pole too
        rng = np.random.default_rng(305)
        h = 1e-30
        regimes = set()
        worst = 0.0
        for branch in sample_branches(rng, 1000) + [tf.CurvatureBranch.flat(0.0)]:
            lo, hi = branch.regularity_interval()
            t = float(rng.uniform(max(lo, -3.0), min(hi, 3.0)))
            try:
                lam = tf.branch_value(branch, t)
            except FocalPointError:
                continue
            value = tf.branch_value(branch, complex(t, h))
            assert type(value) is complex, branch.regime
            assert abs(value.real - lam) <= 1e-15 * max(1.0, abs(lam))
            kappa_sq = branch.kappa**2
            rhs = lam**2 + branch.space_sign * kappa_sq
            worst = max(worst, abs(value.imag / h - rhs) / (1.0 + lam**2 + kappa_sq))
            regimes.add(branch.regime)
        assert regimes == {"compact", "flat", "coth", "tanh", "const"}
        assert worst <= 1e-14, f"worst Riccati complex-step defect {worst:.3e}"

    def test_semigroup_property(self):
        rng = np.random.default_rng(302)
        checked = 0
        worst = 0.0
        while checked < 500:
            branch = sample_branches(rng, 1)[0]
            s = interior_time(rng, branch, margin=0.3)
            if s is None:
                continue
            shifted = translated(branch, s)
            t = interior_time(rng, shifted, margin=0.3, box=1.0)
            if t is None:
                continue
            direct = tf.evolve(branch, s + t)
            composed = tf.evolve(shifted, t)
            worst = max(worst, abs(direct - composed))
            checked += 1
        assert worst <= 1e-10, f"worst semigroup defect {worst:.3e}"

    def test_translated_preserves_multiplicity(self):
        b = tf.CurvatureBranch.compact(2.0, 1.0, multiplicity=5)
        assert translated(b, 0.2).multiplicity == 5


branch_strategy = st.builds(
    tf.CurvatureBranch.compact,
    kappa=st.sampled_from([1.0, 2.0]),
    theta=st.floats(min_value=0.2, max_value=math.pi - 0.2),
)


class TestBranchProperties:
    @given(branch_strategy)
    @settings(max_examples=80, deadline=None)
    def test_regularity_interval_contains_zero(self, branch):
        lo, hi = branch.regularity_interval()
        assert lo < 0.0 < hi

    @given(branch_strategy, st.floats(min_value=-0.05, max_value=0.05))
    @settings(max_examples=80, deadline=None)
    def test_small_translation_semigroup(self, branch, s):
        lo, hi = branch.regularity_interval()
        if not lo + 0.1 < s < hi - 0.1:
            return
        shifted = translated(branch, s)
        assert abs(tf.evolve(shifted, 0.0) - tf.evolve(branch, s)) <= 1e-10


class TestBranchPoles:
    """CurvatureBranch.poles is the one pole model: the kernel, the flow's
    regularity interval and the profile comparator all agree with it."""

    @staticmethod
    def window(branch):
        # a non-compact pole may lie anywhere; a compact lattice needs a bound
        return (-10.0, 10.0) if branch.space_sign == 1 else (-math.inf, math.inf)

    def test_kernel_raises_at_every_pole(self):
        rng = np.random.default_rng(53)
        for branch in sample_branches(rng, 200):
            for r in branch.poles(*self.window(branch)):
                with pytest.raises(FocalPointError):
                    tf.branch_value(branch, r)

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_kernel_refuses_a_distance_in_t_around_every_pole(self, kappa):
        for theta in (0.3, 1.5, 2.9):
            branch = tf.CurvatureBranch.compact(kappa, theta)
            for r in branch.poles(-10.0, 10.0):
                for d in (-5e-13, 5e-13):
                    with pytest.raises(FocalPointError):
                        tf.branch_value(branch, r + d)
                for d in (-2e-12, 2e-12):
                    assert math.isfinite(tf.branch_value(branch, r + d))

    def test_kernel_names_the_pole_it_refused(self):
        # a listed pole is a float of its lattice index alone, so the kernel's
        # focal_radius equals it whichever side of it t falls on
        rng = np.random.default_rng(56)
        regimes = set()
        for branch in sample_branches(rng, 300):
            for r in branch.poles(*self.window(branch)):
                for t in (r - 5e-13, r + 5e-13, complex(r + 5e-13, 1e-30)):
                    with pytest.raises(FocalPointError) as err:
                        tf.branch_value(branch, t)
                    assert err.value.focal_radius == r, (branch, t)
                regimes.add(branch.regime)
        assert regimes == {"compact", "flat", "coth"}

    def test_lattice_does_not_drift_on_the_doubling_pair(self):
        # 2 cot(2x) = cot(x) + cot(x + pi/2): a kappa = 2 branch and its split
        # pair of kappa = 1 branches share every pole, far from t = 0 too
        rng = np.random.default_rng(57)
        for theta in rng.uniform(0.05, math.pi - 0.05, 200):
            double = tf.CurvatureBranch.compact(2.0, float(theta))
            split = [tf.CurvatureBranch.compact(1.0, float(theta) / 2 + shift)
                     for shift in (0.0, math.pi / 2)]
            poles = double.poles(0.0, 9000.0)
            halves = sorted(r for b in split for r in b.poles(0.0, 9000.0))
            assert len(poles) == len(halves) > 5000
            assert max(abs(a - b) for a, b in zip(poles, halves)) <= 1e-11, theta

    def test_slow_branch_is_refused_only_next_to_its_pole(self):
        # sin(theta - kappa t) stays below 1e-12 on all of [0, 0.2], yet the
        # one pole is at 0.1: a denominator bound would refuse every point
        branch = tf.CurvatureBranch.compact(1e-11, 1e-12)
        for t in (0.0039, 0.2):
            assert math.isfinite(tf.branch_value(branch, t))
        for t in (0.1 - 5e-13, 0.1 + 5e-13):
            with pytest.raises(FocalPointError):
                tf.branch_value(branch, t)

    def test_flat_and_fast_branches_take_the_distance_in_t(self):
        flat = tf.CurvatureBranch.flat(1e6)  # the pole is at 1e-6
        for t in (1e-6 - 5e-13, 1e-6 + 5e-13):
            with pytest.raises(FocalPointError):
                tf.branch_value(flat, t)
        assert math.isfinite(tf.branch_value(flat, 1e-6 + 2e-12))
        # |tanh| <= 1 is below kappa * 1e-12 everywhere, so the distance
        # decides: the pole sits at atanh(1/2) / 1e300, far from 0.01
        fast = tf.CurvatureBranch.hyperbolic(1e300, 2e300)
        assert tf.branch_value(fast, 0.01) == -1e300

    def test_overflowing_phase_is_refused_on_both_columns(self):
        # kappa t overflows to inf, and cos(-inf) has no value
        branch = tf.CurvatureBranch.compact(1e300, 1.0)
        for t in (1e10, -1e10, complex(1e10, 1e-30)):
            with pytest.raises(NormalizationError, match=r"kappa=1e\+300 times t="):
                tf.branch_values(branch, [t])

    def test_regularity_interval_ends_at_the_nearest_poles(self):
        rng = np.random.default_rng(54)
        for branch in sample_branches(rng, 200) + [tf.CurvatureBranch.flat(0.0)]:
            poles = branch.poles(*self.window(branch))
            assert poles == sorted(poles)
            below = max((r for r in poles if r < 0.0), default=-math.inf)
            above = min((r for r in poles if r > 0.0), default=math.inf)
            # the compact ends are the lattice at j = -1 and j = 0, bit for bit
            assert branch.regularity_interval() == (below, above), branch

    def test_tanh_and_const_branches_have_no_pole(self):
        rng = np.random.default_rng(55)
        for branch in sample_branches(rng, 200):
            if branch.regime in ("tanh", "const"):
                assert branch.poles(-math.inf, math.inf) == []
                assert branch.poles(-0.5, float(rng.uniform(0.0, 5.0))) == []

    def test_period_past_the_float_range(self):
        # pi / kappa overflows, so theta / kappa is the one pole a float holds
        branch = tf.CurvatureBranch.compact(1e-310, 1e-3)
        assert branch.poles(0.0, 1e308) == [1e-3 / 1e-310]
        assert branch.poles(-1e308, 0.0) == []
        assert branch.regularity_interval() == (-math.inf, 1e-3 / 1e-310)
        # the count guard runs first: an unbounded window holds inf poles
        with pytest.raises(NormalizationError, match="holds inf poles"):
            branch.poles(0.0, math.inf)


class TestTubeTables:
    def test_point_tube_closed_forms(self):
        r = math.pi / 8
        system = tf.tube_spectrum("op2", "point", r)
        got = sorted(values_at(system, 0.0))
        expected = sorted([(1.0 / math.tan(r), 8), (2.0 / math.tan(2.0 * r), 7)])
        for (gv, gm), (ev, em) in zip(got, expected):
            assert abs(gv - ev) <= 1e-12
            assert gm == em

    def test_line_tube_closed_forms(self):
        r = math.pi / 6
        system = tf.tube_spectrum("op2", "line", r)
        got = sorted(values_at(system, 0.0))
        expected = sorted([(-math.tan(r), 8), (2.0 / math.tan(2.0 * r), 7)])
        for (gv, gm), (ev, em) in zip(got, expected):
            assert abs(gv - ev) <= 1e-12
            assert gm == em

    def test_quaternionic_core_has_four_rows(self):
        r = math.pi / 12
        system = tf.tube_spectrum("op2", "hp2", r)
        got = sorted(values_at(system, 0.0))
        expected = sorted([
            (1.0 / math.tan(r), 4),
            (-math.tan(r), 4),
            (2.0 / math.tan(2.0 * r), 3),
            (-2.0 * math.tan(2.0 * r), 4),
        ])
        for (gv, gm), (ev, em) in zip(got, expected):
            assert abs(gv - ev) <= 1e-12
            assert gm == em

    def test_hyperbolic_tables(self):
        r = 0.5
        system = tf.tube_spectrum("oh2", "hp2", r)
        got = sorted(values_at(system, 0.0))
        expected = sorted([
            (1.0 / math.tanh(r), 4),
            (math.tanh(r), 4),
            (2.0 / math.tanh(2.0 * r), 3),
            (2.0 * math.tanh(2.0 * r), 4),
        ])
        for (gv, gm), (ev, em) in zip(got, expected):
            assert abs(gv - ev) <= 1e-12
            assert gm == em

    def test_horosphere_is_radius_free(self):
        system = tf.tube_spectrum("oh2", "horosphere", None)
        assert sorted(values_at(system, 0.0)) == [(1.0, 8), (2.0, 7)]

    def test_every_table_sums_to_fifteen(self):
        for ambient in tf.AMBIENTS:
            for core in ("point", "line", "hp2"):
                r = math.pi / 12
                system = tf.tube_spectrum(ambient, core, r)
                assert system.total_multiplicity == 15
        horo = tf.tube_spectrum("oh2", "horosphere", None)
        assert horo.total_multiplicity == 15

    #: (Jacobi eigenvalue magnitude, boundary, multiplicity) rows per core,
    #: written out here: the 7/8 eigenvalue split of the Cayley plane, with
    #: the line tangent to the whole 1-eigenspace and the quaternionic plane
    #: split 4+4 tangent, 3+4 normal
    CORE_ROWS = {
        "point": ((1.0, "normal", 8), (4.0, "normal", 7)),
        "line": ((1.0, "tangent", 8), (4.0, "normal", 7)),
        "hp2": ((1.0, "normal", 4), (1.0, "tangent", 4), (4.0, "normal", 3), (4.0, "tangent", 4)),
    }

    def test_spectrum_consistent_with_jacobi_values(self):
        # tube_spectrum builds each tube from the theorem-2 core catalog;
        # the t=0 values must reproduce the Jacobi closed form of the rows
        # above, a second derivation of the same table, to 1e-9
        for ambient, sign in (("op2", 1), ("oh2", -1)):
            for core, rows in self.CORE_ROWS.items():
                r = 0.3
                system = tf.tube_spectrum(ambient, core, r)
                direct = sorted(
                    (jacobi_tube_curvature(sign * mag, boundary, r), m)
                    for mag, boundary, m in rows
                )
                got = sorted(values_at(system, 0.0))
                for (gv, gm), (dv, dm) in zip(got, direct):
                    assert abs(gv - dv) <= 1e-9
                    assert gm == dm

    def test_normal_branches_focalize_at_core(self):
        r = 0.4
        system = tf.tube_spectrum("op2", "point", r)
        for branch in system.branches:
            assert abs(focal_radius(branch) - r) <= 1e-12

    def test_mean_curvature_example(self):
        r = math.pi / 8
        h = iso.profile(tf.tube_spectrum("op2", "line", r), 0.0)
        expected = 8.0 * (-math.tan(r)) + 14.0 / math.tan(2.0 * r)
        assert abs(h - expected) <= 1e-12

    def test_minimal_point_tube_radius(self):
        r = minimal_tube_radius("op2", "point")
        assert abs(r - 0.9714824303776113) <= 1e-9
        h = iso.profile(tf.tube_spectrum("op2", "point", r), 0.0)
        assert abs(h) <= 1e-9

    @pytest.mark.parametrize("core", ["point", "line", "hp2"])
    def test_minimal_tube_radius_matches_numerical_root(self, core):
        def h(r):
            return iso.profile(tf.tube_spectrum("op2", core, r), 0.0)

        limit = math.pi / 4 if core == "hp2" else math.pi / 2
        root = brentq(h, 1e-3, limit - 1e-3, xtol=1e-14)
        assert abs(minimal_tube_radius("op2", core) - root) <= 1e-12

    @pytest.mark.parametrize("core", ["point", "line", "hp2", "horosphere"])
    def test_hyperbolic_tubes_are_never_minimal(self, core):
        with pytest.raises(NoMinimalTubeError):
            minimal_tube_radius("oh2", core)


class TestTubeSpectrumValidation:
    def test_radius_limits_in_compact_ambient(self):
        with pytest.raises(FocalPointError) as err:
            tf.tube_spectrum("op2", "point", math.pi / 2)
        assert abs(err.value.focal_radius - math.pi / 2) <= 1e-15
        with pytest.raises(FocalPointError) as err:
            tf.tube_spectrum("op2", "hp2", math.pi / 4)
        assert abs(err.value.focal_radius - math.pi / 4) <= 1e-15
        # hyperbolic ambient has no focal bound
        tf.tube_spectrum("oh2", "point", 5.0)

    @pytest.mark.parametrize("ambient, core, focal", [
        ("oh2", "point", 0.0), ("op2", "line", 0.0),
        ("op2", "point", math.pi / 2), ("op2", "hp2", math.pi / 4),
    ])
    def test_radius_within_pole_proximity_of_a_focal_set(self, ambient, core, focal):
        side = 1.0 if focal == 0.0 else -1.0
        with pytest.raises(FocalPointError, match="lies within 1e-12 of a focal set") as err:
            tf.tube_spectrum(ambient, core, focal + side * 5e-13)
        assert abs(err.value.focal_radius - focal) <= 1e-15
        # just outside, every row of the table evaluates at the tube, t = 0
        for b in tf.tube_spectrum(ambient, core, focal + side * 2e-12).branches:
            assert math.isfinite(tf.evolve(b, 0.0))

    def test_horosphere_rules(self):
        with pytest.raises(NormalizationError):
            tf.tube_spectrum("op2", "horosphere", None)
        with pytest.raises(NormalizationError, match="core 'horosphere' takes no radius, got 1.0"):
            tf.tube_spectrum("oh2", "horosphere", 1.0)

    def test_basic_field_validation(self):
        with pytest.raises(NormalizationError):
            tf.tube_spectrum("sphere", "point", 0.3)
        with pytest.raises(NormalizationError):
            tf.tube_spectrum("op2", "torus", 0.3)
        with pytest.raises(NormalizationError,
                           match="core 'point' needs a positive radius, got -0.3"):
            tf.tube_spectrum("op2", "point", -0.3)
        with pytest.raises(NormalizationError, match="core 'point' needs a radius"):
            tf.tube_spectrum("op2", "point", None)


class TestCatalogFromModel:
    """CATALOG_CORES is what the Cayley-plane model measures: each core's
    tangent space is a Lie triple system, K_xi keeps it invariant, and K_xi
    on the normal space minus xi has the catalog's multiplicities."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_model_measures_the_catalog(self, sign):
        rng = np.random.default_rng(5)
        measured = {}
        worst_off_diagonal = 0.0
        for core, coords in CORE_TANGENT_COORDINATES.items():
            frame = coordinate_frame(coords)
            assert lie_triple_defect(frame, sign) == 0.0
            measured[core] = set()
            for xi in seeded_normals(rng, core, 5):
                split = split_jacobi(frame, xi, sign)
                worst_off_diagonal = max(worst_off_diagonal, split.off_diagonal)
                measured[core].add((len(coords), *(
                    sum(c.multiplicity for c in split.normal
                        if abs(c.value - sign * mu) <= 1e-9)
                    for mu in (4, 1)
                )))
        assert measured == {core: {sig} for core, sig in tf.CATALOG_CORES.items()}
        assert worst_off_diagonal <= 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_non_subalgebra_span_is_rejected(self, sign):
        # span{1, J1, J2, J3} is no quaternion subalgebra, since J1 J2 = J4
        frame = coordinate_frame((0, 1, 2, 3, 8, 9, 10, 11))
        assert lie_triple_defect(frame, sign) >= 1.0


class TestPlaneNumbers:
    """The search's two numbers of OP^2, tube_flow._D and tube_flow._N,
    against sources that do not read them."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_d_is_the_model_multiplicity(self, sign):
        # K_xi of the Cayley-plane model: d directions at sign * 1 and
        # d - 1 at sign * 4, besides xi itself at 0
        for xi in seeded_normals(np.random.default_rng(35), "horosphere", 5):
            clusters = {round(c.value): c.multiplicity
                        for c in cayley_plane.jacobi_operator(xi, sign).spectrum()}
            assert clusters == {0: 1, sign: tf._D, 4 * sign: tf._D - 1}

    def test_every_catalog_core_fills_the_tube_dimension(self):
        for core, signature in tf.CATALOG_CORES.items():
            assert sum(signature) == 2 * tf._D - 1, core

    def test_n_is_the_phase_tables_length(self):
        assert len(tf._PHASE_LABELS) == tf._N
        for p, label in enumerate(tf._PHASE_LABELS):
            assert Fraction(label) == Fraction(p, tf._N)
        assert len(tf._COT_AT) == tf._N - 1
        for p in range(1, tf._N):
            assert tf._COT_AT[p - 1] == round(1 / math.tan(math.pi * p / tf._N)), p


@pytest.fixture(scope="module")
def everything():
    """enumerate_focal_configurations(), built once for the module: each
    configuration derives its branch table once, and the tests share it."""
    return tf.enumerate_focal_configurations()


class TestFocalEnumeration:
    def test_enumeration_size(self, everything):
        # compositions of 7 and 8 into 4 labeled parts, for both g values,
        # listed in sorted order, which the search's sorted() relies on
        assert len(everything) == 2 * 120 * 165
        assert sorted(everything) == everything

    def test_branch_table_is_the_closed_form(self, everything):
        # the table is derived once per instance; at Q2 each phase is its
        # phase at Q1 advanced by kappa * (2 // g) (Q2 lies pi/(2g) from Q1,
        # in units of pi/4), mod 4
        assert [cfg.branches_at(q) for cfg in everything for q in tf.FOCAL_SETS] == [
            tuple((k, (p + shift * k * (2 // cfg.g)) % 4, m)
                  for k, mults in ((1, cfg.m1), (2, cfg.m2))
                  for p, m in enumerate(mults)
                  if m)
            for cfg in everything
            for shift in (0, 1)
        ]
        cfg = everything[-1]
        assert all(cfg.branches_at(q) is cfg.branches_at(q) for q in tf.FOCAL_SETS)

    def test_branch_table_belongs_to_the_instance(self):
        cfg = tf.admissible_focal_configurations()[0]
        cfg.branches_at("q1")
        twin = tf.FocalConfiguration(cfg.g, cfg.m2, cfg.m1)
        assert "_branch_table" not in vars(twin)
        assert twin.branches_at("q1") == cfg.branches_at("q1")
        assert twin == cfg and hash(twin) == hash(cfg)

    def test_exactly_four_survivors(self):
        # (g, q1 block, q2 block, cores) in the search's order, written out by
        # hand: the oracle test below shares the search's per-focal-set
        # methods, so it cannot see a mistake in them
        def focal(signature, geodesic):
            return {"signature": signature, "totally_geodesic": geodesic, "minimal": True}

        survivors = tf.admissible_focal_configurations()
        assert [
            (d["g"], d["q1"], d["q2"], d["cores"])
            for d in (cfg.to_json_dict() for cfg in survivors)
        ] == [
            (1, focal([8, 7, 0], True), focal([0, 7, 8], True),
             {"q1": "line", "q2": "point"}),
            (1, focal([0, 7, 8], True), focal([8, 7, 0], True),
             {"q1": "point", "q2": "line"}),
            (2, focal([8, 3, 4], True), focal([11, 4, 0], False), {"q1": "hp2"}),
            (2, focal([11, 4, 0], False), focal([8, 3, 4], True), {"q2": "hp2"}),
        ]

    def test_survivor_cores_are_catalog(self):
        families = set()
        for cfg in tf.admissible_focal_configurations():
            names = set(cfg.matched_cores().values())
            assert names
            assert names <= set(tf.CATALOG_CORES)
            families.add(frozenset(names))
        assert frozenset({"hp2"}) in families

    def test_nonzero_top_family_value_on_core_is_rejected(self):
        # a kappa=2 branch with phase pi/4 at Q1 leaves a nonzero principal
        # curvature on the focal set; pole admissibility must kill it
        for g in (1, 2):
            cfg = tf.FocalConfiguration(g=g, m2=(0, 7, 0, 0), m1=(8, 0, 0, 0))
            assert not cfg._poles_admissible()

    def test_evolution_confirms_every_survivor(self):
        for cfg in tf.admissible_focal_configurations():
            check = tf.verify_configuration_by_evolution(cfg)
            assert check["interior_poles"] == 0
            assert check["q1_focal_mult_ok"]
            assert check["q2_focal_mult_ok"]

    def test_every_survivor_is_a_model_tube(self):
        # the survivor realized at distance s from Q1 is, at each matched
        # focal set, the model's tube about that core: of radius s at Q1,
        # and of radius pi/(2g) - s at Q2, seen with the opposite unit
        # normal, so every value negated.  The tables come from the model's
        # K_xi (model_tube_table), never from tube_spectrum.
        def merged(rows):
            out = {}
            for value, mult in rows:
                key = round(value, 8)
                out[key] = out.get(key, 0) + mult
            return out

        rng = np.random.default_rng(38)
        compared = 0
        for cfg in tf.admissible_focal_configurations():
            for s in (0.1, 0.3, 0.5, 0.7):
                got = merged((tf.branch_value(b, 0.0), b.multiplicity)
                             for b in cfg.realize(s).branches)
                for q, core in cfg.matched_cores().items():
                    r, sign = (s, 1) if q == "q1" else (math.pi / (2 * cfg.g) - s, -1)
                    (xi,) = seeded_normals(rng, core, 1)
                    want = merged((sign * value, mult)
                                  for value, mult in model_tube_table("op2", core, r, xi))
                    assert got == want, (cfg, s, q, core)
                    compared += 1
        assert compared == 24

    def test_evolution_check_reports_instead_of_raising(self, everything):
        # a branch (kappa, p) at Q1 has its poles at (4n - p) pi / (4 kappa)
        # from Q1, and the focal sets lie pi / (2g) apart, so it has a pole
        # strictly between them iff 0 < (4n - p) g < 2 kappa for an integer
        # n (only n = 1 can qualify), and at the midpoint iff (4n - p) g = kappa
        midpoint = crossing = 0
        for cfg in everything[::5]:
            rows = cfg.branches_at("q1")
            poles = [(k, (4 * n - p) * cfg.g, m) for k, p, m in rows for n in range(3)]
            interior = sum(m for k, x, m in poles if 0 < x < 2 * k)
            check = tf.verify_configuration_by_evolution(cfg)
            assert check["interior_poles"] == interior, cfg
            if any(x == k for k, x, _ in poles):
                midpoint += 1
            elif interior:
                crossing += 1
        # the sample holds both kinds of interior pole: one at the midpoint
        # the system is realized at, where no branch can be built, and one
        # strictly between the midpoint and a focal set
        assert midpoint > 0 and crossing > 0

    def test_realized_system_focalizes_at_distance(self):
        cfg = next(c for c in tf.admissible_focal_configurations() if c.g == 2)
        s = 0.3
        system = cfg.realize(s)
        assert system.total_multiplicity == 15
        focal = min(focal_radius(b) for b in system.branches)
        assert abs(focal - s) <= 1e-12

    def test_focal_lattice_matches_rational_pole_positions(self):
        # poles of kappa cot(theta - kappa t) at (pi - theta)/kappa + k pi/kappa
        # must be multiples of the focal spacing pi/(2g); in units of pi
        for g in (1, 2):
            spacing = Fraction(1, 2 * g)
            for kappa in (1, 2):
                for p in range(4):
                    first = (1 - Fraction(p, 4)) / kappa
                    expected = Fraction(1, kappa) % spacing == 0 and first % spacing == 0
                    assert tf._on_focal_lattice(g, kappa, p) == expected, (g, kappa, p)

    def test_lattice_search_matches_brute_force_oracle(self, everything):
        # the filter chain applied to every configuration, one stage at a time
        lattice = [c for c in everything if c._poles_admissible()]
        proper = [c for c in lattice
                  if sum(c.normal_mults("q1")) > 0 and sum(c.normal_mults("q2")) > 0]
        minimal = [c for c in proper if c.minimal("q1") and c.minimal("q2")]
        geodesic = [c for c in minimal
                    if c.totally_geodesic("q1") or c.totally_geodesic("q2")]
        catalog = [
            c for c in geodesic
            if (not c.totally_geodesic("q1") or "q1" in c.matched_cores())
            and (not c.totally_geodesic("q2") or "q2" in c.matched_cores())
        ]
        funnel = [len(stage) for stage in
                  (everything, lattice, proper, minimal, geodesic, catalog)]
        assert funnel == [39600, 1329, 1239, 47, 23, 4]
        searched = tf.admissible_focal_configurations()
        assert [c.to_json_dict() for c in searched] == [c.to_json_dict() for c in catalog]
        cert = tf.theorem2_certificate()
        assert cert.details["total_enumerated"] == len(everything)

    def test_catalog_configuration_is_the_closed_form(self, everything):
        # every enumerated configuration with a totally geodesic focal set q
        # carrying a catalog core is the one the search builds for (g, q, core)
        catalog = {sig: name for name, sig in tf.CATALOG_CORES.items()}
        matched = 0
        for cfg in everything:
            for q in tf.FOCAL_SETS:
                core = catalog.get(cfg.signature(q))
                if core and cfg.totally_geodesic(q):
                    assert cfg == tf._catalog_configuration(cfg.g, q, core), (cfg, q)
                    matched += 1
        # 12 (g, q, core) triples, each met exactly once
        assert matched == 12

    def test_certificate_verdict(self):
        cert = tf.theorem2_certificate()
        assert cert.verdict == "equivalent"
        assert cert.details["families"] == ["hp2", "sphere"]
        assert cert.details["total_enumerated"] == 39600
        assert len(cert.details["survivors"]) == 4


#: the angles of the README and acceptance sweep
SWEEP_ALPHAS = np.linspace(0.25, 1.30, 24)
#: sample windows as fractions of the way to lambda2's first pole: the
#: package's former 64-sample window, and one reaching almost to the pole
SAMPLED_WINDOW = np.linspace(0.02, 0.8, 64)
NEAR_POLE_WINDOW = np.linspace(0.02, 1.0 - 1e-6, 64)


def model_eigenvalues(alpha):
    """The two distinguished Jacobi eigenvalues 4(1 +- cos alpha) of the
    Grassmannian model, in closed form."""
    return 4.0 * (1.0 + math.cos(alpha)), 4.0 * (1.0 - math.cos(alpha))


def sampled_residual(c, lam20, alpha, mode, window=SAMPLED_WINDOW):
    """Sampled residual of the ansatz lambda1 = c lambda2, for arrays c and
    lam20 of one shape: lambda2 follows lambda2' = lambda2^2 + mu2 from
    lam20 over the window, the Riccati defect of lambda1 is maximized over
    it, and for a_jj / a_zz the spread of the shape entry rebuilt from the
    pair joins that maximum.  No optimizer: the caller samples (c, lam20)."""
    mu1, mu2 = model_eigenvalues(alpha)
    k = math.sqrt(mu2)
    phi = np.arctan2(lam20, k)[..., None]
    t = (math.pi / 2 - phi) / k * window
    lam2 = k * np.tan(k * t + phi)
    c = np.asarray(c, dtype=float)[..., None]
    defect = np.max(np.abs(c * (1.0 - c) * lam2**2 + c * mu2 - mu1), axis=-1)
    if mode == "ratio_const":
        return defect
    q, p = 1.0 / math.tan(alpha / 2) ** 2, math.tan(alpha / 2) ** 2
    a_jj = (c * (1.0 - q) - (1.0 + p)) * lam2 / (p - q)
    entry = a_jj if mode == "a_jj_const" else (1.0 + p) * lam2 + p * a_jj
    return np.maximum(defect, np.ptp(entry, axis=-1))


class TestProportionalSweep:
    """The certificate's closed-form floor mu1 - mu2 against a sampled
    residual of the proportional ansatz, written out above."""

    def test_small_sweep_is_contradiction(self):
        alphas = np.linspace(0.3, 1.3, 5)
        cert = tf.theorem3_sweep(alphas)
        assert cert.verdict == "contradiction"
        assert cert.residual >= 1e-3
        assert cert.witness is not None
        assert len(cert.details["alphas"]) == 5
        for row in cert.details["alphas"]:
            assert row["ratio_defect"] <= 1e-8
            assert row["min_residual"] >= 1e-3

    def test_ratio_mode(self):
        cert = tf.theorem3_sweep([0.5, 0.9])
        assert cert.verdict == "contradiction"
        assert cert.residual >= 1e-3

    def test_unit_ratio_attains_the_floor_at_every_start(self):
        lam20 = np.array([-50.0, -3.0, -0.5, 0.0, 0.7, 4.0, 50.0])
        for alpha in SWEEP_ALPHAS:
            mu1, mu2 = model_eigenvalues(alpha)
            defect = sampled_residual(np.ones_like(lam20), lam20, alpha, "ratio_const")
            assert np.max(np.abs(defect - (mu1 - mu2))) <= 1e-12, alpha

    def test_shape_constraints_only_raise_the_residual(self):
        c, lam20 = np.meshgrid(np.linspace(-5.0, 5.0, 41), np.linspace(-50.0, 50.0, 41))
        for alpha in SWEEP_ALPHAS:
            ratio = sampled_residual(c, lam20, alpha, "ratio_const")
            for mode in ("a_jj_const", "a_zz_const"):
                assert np.all(sampled_residual(c, lam20, alpha, mode) >= ratio), (alpha, mode)

    def test_other_ratios_lose_near_the_pole(self):
        c = np.concatenate([np.linspace(-50.0, 50.0, 401),
                            [-1e-3, 1e-3, 0.5, 1.0 - 1e-3, 1.0 + 1e-3]])
        c = c[(np.abs(c) >= 1e-3) & (np.abs(c - 1.0) >= 1e-3)]
        c, lam20 = np.meshgrid(c, np.linspace(-50.0, 50.0, 21))
        for alpha in SWEEP_ALPHAS:
            mu1, mu2 = model_eigenvalues(alpha)
            defect = sampled_residual(c, lam20, alpha, "ratio_const", NEAR_POLE_WINDOW)
            assert np.min(defect) > mu1 - mu2, alpha

    @pytest.mark.parametrize("mode", ("a_jj_const", "a_zz_const", "ratio_const"))
    def test_certificate_floor_is_eigenvalue_gap(self, mode):
        cert = tf.theorem3_sweep(SWEEP_ALPHAS)
        rows = cert.details["alphas"]
        assert [row["alpha"] for row in rows] == list(SWEEP_ALPHAS)
        for row in rows:
            mu1, mu2 = model_eigenvalues(row["alpha"])
            assert row["min_residual"] == row["mu1"] - row["mu2"] > 0.0
            assert abs(row["min_residual"] - (mu1 - mu2)) <= 1e-9
        smallest = min(rows, key=lambda row: row["min_residual"])
        assert cert.residual == smallest["min_residual"]
        assert cert.witness == {"alpha": smallest["alpha"], "c": 1.0,
                                "residual": smallest["min_residual"]}
        # the one floor bounds the sampled residual under every shape constraint
        c = np.concatenate([np.linspace(-50.0, 50.0, 401), [1.0]])
        c, lam20 = np.meshgrid(c, np.linspace(-50.0, 50.0, 21))
        for row in rows:
            defect = sampled_residual(c, lam20, row["alpha"], mode, NEAR_POLE_WINDOW)
            assert np.min(defect) >= row["min_residual"] - 1e-9, row["alpha"]

    def test_excluded_angles_rejected(self):
        for cos_a in (0.6, 0.8):
            with pytest.raises(ExcludedAngleError):
                tf.theorem3_sweep([math.acos(cos_a)])
        with pytest.raises(ExcludedAngleError):
            tf.theorem3_sweep([math.pi / 2])  # cos = 0

    def test_boundary_case(self):
        cert = tf.theorem3_boundary_case()
        assert cert.verdict == "contradiction"
        assert abs(cert.residual - 4.0) <= 1e-9
        clusters = cert.details["spectrum"]
        assert [m for _, m in clusters] == [4, 4]
        assert abs(clusters[0][0]) <= 1e-9
        assert abs(clusters[1][0] - 4.0) <= 1e-9
