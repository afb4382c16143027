import math
from functools import partial

import numpy as np
import pytest

from curvadapt import grassmannian as g
from curvadapt.errors import BoundaryAngleError, NormalizationError
from curvadapt.tube_flow import linspace
from helpers import holonomy_algebra, rotated


@pytest.fixture(scope="module")
def bundle():
    return g.StructureBundle.standard()


class TestStructureBundle:
    def test_defect_is_zero_for_standard_bundle(self, bundle):
        assert bundle.defect <= 1e-12

    def test_quaternion_relations(self, bundle):
        j1, j2, j3 = bundle.triple
        eye = np.eye(bundle.dim)
        assert np.allclose(j1 @ j1, -eye, atol=1e-14)
        assert np.allclose(j2 @ j2, -eye, atol=1e-14)
        assert np.allclose(j1 @ j2, j3, atol=1e-14)
        assert np.allclose(j2 @ j1, -j3, atol=1e-14)

    def test_kaehler_commutes_with_triple(self, bundle):
        for jn in bundle.triple:
            assert np.allclose(bundle.J @ jn, jn @ bundle.J, atol=1e-14)

    def test_all_structures_are_isometries(self, bundle):
        for m in (bundle.J, *bundle.triple):
            assert np.allclose(m.T @ m, np.eye(bundle.dim), atol=1e-14)

    def test_rotated_bundle_stays_healthy(self, bundle):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        other = rotated(bundle, q)
        assert other.defect <= 1e-10

    def test_rotation_validation(self, bundle):
        with pytest.raises(NormalizationError):
            rotated(bundle, np.eye(3) * 2.0)
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NormalizationError):
            rotated(bundle, reflection)

    def test_dimension(self, bundle):
        assert bundle.dim == 8
        assert g.StructureBundle.standard(m=3).dim == 12

    @pytest.mark.parametrize("m", [2, 3])
    def test_standard_is_one_bundle_per_m(self, m):
        assert g.StructureBundle.standard(m) is g.StructureBundle.standard(m)
        assert g.StructureBundle.standard(m) is g.StructureBundle.standard(m=m)
        assert g.StructureBundle.standard() is g.StructureBundle.standard(2)

    def test_standard_arrays_are_read_only(self, bundle):
        # a call that wrote into the shared bundle would change every later call
        for array in (bundle.J, *bundle.triple):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        assert bundle.defect == 0.0

    def test_too_few_slots_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(NormalizationError):
                g.StructureBundle.standard(1)


class TestCurvatureTensor:
    def test_corrected_tensor_identities(self, bundle):
        rng = np.random.default_rng(201)
        worst = {"antisym": 0.0, "pair": 0.0, "bianchi": 0.0}
        for _ in range(300):
            x, y, z, w = [v / np.linalg.norm(v)
                          for v in rng.standard_normal((4, bundle.dim))]
            rxyz = g.curvature_g2(x, y, z, bundle)
            worst["antisym"] = max(
                worst["antisym"], np.max(np.abs(rxyz + g.curvature_g2(y, x, z, bundle))))
            worst["pair"] = max(
                worst["pair"], abs(rxyz @ w - g.curvature_g2(z, w, x, bundle) @ y))
            bianchi = (rxyz + g.curvature_g2(y, z, x, bundle)
                       + g.curvature_g2(z, x, y, bundle))
            worst["bianchi"] = max(worst["bianchi"], np.max(np.abs(bianchi)))
        for name, value in worst.items():
            assert value <= 1e-10, f"{name} defect {value:.3e}"

    def test_verbatim_reading_breaks_pair_symmetry(self, bundle):
        # negative control: the uncorrected JZ term is not a curvature tensor
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(50):
            x, y, z, w = [v / np.linalg.norm(v)
                          for v in rng.standard_normal((4, bundle.dim))]
            lhs = g.curvature_g2(x, y, z, bundle, verbatim=True) @ w
            rhs = g.curvature_g2(z, w, x, bundle, verbatim=True) @ y
            worst = max(worst, abs(lhs - rhs))
        assert worst > 1e-3

    def test_tensor_invariant_under_triple_rotation(self, bundle):
        # the tensor only sees the span of the triple, so rotating it
        # inside SO(3) must leave every curvature value alone
        rng = np.random.default_rng(203)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        other = rotated(bundle, q)
        for _ in range(20):
            x, y, z = [v / np.linalg.norm(v)
                       for v in rng.standard_normal((3, bundle.dim))]
            direct = g.curvature_g2(x, y, z, bundle)
            turned = g.curvature_g2(x, y, z, other)
            assert np.max(np.abs(direct - turned)) <= 1e-10


class TestHolonomy:
    """The model is the tangent space of the symmetric space
    G2(C^{m+2}): the operators R(x, y) span s(u(2) + u(m)), of dimension
    m^2 + 3, and R is invariant under it.  The verbatim reading is not."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_model_is_a_symmetric_space(self, m):
        bundle = g.StructureBundle.standard(m)
        dim, closure, invariance = holonomy_algebra(
            partial(g.curvature_g2, bundle=bundle), bundle.dim)
        assert dim == m * m + 3
        assert closure <= 1e-12
        assert invariance == 0.0

    def test_verbatim_reading_is_not(self):
        bundle = g.StructureBundle.standard(3)
        _, _, invariance = holonomy_algebra(
            partial(g.curvature_g2, bundle=bundle, verbatim=True), bundle.dim)
        assert invariance >= 1.0


class TestAlphaDecomposition:
    def test_alpha_law_along_the_sweep(self, bundle):
        # cos(alpha) is the length of J xi's projection onto the quaternionic
        # span of xi: the norm of (<J xi, J_n xi>)_n
        for alpha in np.linspace(0.05, np.pi / 2 - 0.05, 15):
            xi = g.unit_with_angle(alpha, bundle)
            jxi = bundle.J @ xi
            cos_alpha = np.linalg.norm([jxi @ (Jn @ xi) for Jn in bundle.triple])
            assert abs(cos_alpha - np.cos(alpha)) <= 1e-12

    def test_out_of_range_angle_rejected(self, bundle):
        with pytest.raises(BoundaryAngleError):
            g.unit_with_angle(-0.1, bundle)
        with pytest.raises(BoundaryAngleError):
            g.unit_with_angle(np.pi / 2 + 0.1, bundle)


class TestHopfEigenvectors:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_eigenvalue_law(self, m):
        # the constant 4 in 4 (1 +/- cos alpha) does not depend on the model size
        bundle = g.StructureBundle.standard(m)
        alphas = np.linspace(0.1, np.pi / 2 - 0.1, 12)
        for alpha, pair in zip(alphas, g.hopf_eigenvectors(alphas, bundle)):
            assert abs(pair.lambda1 - 4.0 * (1.0 + np.cos(alpha))) <= 1e-9
            assert abs(pair.lambda2 - 4.0 * (1.0 - np.cos(alpha))) <= 1e-9
            assert pair.residual <= 1e-9

    def test_eigenvalue_ratio(self, bundle):
        alpha = 0.7
        (pair,) = g.hopf_eigenvectors([alpha], bundle)
        # the theorem-3 rows and grassmannian-check read this defect: the
        # ratio law without its division, at the requested angle with math.cos
        c = math.cos(alpha)
        assert abs(pair.lambda1 / pair.lambda2 - (1.0 + c) / (1.0 - c)) <= 1e-9
        assert pair.ratio_defect <= 1e-9
        assert pair.ratio_defect == abs(pair.lambda1 * (1.0 - c) - pair.lambda2 * (1.0 + c))

    def test_exact_model_meets_the_ratio_law_at_small_angles(self, bundle):
        # the divided ratio grows like 4 / alpha^2, and its absolute error
        # was 5.6e-8 at alpha = 0.01; the cross-multiplied law stays at the
        # eigenvalue scale
        for pair in g.hopf_eigenvectors([1e-5, 1e-4, 1e-3, 0.01, 0.7, 1.57], bundle):
            assert pair.ratio_defect <= 1e-14

    def test_boundary_angles_rejected(self, bundle):
        with pytest.raises(BoundaryAngleError):
            g.hopf_eigenvectors([0.0], bundle)
        with pytest.raises(BoundaryAngleError):
            g.hopf_eigenvectors([np.pi / 2], bundle)


class TestJacobiSpectrum:
    def test_generic_spectrum_shape(self, bundle):
        alpha = 0.7
        xi = g.unit_with_angle(alpha, bundle)
        spec = g.jacobi_operator_g2(xi, bundle).spectrum()
        expected = sorted([
            (0.0, 2),
            (2.0 * (1.0 - np.sin(alpha)), 2),
            (4.0 * (1.0 - np.cos(alpha)), 1),
            (2.0 * (1.0 + np.sin(alpha)), 2),
            (4.0 * (1.0 + np.cos(alpha)), 1),
        ])
        got = [(c.value, c.multiplicity) for c in spec]
        assert len(got) == len(expected)
        for (ev, em), (gv, gm) in zip(expected, got):
            assert abs(ev - gv) <= 1e-9
            assert em == gm

    def test_collision_at_cos_four_fifths(self, bundle):
        # 4 (1 - cos a) meets 2 (1 - sin a) on the 3-4-5 triangle; the two
        # clusters fuse and the spectrum degenerates
        alpha = float(np.arccos(0.8))
        spec = g.jacobi_operator_g2(g.unit_with_angle(alpha, bundle), bundle).spectrum()
        got = [(round(c.value, 9), c.multiplicity) for c in spec]
        assert got == [(0.0, 2), (0.8, 3), (3.2, 2), (7.2, 1)]

    def test_no_collision_at_cos_three_fifths_for_m_two(self, bundle):
        # this excluded cosine only bites for larger quaternionic rank
        alpha = float(np.arccos(0.6))
        spec = g.jacobi_operator_g2(g.unit_with_angle(alpha, bundle), bundle).spectrum()
        assert [c.multiplicity for c in spec] == [2, 2, 1, 2, 1]

    @pytest.mark.parametrize("m, mults", [(2, [2, 1, 2, 2, 1]), (3, [2, 2, 1, 2, 2, 2, 1])])
    def test_small_and_near_right_angles_keep_every_eigenvalue(self, m, mults):
        # 2 alpha^2 beside 0 at small angles, and clusters cos(alpha) apart
        # near pi/2, stay apart: the gap is eigh's rounding, about 1e-12
        bundle = g.StructureBundle.standard(m)
        small = np.logspace(-6, -2, 400)
        for alpha in [*small, *(np.pi / 2 - small)]:
            op = g.jacobi_operator_g2(g.unit_with_angle(float(alpha), bundle), bundle)
            spec = op.spectrum()
            assert op.max_eigen_residual(spec) <= 1e-9, alpha
        spec = g.jacobi_operator_g2(g.unit_with_angle(1e-4, bundle), bundle).spectrum()
        assert [c.multiplicity for c in spec] == mults

    def test_non_unit_direction_rejected(self, bundle):
        with pytest.raises(NormalizationError):
            g.jacobi_operator_g2(np.full(bundle.dim, 0.3), bundle)


class TestBatchedKernels:
    """A batch is rows of the single-vector call, bit for bit."""

    @pytest.mark.parametrize("verbatim", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 64])
    def test_batched_curvature_equals_per_row_calls(self, m, verbatim):
        big = g.StructureBundle.standard(m)
        rng = np.random.default_rng(300 + m)
        x, y, z = rng.standard_normal((3, 40, big.dim))
        rows = [g.curvature_g2(a, b, c, big, verbatim) for a, b, c in zip(x, y, z)]
        assert np.array_equal(g.curvature_g2(x, y, z, big, verbatim), rows)
        assert np.array_equal(g.curvature_g2(x, y[0], z, big, verbatim),
                              [g.curvature_g2(a, y[0], c, big, verbatim) for a, c in zip(x, z)])

    @pytest.mark.parametrize("verbatim", [False, True])
    @pytest.mark.parametrize("m", [2, 3])
    def test_jacobi_operator_is_stacked_curvature_columns(self, m, verbatim):
        # with Y = Z = xi the verbatim reading changes no column
        big = g.StructureBundle.standard(m)
        xi = g.unit_with_angle(0.7, big)
        cols = [g.curvature_g2(e, xi, xi, big, verbatim) for e in np.eye(big.dim)]
        op = g.jacobi_operator_g2(xi, big)
        assert np.array_equal(op.matrix, np.column_stack(cols))

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("grid", [(0.25, 1.30, 24), (0.01, 1.56, 200)])
    def test_batched_hopf_pairs_equal_per_angle_calls(self, m, grid):
        big = g.StructureBundle.standard(m)
        alphas = linspace(*grid)
        per_angle = [g.hopf_eigenvectors([a], big)[0] for a in alphas]
        assert g.hopf_eigenvectors(alphas, big) == per_angle

    def test_batch_names_the_first_boundary_angle(self, bundle):
        with pytest.raises(BoundaryAngleError, match="got 2.0"):
            g.hopf_eigenvectors([0.5, 2.0, -1.0], bundle)
        with pytest.raises(BoundaryAngleError, match="alpha=0.0"):
            g.hopf_eigenvectors([0.5, 0.0, 1.0], bundle)
        assert g.hopf_eigenvectors([], bundle) == []

    def test_no_sweep_angle_measures_on_the_boundary(self, bundle):
        # the theorem-3 sweep batches every angle that passes its excluded-
        # cosine and range checks; none of them may raise in the batch, or
        # the sweep would report it before an earlier row's error.  Below
        # pi/2 the excluded cosine 0 stops at cos = 1e-9: check the floats
        # around it
        alphas = [math.acos(1e-9)]
        for _ in range(2000):
            alphas.append(math.nextafter(alphas[-1], 0.0))
        for _ in range(2000):
            alphas.insert(0, math.nextafter(alphas[0], 2.0))
        sweep = [a for a in alphas if abs(math.cos(a)) >= 1e-9]
        assert len(sweep) > 1000
        assert len(g.hopf_eigenvectors(sweep, bundle)) == len(sweep)
