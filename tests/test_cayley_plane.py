from functools import partial

import numpy as np
import pytest

from curvadapt import cayley_plane as cp
from curvadapt import octonion as oct
from curvadapt.errors import DegeneratePlaneError, NormalizationError
from helpers import adapted_frame, holonomy_algebra


def assert_spectrum(spec, expected, tol=1e-9):
    got = {round(c.value): c.multiplicity for c in spec}
    assert got == expected
    for c in spec:
        assert abs(c.value - round(c.value)) <= tol


class TestJacobiSpectrum:
    def test_compact_spectrum_is_rigid(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            xi = cp.random_unit_pair(rng)
            op = cp.jacobi_operator(xi, sign=1)
            spec = op.spectrum()
            assert_spectrum(spec, {4: 7, 1: 8, 0: 1})
            assert op.max_eigen_residual(spec) <= 1e-9

    def test_noncompact_spectrum_is_rigid(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            xi = cp.random_unit_pair(rng)
            op = cp.jacobi_operator(xi, sign=-1)
            spec = op.spectrum()
            assert_spectrum(spec, {-4: 7, -1: 8, 0: 1})
            assert op.max_eigen_residual(spec) <= 1e-9

    def test_kernel_is_the_direction_itself(self):
        rng = np.random.default_rng(103)
        xi = cp.random_unit_pair(rng)
        out = cp.jacobi_operator(xi).matrix @ xi
        assert np.max(np.abs(out)) <= 1e-12

    def test_rejects_non_unit_direction(self):
        with pytest.raises(NormalizationError):
            cp.jacobi_operator(np.full(16, 0.5))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            cp.jacobi_operator(np.eye(16)[0], sign=2)


class TestTensorHealth:
    def test_algebraic_identities_on_random_vectors(self):
        rng = np.random.default_rng(104)
        worst = {"antisym": 0.0, "pair": 0.0, "bianchi": 0.0, "skew": 0.0}
        for _ in range(300):
            x, y, z, w = [v / np.linalg.norm(v) for v in rng.standard_normal((4, 16))]
            rxyz = cp.curvature(x, y, z)
            ryxz = cp.curvature(y, x, z)
            worst["antisym"] = max(worst["antisym"], np.max(np.abs(rxyz + ryxz)))
            pair = abs(rxyz @ w - cp.curvature(z, w, x) @ y)
            worst["pair"] = max(worst["pair"], pair)
            bianchi = rxyz + cp.curvature(y, z, x) + cp.curvature(z, x, y)
            worst["bianchi"] = max(worst["bianchi"], np.max(np.abs(bianchi)))
            skew = abs(rxyz @ w + cp.curvature(x, y, w) @ z)
            worst["skew"] = max(worst["skew"], skew)
        for name, value in worst.items():
            assert value <= 1e-10, f"{name} defect {value:.3e}"

    def test_sign_flag_flips_tensor(self):
        rng = np.random.default_rng(105)
        x, y, z = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 16))]
        assert np.allclose(cp.curvature(x, y, z, 1), -cp.curvature(x, y, z, -1),
                           atol=1e-14)


class TestSpin9Derivation:
    """OP^2 = F4/Spin(9): its curvature is the Spin(9) moment map on the
    spinor module O^2 (Brown & Gray, 1972; Friedrich, Asian J. Math. 5,
    2001), which the Cl(7) Clifford tensor of the same Jacobi spectrum and
    pinching is not.  Every entry is an integer, so equality is exact."""

    @staticmethod
    def generators():
        """gamma_a(x, y) = (e_a ybar, xbar e_a) for a = 0..7 and
        gamma_8(x, y) = (x, -y), as 16x16 matrices."""
        basis = np.eye(16)
        x, y = basis[:, :8], basis[:, 8:]
        units = np.eye(8)
        gammas = [np.concatenate([oct.multiply(units[a], oct.conjugate(y)),
                                  oct.multiply(oct.conjugate(x), units[a])], axis=-1).T
                  for a in range(8)]
        return np.array([*gammas, np.diag([1.0] * 8 + [-1.0] * 8)])

    def test_generators_satisfy_the_clifford_relations(self):
        g = self.generators()
        anti = np.einsum("aij,bjk->abik", g, g)
        assert np.array_equal(anti + anti.transpose(1, 0, 2, 3),
                              2.0 * np.einsum("ab,ik->abik", np.eye(9), np.eye(16)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_moment_map_is_the_model_tensor(self, sign):
        # R(x, y)z = -sum_{a<b} <g_a g_b x, y> g_a g_b z on all 4,096 basis triples
        g = self.generators()
        a, b = np.triu_indices(9, 1)
        pairs = g[a] @ g[b]
        spin9 = -np.einsum("pji,pkl->ijlk", pairs, pairs).reshape(4096, 16)
        basis = np.eye(16)
        i, j, k = (n.ravel() for n in np.indices((16, 16, 16)))
        model = cp.curvature(basis[i], basis[j], basis[k], sign)
        assert np.max(np.abs(model - sign * spin9)) == 0.0


class TestHolonomy:
    """OP^2 and OH^2 are symmetric spaces: the operators R(x, y) span the
    isotropy algebra so(9), and R is invariant under it (Helgason, ch. IV).
    The Cl(7) Clifford tensor of the same Jacobi spectrum spans more and is
    not invariant."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_model_is_a_symmetric_space(self, sign):
        dim, closure, invariance = holonomy_algebra(partial(cp.curvature, sign=sign), cp.DIM)
        assert dim == 36  # dim so(9)
        assert closure <= 1e-12
        assert invariance == 0.0


class TestSectionalCurvature:
    def test_range_on_random_orthonormal_planes(self):
        rng = np.random.default_rng(106)
        for _ in range(300):
            a = rng.standard_normal(16)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(16)
            b -= (b @ a) * a
            b /= np.linalg.norm(b)
            k = cp.sectional_curvature(a, b)
            assert 1.0 - 1e-9 <= k <= 4.0 + 1e-9

    def test_extremes_at_structured_planes(self):
        e = np.eye(16)
        # a plane inside one octonion line is maximally pinched
        top = cp.sectional_curvature(e[0], e[1])
        assert abs(top - 4.0) <= 1e-12
        # a plane straddling the two components sits at the bottom
        bottom = cp.sectional_curvature(e[0], e[8])
        assert abs(bottom - 1.0) <= 1e-12

    def test_noncompact_range_is_mirrored(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            a = rng.standard_normal(16)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(16)
            b -= (b @ a) * a
            b /= np.linalg.norm(b)
            k = cp.sectional_curvature(a, b, sign=-1)
            assert -4.0 - 1e-9 <= k <= -1.0 + 1e-9

    def test_gram_normalization(self):
        # scaling either vector must not move the sectional value
        a = np.eye(16)[0] * 3.0
        b = np.eye(16)[1] * 0.25
        assert abs(cp.sectional_curvature(a, b) - 4.0) <= 1e-12

    def test_degenerate_plane_rejected(self):
        a = np.eye(16)[2]
        b = a * (1.0 + 1e-9)
        with pytest.raises(DegeneratePlaneError):
            cp.sectional_curvature(a, b)


class TestAdaptedFrame:
    def test_frame_shapes_and_orthonormality(self):
        rng = np.random.default_rng(108)
        xi = cp.random_unit_pair(rng)
        frame = adapted_frame(xi)
        assert frame.four_space.shape == (16, 7)
        assert frame.one_space.shape == (16, 8)
        basis = np.column_stack([xi, frame.four_space, frame.one_space])
        assert np.allclose(basis.T @ basis, np.eye(16), atol=1e-9)

    def test_frame_diagonalizes_jacobi(self):
        rng = np.random.default_rng(109)
        xi = cp.random_unit_pair(rng)
        frame = adapted_frame(xi)
        op = cp.jacobi_operator(xi)
        for col in frame.four_space.T:
            assert np.max(np.abs(op.matrix @ col - 4.0 * col)) <= 1e-9
        for col in frame.one_space.T:
            assert np.max(np.abs(op.matrix @ col - col)) <= 1e-9

    def test_noncompact_frame(self):
        rng = np.random.default_rng(110)
        xi = cp.random_unit_pair(rng)
        frame = adapted_frame(xi, sign=-1)
        op = cp.jacobi_operator(xi, sign=-1)
        for col in frame.four_space.T:
            assert np.max(np.abs(op.matrix @ col + 4.0 * col)) <= 1e-9


class TestKernelChecks:
    def test_wrong_length_rejected(self):
        e0 = np.eye(16)[0]
        with pytest.raises(NormalizationError):
            cp.curvature(np.zeros(9), e0, e0)
        with pytest.raises(NormalizationError):
            cp.curvature(e0, e0, np.zeros((16, 1)))

    @pytest.mark.parametrize("sign", [2, 0])
    def test_sectional_rejects_bad_sign(self, sign):
        e = np.eye(16)
        with pytest.raises(NormalizationError):
            cp.sectional_curvature(e[0], e[1], sign=sign)


class TestBatchedKernels:
    """A batch is rows of the single-vector call, bit for bit."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_batched_curvature_equals_per_row_calls(self, sign):
        rng = np.random.default_rng(111)
        x, y, z = rng.standard_normal((3, 700, 16))
        rows = np.array([cp.curvature(a, b, c, sign) for a, b, c in zip(x, y, z)])
        assert np.array_equal(cp.curvature(x, y, z, sign), rows)
        # a single vector broadcast against a batch
        assert np.array_equal(cp.curvature(x, y[0], z, sign),
                              [cp.curvature(a, y[0], c, sign) for a, c in zip(x, z)])

    @pytest.mark.parametrize("sign", [1, -1])
    def test_batched_sectional_curvature_equals_per_row_calls(self, sign):
        rng = np.random.default_rng(112)
        x, y = rng.standard_normal((2, 700, 16))
        k = cp.sectional_curvature(x, y, sign)
        assert k.shape == (700,)
        assert np.array_equal(k, [cp.sectional_curvature(a, b, sign) for a, b in zip(x, y)])
        assert type(cp.sectional_curvature(x[0], y[0], sign)) is float

    @pytest.mark.parametrize("sign", [1, -1])
    def test_jacobi_operator_is_stacked_curvature_columns(self, sign):
        rng = np.random.default_rng(113)
        e = np.eye(16)
        for _ in range(5):
            xi = cp.random_unit_pair(rng)
            cols = [cp.curvature(e[i], xi, xi, sign) for i in range(16)]
            assert np.array_equal(cp.jacobi_operator(xi, sign).matrix, np.column_stack(cols))

    def test_one_degenerate_row_rejects_the_batch(self):
        rng = np.random.default_rng(114)
        x, y = rng.standard_normal((2, 10, 16))
        y[6] = 2.0 * x[6]
        with pytest.raises(DegeneratePlaneError):
            cp.sectional_curvature(x, y)
        cp.sectional_curvature(np.delete(x, 6, axis=0), np.delete(y, 6, axis=0))

    def test_one_batched_build_equals_single_operators(self):
        # selftest builds its five Jacobi matrices in one call, and its
        # output stays byte-identical only if they are the single builds
        from curvadapt.operators import jacobi_matrices

        xis = cp.random_unit_pair(np.random.default_rng(116), (5,))
        batch = jacobi_matrices(cp.curvature, xis)
        assert batch.shape == (5, 16, 16)
        for k, xi in zip(batch, xis):
            assert np.array_equal(k, cp.jacobi_operator(xi).matrix)

    def test_batched_draws_take_the_single_draw_stream(self):
        batch = cp.random_unit_pair(np.random.default_rng(115), (4, 2))
        rng = np.random.default_rng(115)
        singles = np.array([cp.random_unit_pair(rng) for _ in range(8)])
        assert np.array_equal(batch.reshape(8, 16), singles)
