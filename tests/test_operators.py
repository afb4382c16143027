import numpy as np
import pytest

from curvadapt.errors import NormalizationError
from curvadapt.operators import SelfAdjointOperator


def test_asymmetric_matrix_is_rejected():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(NormalizationError, match="not symmetric: defect 1e-06"):
        SelfAdjointOperator(m)
    # the bound scales with the largest entry
    SelfAdjointOperator(1e7 * np.eye(3) + m)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        SelfAdjointOperator(np.zeros((2, 3)))


def test_clustering_merges_within_gap():
    # the gap is 64 n eps max|lambda|, 8.5e-14 here, and scales with the matrix
    for scale in (1.0, 1e8):
        vals = scale * np.diag([1.0, 1.0 + 1e-14, 2.0])
        spec = SelfAdjointOperator(vals).spectrum()
        assert sum(c.multiplicity for c in spec) == 3
        assert [c.multiplicity for c in spec] == [2, 1]


def test_clustering_respects_gap():
    # 1e-9 lies far above eigh's rounding, so it separates two eigenvalues
    for split in (1e-3, 1e-9):
        vals = np.diag([1.0, 1.0 + split, 2.0])
        spec = SelfAdjointOperator(vals).spectrum()
        assert [c.multiplicity for c in spec] == [1, 1, 1]


def test_eigen_residual_small_for_exact_operator():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = q @ np.diag([0.0, 1.0, 1.0, 1.0, 3.0, 3.0]) @ q.T
    op = SelfAdjointOperator(0.5 * (m + m.T))
    spec = op.spectrum()
    assert op.max_eigen_residual(spec) <= 1e-12
    assert [(round(c.value), c.multiplicity) for c in spec] == [(0, 1), (1, 3), (3, 2)]


def test_cluster_vectors_orthonormal():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    m = q @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0]) @ q.T
    spec = SelfAdjointOperator(0.5 * (m + m.T)).spectrum()
    for cluster in spec:
        v = cluster.vectors
        assert np.allclose(v.T @ v, np.eye(cluster.multiplicity), atol=1e-12)


def test_matrix_is_stored_in_c_order():
    # a Jacobi build passes a transpose; the stored copy is C order, so
    # products with it round as products with a C-order input do
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    m = 0.5 * (m + m.T)
    op = SelfAdjointOperator(np.asfortranarray(m))
    assert op.matrix.flags.c_contiguous
    v = rng.standard_normal(4)
    assert np.array_equal(op.matrix @ v, m @ v)
