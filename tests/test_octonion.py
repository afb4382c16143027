import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvadapt import octonion
from curvadapt.octonion import conjugate, multiply, norm
from helpers import associator, inner


def basis(i):
    e = np.zeros(8)
    e[i] = 1.0
    return e


class TestBasisAlgebra:
    def test_table_has_all_64_products(self):
        table = octonion.multiplication_table()
        assert len(table) == 64
        seen = {(row["i"], row["j"]) for row in table}
        assert seen == set(itertools.product(range(8), repeat=2))

    def test_every_product_is_signed_basis_element(self):
        for row in octonion.multiplication_table():
            product = multiply(basis(row["i"]), basis(row["j"]))
            expected = row["sign"] * basis(row["k"])
            assert np.array_equal(product, expected)

    def test_unit_is_two_sided_identity(self):
        for i in range(8):
            assert np.array_equal(multiply(basis(0), basis(i)), basis(i))
            assert np.array_equal(multiply(basis(i), basis(0)), basis(i))

    def test_imaginary_squares(self):
        for i in range(1, 8):
            assert np.array_equal(multiply(basis(i), basis(i)), -basis(0))

    def test_anticommutativity_off_diagonal(self):
        for i, j in itertools.permutations(range(1, 8), 2):
            ab = multiply(basis(i), basis(j))
            ba = multiply(basis(j), basis(i))
            assert np.array_equal(ab, -ba)

    def test_spot_product(self):
        # the (5, 6, 1) index triple, easy to get wrong when wiring the lines
        assert np.array_equal(multiply(basis(5), basis(6)), basis(1))

    def test_rows_are_signed_permutations(self):
        table = {(r["i"], r["j"]): (r["sign"], r["k"]) for r in octonion.multiplication_table()}
        for i in range(8):
            images = [table[(i, j)][1] for j in range(8)]
            assert sorted(images) == list(range(8))

    def test_triples_are_quaternionic(self):
        for a, b, c in octonion.TRIPLES:
            assert np.array_equal(multiply(basis(a), basis(b)), basis(c))
            assert np.array_equal(multiply(basis(b), basis(c)), basis(a))
            assert np.array_equal(multiply(basis(c), basis(a)), basis(b))


class TestExactIdentities:
    def test_alternativity_on_integer_combinations(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.integers(-3, 4, size=8).astype(float)
            b = rng.integers(-3, 4, size=8).astype(float)
            assert np.array_equal(associator(a, a, b), np.zeros(8))
            assert np.array_equal(associator(b, a, a), np.zeros(8))
            assert np.array_equal(associator(a, b, a), np.zeros(8))

    def test_conjugate_kills_associator(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.integers(-3, 4, size=8).astype(float)
            b = rng.integers(-3, 4, size=8).astype(float)
            assert np.array_equal(associator(a, conjugate(a), b), np.zeros(8))

    def test_conjugation_antiautomorphism(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.integers(-3, 4, size=8).astype(float)
            b = rng.integers(-3, 4, size=8).astype(float)
            assert np.array_equal(conjugate(multiply(a, b)),
                                  multiply(conjugate(b), conjugate(a)))

    def test_norm_is_conjugate_product(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a = rng.standard_normal(8)
            aa = multiply(a, conjugate(a))
            assert abs(aa[0] - norm(a) ** 2) < 1e-12
            assert np.max(np.abs(aa[1:])) < 1e-12


class TestNormMultiplicativity:
    def test_ten_thousand_seeded_pairs(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(10_000):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            lhs = norm(multiply(a, b))
            rhs = norm(a) * norm(b)
            worst = max(worst, abs(lhs - rhs) / rhs)
        assert worst <= 1e-12


finite_coeffs = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=8, max_size=8
)


class TestPropertyBased:
    @given(finite_coeffs, finite_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, xs, ys):
        a, b = np.array(xs), np.array(ys)
        lhs = norm(multiply(a, b))
        rhs = norm(a) * norm(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    @given(finite_coeffs, finite_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_left_alternative(self, xs, ys):
        a, b = np.array(xs), np.array(ys)
        defect = np.max(np.abs(associator(a, a, b)))
        scale = max(1.0, norm(a) ** 2 * norm(b))
        assert defect <= 1e-10 * scale

    @given(finite_coeffs, finite_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_inner_from_polarization(self, xs, ys):
        a, b = np.array(xs), np.array(ys)
        # <a, b> = Re(a b*) for the Euclidean pairing
        ab = multiply(a, conjugate(b))
        assert abs(inner(a, b) - ab[0]) <= 1e-10 * max(1.0, norm(a) * norm(b))



class TestBatchedKernels:
    """A batch is rows of the single-octonion call, bit for bit."""

    def test_batched_product_equals_per_row_products(self):
        rng = np.random.default_rng(2025)
        a, b = rng.standard_normal((2, 2000, 8))
        rows = np.array([multiply(u, v) for u, v in zip(a, b)])
        assert np.array_equal(multiply(a, b), rows)
        # one factor broadcast against a batch, and two leading axes
        assert np.array_equal(multiply(a, b[0]), np.array([multiply(u, b[0]) for u in a]))
        assert np.array_equal(multiply(a.reshape(40, 50, 8), b.reshape(40, 50, 8)),
                              rows.reshape(40, 50, 8))

    def test_product_matches_structure_contraction(self):
        rng = np.random.default_rng(2026)
        for a, b in rng.standard_normal((200, 2, 8)):
            assert np.array_equal(multiply(a, b),
                                  np.einsum("i,j,ijk->k", a, b, octonion.STRUCTURE))

    def test_batched_norm_and_inner_equal_per_row(self):
        rng = np.random.default_rng(2027)
        a, b = rng.standard_normal((2, 300, 8))
        assert np.array_equal(norm(a), [norm(u) for u in a])
        assert np.array_equal(inner(a, b), [inner(u, v) for u, v in zip(a, b)])
        assert np.array_equal(associator(a, b, a[::-1]),
                              [associator(u, v, w) for u, v, w in zip(a, b, a[::-1])])
        assert isinstance(norm(a[0]), float) and isinstance(inner(a[0], b[0]), float)
