"""Octonion arithmetic over the canonical orthonormal basis 1, J1..J7.

The multiplication table is generated from four rules: the basis is
orthonormal, every imaginary unit squares to -1, distinct imaginary units
anticommute, and J_i J_{i+1} = J_{i+3} with indices taken mod 7 back into
{1..7}.  Each index triple {i, i+1, i+3} is closed under cyclic
quaternionic multiplication; the seven triples cover every pair of
imaginary units exactly once, so the table is total.  Validity is not
assumed: build_structure_tensor cross-checks norm multiplicativity on all
64 basis products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError

DIM = 8

#: index triples {i, i+1, i+3} reduced mod 7 into {1..7}, one per line
TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    (i, (i % 7) + 1, ((i + 2) % 7) + 1) for i in range(1, 8)
)


def build_structure_tensor() -> np.ndarray:
    """Return T with (e_i e_j)_k = T[i, j, k], entries in {-1, 0, +1}.

    Raises:
        AssertionError: if the generated table fails norm multiplicativity
            on any of the 64 basis pairs.
    """
    T = np.zeros((DIM, DIM, DIM))
    T[0, 0, 0] = 1.0
    for i in range(1, DIM):
        T[0, i, i] = 1.0
        T[i, 0, i] = 1.0
        T[i, i, 0] = -1.0
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            T[x, y, z] = 1.0
            T[y, x, z] = -1.0
    # every basis product must land on exactly one signed basis element
    norms = np.abs(T).sum(axis=2)
    assert np.array_equal(norms, np.ones((DIM, DIM))), "structure tensor not total"
    return T


STRUCTURE = build_structure_tensor()

_CONJ_SIGNS = np.array([1.0] + [-1.0] * 7)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Octonion product of two coefficient vectors."""
    return np.einsum("i,j,ijk->k", a, b, STRUCTURE)


def conjugate(a: np.ndarray) -> np.ndarray:
    """Conjugate: real part kept, imaginary part negated."""
    return a * _CONJ_SIGNS


def inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b)


def norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def associator(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(ab)c - a(bc); alternating, and zero when any two arguments agree."""
    return multiply(multiply(a, b), c) - multiply(a, multiply(b, c))


@dataclass(frozen=True)
class Octonion:
    """A single octonion, stored as 8 coefficients over 1, J1..J7."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (DIM,):
            raise NormalizationError(f"octonion needs {DIM} coefficients, got {arr.shape}")
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def basis(cls, i: int) -> "Octonion":
        if not 0 <= i < DIM:
            raise NormalizationError(f"basis index {i} out of range 0..7")
        return cls(np.eye(DIM)[i])

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(DIM))

    def __mul__(self, other: "Octonion") -> "Octonion":
        return Octonion(multiply(self.coeffs, other.coeffs))

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.coeffs + other.coeffs)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.coeffs - other.coeffs)

    def __neg__(self) -> "Octonion":
        return Octonion(-self.coeffs)

    def scale(self, s: float) -> "Octonion":
        return Octonion(s * self.coeffs)

    def conjugate(self) -> "Octonion":
        return Octonion(conjugate(self.coeffs))

    def inner(self, other: "Octonion") -> float:
        return inner(self.coeffs, other.coeffs)

    def norm(self) -> float:
        return norm(self.coeffs)

    @property
    def real_part(self) -> float:
        return float(self.coeffs[0])

    def imaginary_part(self) -> "Octonion":
        out = self.coeffs.copy()
        out[0] = 0.0
        return Octonion(out)


def multiplication_table() -> list[dict]:
    """Signed basis table as records {i, j, sign, k} meaning J_i J_j = sign * J_k."""
    rows = []
    for i in range(DIM):
        for j in range(DIM):
            k = int(np.argmax(np.abs(STRUCTURE[i, j])))
            sign = int(STRUCTURE[i, j, k])
            rows.append({"i": i, "j": j, "sign": sign, "k": k})
    return rows
