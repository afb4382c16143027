"""Octonion arithmetic over the canonical orthonormal basis 1, J1..J7.

The signed basis table, its index triples and the dimension come from
octonion_table, which needs no numpy; this module turns the table into
the structure tensor that the linear-algebra kernels contract against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError
from .octonion_table import DIM, TRIPLES, multiplication_table  # TRIPLES is re-exported


def build_structure_tensor() -> np.ndarray:
    """Return T with (e_i e_j)_k = T[i, j, k], entries in {-1, 0, +1}."""
    T = np.zeros((DIM, DIM, DIM))
    for row in multiplication_table():
        T[row["i"], row["j"], row["k"]] = row["sign"]
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

