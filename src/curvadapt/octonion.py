"""Arithmetic of octonions over the canonical orthonormal basis 1, J1..J7.

The signed basis table, its index triples and the dimension come from
octonion_table, which needs no numpy; this module turns the table into
the structure tensor that the linear-algebra kernels contract against.
"""

from __future__ import annotations

import numpy as np

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
    """The octonion product of two coefficient vectors."""
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

