"""Arithmetic of octonions over the canonical orthonormal basis 1, J1..J7.

The signed basis table, its index triples and the dimension come from
octonion_table, which needs no numpy; this module turns the table into
the structure tensor that the linear-algebra kernels contract against.

An octonion is a coefficient array whose last axis has length 8; any
leading axes are a batch, and every function here broadcasts over them.
A single octonion, shape (8,), is a batch of one.
"""

from __future__ import annotations

import numpy as np

from . import octonion_table
from .octonion_table import DIM


def build_structure_tensor() -> np.ndarray:
    """Return T with (e_i e_j)_k = T[i, j, k], entries in {-1, 0, +1}."""
    T = np.zeros((DIM, DIM, DIM))
    for row in octonion_table.multiplication_table():
        T[row["i"], row["j"], row["k"]] = row["sign"]
    return T


STRUCTURE = build_structure_tensor()
#: STRUCTURE with (i, j) flattened, so a product is one matrix product
_STRUCTURE_64 = STRUCTURE.reshape(DIM * DIM, DIM)

_CONJ_SIGNS = np.array([1.0] + [-1.0] * 7)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The octonion product of two coefficient arrays of shape (..., 8),
    broadcast over the leading axes.

    Each product coefficient a_i b_j enters one output coordinate with
    sign +-1, so the contraction rounds only in the sum of eight terms.
    """
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(*outer.shape[:-2], DIM * DIM) @ _STRUCTURE_64


def conjugate(a: np.ndarray) -> np.ndarray:
    """Conjugate: real part kept, imaginary part negated."""
    return a * _CONJ_SIGNS


def norm(a: np.ndarray) -> float | np.ndarray:
    """The Euclidean norm over the last axis: a float for single octonions,
    an array of the batch shape for batches."""
    return np.sqrt(np.vecdot(a, a))

