"""Curvature of the 16-dimensional octonionic projective plane and its
hyperbolic dual, on plain 16-vectors.

Conventions fixed here and relied on everywhere else:

* A tangent vector is a numpy array of shape (16,): coordinates 0-7 are
  the first octonion a, coordinates 8-15 the second octonion b, each
  over the basis 1, J1..J7.  The inner product is the product one, summed
  slot by slot: <x, y> = <x[:8], y[:8]> + <x[8:], y[8:]>.
* ``curvature`` and ``sectional_curvature`` broadcast over leading batch
  axes: an (N, 16) array is N tangent vectors, and a (16,) vector is a
  batch of one.  Each row of a batched result equals the call on that row
  alone, bit for bit.
* ``sign=+1`` selects the compact plane, ``sign=-1`` the hyperbolic dual;
  the tensors differ by a global sign.
* The normal Jacobi operator is K_xi(X) = R(X, xi) xi, which makes the
  compact spectrum positive: {4 with multiplicity 7, 1 with multiplicity
  8, 0 on xi itself}.
* The factor 4 on the metric terms of ``curvature`` calibrates the
  pair-model tensor so that compact sectional curvatures fill [1, 4]: an
  octonion-line plane such as span{e0, e1} reaches 4 and a transverse
  plane such as span{e0, e8} reaches 1, and the tube principal-curvature
  tables then hold verbatim.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import octonion as oct
from .errors import DegeneratePlaneError, NormalizationError
from .operators import SelfAdjointOperator, dot, jacobi_matrices

DIM = 16
_GRAM_TOL = 1e-14


def curvature(x: np.ndarray, y: np.ndarray, z: np.ndarray, sign: int = 1) -> np.ndarray:
    """Curvature tensor R(x, y)z, broadcast over leading batch axes.

    Args:
        x, y, z: tangent vectors of shape (..., 16).
        sign: +1 compact, -1 hyperbolic.

    Returns:
        R(x, y)z, shape (..., 16): the broadcast batch shape of x, y, z.

    Raises:
        NormalizationError: if sign is not +1 or -1, or a last axis is not 16.
    """
    if sign not in (1, -1):
        raise NormalizationError(f"sign must be +1 or -1, got {sign!r}")
    for v in (x, y, z):
        if np.shape(v)[-1:] != (DIM,):
            raise NormalizationError(
                f"tangent vector needs shape (..., {DIM}), got {np.shape(v)}"
            )
    a, b = x[..., :8], x[..., 8:]
    c, d = y[..., :8], y[..., 8:]
    e, f = z[..., :8], z[..., 8:]
    mul, conj = oct.multiply, oct.conjugate
    ad_cb = mul(a, d) - mul(c, b)
    comp1 = (
        4.0 * dot(c, e) * a
        - 4.0 * dot(a, e) * c
        + mul(mul(e, d), conj(b))
        - mul(mul(e, b), conj(d))
        + mul(ad_cb, conj(f))
    )
    comp2 = (
        4.0 * dot(d, f) * b
        - 4.0 * dot(b, f) * d
        + mul(conj(a), mul(c, f))
        - mul(conj(c), mul(a, f))
        - mul(conj(e), ad_cb)
    )
    return sign * np.concatenate([comp1, comp2], axis=-1)


def jacobi_operator(xi: np.ndarray, sign: int = 1) -> SelfAdjointOperator:
    """Normal Jacobi operator K_xi = R(., xi) xi as a 16x16 matrix."""
    return SelfAdjointOperator(jacobi_matrices(partial(curvature, sign=sign), xi))


def sectional_curvature(x: np.ndarray, y: np.ndarray, sign: int = 1) -> float | np.ndarray:
    """Sectional curvature of span{x, y}, broadcast over leading batch axes.

    Returns a float for (16,) inputs and an array of the batch shape for
    (..., 16) inputs.

    Raises:
        DegeneratePlaneError: if the Gram determinant of (x, y) is below
            1e-14 in any row, i.e. the two vectors do not span a plane
            numerically.
    """
    num = np.vecdot(curvature(x, y, y, sign), x)
    gram = np.vecdot(x, x) * np.vecdot(y, y) - np.vecdot(x, y) ** 2
    if np.any(gram < _GRAM_TOL):
        raise DegeneratePlaneError(
            f"plane is degenerate: Gram determinant {float(np.nanmin(gram))!r}"
        )
    k = num / gram
    return float(k) if np.ndim(k) == 0 else k


def random_unit_pair(rng: np.random.Generator, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Gaussian draws of 16 coordinates, each normalized to unit length.

    Returns shape batch + (16,); the default is one (16,) vector.  The
    draws fill the batch in C order, so a batch takes the same random
    stream as the same number of single draws: selftest draws its five
    normals as one batch and prints what the single draws printed.
    """
    v = rng.normal(size=(*batch, DIM))
    return v / np.sqrt(np.vecdot(v, v))[..., None]
