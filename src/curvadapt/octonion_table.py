"""The signed octonion basis table in pure Python, without numpy.

The basis 1, J1..J7 is orthonormal, every imaginary unit squares to -1,
distinct imaginary units anticommute, and J_i J_{i+1} = J_{i+3} with
indices taken mod 7 back into {1..7}.  Each index triple {i, i+1, i+3}
is closed under cyclic quaternionic multiplication; the seven triples
cover every pair of imaginary units exactly once, so the table is total.
octonion builds its structure tensor from this table.
"""

from __future__ import annotations

DIM = 8

#: index triples {i, i+1, i+3} reduced mod 7 into {1..7}, one per line
TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    (i, (i % 7) + 1, ((i + 2) % 7) + 1) for i in range(1, 8)
)


def _signed_products() -> dict[tuple[int, int], tuple[int, int]]:
    """(i, j) -> (sign, k) meaning J_i J_j = sign * J_k.

    Raises:
        RuntimeError: if a basis pair is left out or assigned twice.
    """
    products = {(0, 0): (1, 0)}
    for i in range(1, DIM):
        products[0, i] = products[i, 0] = (1, i)
        products[i, i] = (-1, 0)
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            products[x, y] = (1, z)
            products[y, x] = (-1, z)
    # 64 assignments in all, so 64 keys means none was overwritten
    if len(products) != DIM * DIM:
        raise RuntimeError("multiplication table not total")
    return products


_PRODUCTS = _signed_products()


def multiplication_table() -> list[dict]:
    """Signed basis table as records {i, j, sign, k} meaning J_i J_j = sign * J_k."""
    return [
        {"i": i, "j": j, "sign": sign, "k": k}
        for (i, j), (sign, k) in sorted(_PRODUCTS.items())
    ]
