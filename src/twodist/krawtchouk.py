"""Exact Krawtchouk polynomial evaluation.

K_i(z) for the Hamming scheme with parameters (n, q) is

    K_i(z) = sum_{j=0}^{i} (-1)^j (q-1)^(i-j) C(z, j) C(n-z, i-j),

an integer for integer z.  The normalized family Q_i = K_i / r_i with
r_i = (q-1)^i C(n, i) satisfies Q_0 = 1 and the orthogonality relation

    sum_{z=0}^{n} C(n,z) (q-1)^z K_i(z) K_j(z) = delta_ij q^n r_i.

Values are taken at the integer distances z = 0..n, so every one is an
exact integer.
"""
from __future__ import annotations

import math


def kraw_eval(n: int, q: int, i: int, z: int) -> int:
    """K_i(z) for the (n, q) Hamming scheme, exact."""
    if not (0 <= i <= n):
        raise ValueError(f"index i={i} outside 0..{n}")
    if not (0 <= z <= n):
        raise ValueError(f"point z={z} outside 0..{n}")
    if q < 2:
        raise ValueError("q must be at least 2")
    total = 0
    for j in range(i + 1):
        term = (q - 1) ** (i - j) * math.comb(z, j) * math.comb(n - z, i - j)
        total += -term if j % 2 else term
    return total


def kraw_column(n: int, q: int, z: int) -> list[int]:
    """[K_0(z), ..., K_n(z)] for the (n, q) Hamming scheme, exact.

    One pass of the three-term recurrence

        (i+1) K_{i+1}(z) = ((n-i)(q-1) + i - qz) K_i(z) - (q-1)(n-i+1) K_{i-1}(z),

    whose right-hand side is always divisible by i+1.
    """
    if not (0 <= z <= n):
        raise ValueError(f"point z={z} outside 0..{n}")
    if q < 2:
        raise ValueError("q must be at least 2")
    col = [1]
    prev, cur = 0, 1
    for i in range(n):
        nxt = ((n - i) * (q - 1) + i - q * z) * cur - (q - 1) * (n - i + 1) * prev
        prev, cur = cur, nxt // (i + 1)
        col.append(cur)
    return col
