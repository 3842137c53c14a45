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


def kraw_rows(n: int, q: int, d: int, e: int) -> list[tuple[int, int, int]]:
    """[(K_i(d), K_i(e), K_i(0)) for i = 1..n] for the (n, q) Hamming scheme, exact.

    One loop runs the three-term recurrence

        (i+1) K_{i+1}(z) = ((n-i)(q-1) + i - qz) K_i(z) - (q-1)(n-i+1) K_{i-1}(z)

    at z = d and z = e, whose right-hand sides are always divisible by
    i+1, and takes K_i(0) = (q-1)^i C(n, i) from the ratio
    K_{i+1}(0) = K_i(0) (q-1)(n-i) / (i+1).
    """
    if not (0 <= d <= n and 0 <= e <= n):
        raise ValueError(f"points d={d}, e={e} not both in 0..{n}")
    if q < 2:
        raise ValueError("q must be at least 2")
    m = q - 1
    rows = []
    prev_d = prev_e = 0
    cur_d = cur_e = k_0 = 1
    # at degree i = j - 1: s_z = (n-i)(q-1) + i - qz, u = (q-1)(n-i) and t = (q-1)(n-i+1)
    s_d, s_e, u = n * m - q * d, n * m - q * e, n * m
    for j in range(1, n + 1):
        t = u + m
        prev_d, cur_d = cur_d, (s_d * cur_d - t * prev_d) // j
        prev_e, cur_e = cur_e, (s_e * cur_e - t * prev_e) // j
        k_0 = k_0 * u // j
        rows.append((cur_d, cur_e, k_0))
        s_d -= m - 1
        s_e -= m - 1
        u -= m
    return rows
