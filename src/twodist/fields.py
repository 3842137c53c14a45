"""Arithmetic tables for small finite fields GF(p^m).

Field elements are the integers 0..q-1.  An element a stands for the
polynomial sum(a_i * x^i) over GF(p), where a_0, a_1, ... are the base-p
digits of a (least significant first).  Addition is digit-wise mod p, and
multiplication reduces modulo a fixed monic irreducible polynomial.  Both
operations are computed once, into q x q tables `add` and `mul`, with
`neg` and `inv` read off them; every table is a read-only numpy array, so
callers do their arithmetic by indexing, a whole row or matrix at a time
(a - b is add[a, neg[b]]).  `Field.plus` adds whole arrays without the
table where the digits allow it: by XOR in characteristic 2, by the sum
mod q for prime q, and through `add` only for the other prime powers.
Fields up to order 2^10 are built, so no table exceeds 2^20 entries.

The reducing polynomial is the lexicographically smallest monic
irreducible of degree m over GF(p) (smallest when read as the tuple of
non-leading coefficients, constant term last).  For the fields used most
this gives the conventional choices:

    GF(4):  x^2 + x + 1
    GF(8):  x^3 + x + 1
    GF(9):  x^2 + 1

Fields are cached per q so all callers share one set of tables.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_ORDER = 1 << 10  # largest q built: the q x q tables stay within 2^20 entries


@lru_cache(maxsize=256)
def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p^m and p prime, or None.

    Cached per q, since every catalog query and every builder asks; the
    cache is bounded because q may come from outside the program.
    """
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            return (p, m) if r == 1 else None
        p += 1
    return (q, 1)


def p_adic_valuation(p: int, a: int) -> int | None:
    """Largest j with p^j dividing a; None for a = 0."""
    if a == 0:
        return None
    a = abs(a)
    j = 0
    while a % p == 0:
        a //= p
        j += 1
    return j


def _digits(a: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den over GF(p), coefficients low-first."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dj) % p
    return [c % p for c in num[:dd]]


def _irreducible(p: int, m: int) -> list[int]:
    """Smallest monic irreducible of degree m over GF(p), low-first coeffs."""
    if m == 1:
        return [0, 1]
    for code in range(p**m):
        # base-p digits of code are the non-leading coefficients, so ascending
        # code order is lexicographic in (c_{m-1}, ..., c_1, c_0)
        poly = _digits(code, p, m) + [1]
        divides = False
        for d in range(1, m // 2 + 1):
            for dc in range(p**d):
                div = _digits(dc, p, d) + [1]
                if not any(_poly_mod(poly, div, p)):
                    divides = True
                    break
            if divides:
                break
        if not divides:
            return poly
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


class Field:
    """GF(q) as read-only tables in the smallest dtype that holds q - 1.

    add[a, b] is a + b and mul[a, b] is a * b (both q x q); neg[a] is -a
    and inv[a] is 1/a for a != 0 (length q, inv[0] = 0 unused).
    """

    def __init__(self, q: int):
        if q > MAX_ORDER:
            raise ValueError(f"GF({q}) is too large: fields up to order {MAX_ORDER} are supported")
        pm = prime_power(q)
        if pm is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.p, self.m = pm
        self.modulus = _irreducible(self.p, self.m)
        p, m = self.p, self.m
        place = p ** np.arange(m)
        digits = np.arange(q)[:, None] // place % p  # digits[a, i] = a_i
        # x * b for all b: shift the digits up one place, then reduce x^m by
        # the monic modulus
        up = np.zeros_like(digits)
        up[:, 1:] = digits[:, :-1]
        times_x = (up - digits[:, -1:] * self.modulus[:m]) % p @ place
        # Both tables are additive in a.  With a = c p^k + r and r < p^k,
        # a + b = c x^k + (r + b) and a * b = c (x^k b) + r b, so row a is
        # row c p^k read through row r, which is built before it.  Row c p^k
        # adds c to digit k in `add`, and is c-fold x^k b in `mul`.
        dtype = np.min_scalar_type(q - 1)
        add = np.zeros((q, q), dtype=dtype)
        add[0] = np.arange(q)
        for k in range(m):
            low = p**k
            for c in range(1, p):
                add[c * low] = np.arange(q) + ((digits[:, k] + c) % p - digits[:, k]) * low
                add[c * low + 1 : (c + 1) * low] = add[c * low].take(add[1:low])
        mul = np.zeros((q, q), dtype=dtype)
        shifted = np.arange(q)  # x^k b
        for k in range(m):
            if k:
                shifted = times_x[shifted]
            low = p**k
            for c in range(1, p):
                mul[c * low] = add[mul[(c - 1) * low], shifted]
                mul[c * low + 1 : (c + 1) * low] = add[mul[c * low], mul[1:low]]
        self.add, self.mul = add, mul
        # the first (only) zero of each addition row, the first one of each product row
        self.neg = (self.add == 0).argmax(axis=1).astype(dtype)
        self.inv = (self.mul == 1).argmax(axis=1).astype(dtype)
        for table in (self.add, self.mul, self.neg, self.inv):
            table.flags.writeable = False
        # a + b for prime q stays below 2q - 1; in uint8 that overflows from q = 131 on
        self._sum_dtype = np.min_scalar_type(2 * q - 2)

    def plus(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a + b elementwise for arrays of elements in the tables' dtype, which the sum keeps.

        Elements are base-p digit vectors added digit by digit mod p.  In
        characteristic 2 that is a carry-free binary sum, a ^ b.  For prime
        q there is one digit: a + b is formed in a dtype that holds 2q - 2,
        and s - q wraps above s exactly when s < q, so min(s, s - q) is the
        sum mod q.  Other q read the `add` table.
        """
        if self.p == 2:
            return a ^ b
        if self.m > 1:
            return self.add[a, b]
        s = np.add(a, b, dtype=self._sum_dtype)
        np.minimum(s, s - self.q, out=s)
        return s.astype(self.add.dtype, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Field(GF({self.q}))"


@lru_cache(maxsize=None)
def GF(q: int) -> Field:
    """Cached field instance for a prime power q."""
    return Field(q)
