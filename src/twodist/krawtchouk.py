"""Exact Krawtchouk polynomial evaluation and expansion.

K_i(z) for the Hamming scheme with parameters (n, q) is

    K_i(z) = sum_{j=0}^{i} (-1)^j (q-1)^(i-j) C(z, j) C(n-z, i-j),

an integer for integer z.  The normalized family Q_i = K_i / r_i with
r_i = (q-1)^i C(n, i) satisfies Q_0 = 1 and the orthogonality relation

    sum_{z=0}^{n} C(n,z) (q-1)^z K_i(z) K_j(z) = delta_ij q^n r_i.

Polynomials are handled in the distance variable z (integer nodes
0..n), so every coefficient stays an exact rational.  The alternative
"inner product" variable t relates to z by t = 1 - 2z/n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


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


def kraw_norm(n: int, q: int, i: int, z: int) -> Fraction:
    """Normalized value Q_i(z) = K_i(z) / ((q-1)^i C(n,i))."""
    return Fraction(kraw_eval(n, q, i, z), (q - 1) ** i * math.comb(n, i))


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial in the distance variable z with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero (normalize first)")

    @staticmethod
    def make(cs: Sequence) -> "RationalPoly":
        """Build from any number sequence, trimming trailing zeros."""
        fl = [Fraction(c) for c in cs]
        while len(fl) > 1 and fl[-1] == 0:
            fl.pop()
        if not fl:
            fl = [Fraction(0)]
        return RationalPoly(tuple(fl))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly.make(out)

    def scale(self, c) -> "RationalPoly":
        c = Fraction(c)
        return RationalPoly.make([c * x for x in self.coeffs])


@dataclass(frozen=True)
class KrawtchoukCoeffs:
    """Coefficients f_i of an expansion p(z) = sum f_i Q_i(z)."""

    n: int
    q: int
    f: tuple[Fraction, ...]

    def evaluate(self, z: int) -> Fraction:
        return sum(
            (fi * kraw_norm(self.n, self.q, i, z) for i, fi in enumerate(self.f)),
            Fraction(0),
        )


def _binom_poly(top_shift: int, sign: int, k: int) -> RationalPoly:
    """C(top_shift + sign*z, k) as a polynomial in z.

    sign=+1 gives C(z+shift, k); sign=-1 gives C(shift-z, k).
    """
    poly = RationalPoly.make([Fraction(1)])
    for t in range(k):
        # factor (top_shift + sign*z - t)
        poly = _mul(poly, RationalPoly.make([Fraction(top_shift - t), Fraction(sign)]))
    return poly.scale(Fraction(1, math.factorial(k)))


def _mul(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    out = [Fraction(0)] * (a.degree + b.degree + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai * bj
    return RationalPoly.make(out)


def kraw_poly(n: int, q: int, i: int) -> RationalPoly:
    """K_i as a polynomial in z (degree i, leading coefficient (-q)^i / i!)."""
    if not (0 <= i <= n):
        raise ValueError(f"index i={i} outside 0..{n}")
    acc = RationalPoly.make([Fraction(0)])
    for j in range(i + 1):
        term = _mul(_binom_poly(0, 1, j), _binom_poly(n, -1, i - j))
        term = term.scale(Fraction((-1) ** j * (q - 1) ** (i - j)))
        acc = acc + term
    return acc


def kraw_expand(p: RationalPoly, n: int, q: int) -> KrawtchoukCoeffs:
    """Expand p(z) = sum f_i Q_i(z) by triangular elimination on leading terms.

    Degrees above n are rejected: the bounds computed here only ever need
    certificates of degree at most n.
    """
    if p.degree > n:
        raise ValueError(f"degree {p.degree} exceeds n={n}; not supported")
    residual = list(p.coeffs) + [Fraction(0)] * (n + 1 - len(p.coeffs))
    f = [Fraction(0)] * (n + 1)
    for deg in range(n, -1, -1):
        lead = residual[deg]
        if lead == 0:
            continue
        r_i = (q - 1) ** deg * math.comb(n, deg)
        # leading coefficient of Q_deg in z is (-q)^deg / (deg! * r_deg)
        q_lead = Fraction((-q) ** deg, math.factorial(deg) * r_i)
        f[deg] = lead / q_lead
        kp = kraw_poly(n, q, deg)
        factor = f[deg] / r_i
        for idx, c in enumerate(kp.coeffs):
            residual[idx] -= factor * c
    if any(residual):
        raise AssertionError("expansion did not eliminate all terms")
    return KrawtchoukCoeffs(n, q, tuple(f))
