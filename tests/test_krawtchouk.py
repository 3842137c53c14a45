import math
import random
from fractions import Fraction

import pytest

from twodist.krawtchouk import (
    KrawtchoukCoeffs,
    RationalPoly,
    kraw_column,
    kraw_eval,
    kraw_expand,
    kraw_norm,
    kraw_poly,
)


class TestEval:
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_degree_zero_is_one(self, n, q):
        assert all(kraw_eval(n, q, 0, z) == 1 for z in range(n + 1))

    def test_value_at_zero(self):
        assert kraw_eval(7, 2, 2, 0) == 21
        for n, q, i in [(6, 3, 2), (8, 4, 3), (10, 2, 5)]:
            assert kraw_eval(n, q, i, 0) == (q - 1) ** i * math.comb(n, i)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_degree_one_closed_form(self, q):
        n = 7
        for z in range(n + 1):
            assert kraw_eval(n, q, 1, z) == (q - 1) * n - q * z
        assert kraw_eval(7, 2, 1, 3) == 1

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_degree_two_closed_form(self, q):
        n = 9
        for z in range(n + 1):
            direct = (
                (q - 1) ** 2 * math.comb(n - z, 2)
                - (q - 1) * z * (n - z)
                + math.comb(z, 2)
            )
            assert kraw_eval(n, q, 2, z) == direct

    def test_range_errors(self):
        with pytest.raises(ValueError):
            kraw_eval(5, 2, 6, 0)
        with pytest.raises(ValueError):
            kraw_eval(5, 2, 2, 6)
        with pytest.raises(ValueError):
            kraw_column(5, 2, 6)
        with pytest.raises(ValueError):
            kraw_column(5, 1, 0)

    @pytest.mark.parametrize("q", range(2, 10))
    def test_column_matches_eval(self, q):
        for n in range(1, 41):
            for z in range(n + 1):
                assert kraw_column(n, q, z) == [kraw_eval(n, q, i, z) for i in range(n + 1)]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_orthogonality(n, q):
    for i in range(n + 1):
        for j in range(i, n + 1):
            total = sum(
                math.comb(n, z) * (q - 1) ** z * kraw_eval(n, q, i, z) * kraw_eval(n, q, j, z)
                for z in range(n + 1)
            )
            expected = q**n * (q - 1) ** i * math.comb(n, i) if i == j else 0
            assert total == expected


def test_kraw_poly_matches_eval():
    for n, q, i in [(6, 2, 4), (7, 3, 3), (5, 4, 5)]:
        poly = kraw_poly(n, q, i)
        assert poly.degree == i
        assert all(poly(z) == kraw_eval(n, q, i, z) for z in range(n + 1))


def degree2_certificate(n, d, e):
    """(4/n^2)(d-z)(e-z) in the distance variable."""
    return RationalPoly.make(
        [Fraction(4 * d * e, n * n), Fraction(-4 * (d + e), n * n), Fraction(4, n * n)]
    )


class TestExpand:
    def test_constant(self):
        ks = kraw_expand(RationalPoly.make([Fraction(5)]), 6, 3)
        assert ks.f[0] == 5 and all(c == 0 for c in ks.f[1:])

    @pytest.mark.parametrize(
        "q,n,d,delta",
        [(2, 8, 4, 4), (4, 7, 4, 2), (3, 11, 6, 3), (2, 12, 6, 4)],
    )
    def test_degree2_certificate_closed_forms(self, q, n, d, delta):
        e = d + delta
        ks = kraw_expand(degree2_certificate(n, d, e), n, q)
        f0 = Fraction(
            4
            * (
                n * (q - 1) * (n * q - n + 1)
                - q * q * (2 * n * d + n * delta - d * d - d * delta)
                + n * q * (2 * d + delta)
            ),
            n * n * q * q,
        )
        f1 = Fraction(
            4 * (q - 1) * (2 * d * q + delta * q + 2 * n + q - 2 * n * q - 2), n * q * q
        )
        f2 = Fraction(4 * (q - 1) ** 2 * (n - 1), n * q * q)
        assert ks.f[0] == f0
        assert ks.f[1] == f1
        assert ks.f[2] == f2
        assert all(c == 0 for c in ks.f[3:])

    def test_spec_case_values(self):
        ks = kraw_expand(degree2_certificate(8, 4, 8), 8, 2)
        assert ks.f[0] == Fraction(1, 8)
        assert ks.f[2] == Fraction(7, 8)

    def test_roundtrip_random(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 10)
            q = rng.choice([2, 3, 4, 5])
            deg = rng.randint(0, n)
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(deg + 1)]
            poly = RationalPoly.make(coeffs)
            ks = kraw_expand(poly, n, q)
            assert all(ks.evaluate(z) == poly(z) for z in range(n + 1))

    def test_rejects_large_degree(self):
        poly = RationalPoly.make([0, 0, 0, 0, 1])
        with pytest.raises(ValueError):
            kraw_expand(poly, 3, 2)


def test_norm_is_one_at_origin():
    for n, q, i in [(7, 2, 3), (9, 3, 4)]:
        assert kraw_norm(n, q, i, 0) == 1


def test_evaluate_expansion_type():
    ks = KrawtchoukCoeffs(4, 2, tuple(Fraction(x) for x in (1, 2, 0, 0, 0)))
    assert ks.evaluate(0) == 3
