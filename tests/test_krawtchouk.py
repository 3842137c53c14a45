import math

import pytest

from twodist.krawtchouk import kraw_eval, kraw_rows


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
            kraw_rows(5, 2, 6, 1)
        with pytest.raises(ValueError):
            kraw_rows(5, 2, 1, 6)
        with pytest.raises(ValueError):
            kraw_rows(5, 2, -1, 1)
        with pytest.raises(ValueError):
            kraw_rows(5, 1, 0, 1)
        with pytest.raises(ValueError, match="^q must be at least 2$"):
            kraw_eval(5, 1, 1, 1)

    @pytest.mark.parametrize("q", range(2, 10))
    def test_column_matches_eval(self, q):
        # kraw_rows' three columns at d, e and 0: every (d, e) for n <= 20, every point to n = 40
        for n in range(1, 41):
            table = [[kraw_eval(n, q, i, z) for i in range(1, n + 1)] for z in range(n + 1)]
            assert table[0] == [(q - 1) ** i * math.comb(n, i) for i in range(1, n + 1)]
            pairs = [(d, e) for d in range(n + 1) for e in range(n + 1)] if n <= 20 else [
                (z, n - z) for z in range(n + 1)
            ]
            for d, e in pairs:
                assert kraw_rows(n, q, d, e) == list(zip(table[d], table[e], table[0])), (n, d, e)


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


def test_column_sums_vanish_off_zero():
    # sum_i K_i(z) = q^n [z = 0]: (1 + (q-1)t)^(n-z) (1-t)^z at t = 1.  Rows 1..n of
    # the restricted LP therefore add up to q^n - 1 - A_d - A_e >= 0, so it is bounded.
    for q in range(2, 10):
        for n in range(1, 65):
            for z in range(n + 1):
                k_z, k_n, k_0 = zip(*kraw_rows(n, q, z, n - z))
                assert 1 + sum(k_z) == (q**n if z == 0 else 0), (q, n, z)
                assert 1 + sum(k_n) == (q**n if z == n else 0), (q, n, z)
                assert 1 + sum(k_0) == q**n, (q, n, z)
