import random

import numpy as np
import pytest

from twodist.fields import GF, MAX_ORDER, prime_power


def test_prime_power_factoring():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(49) == (7, 2)


def test_conventional_moduli():
    # x^2+x+1, x^3+x+1, x^2+1 (low coefficient first, monic)
    assert GF(4).modulus == [1, 1, 1]
    assert GF(8).modulus == [1, 1, 0, 1]
    assert GF(9).modulus == [1, 0, 1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_field_axioms(q):
    f = GF(q)
    els = range(q)
    for a in els:
        assert f.add[a, 0] == a
        assert f.mul[a, 1] == a
        assert f.mul[a, 0] == 0
        assert f.add[a, f.neg[a]] == 0
        if a:
            assert f.mul[a, f.inv[a]] == 1
    # associativity / distributivity spot checks on all triples for small q
    if q <= 8:
        for a in els:
            for b in els:
                for c in els:
                    assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]
                    assert f.mul[f.mul[a, b], c] == f.mul[a, f.mul[b, c]]


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_multiplicative_group_cyclic(q):
    f = GF(q)
    orders = set()
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = f.mul[x, a]
            order += 1
        orders.add(order)
    assert max(orders) == q - 1  # a generator exists


# references: the digit-wise addition and negation, and the polynomial product
# reduced by the modulus, that the tables replace


def _digits(a, p, m):
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _undigits(ds, p):
    val = 0
    for d in reversed(ds):
        val = val * p + d
    return val


def reference_add(f, a, b):
    p, m = f.p, f.m
    if m == 1:
        return (a + b) % p
    da, db = _digits(a, p, m), _digits(b, p, m)
    return _undigits([(x + y) % p for x, y in zip(da, db)], p)


def reference_neg(f, a):
    p, m = f.p, f.m
    if m == 1:
        return (-a) % p
    return _undigits([(-x) % p for x in _digits(a, p, m)], p)


def reference_mul(f, a, b):
    p, m = f.p, f.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_digits(a, p, m)):
        for j, y in enumerate(_digits(b, p, m)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * m - 2, m - 1, -1):  # x^i = x^(i-m) * x^m, x^m = -(modulus below x^m)
        c, prod[i] = prod[i], 0
        for j in range(m):
            prod[i - m + j] = (prod[i - m + j] - c * f.modulus[j]) % p
    return _undigits(prod[:m], p)


# every field the benchmark's verify workload warms up
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_tables_match_digitwise_reference(q):
    f = GF(q)
    for a in range(q):
        assert f.neg[a] == reference_neg(f, a)
        for b in range(q):
            assert f.add[a, b] == reference_add(f, a, b)
            assert f.add[a, f.neg[b]] == reference_add(f, a, reference_neg(f, b))
            assert f.mul[a, b] == reference_mul(f, a, b)


@pytest.mark.parametrize("q", [243, 256, 343, 1024])
def test_large_tables_match_reference_on_sampled_pairs(q):
    f = GF(q)
    rng = random.Random(q)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.add[a, b] == reference_add(f, a, b)
        assert f.mul[a, b] == reference_mul(f, a, b)


# reference: the digit-plane construction the additive one replaced, with the
# product's digit j read as sum_i a_i (x^i b)_j, one int64 matrix product per digit


def reference_tables(f):
    q, p, m = f.q, f.p, f.m
    place = p ** np.arange(m)
    digits = np.arange(q)[:, None] // place % p
    shifts = np.empty((m, q, m), dtype=np.int64)
    shifts[0] = digits
    for i in range(1, m):
        top = shifts[i - 1, :, -1:]
        shifts[i, :, 0] = 0
        shifts[i, :, 1:] = shifts[i - 1, :, :-1]
        shifts[i] = (shifts[i] - top * f.modulus[:m]) % p
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for j in range(m):
        add += (digits[:, j, None] + digits[:, j]) % p * place[j]
        mul += digits @ shifts[:, :, j] % p * place[j]
    return add, mul


@pytest.mark.parametrize("q", [q for q in range(2, 257) if prime_power(q)] + [729, 1024])
def test_tables_match_digit_plane_reference(q):
    f = GF(q)
    add, mul = reference_tables(f)
    assert np.array_equal(f.add, add) and np.array_equal(f.mul, mul)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 27, 256, 257])
def test_tables_are_read_only_in_the_smallest_dtype(q):
    f = GF(q)
    for name, shape in (("add", (q, q)), ("mul", (q, q)), ("neg", (q,)), ("inv", (q,))):
        table = getattr(f, name)
        assert table.shape == shape
        assert table.dtype == np.min_scalar_type(q - 1)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    assert f.inv[0] == 0


def test_rejects_non_prime_power():
    with pytest.raises(ValueError):
        GF(6)


def test_refuses_fields_above_the_table_limit():
    # q^2 table entries stay within 2^20; larger fields are refused before any table is built
    for q in (MAX_ORDER * 2, 4096, 3**7):
        with pytest.raises(ValueError, match="too large"):
            GF(q)


@pytest.mark.parametrize("q", [q for q in range(2, 257) if prime_power(q)] + [257, 512, 729, 1021, 1024])
def test_array_addition_matches_the_table(q):
    # XOR in characteristic 2, the sum mod q for prime q (widened where 2q - 2 passes
    # the dtype, q = 131..251 in uint8), the table for other prime powers
    f = GF(q)
    a = np.arange(q, dtype=f.add.dtype)
    total = f.plus(a[:, None], a[None, :])
    assert total.dtype == f.add.dtype
    assert np.array_equal(total, f.add)
