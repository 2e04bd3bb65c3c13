import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitmix.gf import GF2m, PRIMITIVE_POLYS, get_field


def test_supported_degrees():
    assert set(PRIMITIVE_POLYS) == set(range(2, 14))
    for ell in PRIMITIVE_POLYS:
        GF2m(ell)  # construction self-checks the log/antilog tables


def test_table_cycle_gf16():
    gf = GF2m(4)
    seen = set()
    x = 1
    for _ in range(15):
        seen.add(x)
        x = int(gf.mul(x, 2))
    assert seen == set(range(1, 16))


def test_mul_matches_schoolbook_gf8():
    gf = GF2m(3)

    def slow_mul(a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a & 0b1000:
                a ^= PRIMITIVE_POLYS[3]
        return acc

    for a in range(8):
        for b in range(8):
            assert int(gf.mul(a, b)) == slow_mul(a, b)


def test_zero_and_one():
    gf = GF2m(5)
    v = np.arange(32)
    assert np.all(gf.mul(v, 0) == 0)
    assert np.all(gf.mul(v, 1) == v)
    assert np.all(gf.mul(0, v) == 0)


def test_inverse():
    for ell in (2, 4, 9, 13):
        gf = GF2m(ell)
        v = np.arange(1, 2**ell)
        assert np.all(gf.mul(v, gf.inv(v)) == 1)
    with pytest.raises(ZeroDivisionError):
        GF2m(4).inv(0)


def test_div_and_pow():
    gf = GF2m(6)
    a = np.arange(1, 64)
    assert np.all(gf.div(gf.mul(a, 37), 37) == a)
    power = 1
    for _ in range(63):
        power = gf.mul(power, 2)
    assert power == 1  # multiplicative order divides 2^6 - 1


@settings(max_examples=200)
@given(
    ell=st.sampled_from([2, 3, 8, 9, 12]),
    a=st.integers(min_value=0, max_value=2**12 - 1),
    b=st.integers(min_value=0, max_value=2**12 - 1),
    c=st.integers(min_value=0, max_value=2**12 - 1),
)
def test_field_axioms(ell, a, b, c):
    gf = get_field(ell)
    q = 2**ell
    a, b, c = a % q, b % q, c % q
    assert int(gf.mul(a, b)) == int(gf.mul(b, a))
    assert int(gf.mul(a, gf.mul(b, c))) == int(gf.mul(gf.mul(a, b), c))
    # distributivity over XOR addition
    assert int(gf.mul(a, b ^ c)) == int(gf.mul(a, b)) ^ int(gf.mul(a, c))


def test_vandermonde_solve_round_trip():
    gf = GF2m(9)
    rng = np.random.default_rng(7)
    points = rng.choice(2**9, size=6, replace=False)
    coeffs = rng.integers(0, 2**9, size=6)
    vand = gf.vandermonde(points, 6)
    rhs = np.zeros(6, dtype=np.int64)
    for j in range(6):
        rhs ^= gf.mul(vand[:, j], int(coeffs[j]))
    got = gf.solve(vand, rhs)
    assert np.array_equal(got, coeffs)


def test_solve_singular_raises():
    gf = GF2m(4)
    vand = gf.vandermonde(np.array([3, 3]), 2)  # repeated evaluation point
    with pytest.raises(np.linalg.LinAlgError):
        gf.solve(vand, np.array([1, 2]))


def test_get_field_cache():
    assert get_field(9) is get_field(9)


def test_unsupported_degree():
    with pytest.raises(Exception):
        GF2m(14)
