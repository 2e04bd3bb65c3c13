import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitmix.errors import InvalidInput
from bitmix.params import (
    REGIME_GENERAL,
    REGIME_SMALLK,
    SchemeParams,
    derive_params,
    total_test_bound,
)

# Expected derivations below were computed independently (straight evaluation
# of the parameter rules with ceilings) before this module was written.


def test_general_k10_defaults():
    p = derive_params(2**20, 10)
    assert p.delta == pytest.approx(0.043429448190325175, abs=1e-18)
    assert p.w == 381
    assert p.ell == 9
    assert p.s_size == 461
    assert p.m == 3
    assert p.t1 == 15240
    assert p.t2 == 137160
    assert p.c1 == 4
    assert p.segment_len == 40


def test_general_k5():
    p = derive_params(2**16, 5)
    assert (p.w, p.ell, p.s_size, p.m) == (259, 9, 81, 2)
    assert p.t1 == 4 * 5 * 259


def test_general_k20():
    p = derive_params(2**20, 20)
    assert p.delta == pytest.approx(1.0 / (20 * math.log(20)), rel=1e-12)
    assert (p.w, p.ell, p.s_size) == (497, 9, 2397)


def test_general_m_tracks_n():
    assert derive_params(2**14, 10).m == 2
    assert derive_params(2**20, 10).m == 3
    assert derive_params(2**26, 10).m == 3
    # log2(2^b + 1) rounds to b in floats: m must still count b + 1 bits
    assert derive_params(2**54 + 1, 10).m == 7  # ell = 9
    assert derive_params(2**60 + 1, 40).m == 7  # ell = 10
    # w is k-dominated across this whole range, so t1 is unchanged
    assert derive_params(2**14, 10).w == derive_params(2**26, 10).w == 381


def test_general_tiny_n():
    p = derive_params(64, 3)
    assert (p.w, p.ell, p.s_size, p.m) == (161, 8, 20, 1)


def test_t_identity():
    for n, k in [(2**16, 5), (2**20, 10), (2**20, 20), (64, 3)]:
        p = derive_params(n, k)
        assert p.t_total == p.c1 * p.k * p.w * (p.ell + 1)


def test_alphabet_covers_block():
    for n, k in [(2**10, 2), (2**16, 5), (2**20, 10), (2**30, 40)]:
        p = derive_params(n, k)
        assert 2**p.ell >= p.w + 1
        assert 2 * p.m <= p.w


def test_smallk_examples():
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    assert (p.w, p.s_size, p.t1) == (12, 12, 96)
    tiny = derive_params(2, 1, regime=REGIME_SMALLK)
    assert (tiny.w, tiny.s_size, tiny.t1) == (1, 1, 4)


def test_smallk_rejects_large_k():
    with pytest.raises(InvalidInput):
        derive_params(2**16, 9, regime=REGIME_SMALLK)


def test_general_rejects_k1():
    with pytest.raises(InvalidInput, match="smallk"):
        derive_params(2**16, 1)


def test_invalid_inputs():
    with pytest.raises(InvalidInput):
        derive_params(10, 11)
    with pytest.raises(InvalidInput):
        derive_params(2**16, 5, xi=0.5)
    with pytest.raises(InvalidInput):
        derive_params(2**16, 5, xi=-0.01)
    with pytest.raises(InvalidInput):
        derive_params(2**16, 5, regime="bogus")
    with pytest.raises(InvalidInput):
        derive_params(0, 0)
    # the same integer check as a harness cell: numpy integers pass, bools do not
    with pytest.raises(InvalidInput, match="^k must"):
        derive_params(2**16, True, regime=REGIME_SMALLK)
    with pytest.raises(InvalidInput, match="^n must"):
        derive_params(4096.0, 2)
    with pytest.raises(InvalidInput, match="^xi must"):
        derive_params(2**16, 5, xi="0.05")
    p = derive_params(np.int64(4096), np.int64(2), regime=REGIME_SMALLK)
    assert p == derive_params(4096, 2, regime=REGIME_SMALLK)
    assert type(p.n) is int and type(p.k) is int


def test_noisy_c1_rule():
    p = derive_params(2**16, 5, xi=0.05)
    assert p.c1 == 6
    assert p.t1 == 6 * 5 * 259
    # margin inequality holds at the chosen c1 and fails at c1 - 1
    rate = p.m / p.w
    assert 0.05 + 2 / 6 + 0.05 < 0.5 * (1 - rate)
    assert not (0.05 + 2 / 5 + 0.05 < 0.5 * (1 - rate))


def test_noisy_xi_too_large():
    # xi + 2/64 + margin must stay below ~1/2; 0.42 cannot fit
    with pytest.raises(InvalidInput, match="c1"):
        derive_params(2**16, 5, xi=0.42)


def test_noiseless_keeps_c1_4():
    assert derive_params(2**20, 10, xi=0.0).c1 == 4


def test_json_round_trip():
    p = derive_params(2**20, 10)
    blob = json.dumps(p.to_json(), sort_keys=True)
    q = SchemeParams.from_json(json.loads(blob), regime=p.regime)
    assert q == p


def test_json_field_names_exact():
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    assert set(p.to_json()) == {
        "n", "k", "delta", "w", "ell", "c1", "s_size", "t1", "t2", "xi"
    }


def test_json_missing_field():
    obj = derive_params(2**16, 5).to_json()
    del obj["w"]
    with pytest.raises(InvalidInput, match="missing"):
        SchemeParams.from_json(obj)


def test_params_validation_catches_inconsistency():
    obj = derive_params(2**16, 5).to_json()
    obj["t2"] += 1
    with pytest.raises(InvalidInput):
        SchemeParams.from_json(obj)
    # fields are checked, never coerced; unknown keys are refused
    obj = derive_params(2**20, 10).to_json()
    for name, bad in [("w", 381.9), ("w", "381"), ("w", True), ("t1", 15240.0),
                      ("delta", "0.043"), ("xi", None), ("xi", False)]:
        with pytest.raises(InvalidInput, match=f"^{name} must"):
            SchemeParams.from_json({**obj, name: bad})
    for extra in ("regime", "m", "W"):
        with pytest.raises(InvalidInput, match="unknown keys"):
            SchemeParams.from_json({**obj, extra: 1})
    with pytest.raises(InvalidInput, match="needs"):
        SchemeParams.from_json(list(obj.values()))


def test_bound_ratios():
    # total tests stay within 2x of the scaling target on the standard cells
    for n, k, xi, expect in [
        (2**20, 10, 0.0, 1.103),
        (2**16, 5, 0.0, 1.073),
        (2**20, 20, 0.0, 1.106),
        (2**16, 5, 0.05, 1.609),
    ]:
        p = derive_params(n, k, xi=xi)
        ratio = p.t_total / total_test_bound(p)
        assert ratio == pytest.approx(expect, abs=5e-4)
        assert ratio <= 2.0


@settings(max_examples=60)
@given(
    n_exp=st.integers(min_value=4, max_value=48),
    k=st.integers(min_value=2, max_value=64),
    xi=st.sampled_from([0.0, 0.01, 0.05, 0.1]),
)
def test_derivation_is_pure(n_exp, k, xi):
    n = 2**n_exp
    if k > n:
        return
    a = derive_params(n, k, xi=xi)
    b = derive_params(n, k, xi=xi)
    assert a == b
    assert a.t1 == a.c1 * a.k * a.w
    assert a.t2 == a.ell * a.t1
    assert 2**a.ell >= a.w + 1
    assert 2 * a.m <= a.w


@settings(max_examples=40)
@given(
    n_exp=st.integers(min_value=4, max_value=47),
    k=st.integers(min_value=2, max_value=64),
)
def test_monotone_in_n(n_exp, k):
    # Holds throughout the practically representable range (n <= 2^48); the
    # concentration term dominates w there, so growing n cannot shrink it.
    n = 2**n_exp
    if k > n:
        return
    a = derive_params(n, k)
    b = derive_params(2 * n, k)
    assert b.w >= a.w
    assert b.t1 >= a.t1
    assert b.t2 >= a.t2


@settings(max_examples=40)
@given(n=st.integers(min_value=2, max_value=10**6), k=st.integers(min_value=1, max_value=8))
def test_smallk_monotone_and_consistent(n, k):
    if k > n:
        return
    p = derive_params(n, k, regime=REGIME_SMALLK)
    assert p.w == max(1, math.ceil(math.log(n)))
    assert p.s_size == p.w
    assert p.t1 == 4 * k * p.w
    q = derive_params(2 * n, k, regime=REGIME_SMALLK)
    assert q.w >= p.w
