import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from bitmix.bundle import DesignBundle, _sha256, load_design, save_design
from bitmix.errors import (
    ConstructionFailed,
    CorruptDesignFile,
    IndexOutOfRange,
    InvalidInput,
    ShapeMismatch,
)
from bitmix.masking import (
    _PAIR_ROWS,
    STATUS_PROMISING,
    STATUS_SMALLK,
    STATUS_UNVERIFIED,
    MaskingSet,
    MaskingString,
    build_lcs,
    build_smallk_set,
    check_lcs_conditions_all,
    collisions,
    construct_candidate,
    pairwise_collisions,
    smallk_pairs_ok,
    verify_promising,
)
from bitmix.params import REGIME_SMALLK, SchemeParams, derive_params


def _params(n, k, w, ell, c1=4, s_size=4, xi=0.0):
    # direct construction for hand-sized fixtures (bypasses the derivation)
    return SchemeParams(
        n=n, k=k, delta=0.5, w=w, ell=ell, c1=c1, s_size=s_size,
        t1=c1 * k * w, t2=ell * c1 * k * w, xi=xi,
    )


def test_string_basics():
    s = MaskingString(np.array([1, 3, 0, 2]), segment_len=4)
    assert s.weight == 4
    bits = s.to_bits()
    assert bits.shape == (16,)
    assert bits.sum() == 4
    # one set bit per segment, at the stated offset
    assert list(np.nonzero(bits)[0]) == [1, 7, 8, 14]


def test_string_validation():
    with pytest.raises(InvalidInput):
        MaskingString(np.array([4]), segment_len=4)
    with pytest.raises(InvalidInput):
        MaskingString(np.array([], dtype=np.int64), segment_len=4)


def test_collisions_hand_example():
    a = MaskingString(np.array([1, 3, 0, 2]), 4)
    b = MaskingString(np.array([1, 2, 0, 3]), 4)
    assert collisions(a, b) == 2
    assert int(a.to_bits() @ b.to_bits()) == 2


def test_collisions_shape_mismatch():
    a = MaskingString(np.array([1, 3]), 4)
    b = MaskingString(np.array([1, 3, 0]), 4)
    c = MaskingString(np.array([1, 3]), 5)
    with pytest.raises(ShapeMismatch):
        collisions(a, b)
    with pytest.raises(ShapeMismatch):
        collisions(a, c)


def test_dense_sparse_equivalence_exhaustive():
    # dot products of the expanded bit vectors equal offset-match counts,
    # over every pair of strings at two tiny shapes
    for seg, w in [(4, 2), (3, 3)]:
        all_offsets = list(itertools.product(range(seg), repeat=w))
        strings = [MaskingString(np.array(o), seg) for o in all_offsets]
        for a, b in itertools.product(strings, repeat=2):
            assert int(a.to_bits() @ b.to_bits()) == collisions(a, b)


def test_pairwise_collisions_matches_scalar():
    rng = np.random.default_rng(3)
    offsets = rng.integers(0, 6, size=(7, 5))
    mat = pairwise_collisions(offsets)
    assert mat.shape == (7, 7)
    assert np.array_equal(mat, mat.T)
    for i in range(7):
        assert mat[i, i] == 5
        for j in range(7):
            if i != j:
                assert mat[i, j] == int(np.count_nonzero(offsets[i] == offsets[j]))


def test_pairwise_collisions_blocked_path():
    # large enough that the blocked accumulation kicks in; spot-check entries
    rng = np.random.default_rng(4)
    offsets = rng.integers(0, 40, size=(300, 200))
    mat = pairwise_collisions(offsets)
    for i, j in [(0, 299), (17, 143), (250, 251)]:
        assert mat[i, j] == int(np.count_nonzero(offsets[i] == offsets[j]))


def test_pairwise_collisions_rejects_malformed_offsets():
    for bad in (
        np.array([0, 1, 2]),  # one string, not a (strings x segments) array
        np.zeros((2, 3, 4), dtype=np.int64),
        np.array([[0, 1], [-1, 0]]),  # negative offset
        np.array([[0.0, 1.0], [1.0, 0.0]]),  # not integers
    ):
        with pytest.raises(InvalidInput):
            pairwise_collisions(bad)


def test_pairwise_collisions_counts_in_a_narrow_type():
    # uint16 holds any count up to w = 65535; wider strings need int32, or
    # counts past 65535 would wrap
    assert pairwise_collisions(np.zeros((3, 65535), dtype=np.int32)).dtype == np.uint16
    mat = pairwise_collisions(np.zeros((3, 65536), dtype=np.int32))
    assert mat.dtype == np.int32
    assert (mat == 65536).all()
    assert pairwise_collisions(np.zeros((0, 5), dtype=np.int32)).shape == (0, 0)
    assert (pairwise_collisions(np.zeros((2, 0), dtype=np.int32)) == 0).all()

def test_construct_candidate_deterministic():
    p = derive_params(2**16, 5)
    a = construct_candidate(p, seed=41)
    b = construct_candidate(p, seed=41)
    c = construct_candidate(p, seed=42)
    assert np.array_equal(a.offsets, b.offsets)
    assert not np.array_equal(a.offsets, c.offsets)
    assert a.status == STATUS_UNVERIFIED
    assert a.offsets.shape == (p.s_size, p.w)
    assert a.offsets.min() >= 0 and a.offsets.max() < p.segment_len


def test_mean_collisions_near_target():
    # across all pairs of one candidate the empirical mean collision count
    # sits within 10% of w/(4k)
    p = derive_params(2**20, 10)
    mset = construct_candidate(p, seed=0)
    mat = pairwise_collisions(mset.offsets).astype(np.float64)
    np.fill_diagonal(mat, np.nan)
    mean = np.nanmean(mat)
    target = p.w / (4 * p.k)
    assert abs(mean - target) <= 0.1 * target


def test_flat_positions():
    p = _params(n=16, k=2, w=4, ell=3, s_size=2)
    offsets = np.array([[0, 1, 2, 3], [7, 0, 5, 1]])
    mset = MaskingSet(offsets, p, seed=0, status=STATUS_UNVERIFIED)
    flat = mset.flat_positions
    assert flat.shape == (2, 4)
    assert list(flat[0]) == [0, 9, 18, 27]
    assert list(flat[1]) == [7, 8, 21, 25]
    assert mset.string(1).weight == 4
    with pytest.raises(IndexOutOfRange):
        mset.string(2)


# --- the collision certificate -------------------------------------------

def _equal_collision_set():
    # three strings over 40 segments of width 4 whose pairwise collision
    # counts are all exactly w/(c1*k) = 10: every certificate statistic is
    # dead on target, so this must pass
    w = 40
    s0 = np.zeros(w, dtype=np.int64)
    s1 = np.where(np.arange(w) < 10, 0, 1)
    s2 = np.full(w, 3, dtype=np.int64)
    s2[0:5] = 0
    s2[5:10] = 2
    s2[10:15] = 1
    s2[15:20] = 0
    p = _params(n=16, k=1, w=w, ell=6, s_size=3)
    return MaskingSet(np.stack([s0, s1, s2]), p, seed=0, status=STATUS_UNVERIFIED)


def test_verify_passes_on_exact_set():
    mset = _equal_collision_set()
    mat = pairwise_collisions(mset.offsets)
    np.fill_diagonal(mat, 10)
    assert (mat == 10).all()

    report = verify_promising(mset)
    assert report.passed
    assert report.first_violation is None
    assert not report.generalized
    assert not report.degenerate
    assert mset.status == STATUS_PROMISING


def test_verify_stats_shapes():
    mset = _equal_collision_set()
    report = verify_promising(mset)
    stats = report.stats
    assert stats.n_others == 2
    assert stats.sums.tolist() == [20, 20, 20]  # mean 10 = sums / n_others
    assert stats.max_dev_num.tolist() == [0, 0, 0]
    assert stats.sq_dev_num == [0, 0, 0]



def _dense_certificate(offsets, c1k, k):
    # the certificate and the small-k bound straight from their definitions:
    # collision counts from the full (|S|, |S|, w) comparison, the conditions
    # as exact fractions
    s, w = offsets.shape
    c = (offsets[:, None, :] == offsets[None, :, :]).sum(axis=2, dtype=np.int64)
    others = ~np.eye(s, dtype=bool)
    n_others = s - 1
    sums = np.array([int(c[i, others[i]].sum()) for i in range(s)])
    dev = [[n_others * int(v) - int(sums[i]) for v in c[i, others[i]]] for i in range(s)]
    max_dev_num = np.array([max(abs(d) for d in row) for row in dev])
    sq_dev_num = [sum(d * d for d in row) for row in dev]
    target = Fraction(w, c1k)
    first = None
    for i in range(s):
        checks = [
            ("mean", abs(Fraction(int(sums[i]), n_others) - target) <= Fraction(4, 100) * target),
            ("max_dev", Fraction(int(max_dev_num[i]), n_others) <= Fraction(61, 10)),
            ("sq_dev", Fraction(sq_dev_num[i], n_others**2) <= 2 * n_others * target),
        ]
        failed = [name for name, ok in checks if not ok]
        if failed:
            first = (i, failed[0])
            break
    smallk = bool((2 * k * c[others] <= w).all())
    return sums, max_dev_num, sq_dev_num, first, smallk


def _sq_dev_breaking_set():
    # string 0 collides 5 and 15 times with strings 1 and 2: its mean is on
    # target 10 and its largest deviation is 5, but its squared-deviation
    # sum 50 exceeds (|S|-1) * 2w/(c1*k) = 40
    w = 40
    s1 = np.where(np.arange(w) < 5, 0, 1)
    s2 = np.repeat([0, 1, 2], [15, 10, 15])
    p = _params(n=16, k=1, w=w, ell=6, s_size=3)
    return MaskingSet(np.stack([np.zeros(w, dtype=np.int64), s1, s2]), p, seed=0)


def _certificate_cases():
    rng = np.random.default_rng(17)
    exact = _equal_collision_set()
    yield exact
    yield MaskingSet(np.tile(exact.offsets, (1, 4)), _params(n=16, k=1, w=160, ell=8, s_size=3), 0)
    yield _sq_dev_breaking_set()
    # random sets: |S| = 2, |S| on both sides of a row block and not a
    # multiple of it, and w both small and not a round number
    for s_size, w, k in [(2, 9, 1), (2, 130, 3), (_PAIR_ROWS - 1, 37, 2),
                         (_PAIR_ROWS + 3, 61, 1), (2 * _PAIR_ROWS + 5, 203, 2),
                         (3 * _PAIR_ROWS + 1, 17, 1)]:
        p = _params(n=64, k=k, w=w, ell=8, s_size=s_size)
        offsets = rng.integers(0, p.segment_len, size=(s_size, w))
        yield MaskingSet(offsets, p, seed=0)
        # duplicate strings
        dup = offsets.copy()
        dup[-1] = dup[0]
        if s_size > 3:
            dup[1] = dup[2]
        yield MaskingSet(dup, p, seed=0)
        # offsets from few values: many pairs collide in most segments
        yield MaskingSet(rng.integers(0, 2, size=(s_size, w)), p, seed=0)
        # one offset value, as with segment length 1: every pair collides
        # everywhere
        yield MaskingSet(np.zeros((s_size, w), dtype=np.int64), p, seed=0)
    # derived parameters: a max_dev failure, and the very-sparse regime
    yield construct_candidate(derive_params(2**12, 3), seed=0)
    yield construct_candidate(derive_params(2**16, 2, regime=REGIME_SMALLK), seed=1)
    # w > 65535: a uint16 count would wrap
    p = _params(n=16, k=1, w=70_000, ell=17, s_size=3)
    offsets = np.zeros((3, 70_000), dtype=np.int64)
    offsets[2, :5] = 1
    yield MaskingSet(offsets, p, seed=0)


def test_certificate_matches_dense_reference():
    seen = set()
    for mset in _certificate_cases():
        p = mset.params
        sums, max_dev_num, sq_dev_num, first, smallk = _dense_certificate(
            mset.offsets.astype(np.int64), p.segment_len, p.k
        )
        report = verify_promising(mset)
        assert report.stats.sums.tolist() == sums.tolist()
        assert report.stats.max_dev_num.tolist() == max_dev_num.tolist()
        assert report.stats.sq_dev_num == sq_dev_num
        assert all(type(v) is int for v in report.stats.sq_dev_num)
        assert report.stats.n_others == len(mset) - 1
        assert report.passed == (first is None)
        assert (report.first_violation and report.first_violation[:2]) == first
        assert smallk_pairs_ok(mset) == smallk
        seen.add(first and first[1])
        seen.add(smallk)
    # every outcome of both checks occurs among the cases
    assert seen == {None, "mean", "max_dev", "sq_dev", True, False}

def test_verify_fails_on_duplicate():
    mset = _equal_collision_set()
    offsets = mset.offsets.copy()
    offsets[2] = offsets[0]  # duplicate string: its mean jumps to 25
    dup = MaskingSet(offsets, mset.params, 0, STATUS_UNVERIFIED)
    report = verify_promising(dup)
    assert not report.passed
    idx, cond, _ = report.first_violation
    assert cond == "mean"
    assert dup.status == STATUS_UNVERIFIED


def test_verify_fails_at_derived_scale():
    # at derived desk-scale parameters random candidates overshoot the fixed
    # deviation constant: the certificate is expected to refuse them
    p = derive_params(2**20, 10)
    mset = construct_candidate(p, seed=0)
    report = verify_promising(mset)
    assert not report.passed
    assert report.first_violation[1] == "max_dev"


def test_verify_degenerate_singleton():
    p = derive_params(2, 1, regime=REGIME_SMALLK)
    mset = construct_candidate(p, seed=0)
    report = verify_promising(mset)
    assert report.passed and report.degenerate
    assert report.stats is None


def test_verify_generalized_flag():
    p = derive_params(2**16, 5, xi=0.05)
    assert p.c1 == 6
    report = verify_promising(construct_candidate(p, seed=0))
    assert report.generalized


def test_build_lcs_exhausts_budget():
    p = derive_params(2**20, 10)
    with pytest.raises(ConstructionFailed):
        build_lcs(p, seed=0, max_attempts=2)


def test_build_lcs_degenerate_succeeds():
    p = derive_params(2, 1, regime=REGIME_SMALLK)
    mset = build_lcs(p, seed=9)
    assert mset.status == STATUS_PROMISING


def test_extended_exact_set_still_passes():
    # each string concatenated with itself 4 times: every collision count,
    # and so every certificate statistic, scales with w and stays on target
    base = _equal_collision_set()
    p = _params(n=16, k=1, w=4 * base.params.w, ell=8, s_size=3)
    ext = MaskingSet(np.tile(base.offsets, (1, 4)), p, seed=0, status=STATUS_UNVERIFIED)
    assert np.array_equal(pairwise_collisions(ext.offsets), 4 * pairwise_collisions(base.offsets))
    assert verify_promising(ext).passed


# --- very-sparse sets -----------------------------------------------------

def test_build_smallk():
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    mset = build_smallk_set(p, seed=1)
    assert mset.status == STATUS_SMALLK
    mat = pairwise_collisions(mset.offsets)
    np.fill_diagonal(mat, 0)
    assert (2 * p.k * mat <= p.w).all()
    again = build_smallk_set(p, seed=1)
    assert np.array_equal(mset.offsets, again.offsets)


def test_build_smallk_budget():
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    with pytest.raises(ConstructionFailed):
        build_smallk_set(p, seed=1, max_attempts=0)


def test_build_smallk_single_string():
    p = derive_params(2, 1, regime=REGIME_SMALLK)
    mset = build_smallk_set(p, seed=0)
    assert len(mset) == 1


# --- decode-safety conditions ----------------------------------------------

def _micro_set(extra=False):
    # s0/s1 collide exactly w/2 = 2 (cond2 boundary); s2 is nearly disjoint;
    # s3 (optional) collides 3 with both s0 and s1 and breaks cond1
    rows = [
        [0, 0, 0, 0],
        [0, 0, 1, 1],
        [1, 1, 0, 2],
    ]
    if extra:
        rows.append([0, 0, 0, 1])
    p = _params(n=16, k=2, w=4, ell=3, s_size=len(rows))
    return MaskingSet(np.array(rows), p, seed=0, status=STATUS_UNVERIFIED)


def test_conditions_boundary_pass():
    mset = _micro_set()
    both = check_lcs_conditions_all(mset, [0, 1])
    assert both == {"cond1": True, "cond2_all": True}


def test_conditions_duplicate_breaks_cond2():
    mset = _micro_set()
    assert check_lcs_conditions_all(mset, [0, 0])["cond2_all"] is False


def test_conditions_outside_collider_breaks_cond1():
    mset = _micro_set(extra=True)
    got = check_lcs_conditions_all(mset, [0, 1])
    assert got["cond1"] is False
    # the chosen strings themselves are still fine with each other
    assert got["cond2_all"] is True


def test_conditions_empty_and_errors():
    mset = _micro_set()
    assert check_lcs_conditions_all(mset, []) == {"cond1": True, "cond2_all": True}
    with pytest.raises(IndexOutOfRange):
        check_lcs_conditions_all(mset, [0, 7])
    with pytest.raises(IndexOutOfRange):
        check_lcs_conditions_all(mset, [-1, 0])
    with pytest.raises(InvalidInput):
        check_lcs_conditions_all(mset, [[0], [1]])


def _conditions_by_scalar_collisions(mset, chosen):
    # the definition, one string pair at a time
    w = mset.params.w
    strings = [mset.string(i) for i in range(len(mset))]
    total = [sum(collisions(strings[s], strings[c]) for c in chosen) for s in range(len(mset))]
    cond1 = all(2 * total[s] <= w for s in range(len(mset)) if s not in chosen)
    cond2 = all(
        2 * sum(collisions(strings[c], strings[d]) for j, d in enumerate(chosen) if j != i) <= w
        for i, c in enumerate(chosen)
    )
    return {"cond1": cond1, "cond2_all": cond2}


@pytest.mark.parametrize("alphabet,w,s_size", [(2, 4, 6), (3, 6, 9), (4, 8, 12)])
def test_conditions_match_scalar_collisions(alphabet, w, s_size):
    # offsets drawn from a few values per segment, so that totals land on
    # either side of w/2; multisets draw with replacement, so repeats occur
    p = _params(n=16, k=1, w=w, ell=4, s_size=s_size)
    rng = np.random.default_rng(alphabet)
    seen = set()
    for trial in range(150):
        offsets = rng.integers(0, alphabet, size=(s_size, w))
        mset = MaskingSet(offsets, p, seed=0, status=STATUS_UNVERIFIED)
        chosen = rng.integers(0, s_size, size=int(rng.integers(1, 5))).tolist()
        got = check_lcs_conditions_all(mset, chosen)
        assert got == _conditions_by_scalar_collisions(mset, chosen), (trial, chosen)
        seen.add((got["cond1"], got["cond2_all"]))
    assert len(seen) >= 3


def test_conditions_hold_for_distinct_draws():
    # distinct selections from a fresh candidate satisfy both conditions in
    # well over a 1 - delta fraction of draws at the default design point
    p = derive_params(2**20, 10)
    mset = construct_candidate(p, seed=5)
    rng = np.random.default_rng(99)
    ok = 0
    draws = 300
    for _ in range(draws):
        chosen = rng.choice(p.s_size, size=p.k, replace=False)
        got = check_lcs_conditions_all(mset, chosen)
        ok += got["cond1"] and got["cond2_all"]
    assert ok / draws >= 1 - p.delta


# --- persistence (the design bundle is the only file format) ----------------

def _save_set(mset, path):
    save_design(DesignBundle(mset, assignment_seed=0), path)


def test_save_load_round_trip(tmp_path):
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    mset = build_smallk_set(p, seed=1)
    path = tmp_path / "design.json"
    _save_set(mset, path)
    back = load_design(path).masking
    assert np.array_equal(back.offsets, mset.offsets)
    assert back.params == mset.params
    assert back.seed == mset.seed
    assert back.status == STATUS_SMALLK


def test_load_detects_tamper(tmp_path):
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    mset = build_smallk_set(p, seed=1)
    path = tmp_path / "design.json"
    _save_set(mset, path)
    payload = json.loads(path.read_text())
    payload["masking"]["status"] = "promising"  # forge a stronger status
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="hash"):
        load_design(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    with pytest.raises(CorruptDesignFile):
        load_design(path)
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(CorruptDesignFile):
        load_design(path)


def test_payload_version_check(tmp_path):
    # a nested masking payload of another version is refused even when the
    # file's hash matches its content
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    path = tmp_path / "design.json"
    _save_set(build_smallk_set(p, seed=1), path)
    payload = json.loads(path.read_text())
    del payload["sha256"]
    payload["masking"]["version"] = 99
    payload["sha256"] = _sha256(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="version"):
        load_design(path)


def test_wide_segment_round_trip(tmp_path):
    # segment length beyond 16-bit range forces the wider offsets encoding
    k = 2**14
    p = SchemeParams(
        n=2**20, k=k, delta=0.5, w=16, ell=5, c1=4, s_size=2,
        t1=4 * k * 16, t2=5 * 4 * k * 16, xi=0.0,
    )
    assert p.segment_len == 65536
    rng = np.random.default_rng(0)
    offsets = rng.integers(0, p.segment_len, size=(2, 16))
    mset = MaskingSet(offsets.astype(np.int64), p, seed=0, status=STATUS_UNVERIFIED)
    path = tmp_path / "wide.json"
    _save_set(mset, path)
    payload = json.loads(path.read_text())
    assert payload["masking"]["offsets_dtype"] == "<u4"
    back = load_design(path).masking
    assert np.array_equal(back.offsets, offsets)
