import copy
import dataclasses
import hashlib
import itertools
import json
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bitmix import masking
from bitmix.bundle import DesignBundle, _sha256, build_design, load_design, save_design
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
    _string_stats,
    build_lcs,
    build_smallk_set,
    check_lcs_conditions_all,
    construct_candidate,
    smallk_pairs_ok,
    verify_promising,
)
from bitmix.params import REGIME_SMALLK, SchemeParams, derive_params

from oracle import MaskingString, collision_matrix, collisions


def _params(n, k, w, ell, c1=4, s_size=4, xi=0.0):
    # direct construction for hand-sized fixtures (bypasses the derivation)
    return SchemeParams(
        n=n, k=k, delta=0.5, w=w, ell=ell, c1=c1, s_size=s_size,
        t1=c1 * k * w, t2=ell * c1 * k * w, xi=xi,
    )


# --- the scalar collision reference in oracle.py ---------------------------

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
    mat = collision_matrix(mset.offsets).astype(np.float64)
    np.fill_diagonal(mat, np.nan)
    mean = np.nanmean(mat)
    target = p.w / (4 * p.k)
    assert abs(mean - target) <= 0.1 * target


def test_flat_positions():
    p = _params(n=16, k=2, w=4, ell=3, s_size=2)
    offsets = np.array([[0, 1, 2, 3], [7, 0, 5, 1]])
    mset = MaskingSet(offsets, p, seed=0, status=STATUS_UNVERIFIED)
    flat = mset.positions()
    assert flat.shape == (2, 4)
    assert list(flat[0]) == [0, 9, 18, 27]
    assert list(flat[1]) == [7, 8, 21, 25]
    # any strings and segments, either way round, always a new C-ordered array
    assert mset.positions([1, 0, 1], 1, 3).tolist() == [[8, 21], [9, 18], [8, 21]]
    assert mset.positions(1).tolist() == [7, 8, 21, 25]
    assert mset.positions(1, by_segment=True).tolist() == [7, 8, 21, 25]
    assert mset.positions(slice(1, 2), hi=2).tolist() == [[7, 8]]
    segments = mset.positions(np.array([1, 0]), 2, 4, by_segment=True)
    assert segments.tolist() == [[21, 18], [25, 27]]
    for part in (flat, segments, mset.positions(slice(None), 1, 3)):
        assert part.flags.c_contiguous and part.flags.owndata and part.flags.writeable


@pytest.mark.parametrize("n, k, xi", [(2**26, 10, 0.0), (2**20, 10, 0.05), (2**20, 20, 0.0)])
def test_flat_positions_are_int32_on_the_benchmark_cells(n, k, xi):
    # the narrow table holds the int32 positions exactly: its type casts to
    # int32 without loss, and the block-wise int32 draws give the offsets of
    # one int32 draw of the whole (|S|, w) table, so designs stay bit-identical
    p = derive_params(n, k, xi=xi)
    flat = construct_candidate(p, seed=1).positions()
    assert np.can_cast(flat.dtype, np.int32)
    whole = np.random.default_rng(1).integers(
        0, p.segment_len, size=(p.s_size, p.w), dtype=np.int32
    )
    seg = np.arange(p.w, dtype=np.int32) * p.segment_len
    assert np.array_equal(flat, whole + seg)


@pytest.mark.parametrize("n, k, xi", [(2**26, 10, 0.0), (2**20, 10, 0.05), (2**20, 20, 0.0)])
def test_tables_are_uint8_offsets_and_uint16_positions_on_the_benchmark_cells(n, k, xi):
    p = derive_params(n, k, xi=xi)
    mset = construct_candidate(p, seed=1)
    flat = mset.positions()
    assert mset.offsets.dtype == np.uint8
    assert flat.dtype == np.uint16
    seg = np.arange(p.w, dtype=np.int64) * p.segment_len
    assert np.array_equal(flat, mset.offsets.astype(np.int64) + seg)
    # a narrow pass of MaskingSet.reaching reads segments [0, 4) of every string
    head = mset.positions(slice(None), 0, 4, by_segment=True)
    assert head.dtype == np.uint16 and np.array_equal(head, flat[:, :4].T)


@pytest.mark.parametrize("n, k, w, ell, dtype", [(2**40, 2**10, 16, 5, np.uint16),
                                                 (2**14 + 1, 2**14 + 1, 1, 15, np.uint32),
                                                 (2**20, 65, 300, 9, np.uint32),
                                                 (2**40, 2**26, 16, 5, np.uint32)],
                         ids=["t1=2^16", "t1=2^16+4", "c1k=260,t1=78000", "t1=2^32"])
def test_positions_take_the_narrowest_type_that_holds_t1(n, k, w, ell, dtype):
    # t1 = 4 k w.  2^16 + 1 is prime, so no t1 equals it; 2^16 + 4 is the
    # first t1 past 2^16.  c1*k = 260 is the first segment length with
    # uint16 offsets, and at w = 300 its positions are uint32.  The last
    # position, t1 - 1, is held exactly.  At t1 = 2^32 usage() and scores()
    # are not called, since a count vector of t1 entries would take 16 GB
    p = _params(n=n, k=k, w=w, ell=ell, s_size=2)
    offsets = np.array([np.arange(w) % p.segment_len, np.full(w, p.segment_len - 1)])
    mset = MaskingSet(offsets, p, seed=0)
    flat = mset.positions()
    assert flat.dtype == dtype
    assert int(flat[1, -1]) == p.t1 - 1
    seg = np.arange(w, dtype=np.int64) * p.segment_len
    assert np.array_equal(flat, offsets.astype(np.int64) + seg)
    tail = mset.positions(slice(None), w // 2, w, by_segment=True)
    assert tail.dtype == dtype and np.array_equal(tail, flat[:, w // 2:].T)
    if k == 65:
        assert mset.offsets.dtype == np.uint16
        vec = np.zeros(p.t1, dtype=np.uint8)
        vec[flat[1]] = 1
        assert mset.scores(vec).tolist() == [int(np.isin(flat[0], flat[1]).sum()), w]
        assert mset.reaching(vec, w).tolist() == [1]
        assert np.array_equal(mset.usage([1, 1]), 2 * vec)


@pytest.mark.parametrize("k, dtype", [(1, np.uint8), (64, np.uint8), (65, np.uint16),
                                      (2**14 + 1, np.uint32)],
                         ids=["c1k=4", "c1k=256", "c1k=260", "c1k=2^16+4"])
def test_offsets_take_the_narrowest_type_that_holds_a_segment(k, dtype):
    # c1 * k = 257 is prime, so 260 is the first segment length past 256
    p = _params(n=2**14 + 1, k=k, w=3, ell=5, s_size=2)
    top = p.segment_len - 1
    offsets = np.array([[0, top, 0], [top] * 3])
    mset = MaskingSet(offsets, p, seed=0)
    assert mset.offsets.dtype == dtype
    assert np.array_equal(mset.offsets, offsets)
    assert construct_candidate(p, seed=0).offsets.dtype == dtype


@pytest.mark.parametrize("repeats, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16),
                                            (300, np.uint16)])
def test_usage_counts_in_the_narrowest_type(repeats, dtype):
    p = derive_params(2**10, 2)
    mset = construct_candidate(p, seed=3)
    chosen = np.random.default_rng(repeats).integers(0, p.s_size, size=repeats)
    got = mset.usage(chosen)
    assert got.dtype == dtype
    expect = np.bincount(mset.positions(chosen).ravel(), minlength=p.t1)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize(
    "offsets, status, error",
    [
        (np.array([[0, 1, 2, 3], [7, 0, 5, 1]]) + 0.7, "unverified", InvalidInput),
        (np.array([[0.0, 1.0, 2.0, 3.0], [7.0, 0.0, 5.0, 1.0]]), "unverified", InvalidInput),
        (np.array([["0", "1", "2", "3"], ["7", "0", "5", "1"]]), "unverified", InvalidInput),
        (np.array([[0, 1, 2, 3], [7, 0, 5, 8]]), "unverified", InvalidInput),
        (np.array([[0, 1, 2, 3], [7, 0, 5, -1]]), "unverified", InvalidInput),
        (np.array([[0, 1, 2, 3], [7, 0, 5, 2**32]]), "unverified", InvalidInput),
        (np.array([[0, 1, 2, 3]]), "unverified", ShapeMismatch),
        (np.array([[0, 1, 2, 3], [7, 0, 5, 1]]), "certified", InvalidInput),
    ],
    ids=["fraction", "float", "string", "too-large", "negative", "wraps-int32",
         "shape", "status"],
)
def test_masking_set_refuses_malformed_offsets(offsets, status, error):
    # checked before the narrowing cast: no float is truncated and no offset wraps
    p = _params(n=16, k=2, w=4, ell=3, s_size=2)
    with pytest.raises(error):
        MaskingSet(offsets, p, seed=0, status=status)


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
    mat = collision_matrix(mset.offsets)
    np.fill_diagonal(mat, 10)
    assert (mat == 10).all()

    report = verify_promising(mset)
    assert report.passed
    assert report.first_violation is None
    assert not report.generalized
    assert not report.degenerate
    # the certificate leaves the set as it is; build_lcs sets the status
    assert mset.status == STATUS_UNVERIFIED


def _stream_stats(mset):
    # the certificate's per-string numerators, read from its stream to the
    # end, in order: string 0 alone, then one block of _PAIR_ROWS strings
    # after another
    sums, max_dev_num, sq_dev_num = [], [], []
    for lo, v, dev, sq in _string_stats(mset.offsets):
        assert lo == len(sums)
        assert len(v) == len(dev) == len(sq) == (min(_PAIR_ROWS, len(mset) - lo) if lo else 1)
        assert all(type(x) is int for x in sq)
        sums += v.tolist()
        max_dev_num += dev.tolist()
        sq_dev_num += sq
    assert len(sums) == len(mset)
    return sums, max_dev_num, sq_dev_num


def test_verify_stats_shapes():
    mset = _equal_collision_set()
    sums, max_dev_num, sq_dev_num = _stream_stats(mset)
    assert sums == [20, 20, 20]  # mean 10 = sums / (|S| - 1)
    assert max_dev_num == [0, 0, 0]
    assert sq_dev_num == [0, 0, 0]



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


# GF(4) products; the sum is XOR
_GF4_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])

# strings in the sets that span more than two row blocks
_LONG = 2 * _PAIR_ROWS + 3


def _orthogonal_set(s_size=_LONG):
    # string i is the linear form v -> u_i . v over GF(4)^4, one segment per
    # v, for s_size of the 85 points u of PG(3, 4).  Two such forms are
    # independent, so every pair of strings collides in exactly
    # 256 / 4 = 64 = w/(c1*k) segments: every statistic is on target.  The
    # points are shuffled: in lexicographic order the first 21 lie in one
    # plane, and their values spread over a segment too evenly for
    # _max_dev_at to find segments that move t's mean
    vs = np.array(list(itertools.product(range(4), repeat=4)))
    points = np.array([v for v in vs if v.any() and v[np.flatnonzero(v)[0]] == 1])
    assert s_size <= len(points)
    points = np.random.default_rng(0).permutation(points)[:s_size]
    offsets = np.bitwise_xor.reduce(_GF4_MUL[points[:, None], vs[None]], axis=2)
    return MaskingSet(offsets, _params(n=64, k=1, w=len(vs), ell=9, s_size=s_size), 0)


def _max_dev_at(t):
    # the orthogonal set with string t moved onto string j = t + 1 (or 0) in
    # the six segments where that takes the most collisions from the others.
    # t and j then collide 70 times: j's deviation is 6 * 33/34 <= 6.1, but
    # t's mean falls below 64, so its deviation from it exceeds 6.1, and no
    # other string moves by more than 6
    exact = _orthogonal_set()
    offsets = exact.offsets.copy()
    j = (t + 1) % len(exact)
    rest = np.delete(offsets, [t, j], axis=0)
    gain = (rest == offsets[j]).sum(axis=0) - (rest == offsets[t]).sum(axis=0)
    gain[offsets[t] == offsets[j]] = len(rest)
    segments = np.argsort(gain, kind="stable")[:6]
    offsets[t, segments] = offsets[j, segments]
    return MaskingSet(offsets, exact.params, 0)


def _duplicate_at(t):
    # the orthogonal set with string t + 1 a copy of string t: the only pair
    # above w/(2k) = 128, and t the first string whose mean is off
    exact = _orthogonal_set()
    offsets = exact.offsets.copy()
    offsets[t + 1] = offsets[t]
    return MaskingSet(offsets, exact.params, 0)


def _boundary_sets():
    # string 0 meets each bound with equality, so it passes.  With w = 50 and
    # counts (17, 7): the mean 12 is 4% under 12.5 and the squared-deviation
    # sum 50 equals 2 * 2w/(c1*k); string 2, with counts (7, 7), fails the
    # mean.  With w = 100 and counts 32, 26, 26 and seven 25s: the largest
    # deviation is 61/10 = 6.1
    for w, zeros in [(50, [17, 7]), (100, [32, 26, 26] + [25] * 7)]:
        offsets = np.zeros((len(zeros) + 1, w), dtype=np.int64)
        for j, z in enumerate(zeros, start=1):
            offsets[j, z:] = 1 + j % 3
        yield MaskingSet(offsets, _params(n=16, k=1, w=w, ell=7, s_size=len(offsets)), 0)


def _certificate_cases():
    rng = np.random.default_rng(17)
    exact = _equal_collision_set()
    yield exact
    yield from _boundary_sets()
    # more than one row block: a passing set, and sets whose first violation
    # is at either end of a block (string 0 alone, then blocks from string 1)
    yield _orthogonal_set()
    for t in (0, 1, _PAIR_ROWS - 1, _PAIR_ROWS, _PAIR_ROWS + 1, _LONG - 1):
        yield _max_dev_at(t)
        yield _duplicate_at(min(t, _LONG - 2))
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
        assert _stream_stats(mset) == (sums.tolist(), max_dev_num.tolist(), sq_dev_num)
        report = verify_promising(mset)
        assert report.passed == (first is None)
        assert (report.first_violation and report.first_violation[:2]) == first
        assert smallk_pairs_ok(mset) == smallk
        seen.add(first and first[1])
        seen.add(smallk)
    # every outcome of both checks occurs among the cases
    assert seen == {None, "mean", "max_dev", "sq_dev", True, False}

@pytest.mark.parametrize("s_size", [256, 257])
@pytest.mark.parametrize("k", [64, 65], ids=["c1k=256", "c1k=260"])
def test_collision_blocks_match_the_dense_reference_at_the_type_boundaries(s_size, k):
    # string ids and ranks in uint8 (256 strings) or uint16 (257), offsets in
    # uint8 (segment 256) or uint16 (260), a third of them at the last
    # offset.  With w = 256 the places in the bucket lists and the bucket
    # keys pass 2^16, so no sum of a narrow table may wrap
    w = 256
    p = _params(n=2**14 + 1, k=k, w=w, ell=9, s_size=s_size)
    rng = np.random.default_rng(s_size + k)
    top = p.segment_len - 1
    offsets = np.where(rng.random((s_size, w)) < 1 / 3, top,
                       rng.integers(top - 3, top + 1, size=(s_size, w)))
    offsets[-1] = top
    mset = MaskingSet(offsets, p, seed=0)
    assert mset.offsets.max() == top
    dense = np.triu(collision_matrix(offsets), 1)
    got = np.zeros_like(dense)
    for lo, block in masking._collision_blocks(mset.offsets):
        got[lo:lo + len(block), lo:] = block
    assert np.array_equal(got, dense)


def test_certificate_reads_only_up_to_the_violating_block(monkeypatch):
    # the certificate and the small-k check stop at the block holding the
    # first violation, or the first pair above w/(2k): string 0's row alone,
    # then blocks of _PAIR_ROWS strings from string 1 on.  A passing set
    # reads every block; only a check that reads past string 0 builds the
    # bucket layout
    blocks, layout = masking._collision_blocks, masking._bucket_layout
    drawn, built = [], []

    def counted(offsets):
        drawn.append([])
        for lo, block in blocks(offsets):
            drawn[-1].append(len(block))
            yield lo, block

    def counted_layout(offsets, *args):
        built.append(len(offsets))
        return layout(offsets, *args)

    monkeypatch.setattr(masking, "_collision_blocks", counted)
    monkeypatch.setattr(masking, "_bucket_layout", counted_layout)
    passing = _orthogonal_set()
    assert verify_promising(passing).passed
    assert passing.status == STATUS_UNVERIFIED
    assert smallk_pairs_ok(passing)
    assert drawn == [[1, _PAIR_ROWS, _PAIR_ROWS, 2]] * 2
    assert built == [_LONG] * 2
    # blocks read for a first violation at string t: each end of each block
    reads = {0: 1, 1: 2, _PAIR_ROWS - 1: 2, _PAIR_ROWS: 2, _PAIR_ROWS + 1: 3,
             2 * _PAIR_ROWS: 3, 2 * _PAIR_ROWS + 1: 4, _LONG - 1: 4}
    for t, count in reads.items():
        drawn.clear()
        built.clear()
        mset = _max_dev_at(t)
        report = verify_promising(mset)
        assert not report.passed and report.first_violation[:2] == (t, "max_dev")
        assert mset.status == STATUS_UNVERIFIED
        dup_at = min(t, _LONG - 2)
        dup = _duplicate_at(dup_at)
        assert not smallk_pairs_ok(dup)
        assert [len(d) for d in drawn] == [count, reads[dup_at]]
        assert built == [_LONG] * ((t > 0) + (dup_at > 0))
    # a derived candidate fails at string 0: one one-row block, no layout
    drawn.clear()
    built.clear()
    report = verify_promising(construct_candidate(derive_params(2**20, 20), seed=0))
    assert report.first_violation[0] == 0
    assert drawn == [[1]]
    assert built == []


def test_certificate_holds_its_bucket_lists_and_little_more():
    # an i.i.d. (2^20, 20) design, as the benchmark builds, fails at string
    # 0, whose row holds one |S| w bool table and no bucket layout.
    # Measured: 1.08 * |S| w.  A check that reads past string 0 holds the
    # bucket lists and each string's rank in them, uint16, 2 * 2 |S| w
    # bytes; the scratch of building them is bounded by _LAYOUT, and a block
    # holds a few int32 lists of _PAIR_ROWS |S| w / (c1 k) pairs.  Measured
    # over string 0 and the next block: 1.72 * 4 |S| w; int32 lists and
    # places peaked at 2.8, and a layout built whole at 4.1.
    mset = build_design(2**20, 20, seed=1, verify=False).masking
    p = mset.params
    verify_promising(mset)

    def traced_peak(read):
        tracemalloc.start()
        try:
            got = read()
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report, peak = traced_peak(lambda: verify_promising(mset))
    assert report.first_violation[0] == 0
    assert peak <= 1.25 * p.s_size * p.w, peak
    blocks = masking._collision_blocks(mset.offsets)
    (lo, _), peak = traced_peak(lambda: (next(blocks), next(blocks))[1])
    assert lo == 1
    assert peak <= 2.0 * 4 * p.s_size * p.w, peak


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
    assert report.first_violation is None


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
    assert np.array_equal(collision_matrix(ext.offsets), 4 * collision_matrix(base.offsets))
    assert verify_promising(ext).passed


# --- very-sparse sets -----------------------------------------------------

def test_build_smallk():
    p = derive_params(2**16, 2, regime=REGIME_SMALLK)
    mset = build_smallk_set(p, seed=1)
    assert mset.status == STATUS_SMALLK
    mat = collision_matrix(mset.offsets)
    np.fill_diagonal(mat, 0)
    assert (2 * p.k * mat <= p.w).all()
    again = build_smallk_set(p, seed=1)
    assert np.array_equal(mset.offsets, again.offsets)


def test_builds_return_a_set_of_their_status_on_the_drawn_table(monkeypatch):
    # the certificate and the pairwise check leave the draw as it is; the
    # builder returns a set of its status on the same table, still drawn
    drawn = []
    draw = masking.construct_candidate

    def kept(params, seed):
        drawn.append(draw(params, seed))
        return drawn[-1]

    monkeypatch.setattr(masking, "construct_candidate", kept)
    for build, params, status in [
        (build_smallk_set, derive_params(2**16, 2, regime=REGIME_SMALLK), STATUS_SMALLK),
        (build_lcs, derive_params(2, 1, regime=REGIME_SMALLK), STATUS_PROMISING),
    ]:
        mset = build(params, seed=1)
        assert (mset.status, drawn[-1].status) == (status, STATUS_UNVERIFIED)
        assert mset.offsets is drawn[-1].offsets and mset.drawn
    # a set made by replace is not a draw: it holds its own copy
    other = dataclasses.replace(mset, status=STATUS_UNVERIFIED)
    assert not other.drawn and not np.shares_memory(other.offsets, mset.offsets)


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
    with pytest.raises(InvalidInput):
        check_lcs_conditions_all(mset, [0.7, 1.2])


def test_scores_and_reaching_refuse_a_vector_of_another_length_and_a_negative_threshold():
    # a short vector raised numpy's IndexError, a long one was read in part,
    # and a negative threshold listed every string
    mset = construct_candidate(derive_params(2**12, 4), seed=0)
    t1 = mset.params.t1
    for vec in (np.ones(t1 // 2, dtype=np.uint8), np.ones(t1 + 1, dtype=np.uint8),
                np.ones((1, t1), dtype=np.uint8)):
        with pytest.raises(InvalidInput, match="t1"):
            mset.scores(vec)
        with pytest.raises(InvalidInput, match="t1"):
            mset.reaching(vec, 1)
    vec = np.ones(t1, dtype=np.uint8)
    for threshold in (-1, 1.5, True):
        with pytest.raises(InvalidInput, match="threshold"):
            mset.reaching(vec, threshold)
    assert np.array_equal(mset.reaching(vec, 0), np.arange(len(mset)))
    assert np.array_equal(mset.scores(vec), np.full(len(mset), mset.params.w))


def test_usage_refuses_an_index_outside_the_set(monkeypatch):
    # -1 would wrap to the last string, and 10**6 raise numpy's IndexError
    mset = _micro_set()
    for chosen in ([-1], [len(mset)], [10**6]):
        with pytest.raises(IndexOutOfRange):
            mset.usage(chosen)
    with pytest.raises(InvalidInput):
        mset.usage([0.7])
    # the conditions check their input once, and hand it to usage checked
    checks = []
    validate = masking._validate_chosen

    def counted(*args):
        checks.append(args[1])
        return validate(*args)

    monkeypatch.setattr(masking, "_validate_chosen", counted)
    check_lcs_conditions_all(mset, [0, 1])
    assert len(checks) == 1


def _conditions_by_scalar_collisions(mset, chosen):
    # the definition, one string pair at a time
    w = mset.params.w
    strings = [MaskingString(o, mset.params.segment_len) for o in mset.offsets]
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


def _conditions_by_collision_matrix(mset, chosen):
    # the definition, from the whole |S| x |S| collision matrix
    w, c = mset.params.w, collision_matrix(mset.offsets)
    total = c[:, chosen].sum(axis=1)
    outside = np.setdiff1d(np.arange(len(mset)), chosen)
    return {"cond1": bool((2 * total[outside] <= w).all()),
            "cond2_all": bool((2 * (total[chosen] - w) <= w).all())}


@pytest.mark.parametrize("size", [2, 5, 255, 256, 700])
def test_conditions_match_the_oracle_on_multisets_with_repeats(size):
    # past 255 strings the usage counts come as uint16; more draws than
    # strings force repeats, and strings beyond the draws stay outside.
    # Offsets from 2 to 8 values per segment put totals on either side of w/2.
    p = _params(n=64, k=2, w=12, ell=4, s_size=40)
    rng = np.random.default_rng(size)
    seen = set()
    for trial in range(30):
        values = int(rng.integers(2, 9))
        mset = MaskingSet(rng.integers(0, values, size=(40, 12)), p, seed=0)
        chosen = rng.integers(0, int(rng.integers(1, 30)), size=size)
        got = check_lcs_conditions_all(mset, chosen)
        assert got == _conditions_by_collision_matrix(mset, chosen), trial
        seen.add(tuple(got.values()))
    if size == 2:
        assert len(seen) >= 3


def test_conditions_check_holds_two_bytes_per_string_position():
    # positions formed a block at a time and uint8 usage counts: one check at
    # (2^20, 20) holds at most 2 |S| w bytes beyond the offsets
    p = derive_params(2**20, 20)
    mset = construct_candidate(p, seed=1)
    chosen = np.random.default_rng(0).choice(p.s_size, size=20, replace=False)
    tracemalloc.start()
    try:
        check_lcs_conditions_all(mset, chosen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * p.s_size * p.w, peak


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


@pytest.mark.parametrize(
    "k, dtype, sha256",
    [(64, np.uint8, "e3b2fbb8ac5fa7b396e6a9bfe219b770b39b823536ec7f0b1a77f73ae3a4539f"),
     (65, np.uint16, "1107bf07a04fc0b98afcc27808736d003c72b1b939750dcc083fb03624ef3cd6")],
    ids=["c1k=256", "c1k=260"],
)
def test_narrow_offsets_round_trip_keeps_the_file_and_a_writable_table(tmp_path, k, dtype,
                                                                       sha256):
    # the digest reads uint8 offsets one byte each and uint16 ones as <u2;
    # the rebuilt table is the set's own and read-only
    p = _params(n=2**14 + 1, k=k, w=40, ell=6, s_size=50)
    mset = construct_candidate(p, seed=3)
    assert mset.offsets.max() == p.segment_len - 1
    path = tmp_path / "design.json"
    save_design(DesignBundle(mset, assignment_seed=5), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    back = load_design(path).masking
    assert back.offsets.dtype == dtype and not back.offsets.flags.writeable
    assert np.array_equal(back.offsets, mset.offsets)
    again = tmp_path / "again.json"
    save_design(DesignBundle(back, assignment_seed=5), again)
    assert again.read_bytes() == path.read_bytes()
    with pytest.raises(ValueError, match="read-only"):
        back.offsets[0, 0] = 0


def test_positions_make_the_offsets_read_only():
    # Copying string 0 over string 1 after one check: the set's cached digest
    # would answer for the old table, and its checks would change answer
    # (cond2_all True, where a fresh set with the edit reads False), so the
    # edit must raise instead, in place from construction on and by
    # reassignment.
    p = derive_params(2**10, 2)
    mset = construct_candidate(p, seed=0)
    with pytest.raises(ValueError, match="read-only"):
        mset.offsets[0, 0] = mset.offsets[0, 0]
    assert check_lcs_conditions_all(mset, [0, 1])["cond2_all"]
    with pytest.raises(ValueError, match="read-only"):
        mset.offsets[1] = mset.offsets[0]
    edited = mset.offsets.copy()
    edited[1] = edited[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        mset.offsets = edited
    assert check_lcs_conditions_all(mset, [0, 1])["cond2_all"]
    fresh = MaskingSet(edited, p, seed=0)
    assert not check_lcs_conditions_all(fresh, [0, 1])["cond2_all"]
    # the set copied the caller's array, which stays the caller's to edit
    assert not np.shares_memory(fresh.offsets, edited)
    edited[1] = mset.offsets[1]
    assert np.array_equal(fresh.offsets[1], fresh.offsets[0])
    for name, value in (("status", STATUS_PROMISING), ("seed", 1), ("params", p)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mset, name, value)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda mset: pickle.loads(pickle.dumps(mset))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_set_are_rebuilt_through_the_constructor(clone, tmp_path):
    # a copy holds a read-only table of the same digest, computed again, and
    # is not its seed's draw: saving it redraws the seed and compares
    p = derive_params(2**10, 2)
    mset = construct_candidate(p, seed=3)
    digest = mset.offsets_sha256
    again = clone(mset)
    assert "offsets_sha256" not in vars(again)
    assert again.offsets_sha256 == digest
    assert not again.offsets.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        again.offsets[1] = again.offsets[0]
    assert (again.params, again.seed, again.status) == (p, 3, STATUS_UNVERIFIED)
    assert mset.drawn and not again.drawn
    _save_set(mset, tmp_path / "drawn.json")
    _save_set(again, tmp_path / "copy.json")
    assert (tmp_path / "copy.json").read_bytes() == (tmp_path / "drawn.json").read_bytes()


def test_certificate_holds_no_table_of_the_set():
    # string 0's collisions are counted _GATHER offsets at a time: the
    # certificate at (2^20, 20), which fails at string 0, holds far less than
    # the |S| w bool table of one comparison with the whole table (1.19 MB)
    p = derive_params(2**20, 20)
    mset = construct_candidate(p, seed=1)
    tracemalloc.start()
    try:
        report = verify_promising(mset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.first_violation[:2] == (0, "max_dev")
    assert peak < p.s_size * p.w // 4, peak


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
    # a segment of 2^16 bits: offsets up to 65535, the widest uint16 table
    k = 2**14
    p = SchemeParams(
        n=2**20, k=k, delta=0.5, w=16, ell=5, c1=4, s_size=2,
        t1=4 * k * 16, t2=5 * 4 * k * 16, xi=0.0,
    )
    assert p.segment_len == 65536
    mset = construct_candidate(p, seed=0)
    assert mset.offsets.dtype == np.uint16
    path = tmp_path / "wide.json"
    _save_set(mset, path)
    back = load_design(path).masking
    assert np.array_equal(back.offsets, mset.offsets)
