import copy
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.stats

from bitmix import scheme
from bitmix.code import ERASURE, Codebook
from bitmix.errors import InvalidInput, MalformedResultFile
from bitmix.masking import (
    MaskingSet,
    STATUS_UNVERIFIED,
    check_lcs_conditions_all,
    construct_candidate,
)
from bitmix.params import SchemeParams, derive_params
from bitmix.scheme import (
    Assignment,
    Batch1Outcome,
    Batch2Outcome,
    batch1_threshold,
    decode,
    identify_items,
    identify_strings,
    outcomes_from_bytes,
    outcomes_to_bytes,
    simulate_outcomes,
)


def _design(n, k, xi=0.0, seed=0):
    p = derive_params(n, k, xi=xi)
    mset = construct_candidate(p, seed=seed)
    cb = Codebook(p.n, p.w, p.ell)
    asg = Assignment(seed=seed + 1, s_size=p.s_size)
    return p, mset, cb, asg


def test_assignment_deterministic_and_in_range():
    asg = Assignment(seed=7, s_size=461)
    items = np.arange(1, 10_001)
    a = asg.index_of(items)
    b = asg.index_of(items)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 461
    assert asg.index_of(123).tolist() == [a[122]]
    assert Assignment(seed=8, s_size=461).index_of(items).tolist() != a.tolist()


def test_assignment_uniformity_chi2():
    # 10^6 draws over 461 bins; the fit must survive a 1% chi-squared test
    asg = Assignment(seed=3, s_size=461)
    idx = asg.index_of(np.arange(1, 1_000_001))
    counts = np.bincount(idx, minlength=461)
    expected = 1_000_000 / 461
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = scipy.stats.chi2.ppf(0.99, df=460)
    assert stat < crit


def test_threshold_values():
    assert batch1_threshold(derive_params(2**20, 10)) == 381
    p = derive_params(2**16, 5, xi=0.05)
    assert batch1_threshold(p) == 173


def test_simulate_empty_defective_set():
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([], asg, mset, cb)
    assert not y1.bits.any()
    assert not y2.symbols.any()


def test_simulate_single_defective_is_string_plus_codeword():
    p, mset, cb, asg = _design(2**10, 2)
    item = 37
    s = int(asg.index_of(item)[0])
    y1, y2 = simulate_outcomes([item], asg, mset, cb)
    assert np.array_equal(np.nonzero(y1.bits)[0], np.sort(mset.positions(s)))
    word = y2.symbols[mset.positions(s)]
    assert np.array_equal(word, cb.encode_index(item))
    off = np.ones(p.t1, dtype=bool)
    off[mset.positions(s)] = False
    assert not y2.symbols[off].any()


def test_simulate_two_defectives_or_semantics():
    p, mset, cb, asg = _design(2**10, 2)
    # find two items assigned to different strings
    items = np.arange(1, 200)
    strings = asg.index_of(items)
    i1 = int(items[0])
    j = int(np.nonzero(strings != strings[0])[0][0])
    i2 = int(items[j])
    s1, s2 = strings[0], strings[j]

    y1, y2 = simulate_outcomes([i1, i2], asg, mset, cb)
    both = np.zeros(p.t1, dtype=np.uint8)
    both[mset.positions(s1)] = 1
    both[mset.positions(s2)] = 1
    assert np.array_equal(y1.bits, both)

    w1 = cb.encode_index(i1)
    w2 = cb.encode_index(i2)
    shared = np.intersect1d(mset.positions(s1), mset.positions(s2))
    pos1 = mset.positions(s1)
    # positions hit by both defectives carry the bitwise OR of the symbols
    for t in shared:
        k1 = int(np.nonzero(pos1 == t)[0][0])
        pos2 = mset.positions(s2)
        k2 = int(np.nonzero(pos2 == t)[0][0])
        assert y2.symbols[t] == int(w1[k1]) | int(w2[k2])


def test_simulate_validation():
    p, mset, cb, asg = _design(2**10, 2)
    with pytest.raises(InvalidInput):
        simulate_outcomes([1, 1], asg, mset, cb)
    with pytest.raises(InvalidInput):
        simulate_outcomes([0], asg, mset, cb)
    with pytest.raises(InvalidInput):
        simulate_outcomes([p.n + 1], asg, mset, cb)
    with pytest.raises(InvalidInput):
        simulate_outcomes([1, 2, 3], asg, mset, cb)  # k = 2



@pytest.mark.parametrize("items", [[1.5, 7.9], [2.0], ["3"], [[1, 2]], [-1]])
def test_items_must_be_integers(items):
    # checked before the cast, so no float is truncated to an item
    p, mset, cb, asg = _design(2**10, 2)
    with pytest.raises(InvalidInput):
        simulate_outcomes(items, asg, mset, cb)
    with pytest.raises(InvalidInput):
        asg.index_of(items)


def test_simulate_noisy_requires_rng():
    p, mset, cb, asg = _design(2**16, 5, xi=0.05)
    with pytest.raises(InvalidInput):
        simulate_outcomes([1], asg, mset, cb)
    y1, _ = simulate_outcomes([1], asg, mset, cb, rng=np.random.default_rng(0))
    # noise actually flips something in t1 = 7770 positions at xi = 0.05
    s = asg.index_of(1)[0]
    clean = np.zeros(p.t1, dtype=np.uint8)
    clean[mset.positions(s)] = 1
    assert not np.array_equal(y1.bits, clean)


@pytest.mark.parametrize("block", [1, 1234, None])
def test_noise_drawn_in_blocks_keeps_the_outcomes(monkeypatch, block):
    # Batch-2 flips are drawn a block of symbols at a time.  Blocks of one
    # symbol, of a count that does not divide t1, and one block of the whole
    # (t1, ell) table all give the bytes of the default blocks, and leave the
    # generator at the same state.
    p, mset, cb, asg = _design(2**16, 5, xi=0.05)
    assert p.t1 % (1234 // p.ell) != 0

    def draw():
        rng = np.random.default_rng(9)
        blob = outcomes_to_bytes(*simulate_outcomes([7, 4000, 65536], asg, mset, cb, rng=rng))
        return blob, rng.random()

    want = draw()
    monkeypatch.setattr(scheme, "_NOISE_BLOCK", p.t1 * p.ell if block is None else block)
    assert draw() == want


def test_identify_strings_single():
    p, mset, cb, asg = _design(2**10, 2)
    y1, _ = simulate_outcomes([5], asg, mset, cb)
    got = identify_strings(y1, mset, batch1_threshold(p))
    assert got.tolist() == asg.index_of(5).tolist()


def test_identify_strings_threshold_monotone():
    p, mset, cb, asg = _design(2**10, 2)
    y1, _ = simulate_outcomes([5, 9], asg, mset, cb)
    prev = None
    for thr in range(0, p.w + 1, 9):
        cur = set(identify_strings(y1, mset, thr).tolist())
        if prev is not None:
            assert cur <= prev
        prev = cur
    assert set(identify_strings(y1, mset, 0).tolist()) == set(range(p.s_size))


def test_identify_strings_matches_full_scores():
    # the early-exit scan lists exactly the strings whose full score reaches
    # the threshold: for sparse, dense, all-zero and all-one vectors and
    # counts above 1; for noiseless outcomes in which no string, or only the
    # true strings, outlive the first pass; and for thresholds that put the
    # first point where a string can drop out, w - threshold // max(vec),
    # on either side of each pass boundary
    rng = np.random.default_rng(4)
    for n, k in ((2**16, 5), (2**20, 20)):
        p, mset, cb, asg = _design(n, k)
        w = p.w
        vecs = [np.zeros(p.t1, dtype=np.int64), np.ones(p.t1, dtype=np.int64)]
        for density in (0.05, 0.3, 0.9):
            for top in (1, 3):
                vecs.append((rng.random(p.t1) < density) * rng.integers(1, top + 1, size=p.t1))
        first_pass = {"none": 0, "true only": 0}
        for size in [0] + list(rng.integers(1, k + 1, size=19)):
            items = rng.choice(np.arange(1, 5000), size=int(size), replace=False)
            y1, _ = simulate_outcomes(items, asg, mset, cb)
            head = mset.positions(hi=4)  # the first pass at threshold w
            outlive = np.nonzero(y1.bits[head].all(axis=1))[0]
            if outlive.size == 0:
                first_pass["none"] += 1
            elif np.array_equal(outlive, np.unique(asg.index_of(items))):
                first_pass["true only"] += 1
            vecs.append(y1.bits)
        assert min(first_pass.values()) > 0
        for vec in vecs:
            scores = mset.scores(vec)
            cap = max(1, int(vec.max()))
            edges = [cap * (w - h) + d
                     for h in (0, 1, 3, 4, 5, 36, 37, w - 1, w) for d in (-1, 0, 1)]
            for thr in [-1, 0, 1, 40, w // 2, w - 1, w, w + 1, 2 * w] + edges:
                if thr < 0:
                    with pytest.raises(InvalidInput, match="threshold"):
                        mset.reaching(vec, thr)
                    continue
                want = np.nonzero(scores >= thr)[0]
                assert np.array_equal(mset.reaching(vec, thr), want)


def test_identify_items_erases_shared_positions():
    # positions used by more than one listed string must be treated as
    # erasures even when the stored values happen to look clean
    p, mset, cb, asg = _design(2**10, 2)
    items = np.arange(1, 200)
    strings = asg.index_of(items)
    i1 = int(items[0])
    i2 = int(items[np.nonzero(strings != strings[0])[0][0]])
    s1, s2 = asg.index_of([i1, i2])
    _, y2 = simulate_outcomes([i1, i2], asg, mset, cb)

    shared = np.intersect1d(mset.positions(s1), mset.positions(s2))
    corrupted = y2.symbols.copy()
    corrupted[shared] = (corrupted[shared] + 1) % p.q  # garbage at overlaps
    est, failures = identify_items(
        Batch2Outcome(corrupted, p.ell), np.array([s1, s2]), mset, cb, noisy=False
    )
    assert est == {i1, i2}
    assert failures == []


def test_identify_items_empty_list():
    p, mset, cb, asg = _design(2**10, 2)
    _, y2 = simulate_outcomes([5], asg, mset, cb)
    est, failures = identify_items(y2, np.array([], dtype=np.int64), mset, cb, False)
    assert est == set() and failures == []


def test_duplicate_assignment_loses_an_item():
    # two defectives sharing one string cannot both be recovered: the single
    # word either fails to decode or yields at most one index
    p, mset, cb, asg = _design(2**12, 3)
    items = np.arange(1, 3000)
    strings = asg.index_of(items)
    s_target = int(strings[0])
    dup = items[strings == s_target][:2]
    assert dup.size == 2
    y1, y2 = simulate_outcomes(dup, asg, mset, cb)
    result = decode(y1, y2, mset, cb)
    assert result.estimate != set(int(v) for v in dup)


def test_decode_end_to_end_noiseless():
    p, mset, cb, asg = _design(2**16, 5, seed=2)
    rng = np.random.default_rng(12)
    for _ in range(50):
        kp = int(rng.integers(0, p.k + 1))
        defectives = rng.choice(p.n, size=kp, replace=False) + 1
        strings = asg.index_of(defectives) if kp else np.array([], dtype=np.int64)
        if np.unique(strings).size != kp:
            continue  # duplicate assignment: covered elsewhere
        y1, y2 = simulate_outcomes(defectives, asg, mset, cb)
        result = decode(y1, y2, mset, cb)
        assert result.estimate == set(int(v) for v in defectives)
        assert result.batch1_seconds >= 0 and result.batch2_seconds >= 0


# Decode results of fixed instances, recorded from the Gao-style decoder that
# the batched decoder replaced: (xi, defectives or their rng seed, threshold
# or None for the default, estimate, string list, failures).
PINNED_DECODES = [
    (0.0, 0, None, [4420, 5044, 8374, 10435, 13934], [35, 39, 57, 64, 69], []),
    (0.0, [1010, 1012, 4000, 9000], None, [4000, 9000], [16, 49, 64],
     [(64, 'InconsistentWord')]),
    (0.0, [1010, 1012, 4000, 9000], 30, [1, 4000, 9000],
     [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23,
      24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 42, 43, 44,
      45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64,
      65, 66, 67, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80],
     [(28, 'TooManyErasures'), (48, 'TooManyErasures'), (64, 'InconsistentWord'),
      (67, 'TooManyErasures')]),
    (0.0, 3, 0, [1, 1404, 2940, 3880, 13293],
     [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
      23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42,
      43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62,
      63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80],
     [(9, 'TooManyErasures'), (28, 'TooManyErasures'), (42, 'TooManyErasures'),
      (48, 'TooManyErasures'), (49, 'TooManyErasures'), (67, 'TooManyErasures')]),
    (0.05, 4, None, [8378, 11900, 14440, 15409, 15449], [13, 14, 45, 51, 59], []),
    (0.07, 5, None, [372, 10988, 13187], [0, 7, 12, 69, 72],
     [(7, 'DecodingFailure'), (12, 'DecodingFailure')]),
    (0.08, 6, None, [7290], [1, 11, 41, 49, 73],
     [(1, 'DecodingFailure'), (41, 'DecodingFailure'), (49, 'DecodingFailure'),
      (73, 'DecodingFailure')]),
    (0.05, 7, 100, [9475, 10240, 11209, 14700, 15478], [6, 27, 44, 59, 72], []),
]


@pytest.mark.parametrize("xi, chosen, threshold, estimate, strings, failures", PINNED_DECODES)
def test_decode_results_are_pinned(xi, chosen, threshold, estimate, strings, failures):
    p = derive_params(2**14, 5, xi=xi)
    mset = construct_candidate(p, seed=0)
    cb = Codebook(p.n, p.w, p.ell)
    asg = Assignment(seed=1, s_size=p.s_size)
    rng = np.random.default_rng(chosen if isinstance(chosen, int) else 0)
    defectives = rng.choice(p.n, size=p.k, replace=False) + 1 if isinstance(chosen, int) else chosen
    y1, y2 = simulate_outcomes(defectives, asg, mset, cb, rng=rng if xi else None)
    result = decode(y1, y2, mset, cb, threshold=threshold)
    assert sorted(result.estimate) == estimate
    assert result.string_list.tolist() == strings
    assert result.failures == failures


def test_decode_empty():
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([], asg, mset, cb)
    result = decode(y1, y2, mset, cb)
    assert result.estimate == set()
    assert result.string_list.size == 0


@pytest.mark.parametrize(
    "malform",
    [
        lambda y1, y2: (Batch1Outcome(np.concatenate([y1.bits, [0, 0, 0]])), y2),
        lambda y1, y2: (Batch1Outcome(2 * y1.bits), y2),
        lambda y1, y2: (y1, Batch2Outcome(y2.symbols, y2.ell + 1)),
        lambda y1, y2: (Batch1Outcome(y1.bits[:-5]), y2),
        lambda y1, y2: (y1, Batch2Outcome(y2.symbols[:-5], y2.ell)),
        # int64: a narrow array plus 2^ell would wrap before the check.
        lambda y1, y2: (y1, Batch2Outcome(y2.symbols.astype(np.int64) + (1 << y2.ell), y2.ell)),
    ],
    ids=["y1-long", "y1-nonbinary", "y2-ell", "y1-short", "y2-short", "y2-symbol-range"],
)
def test_decode_rejects_outcomes_that_do_not_fit_the_design(malform):
    p, mset, cb, asg = _design(2**12, 4)
    y1, y2 = simulate_outcomes([3, 100, 2000], asg, mset, cb)
    with pytest.raises(InvalidInput):
        decode(*malform(y1, y2), mset, cb)


def _with(outcome, **fields):
    """The outcome rebuilt with other fields, once setting them in place has raised.

    The outcomes are frozen, so no field can be set past their checks: the
    rebuilt outcome goes through them.
    """
    for name, value in fields.items():
        with pytest.raises(FrozenInstanceError):
            setattr(outcome, name, value)
    return replace(outcome, **fields)


@pytest.mark.parametrize(
    "malform",
    [
        lambda y1, thr: (Batch1Outcome(np.concatenate([y1.bits, np.zeros(50, np.uint8)])), thr),
        lambda y1, thr: (Batch1Outcome(y1.bits[:-10]), thr),
        lambda y1, thr: (_with(y1, bits=2 * y1.bits), thr),
        lambda y1, thr: (_with(y1, bits=y1.bits.astype(float)), thr),
        lambda y1, thr: (y1, thr + 0.5),
        lambda y1, thr: (y1, float(thr)),
        lambda y1, thr: (y1, -1),
        lambda y1, thr: (y1, True),
        lambda y1, thr: (y1, str(thr)),
    ],
    ids=["y1-long", "y1-short", "y1-nonbinary", "y1-float", "threshold-fraction",
         "threshold-float", "threshold-negative", "threshold-bool", "threshold-str"],
)
def test_identify_strings_rejects_inputs_that_do_not_fit_the_design(malform):
    # unchecked, t1 + 50 bits listed strings [0 20 21] and t1 - 10 bits
    # raised a raw IndexError
    p, mset, cb, asg = _design(2**12, 4)
    y1, _ = simulate_outcomes([3, 100, 2000], asg, mset, cb)
    with pytest.raises(InvalidInput):
        y1, threshold = malform(y1, batch1_threshold(p))
        identify_strings(y1, mset, threshold)


@pytest.mark.parametrize(
    "malform",
    [
        lambda s, y2, strings, cb: (Batch2Outcome(y2.symbols[:-5], y2.ell), strings, cb),
        lambda s, y2, strings, cb: (Batch2Outcome(y2.symbols, y2.ell + 3), strings, cb),
        lambda s, y2, strings, cb: (
            _with(y2, symbols=y2.symbols.astype(np.int64) + (1 << y2.ell)), strings, cb),
        lambda s, y2, strings, cb: (_with(y2, symbols=y2.symbols.astype(float)), strings, cb),
        lambda s, y2, strings, cb: (y2, np.append(strings, s + 5), cb),
        lambda s, y2, strings, cb: (y2, np.append(strings, -1), cb),
        lambda s, y2, strings, cb: (y2, np.array([1.7]), cb),
        lambda s, y2, strings, cb: (y2, strings[:, None], cb),
        lambda s, y2, strings, cb: (y2, strings, Codebook(cb.n, cb.w - 1, cb.ell)),
        lambda s, y2, strings, cb: (y2, strings, Codebook(cb.n, cb.w, cb.ell + 1)),
    ],
    ids=["y2-short", "y2-ell", "y2-symbol-range", "y2-float", "string-above-S",
         "string-negative", "string-float", "strings-2d", "codebook-w", "codebook-ell"],
)
def test_identify_items_rejects_inputs_that_do_not_fit_the_design(malform):
    p, mset, cb, asg = _design(2**12, 4)
    _, y2 = simulate_outcomes([3, 100, 2000], asg, mset, cb)
    strings = np.unique(asg.index_of([3, 100, 2000]))
    assert identify_items(y2, strings, mset, cb, noisy=False)[0] == {3, 100, 2000}
    with pytest.raises(InvalidInput):
        y2, strings, cb = malform(p.s_size, y2, strings, cb)
        identify_items(y2, strings, mset, cb, noisy=False)


def test_noisy_string_identification_rate():
    # forward noise at xi = 0.1 with widened segments (c1 = 8): the
    # defective's string clears the score threshold in >= 99% of draws
    k = 1
    p = SchemeParams(
        n=2**12, k=k, delta=0.5, w=64, ell=7, c1=8, s_size=8,
        t1=8 * k * 64, t2=7 * 8 * k * 64, xi=0.1,
    )
    mset = construct_candidate(p, seed=4)
    cb = Codebook(p.n, p.w, p.ell)
    asg = Assignment(seed=5, s_size=p.s_size)
    assert batch1_threshold(p) == 40
    rng = np.random.default_rng(77)
    item = 900
    s = int(asg.index_of(item)[0])
    hits = 0
    trials = 1000
    for _ in range(trials):
        y1, _ = simulate_outcomes([item], asg, mset, cb, rng=rng)
        hits += s in identify_strings(y1, mset, batch1_threshold(p))
    assert hits / trials >= 0.99


def test_noisy_full_decode_at_derived_cell():
    # at the derived noisy cell the code has real errors-and-erasures slack,
    # so whole-set recovery should be the typical outcome
    p, mset, cb, asg = _design(2**16, 5, xi=0.05, seed=6)
    rng = np.random.default_rng(123)
    good = 0
    trials = 40
    for _ in range(trials):
        defectives = rng.choice(p.n, size=3, replace=False) + 1
        if np.unique(asg.index_of(defectives)).size != 3:
            continue
        y1, y2 = simulate_outcomes(defectives, asg, mset, cb, rng=rng)
        result = decode(y1, y2, mset, cb)
        good += result.estimate == set(int(v) for v in defectives)
    assert good / trials >= 0.85


def test_outcome_bytes_round_trip():
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([5, 9], asg, mset, cb)
    blob = outcomes_to_bytes(y1, y2)
    r1, r2 = outcomes_from_bytes(blob)
    assert np.array_equal(r1.bits, y1.bits)
    assert np.array_equal(r2.symbols, y2.symbols)
    assert r2.ell == y2.ell


def test_outcome_bytes_layout():
    bits = np.zeros(16, dtype=np.uint8)
    bits[0] = bits[3] = 1  # little-endian packing: 0b00001001 = 9
    y1 = Batch1Outcome(bits)
    # symbols 5 and 1 at ell = 3 are the bits 1,0,1 and 1,0,0: 0b00001101 = 13
    symbols = np.zeros(16, dtype=np.int64)
    symbols[:2] = [5, 1]
    y2 = Batch2Outcome(symbols, ell=3)
    blob = outcomes_to_bytes(y1, y2)
    assert blob[:16] == b"BMXO" + bytes([1, 0, 3, 0, 16, 0, 0, 0, 0, 0, 0, 0])
    assert blob[16] == 9
    assert blob[18:] == bytes([13]) + bytes(5)


def test_outcome_bytes_refuse_fields_set_out_of_range():
    # the outcomes are checked when made, and no field can be set out of
    # range after that: neither assigned nor edited in place
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([5], asg, mset, cb)
    blob = outcomes_to_bytes(y1, y2)
    with pytest.raises(FrozenInstanceError):
        y2.symbols = y2.symbols.copy()
    with pytest.raises(ValueError, match="read-only"):
        y2.symbols[0] = p.q
    with pytest.raises(FrozenInstanceError):
        y1.bits = 2 * y1.bits
    with pytest.raises(ValueError, match="read-only"):
        y1.bits[0] = 2
    assert outcomes_to_bytes(y1, y2) == blob
    # the header holds ell in 16 bits
    with pytest.raises(InvalidInput, match="65535"):
        outcomes_to_bytes(Batch1Outcome([0]), Batch2Outcome([0], ell=70000))


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda outcome: pickle.loads(pickle.dumps(outcome))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_of_outcomes_are_rebuilt_read_only(clone):
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([5, 9], asg, mset, cb)
    b1, b2 = clone(y1), clone(y2)
    assert b2.ell == y2.ell
    for old, new in ((y1.bits, b1.bits), (y2.symbols, b2.symbols)):
        assert new.dtype == old.dtype and np.array_equal(new, old)
        with pytest.raises(ValueError, match="read-only"):
            new[0] = 1
    assert outcomes_to_bytes(b1, b2) == outcomes_to_bytes(y1, y2)


def test_outcomes_copy_a_writable_array_once_and_keep_a_read_only_one():
    bits = np.array([0, 1, 1], dtype=np.uint8)
    y1 = Batch1Outcome(bits)
    assert not np.shares_memory(y1.bits, bits) and bits.flags.writeable
    bits[0] = 1
    assert y1.bits.tolist() == [0, 1, 1]
    assert Batch1Outcome(y1.bits).bits is y1.bits
    symbols = np.array([3, 0, 7], dtype=np.int64)
    y2 = Batch2Outcome(symbols, ell=3)
    assert y2.symbols.dtype == np.uint8 and symbols.flags.writeable
    assert Batch2Outcome(y2.symbols, ell=3).symbols is y2.symbols
    # simulate_outcomes and outcomes_from_bytes hand over arrays of their own
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([5], asg, mset, cb)
    for outcome in (y1, y2, *outcomes_from_bytes(outcomes_to_bytes(y1, y2))):
        array = getattr(outcome, "bits", getattr(outcome, "symbols", None))
        assert array.flags.owndata and not array.flags.writeable


@pytest.mark.parametrize("xi", [0.0, 0.05])
def test_a_design_holds_one_table(xi):
    # a set holds its offsets and nothing else: after outcomes, a decode and
    # a condition check at (2^20, 20), no table of |S| w entries is left
    # behind (cached uint16 positions took 2 |S| w bytes)
    p, mset, cb, asg = _design(2**20, 20, xi=xi, seed=1)
    defectives = np.random.default_rng(0).choice(p.n, size=p.k, replace=False) + 1
    rng = np.random.default_rng(1) if xi else None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y1, y2 = simulate_outcomes(defectives, asg, mset, cb, rng=rng)
        result = decode(y1, y2, mset, cb)
        check_lcs_conditions_all(mset, asg.index_of(defectives))
        del y1, y2
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    if not xi:
        assert result.estimate == set(defectives.tolist())
    assert after - before < p.s_size * p.w, after - before


def test_outcome_bytes_rejects_corruption():
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([5], asg, mset, cb)
    blob = outcomes_to_bytes(y1, y2)
    with pytest.raises(MalformedResultFile):
        outcomes_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(MalformedResultFile):
        outcomes_from_bytes(blob[:-1])
    with pytest.raises(MalformedResultFile):
        outcomes_from_bytes(blob + b"\0")
    bad_version = blob[:4] + b"\xff\xff" + blob[6:]
    with pytest.raises(MalformedResultFile):
        outcomes_from_bytes(bad_version)
    # ell = 0, with the length that agrees with it: no batch-2 body
    with pytest.raises(MalformedResultFile):
        outcomes_from_bytes(blob[:6] + b"\0\0" + blob[8:16 + (p.t1 + 7) // 8])


def test_batch2_bits_round_trip():
    # every symbol of every ell from 2 to 8 survives the batch-2 bit layout
    for ell in range(2, 9):
        symbols = np.arange(2**ell)
        y1 = Batch1Outcome(np.zeros(symbols.size, dtype=np.uint8))
        _, back = outcomes_from_bytes(outcomes_to_bytes(y1, Batch2Outcome(symbols, ell)))
        assert back.ell == ell
        assert np.array_equal(back.symbols, symbols)


def _reference_batch2(symbols, ell):
    """The batch-2 body as the codec once built it, through a (t1, ell) int64 table."""
    bits = ((symbols[:, None] >> np.arange(ell)) & 1).astype(np.uint8).ravel()
    return np.packbits(bits, bitorder="little").tobytes()


@pytest.mark.parametrize("ell", [*range(1, 17), 17, 31, 63])
@pytest.mark.parametrize("t1", [1, 7, 8, 9, 1001])
def test_batch2_layout_matches_the_int64_reference(ell, t1):
    rng = np.random.default_rng([ell, t1])
    symbols = rng.integers(0, (1 << ell) - 1, size=t1, endpoint=True, dtype=np.int64)
    symbols[: min(t1, 2)] = [(1 << ell) - 1, 0][: min(t1, 2)]
    bits = rng.integers(0, 2, size=t1, dtype=np.uint8)
    blob = outcomes_to_bytes(Batch1Outcome(bits), Batch2Outcome(symbols, ell))
    assert blob[16 + (t1 + 7) // 8 :] == _reference_batch2(symbols, ell)
    back1, back2 = outcomes_from_bytes(blob)
    assert np.array_equal(back1.bits, bits) and back2.ell == ell
    assert back2.symbols.dtype == np.min_scalar_type((1 << ell) - 1)
    assert np.array_equal(back2.symbols, symbols)


@pytest.mark.parametrize("ell", [64, 70, 0xFFFF])
def test_batch2_symbols_past_63_bits_round_trip_and_refuse_a_high_bit(ell):
    # symbols stay below 2^63 whatever ell is: the bits above are 0 when
    # packed, and a blob with a 1 there is malformed, not cut to 63 bits
    symbols = np.array([(1 << 63) - 1, 0, 5, (1 << 62) + 1], dtype=np.int64)
    y1 = Batch1Outcome(np.zeros(symbols.size, dtype=np.uint8))
    blob = outcomes_to_bytes(y1, Batch2Outcome(symbols, ell))
    assert len(blob) == 16 + 1 + (symbols.size * ell + 7) // 8
    assert np.array_equal(outcomes_from_bytes(blob)[1].symbols, symbols)
    body = 17 * 8  # first bit of batch 2
    for bit in (63, ell - 1, ell + 63):  # symbol 0's bit 63 and last bit, symbol 1's bit 63
        spoiled = bytearray(blob)
        spoiled[(body + bit) // 8] |= 1 << ((body + bit) % 8)
        with pytest.raises(MalformedResultFile, match="2\\^63"):
            outcomes_from_bytes(bytes(spoiled))


def test_batch2_padding_bits_are_not_read():
    # 3 symbols of 3 bits leave 7 padding bits in the last byte
    y1 = Batch1Outcome(np.zeros(3, dtype=np.uint8))
    blob = bytearray(outcomes_to_bytes(y1, Batch2Outcome(np.array([7, 0, 5]), ell=3)))
    blob[-1] |= 0xFE
    assert outcomes_from_bytes(bytes(blob))[1].symbols.tolist() == [7, 0, 5]


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_outcome_codec_holds_no_bit_table():
    # At (2^20, 20) batch 2 is 39,760 symbols of 9 bits, a 45 KB body; a
    # (t1, ell) int64 table of its bits was 2.9 MB.  The parsed symbols
    # themselves are 318 KB of int64.
    p = derive_params(2**20, 20)
    rng = np.random.default_rng(20)
    y1 = Batch1Outcome(rng.integers(0, 2, size=p.t1, dtype=np.uint8))
    y2 = Batch2Outcome(rng.integers(0, p.q, size=p.t1), p.ell)
    blob = outcomes_to_bytes(y1, y2)
    assert _traced_peak(lambda: outcomes_to_bytes(y1, y2)) < 0.6 * 2**20
    assert _traced_peak(lambda: outcomes_from_bytes(blob)) < 0.6 * 2**20


@pytest.mark.parametrize("defectives", [[5, 5], [5, 9, 5], [9, 5, 700, 5], [700, 700, 700]])
def test_repeated_defectives_are_refused(defectives):
    p, mset, cb, asg = _design(2**10, 4)
    with pytest.raises(InvalidInput, match="repeats"):
        simulate_outcomes(defectives, asg, mset, cb)
    simulate_outcomes(sorted(set(defectives)), asg, mset, cb)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Batch1Outcome([0.5, 1.0]),
        lambda: Batch1Outcome([0.0, 1.0]),
        lambda: Batch1Outcome(["1", "0"]),
        lambda: Batch1Outcome([0, 256]),
        lambda: Batch1Outcome(np.array([0, 2, 1])),
        lambda: Batch1Outcome(np.array([256, 1, 256])),
        lambda: Batch1Outcome([-1, 0]),
        lambda: Batch1Outcome([[0, 1]]),
        lambda: Batch2Outcome([1.9, 0], ell=3),
        lambda: Batch2Outcome(["1", "0"], ell=3),
        lambda: Batch2Outcome([2**70, 0], ell=3),
        lambda: Batch2Outcome(np.array([8, 0]), ell=3),
        lambda: Batch2Outcome(np.array([-1, 0]), ell=3),
        lambda: Batch2Outcome(np.array([2**63], dtype=np.uint64), ell=3),
        # symbols stay below 2^63 past ell = 63 as well
        lambda: Batch2Outcome(np.array([2**63], dtype=np.uint64), ell=70),
        lambda: Batch2Outcome([1, 0], ell=5.5),
        lambda: Batch2Outcome([1, 0], ell=True),
        lambda: Batch2Outcome([0, 0], ell=0),
        lambda: Batch2Outcome([[1, 0]], ell=3),
    ],
    ids=["y1-fraction", "y1-float", "y1-string", "y1-256", "y1-2", "y1-wraps-to-0",
         "y1-negative", "y1-2d", "y2-fraction", "y2-string", "y2-huge", "y2-2^ell",
         "y2-negative", "y2-wraps-int64", "y2-2^63-at-ell-70", "ell-fraction", "ell-bool", "ell-0", "y2-2d"],
)
def test_outcomes_refuse_values_they_cannot_hold(make):
    # checked before the cast: no value is truncated, parsed or wrapped
    with pytest.raises(InvalidInput):
        make()


def test_outcomes_keep_integer_and_bool_vectors():
    assert Batch1Outcome([True, False, True]).bits.tolist() == [1, 0, 1]
    assert Batch1Outcome(np.array([1, 0], dtype=np.int64)).bits.dtype == np.uint8
    y2 = Batch2Outcome(np.array([7, 0], dtype=np.uint8), ell=np.int64(3))
    assert y2.symbols.tolist() == [7, 0] and y2.symbols.dtype == np.uint8
    assert y2.ell == 3 and type(y2.ell) is int


@pytest.mark.parametrize("threshold", [2.5, True, "7", -1])
def test_decode_refuses_a_threshold_that_is_not_a_count(threshold):
    p, mset, cb, asg = _design(2**12, 4)
    y1, y2 = simulate_outcomes([3, 100], asg, mset, cb)
    with pytest.raises(InvalidInput):
        decode(y1, y2, mset, cb, threshold=threshold)
