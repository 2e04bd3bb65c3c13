import numpy as np
import pytest
import scipy.stats

from bitmix.code import ERASURE, Codebook
from bitmix.errors import InvalidInput, MalformedResultFile
from bitmix.masking import MaskingSet, STATUS_UNVERIFIED, construct_candidate
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
    read_outcomes,
    simulate_outcomes,
    write_outcomes,
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
    assert asg(123) == int(a[122])
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
    s = asg(item)
    y1, y2 = simulate_outcomes([item], asg, mset, cb)
    assert np.array_equal(np.nonzero(y1.bits)[0], np.sort(mset.flat_positions[s]))
    word = y2.symbols[mset.flat_positions[s]]
    assert np.array_equal(word, cb.encode_index(item))
    off = np.ones(p.t1, dtype=bool)
    off[mset.flat_positions[s]] = False
    assert not y2.symbols[off].any()


def test_simulate_two_defectives_or_semantics():
    p, mset, cb, asg = _design(2**10, 2)
    # find two items assigned to different strings
    items = np.arange(1, 200)
    strings = asg.index_of(items)
    i1 = int(items[0])
    j = int(np.nonzero(strings != strings[0])[0][0])
    i2 = int(items[j])
    s1, s2 = asg(i1), asg(i2)

    y1, y2 = simulate_outcomes([i1, i2], asg, mset, cb)
    both = np.zeros(p.t1, dtype=np.uint8)
    both[mset.flat_positions[s1]] = 1
    both[mset.flat_positions[s2]] = 1
    assert np.array_equal(y1.bits, both)

    w1 = cb.encode_index(i1)
    w2 = cb.encode_index(i2)
    shared = np.intersect1d(mset.flat_positions[s1], mset.flat_positions[s2])
    pos1 = mset.flat_positions[s1]
    # positions hit by both defectives carry the bitwise OR of the symbols
    for t in shared:
        k1 = int(np.nonzero(pos1 == t)[0][0])
        pos2 = mset.flat_positions[s2]
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


def test_simulate_noisy_requires_rng():
    p, mset, cb, asg = _design(2**16, 5, xi=0.05)
    with pytest.raises(InvalidInput):
        simulate_outcomes([1], asg, mset, cb)
    y1, _ = simulate_outcomes([1], asg, mset, cb, rng=np.random.default_rng(0))
    # noise actually flips something in t1 = 7770 positions at xi = 0.05
    s = asg(1)
    clean = np.zeros(p.t1, dtype=np.uint8)
    clean[mset.flat_positions[s]] = 1
    assert not np.array_equal(y1.bits, clean)


def test_identify_strings_single():
    p, mset, cb, asg = _design(2**10, 2)
    y1, _ = simulate_outcomes([5], asg, mset, cb)
    got = identify_strings(y1, mset, batch1_threshold(p))
    assert got.tolist() == [asg(5)]


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
            head = mset.flat_positions[:, :4]  # the first pass at threshold w
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
    s1, s2 = asg(i1), asg(i2)
    _, y2 = simulate_outcomes([i1, i2], asg, mset, cb)

    shared = np.intersect1d(mset.flat_positions[s1], mset.flat_positions[s2])
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
        assert result.total_seconds >= result.batch1_seconds


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
        lambda y1, y2: (y1, Batch2Outcome(y2.symbols + (1 << y2.ell), y2.ell)),
    ],
    ids=["y1-long", "y1-nonbinary", "y2-ell", "y1-short", "y2-short", "y2-symbol-range"],
)
def test_decode_rejects_outcomes_that_do_not_fit_the_design(malform):
    p, mset, cb, asg = _design(2**12, 4)
    y1, y2 = simulate_outcomes([3, 100, 2000], asg, mset, cb)
    with pytest.raises(InvalidInput):
        decode(*malform(y1, y2), mset, cb)


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
    s = asg(item)
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
    y2 = Batch2Outcome(np.zeros(16, dtype=np.int64), ell=2)
    blob = outcomes_to_bytes(y1, y2)
    assert blob[:4] == b"BMXO"
    assert blob[16] == 9


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


def test_outcome_file_round_trip(tmp_path):
    p, mset, cb, asg = _design(2**10, 2)
    y1, y2 = simulate_outcomes([5, 9], asg, mset, cb)
    path = tmp_path / "outcome.bin"
    write_outcomes(path, y1, y2)
    r1, r2 = read_outcomes(path)
    assert np.array_equal(r1.bits, y1.bits)
    assert np.array_equal(r2.symbols, y2.symbols)


def test_batch2_bits_round_trip():
    rng = np.random.default_rng(1)
    symbols = rng.integers(0, 2**5, size=40)
    y2 = Batch2Outcome(symbols, ell=5)
    back = Batch2Outcome.from_bits(y2.to_bits(), ell=5)
    assert np.array_equal(back.symbols, symbols)
