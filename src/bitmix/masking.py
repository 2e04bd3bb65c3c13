"""Masking-string sets: construction and verification.

A masking string is a weight-w bit string of length c1*k*w with exactly one 1
in each length-(c1*k) segment; we store only the w per-segment offsets.  Two
strings "collide" at a segment when they chose the same offset there, and all
set-quality notions are statistics of pairwise collision counts:

* The per-trial decode conditions (`check_lcs_conditions_all`): the
  defectives' strings must collide with each other, and every outside string
  with the defective multiset, in at most w/2 positions total.  A string's
  total is its score (`MaskingSet.scores`) on the multiset's position usage
  (`MaskingSet.usage`), so no pair is counted one by one.  Every |S| w
  table is held in the narrowest unsigned type that holds its values, chosen
  from the params: the offsets below c1*k (uint8 up to c1*k = 256), the
  cached positions below t1 (uint16 up to t1 = 2^16, 2 |S| w bytes).  The
  usage counts are uint8 up to 255 strings, and a check gathers them about
  0.6 MB at a time.

* The deterministic certificate (`verify_promising`): for every string, the
  collision counts against the other |S|-1 strings must have mean within 4%
  of w/(c1*k), max deviation from that mean at most 6.1, and squared-deviation
  sum at most (|S|-1) * 2w/(c1*k).  The constants are asymptotic: at desk-size
  parameters random candidates essentially never satisfy the max-deviation
  bound, which is why construction also offers an unverified path.  The
  pair counts come from one private kernel (`_collision_blocks`).  Its
  first block is string 0's row, from one comparison of the whole table;
  the blocks after it hold 16 strings each against the strings after them,
  counting only the pairs that share a bucket of a layout that is built
  only when a caller reads past string 0.  Each block completes the
  statistics of its own strings, so the certificate returns at the block
  that holds the first violation.  An i.i.d. set at desk scale fails at
  string 0, which costs |S| w compares and an |S| w bool table.  Read to
  the end, the blocks cost about |S|^2 w / (2 c1*k) increments for random
  offsets; memory is O(16 |S| + |S| w), never |S|^2, and the layout's
  |S| w part is two arrays of string indices, uint16 up to 2^16 strings.

* The very-sparse variant (`build_smallk_set`): every pair collides at most
  w/(2k) times, checked over the same blocks up to the first pair above.

Batch-1 decoding lists the strings whose score reaches a threshold
(`MaskingSet.reaching`), reading segments in passes and dropping a string
once its unread segments cannot lift it there.  The first pass ends a few
segments past the first point at which any string can drop, and each later
pass reads about 16 |S| positions over the strings still alive.  On a
noiseless outcome that costs about 4 |S| reads, plus w per string that
outlives the first pass, not |S| w.

All verification arithmetic is exact (scaled integers; the means are rationals
with denominator |S|-1), so the certificate cannot drift with float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConstructionFailed,
    IndexOutOfRange,
    InvalidInput,
    ShapeMismatch,
)
from .params import SchemeParams, checked_array
from .seeding import derive_seed

STATUS_UNVERIFIED = "unverified"
STATUS_PROMISING = "promising"
STATUS_SMALLK = "smallk_verified"
_STATUSES = (STATUS_UNVERIFIED, STATUS_PROMISING, STATUS_SMALLK)

# MaskingSet.reaching: segments its first pass reads past the first point at
# which a string can drop out, positions per string of the set that each later
# pass reads, and the fewest segments a later pass reads.
_FIRST = 4
_READS = 16
_SCAN = 32

# Positions that MaskingSet.scores gathers at a time: numpy gathers through
# an int64 copy of the narrow positions, 512 KB at this size.
_GATHER = 1 << 16

# Offsets that construct_candidate draws at a time.
_DRAW = 1 << 16

# Strings whose collisions with the later strings _collision_blocks counts in
# one bincount: the rows of one block of the collision counts.
_PAIR_ROWS = 16

# Entries of the (w, |S|) bucket lists that _collision_blocks sorts and
# places at a time: its int64 argsort scratch is 512 KB at this size.
_LAYOUT = 1 << 16


@dataclass
class MaskingSet:
    """|S| masking strings plus the params and provenance they were built for.

    The set keeps a caller's writable offsets table as it is, without a
    copy, and may be edited in place until its positions (`flat_positions`)
    are built: they are cached, and every check and decode reads them.  From
    then the table is read-only, so an in-place edit of `offsets` (the
    caller's array, when the set kept it) raises ValueError instead of
    leaving the positions to answer for the old table.
    """

    offsets: np.ndarray  # (s_size, w) per-segment offsets
    params: SchemeParams
    seed: int
    status: str = STATUS_UNVERIFIED

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise InvalidInput(f"unknown status {self.status!r}")
        segment_len = self.params.segment_len
        table = checked_array("offsets", self.offsets, 2, segment_len,
                              np.min_scalar_type(segment_len - 1))
        # A read-only table (a caller's, or a view of one) is copied, so that
        # the set's own table is writable.
        self.offsets = table if table.flags.writeable else table.copy()
        expect = (self.params.s_size, self.params.w)
        if self.offsets.shape != expect:
            raise ShapeMismatch(f"offsets shape {self.offsets.shape} != {expect}")

    def __len__(self) -> int:
        return self.offsets.shape[0]

    @cached_property
    def flat_positions(self) -> np.ndarray:
        """(s_size, w) global bit positions of each string's 1s (cached).

        In the narrowest unsigned type that holds t1 - 1: uint16, 2 |S| w
        bytes, up to t1 = 2^16, which covers every benchmark cell.  The
        offsets' type is never wider, so their sum with the segment starts
        is taken in this type and cannot wrap.  Set-up never reads it; the
        harness builds it before its trial threads start, so none holds it.
        Building it makes `offsets` read-only (see the class docstring).
        """
        p = self.params
        seg = (np.arange(p.w) * p.segment_len).astype(np.min_scalar_type(p.t1 - 1))
        self.offsets.flags.writeable = False
        return self.offsets + seg

    def usage(self, strings) -> np.ndarray:
        """(t1,) how many of the given strings (repeats counted) have a 1 at each position.

        The counts come in the narrowest unsigned type that holds len(strings),
        so that scores() of them gathers 1 byte per position up to 255 strings.
        An index outside [0, |S|) raises IndexOutOfRange.
        """
        return self._usage(_validate_chosen(self, strings))

    def _usage(self, strings: np.ndarray) -> np.ndarray:
        # usage() of string indices that _validate_chosen has checked.
        counts = np.bincount(self.flat_positions[strings].ravel(), minlength=self.params.t1)
        return counts.astype(np.min_scalar_type(len(strings)))

    def scores(self, vec) -> np.ndarray:
        """(s_size,) s^T vec for every string s: vec summed over its positions.

        Gathers _GATHER positions at a time, so beyond the int64 result it
        holds at most 8 + vec.itemsize bytes per gathered position: about
        0.6 MB for a uint8 vec from usage().  Each row sums in int64.
        """
        flat = self.flat_positions
        rows = max(1, _GATHER // self.params.w)
        out = np.empty(len(self), dtype=np.int64)
        for lo in range(0, len(self), rows):
            out[lo:lo + rows] = vec.take(flat[lo:lo + rows]).sum(axis=1, dtype=np.int64)
        return out

    def reaching(self, vec, threshold: int) -> np.ndarray:
        """Indices (ascending) of the strings s with s^T vec >= threshold.

        The same set as nonzero(scores(vec) >= threshold), but read segment
        by segment: a string drops out once its unread positions can no
        longer lift it to the threshold.  No string can drop out before
        w - threshold // max(vec) segments are read, so the first pass reads
        those and _FIRST more.  Each later pass reads about _READS * |S|
        positions spread over the strings still alive, and never fewer than
        _SCAN segments, so it grows as strings drop out; the scan stops when
        none is left.  A noiseless outcome, where almost every string drops
        out in the first pass, then costs about |S| * _FIRST reads plus w
        for each string that survives it, not |S| * w.
        """
        flat, w = self.flat_positions, self.params.w
        cap = max(1, int(np.max(vec, initial=0)))
        alive = np.arange(len(self))
        score = np.zeros(len(self), dtype=np.int64)
        lo, hi = 0, max(0, w - threshold // cap) + _FIRST
        while lo < w and alive.size:
            hi = min(hi, w)
            # take() gathers faster than indexing with narrow positions, and
            # while every string is alive a column slice needs no row gather.
            part = flat[:, lo:hi] if alive.size == len(self) else flat[alive, lo:hi]
            # Short rows sum slowly: a pass narrower than _SCAN sums the
            # transposed gather down its columns instead.
            if hi - lo < _SCAN:
                score += vec.take(part.T).sum(axis=0, dtype=np.int64)
            else:
                score += vec.take(part).sum(axis=1, dtype=np.int64)
            keep = score + cap * (w - hi) >= threshold
            alive, score = alive[keep], score[keep]
            lo, hi = hi, hi + max(_SCAN, _READS * len(self) // max(1, alive.size))
        return alive


def construct_candidate(params: SchemeParams, seed: int) -> MaskingSet:
    """Draw |S| strings with i.i.d. uniform segment offsets (unverified)."""
    rng = np.random.default_rng(seed)
    s, w = params.s_size, params.w
    offsets = np.empty((s, w), dtype=np.min_scalar_type(params.segment_len - 1))
    # int32 draws, a block of rows at a time, give the stream of one draw of
    # the whole table without an int32 copy of it.
    rows = max(1, _DRAW // w)
    for lo in range(0, s, rows):
        offsets[lo:lo + rows] = rng.integers(
            0, params.segment_len, size=(min(rows, s - lo), w), dtype=np.int32
        )
    return MaskingSet(offsets, params, seed, STATUS_UNVERIFIED)


def _collision_blocks(offsets):
    """Yield (lo, block) with block[r, j] the collisions of strings lo+r and lo+j.

    offsets is a non-empty (|S|, w) integer array of non-negative
    per-segment offsets.  The blocks come in order and hold the strict upper
    triangle only: block[r, j] is 0 for j <= r, and the columns of strings
    before lo are left out.  The first block is string 0's row alone,
    counted with one comparison of the whole table: |S| w compares and an
    |S| w bool table, and no bucket layout.  Only a caller that reads past
    it builds the layout (_bucket_layout), and then the blocks from string 1
    on come _PAIR_ROWS rows each.  Two strings collide at segment j only
    when they share the bucket (j, offset), so only those pairs are counted:
    every (string, segment) pairs with the strings listed after it in its
    bucket, and one bincount per block counts the pairs.  For uniform
    offsets over c1*k values that is about |S|^2 w / (2 c1*k) increments in
    all.  A caller that stops early does only the work of the blocks it
    read.  Every sum with an offset or a rank has an idx operand, so none
    wraps in a narrow type.  A block holds _PAIR_ROWS * (|S| - lo) int64
    counts and lists about _PAIR_ROWS |S| w / (c1*k) pairs, so with
    c1*k >= _PAIR_ROWS a full pass needs O(_PAIR_ROWS |S| + |S| w) memory.
    """
    s, w = offsets.shape
    # Counts are at most w, so they sum in its narrowest type.
    row = (offsets == offsets[0]).sum(axis=1, dtype=np.min_scalar_type(w)).astype(np.int64)
    row[0] = 0
    yield 0, row[None]
    if s == 1:
        return
    span = int(offsets.max()) + 1
    # int32 indices when every position, bucket key, pair code and block pair
    # count fits.
    idx = np.int32 if max(s * w * _PAIR_ROWS, w * span) < 2**31 else np.int64
    members, rank, ends = _bucket_layout(offsets, span, idx)
    buckets = np.arange(0, w * span, span, dtype=idx)
    starts = np.arange(0, w * s, s, dtype=idx)[:, None]
    for lo in range(1, s, _PAIR_ROWS):
        hi, width = min(s, lo + _PAIR_ROWS), s - lo
        # Where each (string, segment) stands in members.
        at_row = (rank[:, lo:hi] + starts).T.ravel()
        # Entries listed after each of these in its bucket.
        after = ends[(offsets[lo:hi] + buckets).ravel()] - at_row - 1
        first = np.cumsum(after, dtype=idx) - after
        at = np.arange(first[-1] + after[-1], dtype=idx)
        at += np.repeat(at_row + 1 - first, after)
        # Row r's codes start at r * width - lo, so string lo+j lands at column j.
        rows = np.arange(-lo, (hi - lo) * width - lo, width, dtype=idx)
        codes = np.repeat(rows.repeat(w), after)
        codes += members[at]
        del at  # before bincount makes its intp copy of codes
        yield lo, np.bincount(codes, minlength=(hi - lo) * width).reshape(hi - lo, width)


def _bucket_layout(offsets, span, idx):
    """(members, rank, ends): every segment's strings, listed bucket by bucket.

    members[j*|S| + r] is the r-th string of segment j's list, which holds
    the strings of bucket (j, 0), then of (j, 1), and so on, each bucket in
    ascending order (a stable argsort of the segment's offsets); rank[j, i]
    is where string i stands in segment j's list; ends[j*span + o] is the
    end in members of bucket (j, o), in idx.  A string index or rank is
    below |S|, so members and rank take its narrowest unsigned type (2 |S| w
    bytes each up to 2^16 strings).  They are sorted and placed _LAYOUT
    entries at a time, which bounds the scratch of building them.
    """
    s, w = offsets.shape
    members = np.empty(w * s, dtype=np.min_scalar_type(s - 1))
    rank = np.empty(w * s, dtype=members.dtype)
    ends = np.empty(w * span, dtype=idx)
    step = max(1, _LAYOUT // s)
    ranks = np.tile(np.arange(s, dtype=members.dtype), step)
    for j0 in range(0, w, step):
        j1 = min(w, j0 + step)
        # The narrowest type: keys of 16 bits or less sort by radix.
        part = np.ascontiguousarray(offsets[:, j0:j1].T, dtype=np.min_scalar_type(span))
        keys = part + np.arange(0, (j1 - j0) * span, span, dtype=idx)[:, None]
        ends[j0 * span:j1 * span] = np.bincount(keys.ravel(), minlength=(j1 - j0) * span)
        order = np.argsort(part, axis=1, kind="stable")
        members[j0 * s:j1 * s] = order.ravel()
        order += np.arange(j0 * s, j1 * s, s)[:, None]
        rank[order.ravel()] = ranks[:(j1 - j0) * s]
    np.cumsum(ends, out=ends)
    return members, rank.reshape(w, s), ends


def _string_stats(offsets):
    """Yield (lo, sums, max_dev_num, sq_dev_num) for each row block's strings.

    For string i = lo + r against the other n = |S| - 1 strings: sums[r] is
    the sum of its collision counts, max_dev_num[r] the largest deviation
    n * c_ij - sums[r] in absolute value, and sq_dev_num[r] the sum of the
    squared deviations, a Python int because it can exceed int64.  Its mean
    is sums[r] / n, its largest deviation max_dev_num[r] / n and its
    squared-deviation sum sq_dev_num[r] / n**2.  The block [lo, hi) of
    _collision_blocks gives rows lo..hi-1 their counts against every later
    string, and through its columns gives every later string its counts
    against them; so once it is read, strings lo..hi-1 are complete.
    """
    s, w = offsets.shape
    n = s - 1
    sums = np.zeros(s, dtype=np.int64)
    squares = np.zeros(s, dtype=np.int64)
    cmax = np.zeros(s, dtype=np.int64)
    cmin = np.full(s, w, dtype=np.int64)
    for lo, block in _collision_blocks(offsets):
        hi = lo + len(block)
        sq = block * block
        # w bounds every count, so it stands in for the pairs outside the
        # triangle; the zeros there change no sum and no max.
        tri = np.where(np.triu(np.ones(block.shape, dtype=bool), 1), block, w)
        for axis, part in ((0, slice(lo, s)), (1, slice(lo, hi))):
            sums[part] += block.sum(axis=axis)
            squares[part] += sq.sum(axis=axis)
            np.maximum(cmax[part], block.max(axis=axis), out=cmax[part])
            np.minimum(cmin[part], tri.min(axis=axis), out=cmin[part])
        v = sums[lo:hi]
        # The deviations n * c_ij - v are exact numerators over denominator
        # n, so the largest is at the max or min count, and their squares sum
        # to n^2 * squares - n * v^2.
        max_dev_num = np.maximum(n * cmax[lo:hi] - v, v - n * cmin[lo:hi])
        sq_dev_num = [n**2 * int(q) - n * int(x) ** 2 for q, x in zip(squares[lo:hi], v)]
        yield lo, v, max_dev_num, sq_dev_num


@dataclass
class VerifyReport:
    passed: bool
    first_violation: tuple | None  # (string index, condition, detail)
    generalized: bool
    degenerate: bool = False


def verify_promising(mset: MaskingSet) -> VerifyReport:
    """Check the three deterministic collision conditions, string by string.

    Condition names in the report: "mean" (mean within 4% of w/(c1*k)),
    "max_dev" (every deviation from the string's own mean at most 6.1),
    "sq_dev" (squared-deviation sum at most (|S|-1) * 2w/(c1*k)).  All three
    are evaluated in exact integer arithmetic.  On pass, the set's status is
    upgraded to "promising".  Sets built with c1 != 4 use the generalized
    targets and are flagged as such.  The strings are checked in order as
    each row block of the collision counts completes them, and the check
    returns at the first violation.  A set that fails at string 0, as an
    i.i.d. set at desk scale does, costs one comparison of its table: |S| w
    compares and an |S| w bool table, with no bucket layout.  One that
    fails at string i > 0 also builds the layout and reads the blocks up to
    i's: about (i + _PAIR_ROWS) |S| w / (c1*k) pair increments.  A passing
    set costs about |S|^2 w / (2 c1*k), plus the |S| w compares of string 0.
    Memory is O(_PAIR_ROWS |S| + |S| w) either way.
    """
    params = mset.params
    s_size, w = params.s_size, params.w
    c1k = params.segment_len
    generalized = params.c1 != 4

    if s_size < 2:
        mset.status = STATUS_PROMISING
        return VerifyReport(True, None, generalized, degenerate=True)

    n_others = s_size - 1
    total = w * n_others  # c1*k times the target sum, (|S|-1) w/(c1*k)
    sq_bound = 2 * w * n_others**3
    for lo, sums, max_dev_num, sq_dev_num in _string_stats(mset.offsets):
        for i, v, dev, sq in zip(
            range(lo, s_size), sums.tolist(), max_dev_num.tolist(), sq_dev_num
        ):
            if 25 * abs(c1k * v - total) > total:
                first = (i, "mean", f"mean {v / n_others:.4f} vs target {w / c1k:.4f} +- 4%")
            elif 10 * dev > 61 * n_others:
                first = (i, "max_dev", f"max deviation {dev / n_others:.3f} > 6.1")
            elif c1k * sq > sq_bound:
                first = (
                    i,
                    "sq_dev",
                    f"squared-deviation sum {sq / n_others**2:.2f} "
                    f"> {2 * w * n_others / c1k:.2f}",
                )
            else:
                continue
            return VerifyReport(False, first, generalized)
    mset.status = STATUS_PROMISING
    return VerifyReport(True, None, generalized)


def build_lcs(params: SchemeParams, seed: int, max_attempts: int | None = None) -> MaskingSet:
    """Draw up to max_attempts (default 16) candidates until one passes verify_promising.

    Raises ConstructionFailed when the budget runs out — which, at desk-scale
    parameters, is the expected outcome: the certificate's constants only
    become satisfiable at very large k.  There an i.i.d. candidate fails at
    string 0, so each attempt costs its draw and one comparison of its
    table.  Callers that just need a design (not a certificate) should use
    construct_candidate directly.
    """
    max_attempts = 16 if max_attempts is None else max_attempts
    last = None
    for attempt in range(max_attempts):
        cand = construct_candidate(params, derive_seed(seed, attempt))
        report = verify_promising(cand)
        if report.passed:
            return cand
        last = report.first_violation
    raise ConstructionFailed(
        f"no candidate passed the collision certificate in {max_attempts} attempts "
        f"(last violation: {last}); at these parameters the certificate constants "
        "are typically unattainable — construct_candidate offers the uncertified path"
    )


def smallk_pairs_ok(mset: MaskingSet) -> bool:
    """True when every pair collides in at most w/(2k) segments.

    Reads the collision counts one row block at a time and stops at the
    first block with a pair above the bound.
    """
    bound = mset.params.w // (2 * mset.params.k)
    return all((block <= bound).all() for _, block in _collision_blocks(mset.offsets))


def build_smallk_set(
    params: SchemeParams, seed: int, max_attempts: int | None = None
) -> MaskingSet:
    """Rejection-sample a set whose every pair collides <= w/(2k) times.

    Acceptance per attempt is a few percent at typical very-sparse parameters,
    hence the generous default budget of 1000 attempts; each attempt costs
    at most O(|S|^2 w), and a rejected one stops at the first row block
    with a pair above the bound.
    """
    max_attempts = 1000 if max_attempts is None else max_attempts
    for attempt in range(max_attempts):
        cand = construct_candidate(params, derive_seed(seed, attempt))
        if smallk_pairs_ok(cand):
            cand.status = STATUS_SMALLK
            return cand
    raise ConstructionFailed(
        f"no candidate met the pairwise collision bound w/(2k) in {max_attempts} attempts"
    )


def _validate_chosen(mset: MaskingSet, chosen) -> np.ndarray:
    chosen = np.asarray(chosen)
    if chosen.dtype.kind in "iu" and chosen.size and (
        chosen.min() < 0 or chosen.max() >= len(mset)
    ):
        raise IndexOutOfRange(f"chosen indices outside [0, {len(mset)})")
    return checked_array("chosen string indices", chosen, 1, len(mset), np.int64)


def check_lcs_conditions_all(mset: MaskingSet, chosen) -> dict:
    """Per-trial decode-safety conditions for a realized selection.

    chosen is the multiset of selected string indices (repeats allowed).
    Returns {"cond1": ..., "cond2_all": ...} where cond1 says every string
    outside the multiset collides with it at most w/2 times in total, and
    cond2_all says every position of chosen collides with the rest of the
    multiset at most w/2 times in total.  A string's total against the
    multiset is its score on the multiset's position usage, and a chosen
    string's own term in that total is w, so this costs O(|S| * w).
    """
    chosen = _validate_chosen(mset, chosen)
    w = mset.params.w
    if chosen.size == 0:
        return {"cond1": True, "cond2_all": True}
    totals = mset.scores(mset._usage(chosen))
    outside = np.ones(len(mset), dtype=bool)
    outside[chosen] = False
    cond1 = bool((2 * totals[outside] <= w).all())
    cond2_all = bool((2 * (totals[chosen] - w) <= w).all())
    return {"cond1": cond1, "cond2_all": cond2_all}
