"""Masking-string sets: construction and verification.

A masking string is a weight-w bit string of length c1*k*w with exactly one 1
in each length-(c1*k) segment; we store only the w per-segment offsets.  Two
strings "collide" at a segment when they chose the same offset there, and all
set-quality notions are statistics of pairwise collision counts:

* The per-trial decode conditions (`check_lcs_conditions_all`): the
  defectives' strings must collide with each other, and every outside string
  with the defective multiset, in at most w/2 positions total.

* The deterministic certificate (`verify_promising`): for every string, the
  collision counts against the other |S|-1 strings must have mean within 4%
  of w/(c1*k), max deviation from that mean at most 6.1, and squared-deviation
  sum at most (|S|-1) * 2w/(c1*k).  The constants are asymptotic: at desk-size
  parameters random candidates essentially never satisfy the max-deviation
  bound, which is why construction also offers an unverified path.  The
  pair counts come from `pairwise_collisions`, which counts only the pairs
  that share a bucket: about |S|^2 w / (2 c1*k) increments for random
  offsets, plus O(|S|^2) row reductions.

* The very-sparse variant (`build_smallk_set`): every pair collides at most
  w/(2k) times.

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
from .params import SchemeParams
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

# Strings whose collision pairs pairwise_collisions counts in one bincount.
_PAIR_ROWS = 16


@dataclass
class MaskingString:
    """One string in sparse form: offsets[j] is the 1-position in segment j."""

    offsets: np.ndarray
    segment_len: int

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise InvalidInput("offsets must be a non-empty vector")
        if self.offsets.min() < 0 or self.offsets.max() >= self.segment_len:
            raise InvalidInput(f"offsets must lie in [0, {self.segment_len})")

    @property
    def weight(self) -> int:
        return self.offsets.size

    def to_bits(self) -> np.ndarray:
        """Dense 0/1 form, length segment_len * w."""
        bits = np.zeros(self.segment_len * self.weight, dtype=np.uint8)
        bits[np.arange(self.weight) * self.segment_len + self.offsets] = 1
        return bits


def collisions(a: MaskingString, b: MaskingString) -> int:
    """Number of segments where a and b share their 1-position (= dense dot)."""
    if a.segment_len != b.segment_len or a.weight != b.weight:
        raise ShapeMismatch(
            f"strings disagree on (segment_len, w): "
            f"({a.segment_len}, {a.weight}) vs ({b.segment_len}, {b.weight})"
        )
    return int(np.count_nonzero(a.offsets == b.offsets))


@dataclass
class MaskingSet:
    """|S| masking strings plus the params and provenance they were built for."""

    offsets: np.ndarray  # (s_size, w) per-segment offsets
    params: SchemeParams
    seed: int
    status: str = STATUS_UNVERIFIED

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int32)
        if self.status not in _STATUSES:
            raise InvalidInput(f"unknown status {self.status!r}")
        expect = (self.params.s_size, self.params.w)
        if self.offsets.shape != expect:
            raise ShapeMismatch(f"offsets shape {self.offsets.shape} != {expect}")
        if self.offsets.size and (
            self.offsets.min() < 0 or self.offsets.max() >= self.params.segment_len
        ):
            raise InvalidInput("offsets outside [0, c1*k)")

    def __len__(self) -> int:
        return self.offsets.shape[0]

    def string(self, i: int) -> MaskingString:
        if not 0 <= i < len(self):
            raise IndexOutOfRange(f"string index {i} outside [0, {len(self)})")
        return MaskingString(self.offsets[i].astype(np.int64), self.params.segment_len)

    @cached_property
    def flat_positions(self) -> np.ndarray:
        """(s_size, w) global bit positions of each string's 1s (cached)."""
        seg = np.arange(self.params.w, dtype=np.int64) * self.params.segment_len
        return self.offsets.astype(np.int64) + seg[None, :]

    def usage(self, strings) -> np.ndarray:
        """(t1,) how many of the given strings (repeats counted) have a 1 at each position."""
        return np.bincount(self.flat_positions[strings].ravel(), minlength=self.params.t1)

    def scores(self, vec) -> np.ndarray:
        """(s_size,) s^T vec for every string s: vec summed over its positions."""
        return vec[self.flat_positions].sum(axis=1, dtype=np.int64)

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
            score += vec[flat[alive, lo:hi]].sum(axis=1, dtype=np.int64)
            keep = score + cap * (w - hi) >= threshold
            alive, score = alive[keep], score[keep]
            lo, hi = hi, hi + max(_SCAN, _READS * len(self) // max(1, alive.size))
        return alive


def construct_candidate(params: SchemeParams, seed: int) -> MaskingSet:
    """Draw |S| strings with i.i.d. uniform segment offsets (unverified)."""
    rng = np.random.default_rng(seed)
    offsets = rng.integers(
        0, params.segment_len, size=(params.s_size, params.w), dtype=np.int32
    )
    return MaskingSet(offsets, params, seed, STATUS_UNVERIFIED)


def pairwise_collisions(offsets) -> np.ndarray:
    """Symmetric |S| x |S| matrix of pair collision counts (diagonal = w).

    offsets is the (|S|, w) array of per-segment offsets.  Two strings
    collide at segment j only when they share the bucket (j, offset), so
    only those pairs are counted: a stable argsort of the buckets lists each
    bucket's strings, every (string, segment) pairs with the strings listed
    after it in its bucket, and one bincount per _PAIR_ROWS strings counts
    the pairs.  For uniform offsets over c1*k values that is about
    |S|^2 w / (2 c1*k) increments.  Counts are uint16, or int32 when
    w > 65535.
    """
    offsets = np.asarray(offsets)
    if offsets.ndim != 2 or not np.issubdtype(offsets.dtype, np.integer):
        raise InvalidInput("offsets must be a 2-D integer array (strings x segments)")
    if offsets.size and offsets.min() < 0:
        raise InvalidInput("offsets must be non-negative")
    s, w = offsets.shape
    out = np.zeros((s, s), dtype=np.uint16 if w <= 0xFFFF else np.int32)
    if offsets.size:
        # int32 indices when every position, pair code and block pair count fits.
        idx = np.int32 if s * w * _PAIR_ROWS < 2**31 else np.int64
        span = int(offsets.max()) + 1
        buckets = (offsets + np.arange(0, w * span, span)).ravel()
        # The narrowest key type: keys of 16 bits or less sort by radix.
        buckets = buckets.astype(np.min_scalar_type(w * span))
        order = np.argsort(buckets, kind="stable").astype(idx)
        members = order // idx(w)  # the strings, bucket by bucket, ascending
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size, dtype=idx)
        # Entries listed after each (string, segment) in its bucket.
        in_order = buckets[order]
        bounds = np.flatnonzero(np.r_[True, in_order[1:] != in_order[:-1], True]).astype(idx)
        ends = np.repeat(bounds[1:], np.diff(bounds))
        later = (ends - np.arange(1, order.size + 1, dtype=idx))[pos]
        for lo in range(0, s, _PAIR_ROWS):
            hi = min(s, lo + _PAIR_ROWS)
            after = later[lo * w:hi * w]
            first = np.cumsum(after, dtype=idx) - after
            at = np.arange(first[-1] + after[-1], dtype=idx)
            at += np.repeat(pos[lo * w:hi * w] + 1 - first, after)
            codes = np.repeat(np.arange(0, (hi - lo) * s, s, dtype=idx).repeat(w), after)
            codes += members[at]
            out[lo:hi] = np.bincount(codes, minlength=(hi - lo) * s).reshape(hi - lo, s)
        out += out.T
    np.fill_diagonal(out, w)
    return out


@dataclass
class CollisionStats:
    """Exact per-string collision statistics against the rest of the set.

    Means are sums/n_others; max deviations are max_dev_num/n_others; squared
    deviation sums are sq_dev_num/n_others**2 (kept as Python ints, because
    the bound they are compared against can exceed int64).
    """

    sums: np.ndarray
    max_dev_num: np.ndarray
    sq_dev_num: list
    n_others: int


@dataclass
class VerifyReport:
    passed: bool
    stats: CollisionStats | None
    first_violation: tuple | None  # (string index, condition, detail)
    generalized: bool
    degenerate: bool = False


def verify_promising(mset: MaskingSet) -> VerifyReport:
    """Check the three deterministic collision conditions for every string.

    Condition names in the report: "mean" (mean within 4% of w/(c1*k)),
    "max_dev" (every deviation from the string's own mean at most 6.1),
    "sq_dev" (squared-deviation sum at most (|S|-1) * 2w/(c1*k)).  All three
    are evaluated in exact integer arithmetic.  On pass, the set's status is
    upgraded to "promising".  Sets built with c1 != 4 use the generalized
    targets and are flagged as such.  Costs about |S|^2 w / (c1*k) pair
    increments in pairwise_collisions plus O(|S|^2) row reductions.
    """
    params = mset.params
    s_size, w = params.s_size, params.w
    c1k = params.segment_len
    generalized = params.c1 != 4

    if s_size < 2:
        mset.status = STATUS_PROMISING
        return VerifyReport(True, None, None, generalized, degenerate=True)

    c = pairwise_collisions(mset.offsets)
    n_others = s_size - 1
    # Off-diagonal row statistics; the diagonal w is no smaller than any count.
    cmin = c.min(axis=1).astype(np.int64)
    np.fill_diagonal(c, 0)
    cmax = c.max(axis=1).astype(np.int64)
    sums = c.sum(axis=1, dtype=np.int64)
    squares = np.einsum("ij,ij->i", c, c, dtype=np.int64)

    # Deviations n_others * c_ij - sums_i are exact numerators over
    # denominator n_others, so the largest is at the row max or min, and
    # their squares sum to n_others^2 * squares_i - n_others * sums_i^2.  The
    # rhs bound 2*w*N^3 may not fit int64: the squared sums are Python ints.
    max_dev_num = np.maximum(n_others * cmax - sums, sums - n_others * cmin)
    sq_dev_num = [
        n_others**2 * int(q) - n_others * int(v) ** 2 for q, v in zip(squares, sums)
    ]

    mean_ok = 25 * np.abs(c1k * sums - w * np.int64(n_others)) <= w * np.int64(n_others)
    max_ok = 10 * max_dev_num <= 61 * np.int64(n_others)
    sq_bound = 2 * w * n_others**3  # Python int
    sq_ok = [c1k * v <= sq_bound for v in sq_dev_num]

    stats = CollisionStats(sums, max_dev_num, sq_dev_num, n_others)

    first = None
    for i in range(s_size):
        if not mean_ok[i]:
            first = (i, "mean", f"mean {sums[i] / n_others:.4f} vs target {w / c1k:.4f} +- 4%")
            break
        if not max_ok[i]:
            first = (i, "max_dev", f"max deviation {max_dev_num[i] / n_others:.3f} > 6.1")
            break
        if not sq_ok[i]:
            first = (
                i,
                "sq_dev",
                f"squared-deviation sum {sq_dev_num[i] / n_others**2:.2f} "
                f"> {2 * w * n_others / c1k:.2f}",
            )
            break

    passed = first is None
    if passed:
        mset.status = STATUS_PROMISING
    return VerifyReport(passed, stats, first, generalized)


def build_lcs(params: SchemeParams, seed: int, max_attempts: int | None = None) -> MaskingSet:
    """Draw up to max_attempts (default 16) candidates until one passes verify_promising.

    Raises ConstructionFailed when the budget runs out — which, at desk-scale
    parameters, is the expected outcome: the certificate's constants only
    become satisfiable at very large k.  Callers that just need a design (not
    a certificate) should use construct_candidate directly.
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
    """True when every pair collides in at most w/(2k) segments."""
    c = pairwise_collisions(mset.offsets)
    np.fill_diagonal(c, 0)
    # Not 2k * c <= w: that product could wrap in c's narrow type.
    return bool((c <= mset.params.w // (2 * mset.params.k)).all())


def build_smallk_set(
    params: SchemeParams, seed: int, max_attempts: int | None = None
) -> MaskingSet:
    """Rejection-sample a set whose every pair collides <= w/(2k) times.

    Acceptance per attempt is a few percent at typical very-sparse parameters,
    hence the generous default budget of 1000 attempts; each attempt costs
    only O(|S|^2 w).
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
    chosen = np.asarray(chosen, dtype=np.int64)
    if chosen.ndim != 1:
        raise InvalidInput("chosen must be a flat sequence of string indices")
    if chosen.size and (chosen.min() < 0 or chosen.max() >= len(mset)):
        raise IndexOutOfRange(f"chosen indices outside [0, {len(mset)})")
    return chosen


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
    totals = mset.scores(mset.usage(chosen))
    outside = np.ones(len(mset), dtype=bool)
    outside[chosen] = False
    cond1 = bool((2 * totals[outside] <= w).all())
    cond2_all = bool((2 * (totals[chosen] - w) <= w).all())
    return {"cond1": cond1, "cond2_all": cond2_all}
