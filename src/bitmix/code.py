"""Index <-> codeword mapping, and one batched decoder for received words.

The codebook is an evaluation-style MDS code over GF(2^ell): item index i in
[1, n] maps to the base-q digits of i-1 (little-endian, m digits), read as a
polynomial of degree < m and evaluated at the points 0..w-1.  Minimum distance
is w - m + 1, so any f <= w - m erasures are correctable, and any (e, f) with
2e + f <= w - m is correctable with errors.

`Codebook.decode_words` decodes a whole (L, w) matrix of received words in
one pass of array operations, in two stages:
  1. candidates: each row's first T disjoint m-tuples of unerased positions
     (T = _TUPLES when noisy, 1 when noiseless) give T messages, by one
     batched Lagrange interpolation through the m points of each tuple
     (`GF2m.interpolate`, closed form, no elimination) and one re-encode.
     A row keeps the first message whose codeword passes the check below.
     This is the whole noiseless decode.
  2. errata, for the noisy rows that no tuple fits:
     a. syndromes of each row, as one GF matrix product with the parity
        checks;
     b. Berlekamp-Massey with erasures (Berlekamp 1968; Massey 1969),
        batched over the rows: each row starts from its erasure locator at
        its own step f, its erasure count;
     c. a Chien search over the w points finds the roots of each row's
        errata locator, and the errors found join the erasures;
     d. the same interpolation and check, on the first m positions outside
        the errata.
Point 0 is no locator root, so 2a-2c work on the translated points
b_j = j ^ w, all nonzero because w < q.  Translation maps the code onto
itself, and 2d interpolates on the original points.

Any m symbols of a codeword determine it, and a codeword within 2e + f <=
w - m of a word is the only one there, because the minimum distance is
w - m + 1.  So a message that passes the noisy check is the codeword that
bounded-distance decoding returns, however it was found, and the candidate
stage changes no outcome: a row with a codeword within the radius decodes
to it in either stage, and a row without one fails the check in both.

Decoding never trusts its own algebra: every message is re-encoded and
checked against every non-erased symbol (exact agreement when noiseless,
2e + f <= w - m when noisy), and a decoded index outside [1, n] is rejected,
so upstream corruption surfaces as an explicit error (InconsistentWord /
DecodingFailure) rather than a silently wrong item.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DecodingFailure,
    InconsistentWord,
    IndexOutOfRange,
    InvalidInput,
    TooManyErasures,
)
from .gf import GF2m, get_field
from .params import message_length

ERASURE = -1

# m-tuples of unerased positions the candidate stage tries per noisy row.  At
# xi = 0.05 and ell = 9 a symbol is wrong with probability 1 - 0.95^9 = 0.37,
# so a 3-tuple is clean with probability 0.63^3 = 0.25, and 32 tuples all miss
# a decodable row with probability about 0.75^32 = 1e-4.  A row they miss
# still decodes, through Berlekamp-Massey.
_TUPLES = 32

# Re-encoded symbols held at once by `Codebook._fit` (8 MB of int64).
_BLOCK = 1 << 20


def _as_words(words, w: int, q: int) -> np.ndarray:
    symbols = np.asarray(words, dtype=np.int64)
    if symbols.ndim != 2 or symbols.shape[1] != w:
        raise InvalidInput(f"received words must have length {w}, got shape {symbols.shape}")
    if symbols.min(initial=0) < ERASURE or symbols.max(initial=0) >= q:
        raise InvalidInput("symbol values must lie in [0, q) or be ERASURE")
    return symbols


class Codebook:
    """Evaluation-code view of the items: w symbols of ell bits each."""

    def __init__(self, n: int, w: int, ell: int):
        if n < 1 or w < 1:
            raise InvalidInput("need n >= 1 and w >= 1")
        if (1 << ell) < w + 1:
            raise InvalidInput("need 2^ell >= w + 1 for distinct evaluation points")
        self.n = n
        self.w = w
        self.ell = ell
        self.q = 1 << ell
        self.m = message_length(n, ell)
        if self.m > w:
            raise InvalidInput("message length m exceeds block length w")
        self.field: GF2m = get_field(ell)
        self.points = np.arange(w, dtype=np.int64)
        self._vand = self.field.vandermonde(self.points, self.m)

    def _digits(self, i: int) -> np.ndarray:
        v = i - 1
        out = np.empty(self.m, dtype=np.int64)
        for d in range(self.m):
            out[d] = v % self.q
            v //= self.q
        return out

    def encode_index(self, i: int) -> np.ndarray:
        """Codeword of item i (1-based), as w symbols in [0, q)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"item index {i} outside [1, {self.n}]")
        return self.field.matmul(self._digits(i)[None], self._vand.T)[0]

    @cached_property
    def _locator_tables(self):
        """(checks, powers) on the translated points b_j = j ^ w.

        checks[i, j] = v_j b_j^i for i < w - m, with v_j = 1 / prod_{l != j}
        (b_j - b_l), is a parity-check matrix of the code; powers[k, j] =
        b_j^-k for k <= w - m evaluates a locator at every b_j^-1.  Built
        when a row first reaches the errata stage, which noiseless rows never
        do.
        """
        field, radius = self.field, self.w - self.m
        translated = self.points ^ self.w
        diffs = self.points[:, None] ^ self.points  # b_j - b_l = j - l
        np.fill_diagonal(diffs, 1)
        weights = field.inv(field.prod(diffs, axis=1))
        checks = field.mul(field.vandermonde(translated, radius).T, weights)
        powers = field.vandermonde(field.inv(translated), radius + 1).T
        return checks, powers

    def decode_words(self, words, noisy: bool):
        """Decode every row of an (L, w) matrix of received words at once.

        Returns (items, errors), two lists of length L.  Row r decoded to
        item items[r] when errors[r] is None; otherwise items[r] is None and
        errors[r] is the exception that explains the failure:
          - noiseless: TooManyErasures when more than w - m symbols are
            erased, InconsistentWord when the surviving symbols match no
            codeword of an index in [1, n];
          - noisy: DecodingFailure when no codeword of an index in [1, n]
            lies within 2e + f <= w - m of the word (e errors, f erasures).
        Raises InvalidInput unless `words` is an (L, w) matrix of symbols in
        [0, q) or ERASURE.

        Two stages (see the module docstring).  The candidate stage tries
        the messages through a row's first _TUPLES disjoint m-tuples of
        unerased positions (one tuple when noiseless).  Noisy rows that no
        tuple fits go through syndromes, Berlekamp-Massey and a Chien search,
        then the same interpolation and check.  A codeword that passes the
        noisy check is the only one within the radius, so the outcome is that
        of bounded-distance decoding whichever stage finds it.
        """
        words = _as_words(words, self.w, self.q)
        radius = self.w - self.m
        erased = words == ERASURE
        n_erased = erased.sum(axis=1)
        items: list = [None] * len(words)
        errors: list = [None] * len(words)
        for row in np.nonzero(n_erased > radius)[0]:
            errors[row] = (
                DecodingFailure("too few surviving symbols to identify any codeword")
                if noisy else
                TooManyErasures(f"{n_erased[row]} erasures exceed capability {radius}")
            )
        rows = np.nonzero(n_erased <= radius)[0]
        if rows.size == 0:
            return items, errors

        received, erased, n_erased = words[rows], erased[rows], n_erased[rows]
        received[erased] = 0  # every entry a field element; erased ones are never checked
        # Unerased positions first.  A row with fewer than tuples * m of them
        # fills its last tuples with erased ones; the check judges the
        # message they give like any other.
        tuples = min(_TUPLES if noisy else 1, self.w // self.m)
        keep = np.argsort(erased, axis=1, kind="stable")[:, : tuples * self.m]
        keep = keep.reshape(len(rows), tuples, self.m)
        msg, ok = self._fit(received, erased, n_erased, keep, noisy)
        first = np.argmax(ok, axis=1)
        msg, ok = msg[np.arange(len(rows)), first], ok.any(axis=1)
        left = np.nonzero(~ok)[0]
        if noisy and left.size:
            sub = received[left], erased[left], n_erased[left]
            errata = sub[1] | self._locate_errors(*sub)
            # The first m positions outside the errata.  A word beyond the
            # radius may have fewer, so the interpolation reads errata too.
            keep = np.argsort(errata, axis=1, kind="stable")[:, None, : self.m]
            fitted, passed = self._fit(*sub, keep, noisy)
            msg[left], ok[left] = fitted[:, 0], passed[:, 0]
        index = np.dot(msg.astype(object), [self.q**d for d in range(self.m)]) + 1
        failure = DecodingFailure if noisy else InconsistentWord
        for row, good, idx in zip(rows, ok, index):
            if not good:
                errors[row] = failure(
                    f"no codeword within 2e+f <= {radius} of the word" if noisy
                    else "surviving symbols match no codeword"
                )
            elif idx > self.n:
                errors[row] = failure(f"decoded index {idx} exceeds n={self.n}")
            else:
                items[row] = idx
        return items, errors

    def _fit(self, received, erased, n_erased, keep, noisy: bool):
        """Messages through the m-tuples of positions keep[r, t], and their check.

        Both decoder stages call this.  The messages come from
        `GF2m.interpolate` on the tuples' points (distinct, since each tuple
        holds distinct positions), with no Gaussian elimination: they are
        the solutions of the Vandermonde systems vand[keep] msg = received.
        Returns (msg, ok) of shapes (R, T, m) and (R, T): ok when the
        message's codeword disagrees with row r at no unerased symbol
        (noiseless), or at e of them with 2e + f <= w - m (noisy).
        """
        field, (n_rows, tuples, m) = self.field, keep.shape
        msg = field.interpolate(self.points[keep], received[np.arange(n_rows)[:, None, None], keep])
        wrong = np.empty((n_rows, tuples), dtype=np.int64)
        step = max(1, _BLOCK // (tuples * self.w))
        for lo in range(0, n_rows, step):
            hi = lo + step
            codes = field.matmul(msg[lo:hi].reshape(-1, m), self._vand.T)
            disagree = codes.reshape(-1, tuples, self.w) != received[lo:hi, None]
            wrong[lo:hi] = np.count_nonzero(disagree & ~erased[lo:hi, None], axis=2)
        if noisy:
            return msg, 2 * wrong + n_erased[:, None] <= self.w - self.m
        return msg, wrong == 0

    def _locate_errors(self, received, erased, n_erased) -> np.ndarray:
        """Roots of each row's errata locator, as an (L, w) mask (stages 2a-2c)."""
        field, radius = self.field, self.w - self.m
        checks, powers = self._locator_tables
        translated = self.points ^ self.w
        # Locators have degree <= w - m; B(x) gets one more column to shift into.
        width = radius + 2
        # Erasure locators prod_{j erased} (1 + b_j x), one factor per pass.
        locator = np.zeros((len(received), width), dtype=np.int64)
        locator[:, 0] = 1
        erased_first = np.argsort(~erased, axis=1, kind="stable")
        for t in range(int(n_erased.max())):
            root = np.where(t < n_erased, translated[erased_first[:, t]], 0)
            locator[:, 1 : t + 2] ^= field.mul(locator[:, : t + 1], root[:, None])
        # Syndromes S_i sit at column radius + 1 + i, after radius + 1 zeros,
        # so S_{n-j} for j > n reads 0.
        syndromes = np.zeros((len(received), 2 * radius + 1), dtype=np.int64)
        syndromes[:, radius + 1 :] = field.matmul(received, checks.T)
        # Berlekamp-Massey from each row's erasure locator, at steps n >= f:
        # `length` is the row's linear complexity, `shifted` is x^s B(x), B
        # the last locator before a length change over its discrepancy.  A
        # row whose start step is still ahead keeps B = its erasure locator.
        length = n_erased.copy()
        shifted = locator.copy()
        span = int(length.max()) + 1  # locators have degree <= length
        last_start = int(n_erased.max())
        for n in range(int(n_erased.min()), radius):
            window = syndromes[:, radius + 2 + n - span : radius + 2 + n][:, ::-1]
            delta = np.bitwise_xor.reduce(field.mul(locator[:, :span], window), axis=1)
            shifted[:, 1:] = shifted[:, :-1]
            shifted[:, 0] = 0
            if n < last_start:
                idle = n_erased > n
                delta[idle] = 0
                shifted[idle] = locator[idle]
            grow = (delta != 0) & (2 * length <= n + n_erased)
            previous = locator[grow, :span]
            length[grow] = n + 1 + n_erased[grow] - length[grow]
            new_span = int(length.max()) + 1
            locator[:, :new_span] ^= field.mul(shifted[:, :new_span], delta[:, None])
            shifted[grow] = 0
            shifted[grow, :span] = field.div(previous, delta[grow, None])
            span = new_span
        return field.matmul(locator[:, :span], powers[:span]) == 0

    def decode_erasures(self, rw) -> int:
        """Recover the item index from a word with erasures but no errors.

        A one-row `decode_words(..., noisy=False)`.  Raises TooManyErasures
        when more than w - m symbols are erased and InconsistentWord when the
        surviving symbols match no codeword of an index in [1, n].
        """
        return self._decode_one(rw, noisy=False)

    def decode_errors_and_erasures(self, rw) -> int:
        """Recover the item index from a word with f erasures and e errors.

        A one-row `decode_words(..., noisy=True)`.  Succeeds whenever
        2e + f <= w - m (bounded-distance decoding); raises DecodingFailure
        when no codeword of an index in [1, n] lies within that radius.
        """
        return self._decode_one(rw, noisy=True)

    def _decode_one(self, rw, noisy: bool) -> int:
        items, errors = self.decode_words(np.asarray(rw, dtype=np.int64)[None], noisy)
        if errors[0] is not None:
            raise errors[0]
        return items[0]

