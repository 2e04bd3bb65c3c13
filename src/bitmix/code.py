"""Index <-> codeword mapping, and one batched decoder for received words.

The codebook is an evaluation-style MDS code over GF(2^ell): item index i in
[1, n] maps to the base-q digits of i-1 (little-endian, m digits), read as a
polynomial of degree < m and evaluated at the points 0..w-1.  Minimum distance
is w - m + 1, so any f <= w - m erasures are correctable, and any (e, f) with
2e + f <= w - m is correctable with errors.

`Codebook.decode_words` decodes a whole (L, w) matrix of received words at
once, in two stages:
  1. candidates: each row's first T disjoint m-tuples of unerased positions
     (T = _TUPLES when noisy, 1 when noiseless) give T messages, by batched
     Lagrange interpolation through the m points of each tuple
     (`GF2m.interpolate`, closed form, no elimination) and a re-encode,
     one gather per degree from the log table of the powers x_j^d that the
     codebook keeps.  A row keeps the first message whose codeword passes
     the check below.
     The tuples go in two rounds: every row tries its first _ROUND, and only
     the rows that none of them fits try the other T - _ROUND, so the
     working set holds the re-encodes of _ROUND tuples per row, not T.
     Noiseless rows have one tuple and one round: this is the whole
     noiseless decode.
  2. errata, for the noisy rows that no tuple fits, one row at a time:
     a. the syndromes S_i = sum_j v_j r_j b_j^i, i < w - m, of the row;
     b. Berlekamp-Massey with erasures (Berlekamp 1968; Massey 1969), from
        the erasure locator prod_{j erased} (1 + b_j x) at step f, the
        row's erasure count;
     c. a Chien search evaluates the errata locator at every b_j^-1, and
        the errors found join the erasures;
     d. the same interpolation and check, on the first m positions outside
        the errata.
Point 0 is no locator root, so 2a-2c work on the translated points
b_j = j ^ w, all nonzero because w < q.  Translation maps the code onto
itself, and 2d interpolates on the original points.  Few rows reach stage
2, so it keeps no table on the codebook but the w weights v_j, and it
holds the powers b_j^i of 2a and 2c, and the point differences of the
weights, _ERRATA entries at a time: about 0.6 MB for a row at w = 381,
not a (w, w - m + 1) table.

Any m symbols of a codeword determine it, and a codeword within 2e + f <=
w - m of a word is the only one there, because the minimum distance is
w - m + 1.  So a message that passes the noisy check is the codeword that
bounded-distance decoding returns, however it was found, and the candidate
stage changes no outcome: a row with a codeword within the radius decodes
to it in either stage, and a row without one fails the check in both.  The
rounds change none either: a row keeps the first tuple that fits, whichever
round holds it.

Decoding never trusts its own algebra: every message is re-encoded and
checked against every non-erased symbol (exact agreement when noiseless,
2e + f <= w - m when noisy), and a decoded index outside [1, n] is rejected,
so upstream corruption surfaces as an explicit error (InconsistentWord /
DecodingFailure) rather than a silently wrong item.  Input is checked once,
where it enters: `decode_words` checks its words, `scheme.identify_items`
the outcome it reads words from, and both hand them to one private core.
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
from .params import checked_integer, message_length

ERASURE = -1

# m-tuples of unerased positions the candidate stage tries per noisy row.  At
# xi = 0.05 and ell = 9 a symbol is wrong with probability 1 - 0.95^9 = 0.37,
# so a 3-tuple is clean with probability 0.63^3 = 0.25, and 32 tuples all miss
# a decodable row with probability about 0.75^32 = 1e-4.  A row they miss
# still decodes, through Berlekamp-Massey.
_TUPLES = 32

# Tuples of round 1, which every noisy row tries; round 2 tries the other
# _TUPLES - _ROUND only for the rows that no round-1 tuple fits.  At the rates
# above 8 tuples already fit about 90% of decodable rows, so round 2 works on
# few rows and the working set holds about a quarter of the tuples.
_ROUND = 8

# Re-encoded symbols held at once by `Codebook._fit`: 2 MB of uint16 codes, and
# 8 MB of int64 log sums for the one degree `Codebook._encode` gathers at a time.
_BLOCK = 1 << 20

# Entries of the (w, w - m) tables of powers b_j^i that the errata stage holds
# at a time, and of the (w, w) point differences that `Codebook._weights`
# does: 256 KB as int64 log sums, 64 KB as uint16 products.
_ERRATA = 1 << 15


def _first_unset(mask, count: int) -> np.ndarray:
    """np.argsort(mask, axis=1, kind="stable")[:, :count] for an (L, w) bool mask,
    from the keys mask * w + j (distinct in a row) in the narrowest type that
    holds them, which numpy sorts much faster than it stably sorts bools."""
    w = mask.shape[1]
    dtype = np.min_scalar_type(2 * w - 1)
    keys = mask * dtype.type(w) + np.arange(w, dtype=dtype)
    keys.sort(axis=1)
    return keys[:, :count] % w


class Codebook:
    """Evaluation-code view of the items: w symbols of ell bits each."""

    def __init__(self, n: int, w: int, ell: int):
        n, w, ell = (checked_integer(name, value, low=1)
                     for name, value in (("n", n), ("w", w), ("ell", ell)))
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
        # log of x_j^d at [d, j], C-contiguous: `_encode` gathers one row per degree.
        self._log_powers = np.ascontiguousarray(
            self.field.log[self.field.vandermonde(self.points, self.m).T])

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
        return self._encode(self._digits(i)[None])[0].astype(np.int64)

    def _encode(self, msg: np.ndarray) -> np.ndarray:
        """Codewords (R, w) of the messages msg (R, m) as uint16, one gather per degree."""
        exp, log_msg = self.field.exp, self.field.log[msg]
        codes = exp[log_msg[:, :1] + self._log_powers[0]]
        for d in range(1, self.m):
            codes ^= exp[log_msg[:, d : d + 1] + self._log_powers[d]]
        return codes

    @cached_property
    def _weights(self) -> np.ndarray:
        """v_j = 1 / prod_{l != j} (b_j - b_l) on the translated points b_j = j ^ w.

        The checks v_j b_j^i, i < w - m, are a parity-check matrix of the code.
        Built when a row first reaches the errata stage, which noiseless rows
        never do, from the logs of the differences b_j - b_l = j ^ l, a block
        of _ERRATA of them at a time.
        """
        log, order = self.field.log, self.field.q - 1
        points = self.points.astype(np.min_scalar_type(self.w))
        rows = max(1, _ERRATA // self.w)
        log_prod = np.concatenate([
            log[np.bitwise_xor.outer(points[lo : lo + rows], points)].sum(axis=1)
            for lo in range(0, self.w, rows)
        ])
        # The l = j term is log 0 = 2(q - 1), which the mod drops.
        return self.field.exp[order - log_prod % order].astype(np.int64)

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
        Raises InvalidInput unless `words` is an (L, w) matrix of integer
        symbols in [0, q) or ERASURE.

        Two stages (see the module docstring).  The candidate stage tries
        the messages through a row's first _TUPLES disjoint m-tuples of
        unerased positions (one tuple when noiseless), in two rounds: the
        first _ROUND tuples of every row, then the rest for the rows that
        round 1 left.  Noisy rows that no tuple fits go, one at a time,
        through syndromes, Berlekamp-Massey and a Chien search, then the
        same interpolation and check; this stage caches only the w weights
        v_j on the codebook.  A codeword that passes the noisy check is the
        only one within the radius, so the outcome is that of
        bounded-distance decoding whichever stage or round finds it.
        """
        words = np.asarray(words)  # checked before the cast, so no float is truncated
        integer = words.dtype.kind in "biu" or words.size == 0
        if words.ndim != 2 or words.shape[1] != self.w or not integer:
            raise InvalidInput(f"received words must be integer rows of length {self.w}, "
                               f"got {words.dtype} of shape {words.shape}")
        if words.min(initial=0) < ERASURE or words.max(initial=0) >= self.q:
            raise InvalidInput("symbol values must lie in [0, q) or be ERASURE")
        words = words.astype(np.int64, copy=False)
        erased = words == ERASURE
        return self._decode(np.where(erased, 0, words), erased, noisy)

    def _decode(self, received, erased, noisy: bool):
        """`decode_words` on checked words: (L, w) int64 field elements, 0 where
        the (L, w) mask erased is set, neither written; `identify_items` calls it."""
        radius = self.w - self.m
        n_erased = erased.sum(axis=1)
        items: list = [None] * len(received)
        errors: list = [None] * len(received)
        for row in np.nonzero(n_erased > radius)[0]:
            errors[row] = (
                DecodingFailure("too few surviving symbols to identify any codeword")
                if noisy else
                TooManyErasures(f"{n_erased[row]} erasures exceed capability {radius}")
            )
        rows = np.nonzero(n_erased <= radius)[0]
        if rows.size == 0:
            return items, errors
        if rows.size < len(received):
            received, erased, n_erased = received[rows], erased[rows], n_erased[rows]
        # Unerased positions first.  A row with fewer than tuples * m of them
        # fills its last tuples with erased ones; the check judges the
        # message they give like any other.
        tuples = min(_TUPLES if noisy else 1, self.w // self.m)
        keep = _first_unset(erased, tuples * self.m).reshape(len(rows), tuples, self.m)
        # Round 1: every row's first _ROUND tuples (its only one when noiseless).
        msg, ok = self._fit(received, erased, n_erased, keep[:, :_ROUND], noisy)
        first = np.argmax(ok, axis=1)
        msg, ok = msg[np.arange(len(rows)), first], ok.any(axis=1)
        left = np.nonzero(~ok)[0]
        if left.size and tuples > _ROUND:
            # Round 2: the other tuples, for the rows that round 1 left.
            sub = received[left], erased[left], n_erased[left]
            fitted, passed = self._fit(*sub, keep[left, _ROUND:], noisy)
            first, good = np.argmax(passed, axis=1), passed.any(axis=1)
            msg[left], ok[left] = fitted[np.arange(left.size), first], good
            left = left[~good]
        if noisy and left.size:
            sub = received[left], erased[left], n_erased[left]
            errata = sub[1] | self._locate_errors(*sub)
            # The first m positions outside the errata.  A word beyond the
            # radius may have fewer, so the interpolation reads errata too.
            keep = _first_unset(errata, self.m)[:, None]
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
            codes = self._encode(msg[lo:hi].reshape(-1, m))
            disagree = codes.reshape(-1, tuples, self.w) != received[lo:hi, None]
            wrong[lo:hi] = np.count_nonzero(disagree & ~erased[lo:hi, None], axis=2)
        if noisy:
            return msg, 2 * wrong + n_erased[:, None] <= self.w - self.m
        return msg, wrong == 0

    def _locate_errors(self, received, erased, n_erased) -> np.ndarray:
        """Roots of each row's errata locator, as an (L, w) mask (stages 2a-2c)."""
        roots = np.zeros_like(erased)
        for row in range(len(received)):
            roots[row] = self._errata_roots(received[row], erased[row], int(n_erased[row]))
        return roots

    def _errata_roots(self, received, erased, f: int) -> np.ndarray:
        """Stages 2a-2c on one row: received (w,) int64, 0 where the (w,) mask
        erased is set, f erased symbols.  Returns the (w,) mask of the j whose
        b_j^-1 is a root of the row's errata locator."""
        field, radius = self.field, self.w - self.m
        exp, log, order = field.exp, field.log, field.q - 1
        translated = self.points ^ self.w
        log_points = log[translated].astype(np.int32)
        step = max(1, _ERRATA // self.w)
        # S_i = sum_j v_j r_j b_j^i for i < w - m, _ERRATA terms at a time;
        # erased symbols are 0.  As in GF2m, a product is exp of a sum of
        # logs, and the log of 0 sends it to the zero tail of exp.
        log_terms = log[field.mul(self._weights, received)][:, None]
        syndromes = np.empty(radius, dtype=exp.dtype)
        for lo in range(0, radius, step):
            hi = min(radius, lo + step)
            terms = exp.take(self._power_logs(log_points, lo, hi) + log_terms)
            syndromes[lo:hi] = np.bitwise_xor.reduce(terms, axis=0)
        log_syndromes = log[syndromes]
        # The erasure locator prod_{j erased} (1 + b_j x).  Locators have
        # degree <= length <= w - m.
        locator = np.zeros(radius + 1, dtype=np.int64)
        locator[0] = 1
        for t, root in enumerate(translated[erased]):
            locator[1 : t + 2] ^= field.mul(locator[: t + 1], root)
        # Berlekamp-Massey from step f (Berlekamp 1968; Massey 1969), on the
        # log tables: `length` is the linear complexity, and `previous` is
        # B(x) over its discrepancy, B the last locator before a length
        # change, which an update adds shifted by `gap`.  B starts as the
        # erasure locator.
        length, previous, gap = f, locator[: f + 1].copy(), 1
        for n in range(f, radius):
            window = log_syndromes[n - length : n + 1][::-1]  # S_n, ..., S_{n-length}
            delta = int(np.bitwise_xor.reduce(exp[log[locator[: length + 1]] + window]))
            if delta:
                update, at = exp[log[previous] + log[delta]], gap
                if 2 * length <= n + f:
                    previous = exp[log[locator[: length + 1]] + (order - log[delta])]
                    length, gap = n + 1 + f - length, 0
                locator[at : at + update.size] ^= update
            gap += 1
        # Chien search: the locator vanishes at b_j^-1 where the reversed
        # locator, b_j^length times it, vanishes at b_j.
        log_reversed = log[locator[length::-1]]
        values = np.zeros(self.w, dtype=exp.dtype)
        for lo in range(0, length + 1, step):
            hi = min(length + 1, lo + step)
            terms = exp.take(self._power_logs(log_points, lo, hi) + log_reversed[lo:hi])
            values ^= np.bitwise_xor.reduce(terms, axis=1)
        return values == 0

    def _power_logs(self, log_points, lo: int, hi: int) -> np.ndarray:
        """log b_j^i at [j, i - lo] for lo <= i < hi, from the (w,) int32 logs of
        the b_j.  int32 holds every product: logs and exponents are below 2^13."""
        log_powers = np.multiply.outer(log_points, np.arange(lo, hi, dtype=np.int32))
        log_powers %= self.field.q - 1
        return log_powers

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
        items, errors = self.decode_words(np.asarray(rw)[None], noisy)
        if errors[0] is not None:
            raise errors[0]
        return items[0]

