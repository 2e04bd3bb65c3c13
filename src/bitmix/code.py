"""Index <-> codeword mapping with erasure and errors-and-erasures decoding.

The codebook is an evaluation-style MDS code over GF(2^ell): item index i in
[1, n] maps to the base-q digits of i-1 (little-endian, m digits), read as a
polynomial of degree < m and evaluated at the points 0..w-1.  Minimum distance
is w - m + 1, so any f <= w - m erasures are correctable, and any (e, f) with
2e + f <= w - m is correctable by the errors-and-erasures decoder.

Decoding never trusts its own interpolation: the decoded message is re-encoded
and checked against every non-erased symbol, and a decoded index outside
[1, n] is rejected, so upstream corruption surfaces as an explicit error
(InconsistentWord / DecodingFailure) rather than a silently wrong item.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DecodingFailure,
    InconsistentWord,
    IndexOutOfRange,
    InvalidInput,
    TooManyErasures,
)
from .gf import GF2m, get_field

ERASURE = -1


def _as_symbols(rw, w: int, q: int) -> np.ndarray:
    symbols = np.asarray(rw, dtype=np.int64)
    if symbols.shape != (w,):
        raise InvalidInput(f"received word must have length {w}, got {symbols.shape}")
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
        self.m = max(1, math.ceil(math.log2(n) / ell))
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

    def _index_of(self, msg: np.ndarray) -> int:
        v = 0
        for d in range(self.m - 1, -1, -1):
            v = v * self.q + int(msg[d])
        return v + 1

    def encode_index(self, i: int) -> np.ndarray:
        """Codeword of item i (1-based), as w symbols in [0, q)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"item index {i} outside [1, {self.n}]")
        return self._eval(self._digits(i))

    def _eval(self, msg: np.ndarray) -> np.ndarray:
        cw = np.zeros(self.w, dtype=np.int64)
        for d in range(self.m):
            if msg[d]:
                cw ^= self.field.mul(self._vand[:, d], msg[d])
        return cw

    def decode_erasures(self, rw) -> int:
        """Recover the item index from a word with erasures but no errors.

        Raises TooManyErasures when more than w - m symbols are erased and
        InconsistentWord when the surviving symbols match no codeword of an
        index in [1, n].
        """
        symbols = _as_symbols(rw, self.w, self.q)
        clean = np.nonzero(symbols != ERASURE)[0]
        f = self.w - clean.size
        if f > self.w - self.m:
            raise TooManyErasures(f"{f} erasures exceed capability {self.w - self.m}")
        sub = clean[: self.m]
        msg = self.field.solve(self._vand[sub], symbols[sub])
        if np.any(self._eval(msg)[clean] != symbols[clean]):
            raise InconsistentWord("surviving symbols match no codeword")
        idx = self._index_of(msg)
        if idx > self.n:
            raise InconsistentWord(f"decoded index {idx} exceeds n={self.n}")
        return idx

    def decode_errors_and_erasures(self, rw) -> int:
        """Recover the item index from a word with f erasures and e errors.

        Succeeds whenever 2e + f <= w - m (bounded-distance decoding); raises
        DecodingFailure when no codeword lies within that radius.  The decode
        is algebraic (extended-Euclid on the erasure-punctured word), followed
        by an explicit radius check against the re-encoded candidate.
        """
        symbols = _as_symbols(rw, self.w, self.q)
        clean = np.nonzero(symbols != ERASURE)[0]
        n_clean = clean.size
        if n_clean < self.m:
            raise DecodingFailure("too few surviving symbols to identify any codeword")
        xs = self.points[clean]
        ys = symbols[clean]

        g1 = _interpolate(self.field, xs, ys)
        if _deg(g1) < self.m:
            msg_poly = g1
        else:
            g0 = _roots_poly(self.field, xs)
            msg_poly = _gao_reduce(self.field, g0, g1, n_clean, self.m)
            if msg_poly is None:
                raise DecodingFailure("no codeword within the errors-and-erasures radius")

        msg = np.zeros(self.m, dtype=np.int64)
        msg[: len(msg_poly)] = msg_poly
        e = int(np.count_nonzero(self._eval(msg)[clean] != ys))
        f = self.w - n_clean
        if 2 * e + f > self.w - self.m:
            raise DecodingFailure(
                f"nearest candidate needs 2e+f = {2 * e + f} > radius {self.w - self.m}"
            )
        idx = self._index_of(msg)
        if idx > self.n:
            raise DecodingFailure(f"decoded index {idx} exceeds n={self.n}")
        return idx


def symbol_pack(symbols, ell: int) -> np.ndarray:
    """Expand symbols to bits, little-endian within each ell-bit group.

    A scalar becomes ell bits; a length-t vector becomes t*ell bits with
    symbol j occupying bits [j*ell, (j+1)*ell).
    """
    arr = np.atleast_1d(np.asarray(symbols, dtype=np.int64))
    if arr.min(initial=0) < 0 or arr.max(initial=0) >= (1 << ell):
        raise InvalidInput("symbol out of range for the given ell")
    bits = (arr[:, None] >> np.arange(ell)) & 1
    return bits.reshape(-1).astype(np.uint8)


def symbol_unpack(bits, ell: int) -> np.ndarray:
    """Inverse of symbol_pack: group bits in ell-long little-endian runs."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % ell:
        raise InvalidInput(f"bit count {bits.size} is not a multiple of ell={ell}")
    groups = bits.reshape(-1, ell)
    return groups @ (1 << np.arange(ell, dtype=np.int64))


# ---------------------------------------------------------------------------
# Polynomial helpers (coefficient arrays, lowest power first).


def _trim(p: np.ndarray) -> np.ndarray:
    nz = np.nonzero(p)[0]
    return p[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=np.int64)


def _deg(p: np.ndarray) -> int:
    nz = np.nonzero(p)[0]
    return int(nz[-1]) if nz.size else -1


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] ^= b
    return _trim(out)


def _poly_mul(field: GF2m, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if _deg(a) < 0 or _deg(b) < 0:
        return np.zeros(1, dtype=np.int64)
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i, coeff in enumerate(a):
        if coeff:
            out[i : i + len(b)] ^= field.mul(b, int(coeff))
    return _trim(out)


def _poly_divmod(field: GF2m, a: np.ndarray, b: np.ndarray):
    db = _deg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = a.copy()
    da = _deg(r)
    if da < db:
        return np.zeros(1, dtype=np.int64), _trim(r)
    q = np.zeros(da - db + 1, dtype=np.int64)
    lead_inv = field.inv(int(b[db]))
    for i in range(da - db, -1, -1):
        c = field.mul(int(r[i + db]), lead_inv)
        if c:
            q[i] = c
            r[i : i + db + 1] ^= field.mul(b[: db + 1], c)
    return q, _trim(r)


def _roots_poly(field: GF2m, xs: np.ndarray) -> np.ndarray:
    """prod over xs of (X - x)."""
    g = np.ones(1, dtype=np.int64)
    for x in xs:
        nxt = np.zeros(len(g) + 1, dtype=np.int64)
        nxt[1:] = g
        nxt[:-1] ^= field.mul(g, int(x))
        g = nxt
    return g


def _interpolate(field: GF2m, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Newton interpolation through distinct points (subtraction is XOR)."""
    npts = len(xs)
    dd = ys.astype(np.int64).copy()
    coeffs = np.empty(npts, dtype=np.int64)
    coeffs[0] = dd[0]
    for j in range(1, npts):
        dd[j:] = field.div(dd[j:] ^ dd[j - 1 : npts - 1], xs[j:] ^ xs[: npts - j])
        coeffs[j] = dd[j]
    poly = np.array([coeffs[npts - 1]], dtype=np.int64)
    for j in range(npts - 2, -1, -1):
        nxt = np.zeros(len(poly) + 1, dtype=np.int64)
        nxt[1:] = poly
        nxt[:-1] ^= field.mul(poly, int(xs[j]))
        nxt[0] ^= coeffs[j]
        poly = nxt
    return _trim(poly)


def _gao_reduce(field: GF2m, g0: np.ndarray, g1: np.ndarray, n_clean: int, m: int):
    """Partial extended Euclid on (g0, g1); returns the message polynomial or
    None when the quotient step fails (received word too corrupted)."""
    stop = (n_clean + m) / 2.0
    r0, r1 = g0, g1
    v0 = np.zeros(1, dtype=np.int64)
    v1 = np.ones(1, dtype=np.int64)
    while _deg(r1) >= stop:
        q, rem = _poly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        v0, v1 = v1, _poly_add(v0, _poly_mul(field, q, v1))
    # r1 may legitimately be the zero polynomial (zero message with errors);
    # only a vanishing multiplier is fatal.
    if _deg(v1) < 0:
        return None
    f1, rem = _poly_divmod(field, r1, v1)
    if _deg(rem) >= 0 or _deg(f1) >= m:
        return None
    return f1
