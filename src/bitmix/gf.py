"""Arithmetic over GF(2^ell) via log/antilog tables.

Tables are built once per field from a primitive polynomial; construction
asserts that x generates the full multiplicative group, so a non-primitive
polynomial cannot slip through silently.  All operations accept scalars or
numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

# Primitive polynomials over GF(2), one per degree (value includes the
# leading term, e.g. 0b111 = x^2 + x + 1 for degree 2).
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
}

_FIELD_CACHE: dict[int, "GF2m"] = {}


class GF2m:
    """The field GF(2^ell), 2 <= ell <= 13."""

    def __init__(self, ell: int):
        if ell not in PRIMITIVE_POLYS:
            raise InvalidInput(f"unsupported field degree {ell}")
        self.ell = ell
        self.q = 1 << ell
        poly = PRIMITIVE_POLYS[ell]

        exp = np.zeros(2 * (self.q - 1), dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        x = 1
        for i in range(self.q - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= poly
        assert x == 1, f"polynomial {poly:#x} is not primitive for ell={ell}"
        exp[self.q - 1:] = exp[: self.q - 1]  # doubled to skip mod (q-1)
        self._exp = exp
        self._log = log

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[self._log[a] + self._log[b]]
        zero = (a == 0) | (b == 0)
        if zero.ndim == 0:
            return 0 if zero else int(out)
        return np.where(zero, 0, out)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in GF(2^ell)")
        out = self._exp[(self.q - 1) - self._log[a]]
        return out if out.ndim else int(out)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def vandermonde(self, points: np.ndarray, ncols: int) -> np.ndarray:
        """Matrix V with V[i, j] = points[i]**j."""
        points = np.asarray(points, dtype=np.int64)
        out = np.empty((points.size, ncols), dtype=np.int64)
        col = np.ones(points.size, dtype=np.int64)
        for j in range(ncols):
            out[:, j] = col
            col = self.mul(col, points)
        return out

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve the square system A x = b by Gaussian elimination.

        Raises np.linalg.LinAlgError if A is singular (cannot happen for the
        Vandermonde systems used by the decoder, but checked anyway).
        """
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        n = a.shape[0]
        for col in range(n):
            piv = col + int(np.argmax(a[col:, col] != 0))
            if a[piv, col] == 0:
                raise np.linalg.LinAlgError("singular system over GF(2^ell)")
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                b[[col, piv]] = b[[piv, col]]
            pinv = self.inv(a[col, col])
            a[col] = self.mul(a[col], pinv)
            b[col] = self.mul(b[col], pinv)
            rows = [r for r in range(n) if r != col and a[r, col] != 0]
            for r in rows:
                f = a[r, col]
                a[r] ^= self.mul(a[col], f)
                b[r] ^= self.mul(b[col], f)
        return b


def get_field(ell: int) -> GF2m:
    """Cached field instance (tables are immutable and shareable)."""
    if ell not in _FIELD_CACHE:
        _FIELD_CACHE[ell] = GF2m(ell)
    return _FIELD_CACHE[ell]
