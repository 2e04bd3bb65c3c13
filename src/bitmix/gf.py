"""Arithmetic over GF(2^ell) via log/antilog tables.

Tables are built once per field from a primitive polynomial; construction
asserts that x generates the full multiplicative group, so a non-primitive
polynomial cannot slip through silently.  All operations accept scalars or
numpy arrays and are pure.

The log of 0 is a sentinel that lands every product with a zero factor in an
all-zero tail of the antilog table, so a product of two elements is one
gather, exp[log a + log b], with no zero masks.  The array kernels (batched
interpolation and solve) are built on that gather.  The decoder finds
messages with `interpolate`, which is closed-form Lagrange interpolation;
`solve`, a pivoting Gaussian elimination, is its reference in the tests.
`interpolate` gathers from the tables directly, with no call to `mul`;
`Codebook` re-encodes from a log table it keeps, and runs Berlekamp-Massey
on these tables one row at a time.
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
    """The field GF(2^ell), 2 <= ell <= 13, with read-only tables `exp` and `log`."""

    def __init__(self, ell: int):
        if ell not in PRIMITIVE_POLYS:
            raise InvalidInput(f"unsupported field degree {ell}")
        self.ell = ell
        self.q = 1 << ell
        poly = PRIMITIVE_POLYS[ell]
        order = self.q - 1

        # exp[0, 2*order) holds the cycle twice, so log a + log b needs no mod;
        # log[0] = 2*order sends every sum with a zero factor into the zero
        # tail exp[2*order, 4*order].  uint16 holds every element (ell <= 13)
        # and keeps the gathers small; results leave as int64.
        exp = np.zeros(4 * order + 1, dtype=np.uint16)
        log = np.empty(self.q, dtype=np.int64)
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= poly
        assert x == 1, f"polynomial {poly:#x} is not primitive for ell={ell}"
        exp[order : 2 * order] = exp[:order]
        log[0] = 2 * order
        exp.flags.writeable = log.flags.writeable = False
        self.exp, self.log = exp, log

    def mul(self, a, b):
        out = self.exp[self.log[np.asarray(a, dtype=np.int64)]
                       + self.log[np.asarray(b, dtype=np.int64)]]
        return out.astype(np.int64) if out.ndim else int(out)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in GF(2^ell)")
        out = self.exp[(self.q - 1) - self.log[a]]
        return out.astype(np.int64) if out.ndim else int(out)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def prod(self, a, axis: int = -1) -> np.ndarray:
        """Product of the elements of `a` along `axis`."""
        a = np.asarray(a, dtype=np.int64)
        out = self.exp[self.log[a].sum(axis=axis) % (self.q - 1)].astype(np.int64)
        return np.where((a == 0).any(axis=axis), 0, out)

    def vandermonde(self, points: np.ndarray, ncols: int) -> np.ndarray:
        """Matrix V with V[i, j] = points[i]**j."""
        points = np.asarray(points, dtype=np.int64)
        powers = np.arange(ncols)
        out = self.exp[self.log[points][:, None] * powers % (self.q - 1)].astype(np.int64)
        return np.where((points[:, None] == 0) & (powers > 0), 0, out)

    def interpolate(self, points: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Coefficients of the polynomials through (points, values), batched.

        `points` and `values` have shape (..., m); the result c has shape
        (..., m) with sum_j c[..., j] x^j = values[..., i] at x = points[..., i],
        the solution of the Vandermonde system vandermonde(points, m) c =
        values.  Lagrange in log form: c = sum_i values_i / d_i * N_i(x), with
        N_i = prod_{j != i} (x + x_j) and d_i = N_i(x_i).  The log d_i are one
        gather and sum of the logs of the point differences, the N_i take m - 1
        shift-and-multiply steps, and c is one gather and XOR-reduce.  Raises
        np.linalg.LinAlgError if a batch repeats a point (the system is
        singular).
        """
        points = np.asarray(points, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        exp, log = self.exp, self.log
        m, order = points.shape[-1], self.q - 1
        # others[..., i, :] lists the m - 1 points x_j, j != i.
        skip = np.arange(m - 1)
        others = points[..., skip + (skip >= np.arange(m)[:, None])]
        diffs = points[..., None] ^ others
        if np.any(diffs == 0):
            raise np.linalg.LinAlgError("repeated interpolation points over GF(2^ell)")
        log_d = log.take(diffs).sum(axis=-1)
        # log(values_i / d_i), or the zero sentinel when values_i is 0.
        log_w = np.where(values == 0, 2 * order, (log.take(values) - log_d) % order)
        # N_i highest degree first: multiplying by (x + a) adds a times the
        # coefficients one place up, one gather per step.
        log_x = log.take(others)
        numer = np.zeros(points.shape + (m,), dtype=exp.dtype)
        numer[..., 0] = 1
        for j in range(m - 1):
            numer[..., 1 : j + 2] ^= exp.take(log.take(numer[..., : j + 1]) + log_x[..., j : j + 1])
        terms = exp.take(log_w[..., None] + log.take(numer[..., ::-1]))
        return np.bitwise_xor.reduce(terms, axis=-2).astype(np.int64)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve A x = b by Gaussian elimination, batched over leading axes.

        `a` has shape (..., n, n) and `b` shape (..., n).  Raises
        np.linalg.LinAlgError if any system is singular (cannot happen for
        the Vandermonde systems used by the decoder, but checked anyway).
        """
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        shape, n = b.shape, a.shape[-1]
        a = a.reshape(-1, n, n)
        b = b.reshape(-1, n)
        rows = np.arange(a.shape[0])
        for col in range(n):
            piv = col + np.argmax(a[:, col:, col] != 0, axis=1)
            if np.any(a[rows, piv, col] == 0):
                raise np.linalg.LinAlgError("singular system over GF(2^ell)")
            top_a, top_b = a[:, col].copy(), b[:, col].copy()
            a[:, col], b[:, col] = a[rows, piv], b[rows, piv]
            a[rows, piv], b[rows, piv] = top_a, top_b
            pinv = self.inv(a[:, col, col])
            a[:, col] = self.mul(a[:, col], pinv[:, None])
            b[:, col] = self.mul(b[:, col], pinv)
            factor = a[:, :, col].copy()
            factor[:, col] = 0
            a ^= self.mul(factor[:, :, None], a[:, None, col])
            b ^= self.mul(factor, b[:, None, col])
        return b.reshape(shape)


def get_field(ell: int) -> GF2m:
    """Cached field instance (tables are immutable and shareable)."""
    if ell not in _FIELD_CACHE:
        _FIELD_CACHE[ell] = GF2m(ell)
    return _FIELD_CACHE[ell]
