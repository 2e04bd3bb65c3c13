"""Parameter derivation for the bit-mixing group-testing scheme.

Everything downstream (masking sets, the index code, test counts) is a pure
function of (n, k, xi, regime).  Two regimes exist:

* ``general`` — the main parameter rule.  delta = 1/(k ln k),
  w = max{ceil((3/ell) log2 n), ceil(70 ln(k/delta)), 2*ceil(log2 n / ell)},
  |S| = ceil(2k/delta).  Because the code alphabet must satisfy
  2^ell >= w + 1 while w itself depends on ell, the pair (w, ell) is resolved
  by fixed-point iteration starting from ell = 2.

* ``smallk`` — the very-sparse rule for constant k (enforced k <= 8):
  w = |S| = ceil(ln n), t1 = 4 k w.

Batch sizes are always t1 = c1*k*w and t2 = ell*t1.  In the noisy setting
(xi > 0) the segment multiplier c1 is grown from 4 until
xi + 2/c1 + 0.05 < (1/2) * (1 - m/w), which keeps the expected batch-1 score
of a non-defective string safely below the decision threshold while leaving
the code enough errors-and-erasures slack.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .errors import InvalidInput

REGIME_GENERAL = "general"
REGIME_SMALLK = "smallk"
REGIMES = (REGIME_GENERAL, REGIME_SMALLK)

_SMALLK_MAX_K = 8
_NOISY_MARGIN = 0.05
_MAX_C1 = 64


def checked_integer(name: str, value, low=None) -> int:
    """value as an int; bools, floats and strings raise InvalidInput."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if low is None or value >= low:
            return int(value)
    raise InvalidInput(f"{name} must be an integer{'' if low is None else f' >= {low}'}, "
                       f"got {value!r}")


def checked_array(name: str, values, ndim: int, bound: int, dtype) -> np.ndarray:
    """values as an ndim-D dtype array, checked before the cast to hold integers
    (or bools) in [0, bound): no float is truncated and no value wraps."""
    arr = np.asarray(values)
    if arr.ndim != ndim or (arr.size and arr.dtype.kind not in "biu"):
        raise InvalidInput(f"{name} must be a {ndim}-D array of integers, "
                           f"got {arr.dtype} of shape {arr.shape}")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= bound):
        raise InvalidInput(f"{name} must hold values in [0, {bound})")
    return arr.astype(dtype, copy=False)


def checked_real(name: str, value) -> float:
    """value as a float; bools and strings raise InvalidInput."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise InvalidInput(f"{name} must be a number, got {value!r}")


def from_json_object(cls, obj, what: str, **given):
    """cls(**obj, **given), where obj is a JSON object keyed by cls's fields.

    The fields without a default must be present, and a key that names no
    field (or one passed in given) raises InvalidInput; cls.__post_init__
    checks the values.
    """
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    required = [f.name for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    need = f"{', '.join(required[:-1])} and {required[-1]}" if len(required) > 1 else required[0]
    if not isinstance(obj, dict):
        raise InvalidInput(f"{what} needs {need}, got {obj!r}")
    missing = [name for name in required if name not in obj]
    if missing:
        raise InvalidInput(f"{what} needs {need}, missing {missing}")
    unknown = sorted(obj.keys() - {f.name for f in fields})
    if unknown:
        raise InvalidInput(f"{what} has unknown keys {unknown}")
    return cls(**obj, **given)


@dataclasses.dataclass(frozen=True)
class SchemeParams:
    """All derived scalars for one (n, k, xi, regime) cell."""

    n: int
    k: int
    delta: float
    w: int
    ell: int
    c1: int
    s_size: int
    t1: int
    t2: int
    xi: float
    regime: str = REGIME_GENERAL

    def __post_init__(self):
        # The annotations are strings here (from __future__ import annotations).
        for f in dataclasses.fields(self):
            if f.type == "int":
                object.__setattr__(self, f.name, checked_integer(f.name, getattr(self, f.name)))
            elif f.type == "float":
                object.__setattr__(self, f.name, checked_real(f.name, getattr(self, f.name)))
        if self.regime not in REGIMES:
            raise InvalidInput(f"unknown regime {self.regime!r}")
        if not (1 <= self.k <= self.n):
            raise InvalidInput(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (0.0 <= self.xi < 0.5):
            raise InvalidInput(f"xi must be in [0, 1/2), got {self.xi}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidInput(f"delta must be in (0, 1), got {self.delta}")
        if self.w < 1 or self.ell < 2 or self.s_size < 1:
            raise InvalidInput("w >= 1, ell >= 2, s_size >= 1 required")
        if self.c1 < 4 or self.c1 > _MAX_C1:
            raise InvalidInput(f"c1 must be in [4, {_MAX_C1}], got {self.c1}")
        if self.t1 != self.c1 * self.k * self.w:
            raise InvalidInput("t1 must equal c1*k*w")
        if self.t2 != self.ell * self.t1:
            raise InvalidInput("t2 must equal ell*t1")
        if (1 << self.ell) < self.w + 1:
            raise InvalidInput("alphabet too small: need 2^ell >= w + 1")
        if self.m > self.w:
            raise InvalidInput("message length exceeds block length")

    @property
    def segment_len(self) -> int:
        """Length of one masking-string segment (c1 * k bits)."""
        return self.c1 * self.k

    @property
    def m(self) -> int:
        """Code message length in symbols (see message_length)."""
        return message_length(self.n, self.ell)

    @property
    def q(self) -> int:
        """Code alphabet size 2^ell."""
        return 1 << self.ell

    @property
    def t_total(self) -> int:
        return self.t1 + self.t2

    def to_json(self) -> dict:
        """The fields but regime, which the design and results files keep apart.

        The field names are a compatibility contract; do not rename.
        """
        obj = dataclasses.asdict(self)
        del obj["regime"]
        return obj

    @classmethod
    def from_json(cls, obj: dict, regime: str = REGIME_GENERAL) -> "SchemeParams":
        return from_json_object(cls, obj, "a params object", regime=regime)


def message_length(n: int, ell: int) -> int:
    """The fewest ell-bit symbols that number n items: ceil(log2 n / ell), at least 1.

    Exact in integers: in floats log2(2^b + 1) rounds to b from b = 49 on, one
    symbol short when ell divides b, so two items would share a codeword.
    n may be a numpy integer, which has no bit_length.
    """
    return max(1, math.ceil((int(n) - 1).bit_length() / ell))


def _log2_int(n: int) -> float:
    # log2 n for the sizing formulas (message_length counts digits exactly);
    # avoids float conversion overflow for n >= 2^1024.
    if n < (1 << 53):
        return math.log2(n)
    hi = n.bit_length() - 53
    return hi + math.log2(n >> hi)


def _w_for_ell(n: int, k: int, delta: float, ell: int) -> int:
    log2n = _log2_int(n)
    m = message_length(n, ell)
    w_code = math.ceil(3.0 * log2n / ell)
    w_conc = math.ceil(70.0 * math.log(k / delta))
    return max(w_code, w_conc, 2 * m, 1)


def derive_params(
    n: int,
    k: int,
    xi: float = 0.0,
    regime: str = REGIME_GENERAL,
) -> SchemeParams:
    """Derive a self-consistent SchemeParams from the primitive inputs.

    Raises InvalidInput when n or k is not an integer (bools included), xi is
    not a number, k > n, xi lies outside [0, 1/2), k=1 is requested
    in the general regime (delta is undefined there; use smallk), k > 8 is
    requested in the smallk regime, or no c1 <= 64 meets the noisy margin.
    """
    n, k = checked_integer("n", n), checked_integer("k", k)
    xi = checked_real("xi", xi)
    if n < 1 or k < 1 or k > n:
        raise InvalidInput(f"need 1 <= k <= n, got n={n}, k={k}")
    if not (0.0 <= xi < 0.5):
        raise InvalidInput(f"xi must be in [0, 1/2), got {xi}")
    if regime not in REGIMES:
        raise InvalidInput(f"unknown regime {regime!r}; expected one of {REGIMES}")

    if regime == REGIME_SMALLK:
        if k > _SMALLK_MAX_K:
            raise InvalidInput(f"smallk regime supports k <= {_SMALLK_MAX_K}, got {k}")
        w = max(1, math.ceil(math.log(n)))
        s_size = max(1, math.ceil(math.log(n)))
        # The pairwise-collision budget floor(w / 2k) must be meaningful for a
        # set of more than one string, but the degenerate n=2 cell (w=1) is
        # allowed: it has a single string and nothing to collide with.
        delta = min(0.5, 2.0 * k / s_size) if s_size > 1 else 0.5
    else:
        if k == 1:
            raise InvalidInput(
                "general regime requires k >= 2 (delta = 1/(k ln k) is undefined "
                "at k = 1); use regime='smallk' for k = 1"
            )
        delta = 1.0 / (k * math.log(k))
        s_size = math.ceil(2.0 * k / delta)

    # Resolve (w, ell): smallest ell >= 2 with 2^ell >= w(ell) + 1.  w(ell) is
    # non-increasing in ell while 2^ell grows, so the loop terminates.
    ell = 2
    while True:
        if regime == REGIME_SMALLK:
            w = max(1, math.ceil(math.log(n)))
        else:
            w = _w_for_ell(n, k, delta, ell)
        if (1 << ell) >= w + 1:
            break
        ell += 1

    c1 = 4
    if xi > 0.0:
        rate = message_length(n, ell) / w
        c1 = None
        for cand in range(4, _MAX_C1 + 1):
            if xi + 2.0 / cand + _NOISY_MARGIN < 0.5 * (1.0 - rate):
                c1 = cand
                break
        if c1 is None:
            raise InvalidInput(
                f"no c1 <= {_MAX_C1} satisfies the noisy margin at xi={xi}; "
                "xi is too close to 1/2 for this code rate"
            )

    t1 = c1 * k * w
    return SchemeParams(
        n=n, k=k, delta=delta, w=w, ell=ell, c1=c1,
        s_size=s_size, t1=t1, t2=ell * t1, xi=xi, regime=regime,
    )


def total_test_bound(params: SchemeParams) -> float:
    """Scaling target for the total test count in the general regime:
    12 k * max{((ell+1)/ell) log2 n, 50 (ell+1) ln k}."""
    ell = params.ell
    return 12.0 * params.k * max(
        (ell + 1) / ell * _log2_int(params.n),
        50.0 * (ell + 1) * math.log(params.k),
    )
