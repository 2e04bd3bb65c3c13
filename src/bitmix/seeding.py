"""Deterministic seed derivation.

Child seeds are produced by chaining the splitmix64 finalizer over the parent
seed and the context parts (attempt number, cell index, trial index, ...).
The scheme is order-sensitive and collision-resistant in practice, giving
parallel trials independent, reproducible streams regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4B9C15


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root: int, *parts: int) -> int:
    """A 64-bit child seed from a root seed and integer context parts."""
    acc = mix64(int(root) & _MASK64)
    for p in parts:
        acc = mix64((acc ^ (((int(p) + 1) * GOLDEN64) & _MASK64)) & _MASK64)
    return acc


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z

