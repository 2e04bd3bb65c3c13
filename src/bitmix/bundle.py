"""A design bundle pins everything the test design depends on.

Masking set + codebook shape + assignment seed fully determine both batches
for every item, and the masking set is construct_candidate(params, seed), so
a design is defined by its params and its two seeds.  The bundle is the only
persisted design format: JSON with the params, both seeds, the set's status,
a sha256 of its offsets table (offsets_sha256) and a sha256 over the
canonical payload.  A load rebuilds the set from its seed and checks the
rebuilt table against offsets_sha256, which also catches a numpy whose
Generator draws another stream.  save_design writes only sets whose offsets
are their seed's.  A bundle records the seed, params and offsets_sha256 of
its set as build_design drew it or load_design rebuilt it, so saving a set
that still matches that record costs the digest that the file holds
anyway; any other set is redrawn from its seed and compared.  Any edit, a
key the format does not hold, or a count or seed that is not an integer in
range surfaces as CorruptDesignFile, its message led by the file's path.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .code import Codebook
from .errors import BitmixError, CorruptDesignFile, InvalidInput
from .masking import (
    MaskingSet,
    build_lcs,
    build_smallk_set,
    construct_candidate,
)
from .params import (
    REGIME_GENERAL,
    REGIME_SMALLK,
    SchemeParams,
    checked_integer,
    derive_params,
)
from .scheme import Assignment
from .seeding import derive_seed

_BUNDLE_FORMAT = "bitmix-design"
_BUNDLE_VERSION = 2
_SET_FORMAT = "bitmix-masking-set"
_SET_VERSION = 2
# The keys each object of a design file may hold: the ones save_design writes.
_BUNDLE_KEYS = frozenset({"format", "version", "assignment_seed", "codebook", "masking"})
_SET_KEYS = frozenset({"format", "version", "regime", "params", "seed", "status", "offsets_sha256"})
_CODEBOOK_KEYS = frozenset({"w", "ell", "m"})


@dataclass
class DesignBundle:
    masking: MaskingSet
    assignment_seed: int
    # (masking seed, params, offsets_sha256) of the set as build_design drew
    # it or load_design rebuilt it: save_design need not redraw a set that
    # still matches it.
    _drawn: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.params
        self._codebook = Codebook(p.n, p.w, p.ell)

    @property
    def params(self) -> SchemeParams:
        return self.masking.params

    @property
    def codebook(self) -> Codebook:
        """The codebook of the set's params, rebuilt when `masking` is replaced
        by a set of other params."""
        p, cb = self.params, self._codebook
        if (cb.n, cb.w, cb.ell) != (p.n, p.w, p.ell):
            cb = self._codebook = Codebook(p.n, p.w, p.ell)
        return cb

    @property
    def assignment(self) -> Assignment:
        return Assignment(self.assignment_seed, self.params.s_size)


def build_design(
    n: int,
    k: int,
    xi: float = 0.0,
    regime: str | None = None,
    seed: int = 0,
    verify: bool = True,
    max_attempts: int | None = None,
) -> DesignBundle:
    """Derive params and construct a design for one (n, k, xi) cell.

    verify=True runs the regime's certificate (collision conditions for
    general, the pairwise bound for smallk) and may raise ConstructionFailed;
    verify=False returns the plain random construction with status
    "unverified".  The masking and assignment seeds are both derived from the
    single input seed.  Raises InvalidInput unless seed is an integer and
    max_attempts is None or an integer >= 1.
    """
    regime = REGIME_GENERAL if regime is None else regime
    seed = checked_integer("seed", seed)
    if max_attempts is not None:
        max_attempts = checked_integer("max_attempts", max_attempts, low=1)
    params = derive_params(n, k, xi=xi, regime=regime)
    mask_seed = derive_seed(seed, 0xDE51)
    assign_seed = derive_seed(seed, 0xA551)
    if not verify:
        mset = construct_candidate(params, mask_seed)
    elif regime == REGIME_SMALLK:
        mset = build_smallk_set(params, mask_seed, max_attempts)
    else:
        mset = build_lcs(params, mask_seed, max_attempts)
    bundle = DesignBundle(mset, assign_seed)
    bundle._drawn = (mset.seed, mset.params, _offsets_sha256(mset.offsets))
    return bundle


def _sha256(payload: dict) -> str:
    """Hex sha256 of the canonical (sorted-key, compact) JSON of payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _offsets_sha256(offsets: np.ndarray) -> str:
    """Hex sha256 of the table's bytes, row by row, each offset little-endian
    in the table's own type (the narrowest unsigned one that holds c1*k - 1)."""
    return hashlib.sha256(
        np.ascontiguousarray(offsets, dtype=offsets.dtype.newbyteorder("<"))
    ).hexdigest()


def _seed(name: str, value) -> int:
    # Assignment reduces its seed mod 2^64, so a larger one would alias
    # another; derive_seed, which makes both seeds, never gives one.
    seed = checked_integer(name, value, low=0)
    if seed >= 1 << 64:
        raise InvalidInput(f"{name} must be below {1 << 64}, got {seed}")
    return seed


def _check_keys(obj: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise CorruptDesignFile(f"unknown keys {unknown} in the {what}")


def _canonical_payload(mset: MaskingSet, drawn: tuple | None) -> dict:
    seed = _seed("masking seed", mset.seed)
    digest = _offsets_sha256(mset.offsets)
    # A set that matches the record of its draw is its seed's; any other is
    # redrawn and compared.
    if drawn != (seed, mset.params, digest) and not np.array_equal(
        mset.offsets, construct_candidate(mset.params, seed).offsets
    ):
        raise InvalidInput(
            f"the masking offsets are not those construct_candidate draws from seed {seed}, "
            "so a design file, which holds only the seed, cannot keep them"
        )
    return {
        "format": _SET_FORMAT,
        "version": _SET_VERSION,
        "regime": mset.params.regime,
        "params": mset.params.to_json(),
        "seed": seed,
        "status": mset.status,
        "offsets_sha256": digest,
    }


def _masking_set_from_payload(payload) -> MaskingSet:
    if not isinstance(payload, dict) or payload.get("format") != _SET_FORMAT:
        raise CorruptDesignFile("no masking set in the design")
    if checked_integer("version", payload.get("version")) != _SET_VERSION:
        raise CorruptDesignFile(f"unsupported version {payload.get('version')!r}")
    _check_keys(payload, _SET_KEYS, "masking set")
    params = SchemeParams.from_json(payload["params"], regime=payload["regime"])
    seed = _seed("seed", payload["seed"])
    mset = construct_candidate(params, seed)
    if _offsets_sha256(mset.offsets) != payload["offsets_sha256"]:
        raise CorruptDesignFile(
            f"the offsets rebuilt from seed {seed} do not match the file's offsets_sha256"
        )
    return MaskingSet(mset.offsets, params, seed, payload["status"])


def save_design(bundle: DesignBundle, path: str | os.PathLike) -> None:
    """Write bundle as a design file; InvalidInput when its offsets are not its seed's.

    A set that matches the bundle's record of its draw is written without a
    redraw; any other set is redrawn from its seed and compared first.
    """
    payload = {
        "format": _BUNDLE_FORMAT,
        "version": _BUNDLE_VERSION,
        "assignment_seed": int(bundle.assignment_seed),
        "codebook": {
            "w": bundle.codebook.w,
            "ell": bundle.codebook.ell,
            "m": bundle.codebook.m,
        },
        "masking": _canonical_payload(bundle.masking, bundle._drawn),
    }
    payload["sha256"] = _sha256(payload)
    with open(path, "wb") as fh:
        fh.write((json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("ascii"))


def load_design(path: str | os.PathLike) -> DesignBundle:
    # MemoryError: the params name a set too large to rebuild here.
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
        return _bundle_from_payload(payload)
    except (BitmixError, OSError, ValueError, KeyError, TypeError, MemoryError) as exc:
        raise CorruptDesignFile(f"{path}: {exc}") from exc


def _bundle_from_payload(payload) -> DesignBundle:
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise CorruptDesignFile("not a design file")
    if checked_integer("version", payload.get("version")) != _BUNDLE_VERSION:
        raise CorruptDesignFile(f"unsupported version {payload.get('version')!r}")
    if payload.pop("sha256", None) != _sha256(payload):
        raise CorruptDesignFile("content hash mismatch")
    _check_keys(payload, _BUNDLE_KEYS, "design")
    mset = _masking_set_from_payload(payload["masking"])
    cb = payload.get("codebook")
    if not isinstance(cb, dict):
        raise CorruptDesignFile("no codebook object in the design")
    _check_keys(cb, _CODEBOOK_KEYS, "codebook")
    w, ell, m = (checked_integer(f"codebook {key}", cb.get(key)) for key in ("w", "ell", "m"))
    if (w, ell) != (mset.params.w, mset.params.ell):
        raise CorruptDesignFile("codebook shape disagrees with params")
    bundle = DesignBundle(mset, _seed("assignment_seed", payload.get("assignment_seed")))
    if m != bundle.codebook.m:
        raise CorruptDesignFile("codebook message length disagrees with n")
    # The rebuilt table was checked against this digest.
    bundle._drawn = (mset.seed, mset.params, payload["masking"]["offsets_sha256"])
    return bundle
