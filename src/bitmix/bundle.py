"""A design bundle pins everything the test design depends on.

Masking set + codebook shape + assignment seed fully determine both batches
for every item, so a persisted bundle can be rebuilt bit-identically later or
on another machine.  The bundle is the only persisted design format: JSON
with the params, the base64 string offsets and a sha256 over the canonical
payload; any edit (or a params/offsets mismatch) surfaces as
CorruptDesignFile.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .code import Codebook
from .errors import CorruptDesignFile, InvalidInput
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
_BUNDLE_VERSION = 1
# The nested masking payload keeps its own tag and version: they are part of
# the hashed bytes, so dropping them would stop saved designs from loading.
_SET_FORMAT = "bitmix-masking-set"
_SET_VERSION = 1


@dataclass
class DesignBundle:
    masking: MaskingSet
    assignment_seed: int

    def __post_init__(self):
        p = self.params
        self._codebook = Codebook(p.n, p.w, p.ell)

    @property
    def params(self) -> SchemeParams:
        return self.masking.params

    @property
    def codebook(self) -> Codebook:
        return self._codebook

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
    single input seed.
    """
    regime = REGIME_GENERAL if regime is None else regime
    params = derive_params(n, k, xi=xi, regime=regime)
    mask_seed = derive_seed(seed, 0xDE51)
    assign_seed = derive_seed(seed, 0xA551)
    if not verify:
        mset = construct_candidate(params, mask_seed)
    elif regime == REGIME_SMALLK:
        mset = build_smallk_set(params, mask_seed, max_attempts)
    else:
        mset = build_lcs(params, mask_seed, max_attempts)
    return DesignBundle(mset, assign_seed)


def _sha256(payload: dict) -> str:
    """Hex sha256 of the canonical (sorted-key, compact) JSON of payload."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _canonical_payload(mset: MaskingSet) -> dict:
    dtype = "<u2" if mset.params.segment_len <= 0xFFFF else "<u4"
    return {
        "format": _SET_FORMAT,
        "version": _SET_VERSION,
        "regime": mset.params.regime,
        "params": mset.params.to_json(),
        "seed": int(mset.seed),
        "status": mset.status,
        "offsets_dtype": dtype,
        "offsets": base64.b64encode(
            np.ascontiguousarray(mset.offsets, dtype=dtype).tobytes()
        ).decode("ascii"),
    }


def _masking_set_from_payload(payload, origin) -> MaskingSet:
    if not isinstance(payload, dict) or payload.get("format") != _SET_FORMAT:
        raise CorruptDesignFile(f"{origin}: no masking set in the design")
    if payload.get("version") != _SET_VERSION:
        raise CorruptDesignFile(f"{origin}: unsupported version {payload.get('version')!r}")
    dtype = payload.get("offsets_dtype", "<u2")
    if dtype not in ("<u2", "<u4"):
        raise CorruptDesignFile(f"{origin}: unsupported offsets dtype {dtype!r}")
    try:
        params = SchemeParams.from_json(payload["params"], regime=payload["regime"])
        raw = base64.b64decode(payload["offsets"].encode("ascii"), validate=True)
        offsets = np.frombuffer(raw, dtype=dtype).astype(np.int32)
        offsets = offsets.reshape(params.s_size, params.w)
        seed = checked_integer("seed", payload["seed"])
        return MaskingSet(offsets, params, seed, payload["status"])
    except Exception as exc:
        raise CorruptDesignFile(f"{origin}: inconsistent content ({exc})") from exc


def save_design(bundle: DesignBundle, path: str | os.PathLike) -> None:
    payload = {
        "format": _BUNDLE_FORMAT,
        "version": _BUNDLE_VERSION,
        "assignment_seed": int(bundle.assignment_seed),
        "codebook": {
            "w": bundle.codebook.w,
            "ell": bundle.codebook.ell,
            "m": bundle.codebook.m,
        },
        "masking": _canonical_payload(bundle.masking),
    }
    payload["sha256"] = _sha256(payload)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_design(path: str | os.PathLike) -> DesignBundle:
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CorruptDesignFile(f"cannot read design from {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise CorruptDesignFile(f"{path}: not a design file")
    if payload.get("version") != _BUNDLE_VERSION:
        raise CorruptDesignFile(f"{path}: unsupported version {payload.get('version')!r}")
    recorded = payload.pop("sha256", None)
    if recorded != _sha256(payload):
        raise CorruptDesignFile(f"{path}: content hash mismatch")
    mset = _masking_set_from_payload(payload.get("masking"), path)
    cb = payload.get("codebook")
    if not isinstance(cb, dict):
        raise CorruptDesignFile(f"{path}: no codebook object in the design")
    if (cb.get("w"), cb.get("ell")) != (mset.params.w, mset.params.ell):
        raise CorruptDesignFile(f"{path}: codebook shape disagrees with params")
    try:
        seed = checked_integer("assignment_seed", payload.get("assignment_seed"))
    except InvalidInput as exc:
        raise CorruptDesignFile(f"{path}: {exc}") from exc
    bundle = DesignBundle(mset, seed)
    if cb.get("m") != bundle.codebook.m:
        raise CorruptDesignFile(f"{path}: codebook message length disagrees with n")
    return bundle
