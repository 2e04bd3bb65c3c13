"""A design bundle pins everything the test design depends on.

Masking set + codebook shape + assignment seed fully determine both batches
for every item, so a persisted bundle can be rebuilt bit-identically later or
on another machine.  The bundle is the only persisted design format: JSON
with the params, the base64 string offsets and a sha256 over the canonical
payload; any edit (or a params/offsets mismatch), a key the format does not
hold, or a count or seed that is not an integer in range surfaces as
CorruptDesignFile, its message led by the file's path.

The base64 offsets text is nearly the whole file (3.2 MB at (2^20, 20)), and
JSON escapes none of its characters.  So it goes into the hash and the file
as it is, between the JSON before and after it, which json.dumps lays out
from the payload with a stand-in text (see _json_pieces); a load checks it
while hashing and decodes it in one strict pass.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .code import Codebook
from .errors import BitmixError, CorruptDesignFile
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
# The keys each object of a design file may hold: the ones save_design
# writes (a file from before offsets_dtype was written lacks that one).
_BUNDLE_KEYS = frozenset({"format", "version", "assignment_seed", "codebook", "masking"})
_SET_KEYS = frozenset(
    {"format", "version", "regime", "params", "seed", "status", "offsets_dtype", "offsets"}
)
_CODEBOOK_KEYS = frozenset({"w", "ell", "m"})
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


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


def _json_pieces(payload: dict, indent: int | None = None) -> tuple[str, str, str]:
    """(head, offsets, tail): payload's sorted-key JSON, the masking offsets text unescaped.

    json.dumps renders payload (compact when indent is None) once with the
    offsets text "" and once with "A".  The two texts differ only inside
    that string, so their common prefix is the head and the rest of the ""
    text is the tail.  The pieces join to json.dumps's text of payload when
    the offsets text is base64, which _sha256 checks.
    """
    masking = payload.get("masking")
    if not isinstance(masking, dict) or not isinstance(masking.get("offsets"), str):
        raise CorruptDesignFile("no masking offsets text in the design")
    empty, one = (
        json.dumps({**payload, "masking": {**masking, "offsets": text}}, sort_keys=True,
                   indent=indent, separators=(",", ":") if indent is None else None)
        for text in ("", "A")
    )
    at = len(os.path.commonprefix([empty, one]))
    return empty[:at], masking["offsets"], empty[at:]


def _sha256(payload: dict) -> str:
    """Hex sha256 of the canonical (sorted-key, compact) JSON of payload.

    The hash is fed three pieces, the JSON before the masking offsets text,
    the text and the JSON after it, once the text is checked to be base64:
    the alphabet, then at most two '='.  Anything else, which JSON might
    escape, raises CorruptDesignFile.
    """
    head, offsets, tail = _json_pieces(payload)
    text = offsets.encode("ascii", "replace")  # non-ASCII becomes "?", refused below
    body = text.rstrip(b"=")
    if len(text) - len(body) > 2 or body.translate(None, _BASE64_ALPHABET):
        raise CorruptDesignFile("the masking offsets are not base64 text")
    digest = hashlib.sha256(head.encode("ascii"))
    digest.update(text)
    digest.update(tail.encode("ascii"))
    return digest.hexdigest()


def _seed(name: str, value) -> int:
    # Assignment reduces its seed mod 2^64, so a larger one would alias
    # another; derive_seed, which makes both seeds, never gives one.
    seed = checked_integer(name, value, low=0)
    if seed >= 1 << 64:
        raise CorruptDesignFile(f"{name} must be below {1 << 64}, got {seed}")
    return seed


def _check_keys(obj: dict, allowed: frozenset, what: str) -> None:
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise CorruptDesignFile(f"unknown keys {unknown} in the {what}")


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


def _masking_set_from_payload(payload) -> MaskingSet:
    if not isinstance(payload, dict) or payload.get("format") != _SET_FORMAT:
        raise CorruptDesignFile("no masking set in the design")
    if checked_integer("version", payload.get("version")) != _SET_VERSION:
        raise CorruptDesignFile(f"unsupported version {payload.get('version')!r}")
    _check_keys(payload, _SET_KEYS, "masking set")
    dtype = payload.get("offsets_dtype", "<u2")
    if dtype not in ("<u2", "<u4"):
        raise CorruptDesignFile(f"unsupported offsets dtype {dtype!r}")
    params = SchemeParams.from_json(payload["params"], regime=payload["regime"])
    # One strict pass, which also refuses padding in the wrong place.
    raw = base64.b64decode(payload["offsets"], validate=True)
    offsets = np.frombuffer(raw, dtype=dtype).astype(np.int32)
    offsets = offsets.reshape(params.s_size, params.w)
    return MaskingSet(offsets, params, _seed("seed", payload["seed"]), payload["status"])


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
    head, offsets, tail = _json_pieces(payload, indent=1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(head)
        fh.write(offsets)
        fh.write(tail + "\n")


def load_design(path: str | os.PathLike) -> DesignBundle:
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
        return _bundle_from_payload(payload)
    except (BitmixError, OSError, ValueError, KeyError, TypeError) as exc:
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
    return bundle
