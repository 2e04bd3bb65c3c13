"""A design bundle pins everything the test design depends on.

Masking set + codebook shape + assignment seed fully determine both batches
for every item, so a persisted bundle can be rebuilt bit-identically later or
on another machine.  The bundle is the only persisted design format: JSON
with the params, the base64 string offsets and a sha256 over the canonical
payload; any edit (or a params/offsets mismatch), a key the format does not
hold, or a count or seed that is not an integer in range surfaces as
CorruptDesignFile.

The base64 offsets text is nearly the whole file (3.2 MB at (2^20, 20)), and
JSON escapes none of its characters.  So it goes into the hash and the file
as it is, between the JSON before and after it, and json.dumps never walks
it; a load checks it while hashing and decodes it in one strict pass.
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


def _json_around(obj: dict, key: str, indent: int | None, level: int) -> tuple[str, str]:
    """(head, tail) with head + json(obj[key]) + tail the sorted-key JSON of obj.

    The JSON is json.dumps's with sort_keys and indent, and with the compact
    separators when indent is None, for obj nested level deep.
    """
    key_sep = ":" if indent is None else ": "
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    close = "" if indent is None else "\n" + " " * (indent * level)

    def item(k):
        # JSON strings hold no raw newline, so every "\n" starts a line to indent.
        text = json.dumps(obj[k], sort_keys=True, indent=indent, separators=(",", key_sep))
        return json.dumps(k) + key_sep + text.replace("\n", pad)

    keys = sorted(obj)
    at = keys.index(key)
    head = "{" + pad + "".join(item(k) + "," + pad for k in keys[:at]) + json.dumps(key) + key_sep
    tail = "".join("," + pad + item(k) for k in keys[at + 1:]) + close + "}"
    return head, tail


def _json_pieces(payload: dict, indent: int | None = None) -> tuple[str, str, str]:
    """(head, offsets, tail): payload's sorted-key JSON, the masking offsets text unescaped.

    They join to json.dumps's text (compact when indent is None) when the
    offsets text is base64, which _sha256 checks.
    """
    masking = payload.get("masking")
    if not isinstance(masking, dict) or not isinstance(masking.get("offsets"), str):
        raise CorruptDesignFile("no masking offsets text in the design")
    head, tail = _json_around(payload, "masking", indent, 0)
    inner_head, inner_tail = _json_around(masking, "offsets", indent, 1)
    return head + inner_head + '"', masking["offsets"], '"' + inner_tail + tail


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


def _integer(name: str, value, origin, low=None, high=None) -> int:
    """value as an int in [low, high), else CorruptDesignFile naming it."""
    try:
        value = checked_integer(name, value, low)
    except InvalidInput as exc:
        raise CorruptDesignFile(f"{origin}: {exc}") from exc
    if high is not None and value >= high:
        raise CorruptDesignFile(f"{origin}: {name} must be below {high}, got {value}")
    return value


def _check_keys(obj: dict, allowed: frozenset, what: str, origin) -> None:
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise CorruptDesignFile(f"{origin}: unknown keys {unknown} in the {what}")


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
    if _integer("version", payload.get("version"), origin) != _SET_VERSION:
        raise CorruptDesignFile(f"{origin}: unsupported version {payload.get('version')!r}")
    _check_keys(payload, _SET_KEYS, "masking set", origin)
    dtype = payload.get("offsets_dtype", "<u2")
    if dtype not in ("<u2", "<u4"):
        raise CorruptDesignFile(f"{origin}: unsupported offsets dtype {dtype!r}")
    try:
        params = SchemeParams.from_json(payload["params"], regime=payload["regime"])
        # One strict pass, which also refuses padding in the wrong place.
        raw = base64.b64decode(payload["offsets"], validate=True)
        offsets = np.frombuffer(raw, dtype=dtype).astype(np.int32)
        offsets = offsets.reshape(params.s_size, params.w)
        seed = checked_integer("seed", payload["seed"], low=0)
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
    head, offsets, tail = _json_pieces(payload, indent=1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(head)
        fh.write(offsets)
        fh.write(tail + "\n")


def load_design(path: str | os.PathLike) -> DesignBundle:
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CorruptDesignFile(f"cannot read design from {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise CorruptDesignFile(f"{path}: not a design file")
    if _integer("version", payload.get("version"), path) != _BUNDLE_VERSION:
        raise CorruptDesignFile(f"{path}: unsupported version {payload.get('version')!r}")
    recorded = payload.pop("sha256", None)
    try:
        digest = _sha256(payload)
    except CorruptDesignFile as exc:
        raise CorruptDesignFile(f"{path}: {exc}") from exc
    if recorded != digest:
        raise CorruptDesignFile(f"{path}: content hash mismatch")
    _check_keys(payload, _BUNDLE_KEYS, "design", path)
    mset = _masking_set_from_payload(payload["masking"], path)
    cb = payload.get("codebook")
    if not isinstance(cb, dict):
        raise CorruptDesignFile(f"{path}: no codebook object in the design")
    _check_keys(cb, _CODEBOOK_KEYS, "codebook", path)
    w, ell, m = (_integer(f"codebook {key}", cb.get(key), path) for key in ("w", "ell", "m"))
    if (w, ell) != (mset.params.w, mset.params.ell):
        raise CorruptDesignFile(f"{path}: codebook shape disagrees with params")
    # Assignment reduces its seed mod 2^64, so a larger one would alias another.
    seed = _integer("assignment_seed", payload.get("assignment_seed"), path, 0, 1 << 64)
    bundle = DesignBundle(mset, seed)
    if m != bundle.codebook.m:
        raise CorruptDesignFile(f"{path}: codebook message length disagrees with n")
    return bundle
