import base64
import copy
import hashlib
import json

import numpy as np
import pytest

from bitmix.bundle import DesignBundle, _sha256, build_design, load_design, save_design
from bitmix.errors import CorruptDesignFile, InvalidInput
from bitmix.masking import MaskingSet, construct_candidate
from bitmix.params import REGIME_SMALLK, derive_params
from bitmix.scheme import decode, simulate_outcomes

from oracle import TooLarge, dense_outcomes, exhaustive_decode, materialize


def _bundle(n=64, k=2, regime=None, seed=0):
    return build_design(n, k, regime=regime, seed=seed, verify=False)


def test_materialize_shape_and_weight():
    b = _bundle()
    p = b.params
    dense = materialize(b)
    assert dense.matrix.shape == (p.t1 * (p.ell + 1), p.n)
    assert dense.t1 == p.t1
    # batch-1 column weight is exactly w for every item
    assert (dense.matrix[: p.t1].sum(axis=0) == p.w).all()


def test_materialize_guard():
    b = _bundle(n=2**16, k=5)
    with pytest.raises(TooLarge):
        materialize(b)


def test_dense_matches_sparse_simulation():
    b = _bundle(seed=3)
    dense = materialize(b)
    rng = np.random.default_rng(5)
    for _ in range(60):
        kp = int(rng.integers(0, b.params.k + 1))
        defectives = rng.choice(b.params.n, size=kp, replace=False) + 1
        y1s, y2s = simulate_outcomes(defectives, b.assignment, b.masking, b.codebook)
        y1d, y2d = dense_outcomes(dense, defectives)
        assert np.array_equal(y1s.bits, y1d.bits)
        assert np.array_equal(y2s.symbols, y2d.symbols)


def test_dense_matches_sparse_smallk_regime():
    b = _bundle(n=50, k=3, regime=REGIME_SMALLK, seed=9)
    dense = materialize(b)
    rng = np.random.default_rng(11)
    for _ in range(40):
        kp = int(rng.integers(0, 4))
        defectives = rng.choice(50, size=kp, replace=False) + 1
        y1s, y2s = simulate_outcomes(defectives, b.assignment, b.masking, b.codebook)
        y1d, y2d = dense_outcomes(dense, defectives)
        assert np.array_equal(y1s.bits, y1d.bits)
        assert np.array_equal(y2s.symbols, y2d.symbols)


def test_exhaustive_guards():
    b = _bundle(n=64, k=2)
    dense = materialize(b)
    y1, y2 = dense_outcomes(dense, [1])
    with pytest.raises(TooLarge):
        exhaustive_decode(y1, y2, dense, k=2)  # n = 64 > 24
    small = materialize(_bundle(n=20, k=2))
    y1, y2 = dense_outcomes(small, [1])
    with pytest.raises(TooLarge):
        exhaustive_decode(y1, y2, small, k=4)


def test_exhaustive_empty_set():
    b = _bundle(n=20, k=2, seed=1)
    dense = materialize(b)
    y1, y2 = dense_outcomes(dense, [])
    family = exhaustive_decode(y1, y2, dense, k=2)
    assert frozenset() in family
    # nothing else can OR to all-zero outcomes: every column has weight w
    assert family == [frozenset()]


def test_exhaustive_contains_truth():
    b = _bundle(n=20, k=2, seed=2)
    dense = materialize(b)
    rng = np.random.default_rng(3)
    for _ in range(25):
        kp = int(rng.integers(1, 3))
        defectives = frozenset(int(v) for v in rng.choice(20, size=kp, replace=False) + 1)
        y1, y2 = dense_outcomes(dense, sorted(defectives))
        family = exhaustive_decode(y1, y2, dense, k=2)
        assert defectives in family


def test_singleton_family_agrees_with_fast_decoder():
    # whenever exhaustive search pins the answer uniquely and the fast
    # decoder reports success, both answers coincide
    rng = np.random.default_rng(17)
    singletons = agreements = 0
    for trial in range(1000):
        n = int(rng.integers(10, 13))
        k = int(rng.integers(1, 3))
        regime = REGIME_SMALLK if trial % 2 else None
        if regime is None and k < 2:
            k = 2
        b = build_design(n, k, regime=regime, seed=trial, verify=False)
        dense = materialize(b)
        kp = int(rng.integers(0, k + 1))
        defectives = rng.choice(n, size=kp, replace=False) + 1
        strings = b.assignment.index_of(defectives) if kp else np.array([], dtype=int)
        if np.unique(strings).size != kp:
            continue  # duplicate assignment: outside the recovery guarantee
        y1, y2 = dense_outcomes(dense, defectives)
        family = exhaustive_decode(y1, y2, dense, k)
        if len(family) != 1:
            continue
        singletons += 1
        result = decode(y1, y2, b.masking, b.codebook)
        if result.failures or result.string_list.size != kp:
            continue  # fast decoder declined; only successes must agree
        assert result.estimate == set(family[0])
        agreements += 1
    assert singletons > 200
    assert agreements > 100


# --- design bundle persistence ---------------------------------------------


def test_bundle_save_load_round_trip(tmp_path):
    b = build_design(2**16, 2, regime=REGIME_SMALLK, seed=4)
    path = tmp_path / "design.json"
    save_design(b, path)
    back = load_design(path)
    assert back.params == b.params
    assert np.array_equal(back.masking.offsets, b.masking.offsets)
    assert back.assignment_seed == b.assignment_seed
    assert back.masking.status == b.masking.status
    # loaded bundle produces identical outcomes
    y1a, y2a = simulate_outcomes([5, 9], b.assignment, b.masking, b.codebook)
    y1b, y2b = simulate_outcomes([5, 9], back.assignment, back.masking, back.codebook)
    assert np.array_equal(y1a.bits, y1b.bits)
    assert np.array_equal(y2a.symbols, y2b.symbols)


def test_bundle_load_detects_tamper(tmp_path):
    b = build_design(2**16, 2, regime=REGIME_SMALLK, seed=4)
    path = tmp_path / "design.json"
    save_design(b, path)
    saved = path.read_text()
    payload = json.loads(saved)
    payload["assignment_seed"] = 12345
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="hash"):
        load_design(path)
    # re-hashed edits: the seeds must be JSON integers and the codebook an
    # object, all present
    spoils = [
        lambda p: p.update(assignment_seed="7"),
        lambda p: p.update(assignment_seed=7.0),
        lambda p: p.update(assignment_seed=True),
        lambda p: p.pop("assignment_seed"),
        lambda p: p["masking"].update(seed="3"),
        lambda p: p["masking"].update(seed=3.5),
        lambda p: p["masking"].pop("seed"),
        lambda p: p.update(codebook=[]),
        lambda p: p.pop("codebook"),
    ]
    for spoil in spoils:
        payload = json.loads(saved)
        del payload["sha256"]
        spoil(payload)
        payload["sha256"] = _sha256(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptDesignFile, match="seed|codebook"):
            load_design(path)


def test_bundle_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "nope", "version": 1}))
    with pytest.raises(CorruptDesignFile):
        load_design(path)
    path.write_text("{truncated")
    with pytest.raises(CorruptDesignFile):
        load_design(path)


def _saved_payload(tmp_path, **kwargs) -> dict:
    path = tmp_path / "design.json"
    save_design(build_design(verify=False, **kwargs), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "spoil",
    [
        lambda p: p.update(extra=1),
        lambda p: p["masking"].update(extra=1),
        lambda p: p["codebook"].update(extra=1),
        lambda p: p.update(version=True),
        lambda p: p.update(version=1.0),
        lambda p: p["masking"].update(version=True),
        lambda p: p["masking"].update(version=1.0),
        lambda p: p["codebook"].update(w=float(p["codebook"]["w"])),
        lambda p: p["codebook"].update(ell=float(p["codebook"]["ell"])),
        lambda p: p["codebook"].update(m=float(p["codebook"]["m"])),
        lambda p: p.update(assignment_seed=2**80),
        lambda p: p["masking"].update(seed=-3),
        lambda p: p["masking"].update(seed=2**64),
    ],
    ids=["top-key", "masking-key", "codebook-key", "version-true", "version-float",
         "masking-version-true", "masking-version-float", "codebook-w-float",
         "codebook-ell-float", "codebook-m-float", "assignment-seed-2^80",
         "masking-seed-negative", "masking-seed-2^64"],
)
def test_bundle_load_refuses_fields_save_never_writes(tmp_path, spoil):
    # re-hashed, so only the field itself can be refused
    payload = _saved_payload(tmp_path, n=2**12, k=4, seed=3)
    del payload["sha256"]
    spoil(payload)
    payload["sha256"] = _sha256(payload)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="keys|version|seed|codebook"):
        load_design(path)


def _reference_sha256(payload) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_DELETE = object()
_SPOILS = (_DELETE, None, True, 1.5, -1, 0, 2**70, "x", "", [], {}, [1], {"a": 1})
# The only edits that still load: a field set to a value save_design could
# have written for this design.  A masking seed of 0 is not one: its set
# rebuilds to other offsets than the file's digest.
_LEGITIMATE_LOADS = {
    ("", "assignment_seed", 0),
    ("masking.params", "xi", 0),
}


def test_bundle_load_refuses_every_other_field_edit(tmp_path):
    # every key at every level deleted or set to each spoil, then re-hashed:
    # each load is refused with a message naming the file, or is listed
    saved = _saved_payload(tmp_path, n=2**12, k=4, seed=3)
    del saved["sha256"]
    path = tmp_path / "spoiled.json"
    loads = set()
    for where in ("", "codebook", "masking", "masking.params"):
        for key in list(_reach(saved, where)):
            for spoil in _SPOILS:
                payload = copy.deepcopy(saved)
                obj = _reach(payload, where)
                if spoil is _DELETE:
                    del obj[key]
                else:
                    obj[key] = spoil
                payload["sha256"] = _reference_sha256(payload)
                path.write_text(json.dumps(payload))
                try:
                    load_design(path)
                except CorruptDesignFile as exc:
                    assert str(exc).startswith(f"{path}: "), (where, key, spoil, exc)
                else:
                    loads.add((where, key, "deleted" if spoil is _DELETE else spoil))
    assert loads == _LEGITIMATE_LOADS


def _reach(payload: dict, where: str) -> dict:
    for key in filter(None, where.split(".")):
        payload = payload[key]
    return payload


def test_spliced_hash_matches_the_canonical_json(tmp_path):
    # _sha256 must equal the hash of json.dumps's canonical text on every
    # payload, also on strings that look like the offsets text version 1
    # spliced in
    payloads = []
    for kwargs in (dict(n=2**12, k=4, seed=3), dict(n=2**16, k=2, regime=REGIME_SMALLK)):
        payload = _saved_payload(tmp_path, **kwargs)
        recorded = payload.pop("sha256")
        assert _sha256(payload) == recorded
        payloads.append(payload)
    for text in ("", "AA==", "AAA=", "AAAA"):  # "=" and "==" padding
        payloads.append(copy.deepcopy(payloads[0]))
        payloads[-1]["masking"]["offsets"] = text
    look_alike = copy.deepcopy(payloads[0])
    look_alike["masking"]["status"] = '"offsets":""'
    look_alike["masking"]["params"]['"offsets":""'] = '"offsets":""'
    look_alike["masking"]["params"]["offsets"] = ""
    look_alike["offsets"] = "AB=="
    look_alike["codebook"]["offsets"] = {"offsets": "\"\\\né"}
    payloads.append(look_alike)
    for payload in payloads:
        assert _sha256(payload) == _reference_sha256(payload)


@pytest.mark.parametrize(
    "offsets", ['AA"=', "AA\\=", "AA\n=", "AAé=", "A===", 1234, None, ["AAAA"]],
    ids=["quote", "backslash", "newline", "non-ascii", "three-pads", "number", "null", "list"],
)
@pytest.mark.parametrize("rehash", [False, True])
def test_offsets_text_must_be_base64(tmp_path, offsets, rehash):
    # a version-2 file holds no offsets text: with the file's own hash or
    # one over the spoiled canonical JSON, a masking set carrying one is
    # refused, whatever its text
    payload = _saved_payload(tmp_path, n=2**12, k=4, seed=3)
    del payload["sha256"]
    payload["masking"]["offsets"] = offsets
    payload["sha256"] = _reference_sha256(payload) if rehash else "0" * 64
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="unknown keys" if rehash else "hash"):
        load_design(path)


@pytest.mark.parametrize(
    "n,k,xi", [(2**26, 10, 0.0), (2**20, 10, 0.05), (2**20, 20, 0.0)],
    ids=["clean-k10", "noisy-k10", "wide-k20"],
)
def test_saved_file_is_the_indented_json(tmp_path, n, k, xi):
    # the file's bytes are json.dumps's indented text, at the benchmark's cells
    path = tmp_path / "design.json"
    save_design(build_design(n, k, xi=xi, seed=1, verify=False), path)
    payload = json.loads(path.read_text())
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


@pytest.mark.parametrize(
    "kwargs,sha256",
    [
        (dict(n=2**12, k=4, seed=3, verify=False),
         "54b0a552ba89f2df61c803776b0ae469460535f47cea2f65eff7709c4d88869f"),
        (dict(n=2**16, k=5, xi=0.05, seed=2, verify=False),
         "e2b05333d6cec5ca98d205d0c269beabb014f47d471696c96834c96db3b70b69"),
        (dict(n=2**16, k=2, regime=REGIME_SMALLK, seed=1),
         "1ab9c9458a89cd326e2c93ce7b09f13501eb4b7573100454842ce9b375461625"),
    ],
    ids=["general", "general-noisy", "smallk"],
)
def test_design_file_bytes_are_stable(tmp_path, kwargs, sha256):
    # the hashes pin the file format: a design saved by an earlier release
    # has these exact bytes, so it still loads
    bundle = build_design(**kwargs)
    path = tmp_path / "design.json"
    save_design(bundle, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    assert load_design(path).params == bundle.params


@pytest.mark.parametrize(
    "kwargs",
    [dict(n=2**16, k=2, regime=REGIME_SMALLK, seed=4), dict(n=2**20, k=20, seed=1, verify=False)],
    ids=["smallk-verified", "wide-k20"],
)
def test_load_rebuilds_the_saved_table(tmp_path, kwargs):
    # the file holds the seed and a digest, not the offsets: 3,177,418 bytes
    # at (2^20, 20) while it held them
    bundle = build_design(**kwargs)
    path = tmp_path / "design.json"
    save_design(bundle, path)
    assert path.stat().st_size < 1024
    back = load_design(path).masking
    assert np.array_equal(back.offsets, bundle.masking.offsets)
    assert back.offsets.dtype == bundle.masking.offsets.dtype
    assert (back.seed, back.status) == (bundle.masking.seed, bundle.masking.status)


def test_save_refuses_a_set_that_is_not_its_seeds(tmp_path):
    bundle = build_design(2**12, 4, seed=3, verify=False)
    mset = bundle.masking
    p = mset.params
    edited = mset.offsets.copy()
    edited[0, 0] = (edited[0, 0] + 1) % p.segment_len
    path = tmp_path / "design.json"
    hand_built = [
        MaskingSet(edited, p, mset.seed),
        MaskingSet(mset.offsets, p, mset.seed + 1),
        MaskingSet(mset.offsets, p, -1),
    ]
    for other in hand_built:
        with pytest.raises(InvalidInput, match="seed"):
            save_design(DesignBundle(other, bundle.assignment_seed), path)
        assert not path.exists()


def _counting_draws(monkeypatch):
    # counts construct_candidate calls, under the names that bundle.py and
    # masking.py call it by
    calls = []

    def counted(params, seed):
        calls.append(seed)
        return construct_candidate(params, seed)

    monkeypatch.setattr("bitmix.bundle.construct_candidate", counted)
    monkeypatch.setattr("bitmix.masking.construct_candidate", counted)
    return calls


def test_a_design_is_drawn_once_to_build_and_save_and_once_to_load(tmp_path, monkeypatch):
    calls = _counting_draws(monkeypatch)
    bundle = build_design(2**12, 4, seed=3, verify=False)
    path = tmp_path / "design.json"
    save_design(bundle, path)
    assert calls == [bundle.masking.seed]
    calls.clear()
    back = load_design(path)
    assert calls == [bundle.masking.seed]
    # a loaded design was checked against its file's digest when it was
    # rebuilt, so saving it again draws nothing and writes the same bytes
    again = tmp_path / "again.json"
    save_design(back, again)
    assert calls == [bundle.masking.seed]
    assert again.read_bytes() == path.read_bytes()


def _edit_in_place(mset):
    mset.offsets[0, 0] = (mset.offsets[0, 0] + 1) % mset.params.segment_len


def _reseed(mset):
    mset.seed += 1


def _reparam(mset):
    mset.params = derive_params(2**12, 5)


@pytest.mark.parametrize("change", [_edit_in_place, _reseed, _reparam],
                         ids=["edited-in-place", "seed-reassigned", "params-reassigned"])
def test_save_refuses_a_drawn_set_changed_since_its_draw(tmp_path, monkeypatch, change):
    # the record of the draw no longer matches, so the set is redrawn from
    # its seed and compared, and it is not that draw
    bundle = build_design(2**12, 4, seed=3, verify=False)
    change(bundle.masking)
    calls = _counting_draws(monkeypatch)
    path = tmp_path / "design.json"
    with pytest.raises(InvalidInput, match="seed"):
        save_design(bundle, path)
    assert not path.exists()
    assert calls == [bundle.masking.seed]


def test_a_bundle_given_a_set_of_other_params_saves_with_their_codebook(tmp_path):
    # A (2^12, 4) bundle given a (2^12, 5) design's set: its codebook, and
    # so the file's, is that of the new params, which load_design accepts.
    bundle = build_design(2**12, 4, seed=3, verify=False)
    other = build_design(2**12, 5, seed=4, verify=False).masking
    bundle.masking = other
    p = other.params
    assert (bundle.codebook.n, bundle.codebook.w, bundle.codebook.ell) == (p.n, p.w, p.ell)
    path = tmp_path / "design.json"
    save_design(bundle, path)
    back = load_design(path)
    assert back.params == p and np.array_equal(back.masking.offsets, other.offsets)
    assert (back.codebook.w, back.codebook.ell, back.codebook.m) == (p.w, p.ell, bundle.codebook.m)
    assert json.loads(path.read_text())["codebook"] == {
        "w": p.w, "ell": p.ell, "m": bundle.codebook.m}


def test_load_refuses_a_rehashed_seed_edit(tmp_path):
    payload = _saved_payload(tmp_path, n=2**12, k=4, seed=3)
    del payload["sha256"]
    payload["masking"]["seed"] += 1
    payload["sha256"] = _sha256(payload)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="offsets_sha256") as info:
        load_design(path)
    assert str(info.value).startswith(f"{path}: ")


def test_load_refuses_a_set_that_rebuilds_to_other_offsets(tmp_path, monkeypatch):
    # as a numpy whose Generator draws another stream would rebuild it
    path = tmp_path / "design.json"
    save_design(build_design(2**12, 4, seed=3, verify=False), path)

    def flipped(params, seed):
        mset = construct_candidate(params, seed)
        mset.offsets[-1, -1] = (mset.offsets[-1, -1] + 1) % params.segment_len
        return mset

    monkeypatch.setattr("bitmix.bundle.construct_candidate", flipped)
    with pytest.raises(CorruptDesignFile, match="offsets_sha256") as info:
        load_design(path)
    assert str(info.value).startswith(f"{path}: ")


def test_load_refuses_a_set_too_large_to_rebuild(tmp_path):
    # 2^50 strings of w offsets: far more than any address space, so the
    # allocation fails at once
    payload = _saved_payload(tmp_path, n=2**12, k=4, seed=3)
    del payload["sha256"]
    payload["masking"]["params"]["s_size"] = 2**50
    payload["sha256"] = _sha256(payload)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="allocate") as info:
        load_design(path)
    assert str(info.value).startswith(f"{path}: ")


def test_version_1_file_is_refused(tmp_path):
    # laid out as version 1 was, with the base64 offsets and no digest
    bundle = build_design(2**12, 4, seed=3, verify=False)
    payload = _saved_payload(tmp_path, n=2**12, k=4, seed=3)
    del payload["sha256"], payload["masking"]["offsets_sha256"]
    offsets = bundle.masking.offsets.astype("<u2").tobytes()
    payload["masking"].update(version=1, offsets_dtype="<u2",
                              offsets=base64.b64encode(offsets).decode("ascii"))
    payload["version"] = 1
    payload["sha256"] = _sha256(payload)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile, match="unsupported version 1"):
        load_design(path)


def test_build_design_verified_smallk():
    b = build_design(2**16, 2, regime=REGIME_SMALLK, seed=0)
    assert b.masking.status == "smallk_verified"


def test_build_design_unverified_general():
    b = build_design(2**16, 5, seed=0, verify=False)
    assert b.masking.status == "unverified"
    assert b.params.w == 259


@pytest.mark.parametrize("kwargs", [
    {"seed": 1.7}, {"seed": "1"}, {"seed": True},
    {"max_attempts": 2.5}, {"max_attempts": True}, {"max_attempts": 0},
], ids=["seed=1.7", "seed='1'", "seed=True", "max_attempts=2.5", "max_attempts=True",
        "max_attempts=0"])
def test_build_design_refuses_a_seed_or_max_attempts_that_is_no_integer(kwargs):
    # seed 1.7 and "1" built seed 1's design, max_attempts 2.5 raised a raw
    # TypeError, and max_attempts True counted as 1 attempt
    with pytest.raises(InvalidInput):
        build_design(2**12, 2, regime=REGIME_SMALLK, **kwargs)
