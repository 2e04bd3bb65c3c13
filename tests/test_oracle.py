import copy
import hashlib
import json

import numpy as np
import pytest

from bitmix.bundle import _sha256, build_design, load_design, save_design
from bitmix.errors import CorruptDesignFile
from bitmix.params import REGIME_SMALLK
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
# have written, or an offsets_dtype left out as by a file from before it was
# written.
_LEGITIMATE_LOADS = {
    ("", "assignment_seed", 0),
    ("masking", "offsets_dtype", "deleted"),
    ("masking", "seed", 0),
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
    # _sha256 splices the offsets text in unescaped; on every payload it
    # must equal the hash of json.dumps's canonical text
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
    look_alike["codebook"]["offsets"] = {"offsets": "\"\\\n\u00e9"}
    payloads.append(look_alike)
    for payload in payloads:
        assert _sha256(payload) == _reference_sha256(payload)


@pytest.mark.parametrize(
    "offsets", ['AA"=', "AA\\=", "AA\n=", "AA\u00e9=", "A===", 1234, None, ["AAAA"]],
    ids=["quote", "backslash", "newline", "non-ascii", "three-pads", "number", "null", "list"],
)
@pytest.mark.parametrize("rehash", [False, True])
def test_offsets_text_must_be_base64(tmp_path, offsets, rehash):
    # JSON would escape these, or cannot splice them: with the file's own
    # hash or one over the spoiled canonical JSON, each is refused
    payload = _saved_payload(tmp_path, n=2**12, k=4, seed=3)
    del payload["sha256"]
    payload["masking"]["offsets"] = offsets
    with pytest.raises(CorruptDesignFile):
        _sha256(payload)
    payload["sha256"] = _reference_sha256(payload) if rehash else "0" * 64
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptDesignFile):
        load_design(path)


@pytest.mark.parametrize(
    "n,k,xi", [(2**26, 10, 0.0), (2**20, 10, 0.05), (2**20, 20, 0.0)],
    ids=["clean-k10", "noisy-k10", "wide-k20"],
)
def test_saved_file_is_the_indented_json(tmp_path, n, k, xi):
    # the file is written in pieces around the offsets text; its bytes are
    # still json.dumps's, at the benchmark's cells
    path = tmp_path / "design.json"
    save_design(build_design(n, k, xi=xi, seed=1, verify=False), path)
    payload = json.loads(path.read_text())
    assert path.read_bytes() == (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


@pytest.mark.parametrize(
    "kwargs,sha256",
    [
        (dict(n=2**12, k=4, seed=3, verify=False),
         "8d84a2bf3e391e212c27eec5c3d0a4d1feab808bad3fdc88ae139020c21ddd4e"),
        (dict(n=2**16, k=5, xi=0.05, seed=2, verify=False),
         "cca11e20470535ed6b08a1d8b262b97a1dee773a1a60a3a9b200bb18f2e26cac"),
        (dict(n=2**16, k=2, regime=REGIME_SMALLK, seed=1),
         "4f9262067516eae27920b5fe0cf140220589990cf897beb52199b3dd022b6a16"),
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


def test_build_design_verified_smallk():
    b = build_design(2**16, 2, regime=REGIME_SMALLK, seed=0)
    assert b.masking.status == "smallk_verified"


def test_build_design_unverified_general():
    b = build_design(2**16, 5, seed=0, verify=False)
    assert b.masking.status == "unverified"
    assert b.params.w == 259
