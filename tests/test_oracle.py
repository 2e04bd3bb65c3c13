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
