"""Acceptance suite: one criterion per test, one visible PASS/FAIL line each.

Each test prints its verdict before asserting, so the printed line survives
even when the assertion fails.  Criterion 3 is known to fail at desk scale:
the fixed deviation constant in the collision certificate is far below what
random candidates achieve at |S| ~ 461, w ~ 381 (see the masking module
docstrings); the test states the requirement faithfully and reports the
measured pass count.
"""

import itertools
import math
import time

import numpy as np
import pytest

from bitmix.bundle import build_design
from bitmix.code import ERASURE, Codebook
from bitmix.harness import CellSpec, ExperimentConfig, run_experiment
from bitmix.errors import TooManyErasures
from bitmix.masking import construct_candidate, verify_promising
from bitmix.params import REGIME_SMALLK, derive_params, total_test_bound
from bitmix.scheme import decode, simulate_outcomes
from bitmix.seeding import derive_seed

from oracle import dense_outcomes, materialize


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def main_cell_run():
    # shared by criteria 1 and 2: the (n=2^20, k=10, xi=0) reference cell.
    # The collision certificate is unattainable at this scale (criterion 3),
    # so the cell runs on an unverified candidate, which is exactly what the
    # conditional-exactness statement is about: whenever the realized
    # selection satisfies the decode-safety conditions, recovery is exact.
    cfg = ExperimentConfig(
        cells=[CellSpec(n=2**20, k=10)],
        trials=1000,
        seed=20260,
        verify=False,
        threads=4,
    )
    t0 = time.perf_counter()
    results, _ = run_experiment(cfg)
    wall = time.perf_counter() - t0
    return results["cells"][0], wall


def test_criterion_1_conditional_exactness(main_cell_run, capsys):
    cell, wall = main_cell_run
    violations = cell["cond_violations"]
    ok = violations == 0 and wall < 120.0
    _verdict(
        capsys, 1, "conditional exactness",
        ok,
        f"{violations} violations / {cell['cond_both']} condition-holding trials "
        f"of {cell['trials']}, {wall:.1f}s",
    )
    assert violations == 0
    assert wall < 120.0


def test_criterion_2_error_bound(main_cell_run, capsys):
    cell, _ = main_cell_run
    p_e = cell["p_e"]
    bound = 1.0 / math.log(10)
    ok = p_e <= bound
    _verdict(capsys, 2, "unconditional error bound", ok,
             f"P_e = {p_e:.4f} vs bound {bound:.4f}")
    assert p_e <= bound


def test_criterion_3_certificate_constructibility(capsys):
    p = derive_params(2**20, 10)
    passes = 0
    worst = None
    for seed in range(10):
        report = verify_promising(construct_candidate(p, seed=seed))
        passes += report.passed
        if not report.passed:
            worst = report.first_violation
    ok = passes >= 9
    _verdict(
        capsys, 3, "certificate constructibility", ok,
        f"{passes}/10 seeds passed; requirement >= 9; "
        f"typical violation: {worst[1]} ({worst[2]})" if worst else f"{passes}/10",
    )
    assert passes >= 9, (
        f"only {passes}/10 random candidates passed verify_promising; the "
        "certificate's fixed deviation bound is not satisfiable at these sizes"
    )


def test_criterion_4_test_count_identity(capsys):
    cells = [
        (2**14, 10, 0.0), (2**20, 10, 0.0), (2**26, 10, 0.0),
        (2**20, 5, 0.0), (2**20, 20, 0.0),
        (2**16, 5, 0.0), (2**16, 5, 0.05),
        (64, 2, 0.0), (64, 3, 0.0),
    ]
    worst_ratio = 0.0
    identity_ok = True
    for n, k, xi in cells:
        p = derive_params(n, k, xi=xi)
        identity_ok &= p.t_total == p.c1 * p.k * p.w * (p.ell + 1)
        worst_ratio = max(worst_ratio, p.t_total / total_test_bound(p))
    ok = identity_ok and worst_ratio <= 2.0
    _verdict(capsys, 4, "test-count identity and bound", ok,
             f"identity exact on {len(cells)} cells; worst bound ratio {worst_ratio:.3f} <= 2")
    assert identity_ok
    assert worst_ratio <= 2.0


def _median_decode_ms(n, k, trials=201):
    bundle = build_design(n, k, seed=derive_seed(5, n, k), verify=False)
    rng = np.random.default_rng(derive_seed(6, n, k))
    times = []
    for _ in range(trials):
        defectives = rng.choice(n, size=k, replace=False) + 1
        y1, y2 = simulate_outcomes(
            defectives, bundle.assignment, bundle.masking, bundle.codebook
        )
        result = decode(y1, y2, bundle.masking, bundle.codebook)
        times.append(result.batch1_seconds + result.batch2_seconds)
    return 1e3 * float(np.median(times))


def test_criterion_5_decode_scaling(capsys):
    by_n = {n: _median_decode_ms(n, 10) for n in (2**14, 2**20, 2**26)}
    n_growth = by_n[2**26] / by_n[2**14]
    by_k = {k: _median_decode_ms(2**20, k) for k in (5, 10, 20)}
    k_ratios = [by_k[10] / by_k[5], by_k[20] / by_k[10]]
    ok = n_growth < 2.5 and max(k_ratios) <= 5.5
    _verdict(
        capsys, 5, "decode-time scaling", ok,
        f"medians ms by n {by_n[2**14]:.2f}/{by_n[2**20]:.2f}/{by_n[2**26]:.2f} "
        f"growth {n_growth:.2f}x over 4096x items; "
        f"k-step ratios {k_ratios[0]:.2f}, {k_ratios[1]:.2f}",
    )
    assert n_growth < 2.5
    assert max(k_ratios) <= 5.5


def test_criterion_6_erasure_exhaustive(capsys):
    cb = Codebook(n=64, w=6, ell=3)
    assert cb.m == 2  # 64 indices = every 2-symbol message over GF(8)
    checked = 0
    wrong = 0
    for i in range(1, 65):
        base = cb.encode_index(i)
        for f in range(0, cb.w - cb.m + 1):
            for pattern in itertools.combinations(range(cb.w), f):
                word = base.copy()
                word[list(pattern)] = ERASURE
                checked += 1
                wrong += cb.decode_erasures(word) != i
    over = 0
    for i in (1, 17, 64):
        for pattern in itertools.combinations(range(cb.w), cb.w - cb.m + 1):
            word = cb.encode_index(i).copy()
            word[list(pattern)] = ERASURE
            with pytest.raises(TooManyErasures):
                cb.decode_erasures(word)
            over += 1
    ok = wrong == 0
    _verdict(capsys, 6, "erasure-code exhaustive equivalence", ok,
             f"{checked} message/pattern pairs exact, {over} over-budget patterns refused")
    assert wrong == 0


def test_criterion_7_dense_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    instances = 0
    while instances < 1000:
        n = int(rng.integers(8, 65))
        k = int(rng.integers(1, 4))
        regime = REGIME_SMALLK if instances % 2 else None
        if regime is None and k == 1:
            k = 2
        k = min(k, n)
        bundle = build_design(n, k, regime=regime, seed=int(rng.integers(2**32)),
                              verify=False)
        dense = materialize(bundle)
        kp = int(rng.integers(0, k + 1))
        defectives = rng.choice(n, size=kp, replace=False) + 1
        y1s, y2s = simulate_outcomes(
            defectives, bundle.assignment, bundle.masking, bundle.codebook
        )
        y1d, y2d = dense_outcomes(dense, defectives)
        assert np.array_equal(y1s.bits, y1d.bits)
        assert np.array_equal(y2s.symbols, y2d.symbols)
        instances += 1
    _verdict(capsys, 7, "dense-matrix oracle equivalence", True,
             f"{instances} random instances bit-exact")


def test_criterion_8_noisy_success_rate(capsys):
    cfg = ExperimentConfig(
        cells=[CellSpec(n=2**16, k=5, xi=0.05)],
        trials=1000,
        seed=20268,
        verify=False,
        threads=4,
    )
    results, _ = run_experiment(cfg)
    cell = results["cells"][0]
    rate = cell["successes"] / cell["trials"]
    ok = rate >= 0.95
    _verdict(capsys, 8, "noisy regime success floor", ok,
             f"success {rate:.3f} over {cell['trials']} trials at xi=0.05, "
             f"c1={cell['params']['c1']}")
    assert rate >= 0.95


def test_criterion_9_very_sparse_regime(capsys):
    cfg = ExperimentConfig(
        cells=[CellSpec(n=2**16, k=2, regime=REGIME_SMALLK, kprime=2)],
        trials=1000,
        seed=20269,
        verify=True,
    )
    results, _ = run_experiment(cfg)
    cell = results["cells"][0]
    assert cell["construction"]["status"] == "smallk_verified"
    s = cell["params"]["s_size"]
    analytic_dup = 1.0 - (1.0 - 1.0 / s)  # k' = 2 draws from |S| strings
    failure_rate = 1.0 - cell["successes"] / cell["trials"]
    fl = cell["failures"]
    non_dup_failures = fl["string-miss"] + fl["string-extra"] + fl["code-failure"]
    ok = failure_rate <= 2 * analytic_dup and non_dup_failures == 0
    _verdict(
        capsys, 9, "very-sparse regime", ok,
        f"failure rate {failure_rate:.4f} vs 2x analytic duplicate rate "
        f"{2 * analytic_dup:.4f}; non-duplicate failures {non_dup_failures}",
    )
    assert failure_rate <= 2 * analytic_dup
    assert non_dup_failures == 0
