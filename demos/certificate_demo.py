"""What the collision certificate accepts and what it refuses.

The verifier checks three per-string statistics of the pairwise collision
matrix: the mean against w/(c1*k) with 4% play, every individual deviation
against a fixed constant, and the squared-deviation sum against a variance
budget.  Random candidates at desk-scale parameters fail the fixed deviation
constant essentially always — the constants only become generous at much
larger k — so this demo shows all three behaviours: a hand-built set whose
collision counts sit exactly on target (accepted), a random desk-scale
candidate (refused, with the violation printed), and the very-sparse
regime's pairwise bound, which random candidates do satisfy after a modest
number of attempts.
"""

import numpy as np

from bitmix import (
    MaskingSet,
    SchemeParams,
    build_smallk_set,
    construct_candidate,
    derive_params,
    verify_promising,
)
from bitmix.params import REGIME_SMALLK


def exact_target_set():
    # three strings over 40 segments of width 4; all pairwise collision
    # counts equal w/(c1*k) = 10 exactly
    w = 40
    s0 = np.zeros(w, dtype=np.int64)
    s1 = np.where(np.arange(w) < 10, 0, 1)
    s2 = np.full(w, 3, dtype=np.int64)
    s2[0:5] = 0
    s2[5:10] = 2
    s2[10:15] = 1
    s2[15:20] = 0
    p = SchemeParams(n=16, k=1, delta=0.5, w=w, ell=6, c1=4, s_size=3,
                     t1=160, t2=960, xi=0.0)
    return MaskingSet(np.stack([s0, s1, s2]), p, seed=0, status="unverified")


def collision_matrix(offsets):
    # entry (i, j) counts the segments where strings i and j share an offset
    return (offsets[:, None] == offsets[None]).sum(-1)


def main():
    print("1) hand-built set with every pairwise collision count on target")
    mset = exact_target_set()
    mat = collision_matrix(mset.offsets)
    print("   collision matrix (diagonal is the string weight):")
    for row in mat:
        print("     ", list(int(v) for v in row))
    report = verify_promising(mset)
    print(f"   verify_promising -> passed={report.passed}")

    print()
    print("2) random candidate at derived desk-scale parameters (k=10)")
    p = derive_params(2**20, 10)
    print(f"   |S|={p.s_size}, w={p.w}, target mean collisions {p.w / (4 * p.k):.2f}")
    cand = construct_candidate(p, seed=0)
    report = verify_promising(cand)
    idx, cond, detail = report.first_violation
    print(f"   verify_promising -> passed={report.passed}")
    print(f"   first violation: string {idx}, condition {cond}: {detail}")
    print("   (the fixed deviation constant is tuned for asymptotic sizes;")
    print("    random desk-scale candidates overshoot it, so downstream runs")
    print("    use the unverified construction directly)")

    print()
    print("3) very-sparse regime: rejection-sample until the pairwise bound holds")
    ps = derive_params(2**16, 2, regime=REGIME_SMALLK)
    mset = build_smallk_set(ps, seed=1)
    mat = collision_matrix(mset.offsets)
    np.fill_diagonal(mat, 0)
    print(f"   |S|={ps.s_size}, w={ps.w}, bound w/(2k) = {ps.w // (2 * ps.k)}")
    print(f"   accepted set: max pairwise collisions = {int(mat.max())}, "
          f"status={mset.status!r}")


if __name__ == "__main__":
    main()
