"""One noiseless instance, narrated from design to recovered set."""

import numpy as np

from bitmix import batch1_threshold, build_design, decode, simulate_outcomes


def main():
    n, k = 2**16, 5
    bundle = build_design(n, k, seed=7, verify=False)
    p = bundle.params
    print(f"design: n={n} k={k} -> w={p.w}, ell={p.ell}, |S|={p.s_size}, "
          f"t1={p.t1}, t2={p.t2} ({p.t_total} tests total for {n} items)")

    rng = np.random.default_rng(11)
    defectives = np.sort(rng.choice(n, size=k, replace=False) + 1)
    strings = bundle.assignment.index_of(defectives)
    print(f"hidden defective set K = {defectives.tolist()}")
    print(f"their masking strings  = {strings.tolist()}")

    y1, y2 = simulate_outcomes(defectives, bundle.assignment, bundle.masking,
                               bundle.codebook)
    print(f"batch-1 outcome: {int(y1.bits.sum())} of {p.t1} tests positive")

    threshold = batch1_threshold(p)
    scores = y1.bits[bundle.masking.positions()].sum(axis=1)
    print(f"string scores: defective strings score "
          f"{sorted(int(scores[s]) for s in set(strings.tolist()))} "
          f"(threshold {threshold} = w); "
          f"best non-defective scores {sorted(int(v) for v in scores)[-k-3:-k]}")

    result = decode(y1, y2, bundle.masking, bundle.codebook)
    print(f"identified strings: {result.string_list.tolist()}")
    overlaps = {}
    positions = bundle.masking.positions(result.string_list)
    usage = np.bincount(positions.ravel(), minlength=p.t1)
    for row, s in enumerate(result.string_list):
        overlaps[int(s)] = int((usage[positions[row]] > 1).sum())
    print(f"positions shared between listed strings (erased before decoding): "
          f"{overlaps}")
    print(f"recovered K-hat = {sorted(result.estimate)}")
    print(f"exact recovery: {result.estimate == set(int(v) for v in defectives)}")
    print(f"decode time: batch-1 scan {1e3 * result.batch1_seconds:.2f} ms, "
          f"batch-2 decoding {1e3 * result.batch2_seconds:.2f} ms")


if __name__ == "__main__":
    main()
