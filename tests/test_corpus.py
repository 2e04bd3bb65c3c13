"""Decode outcomes at the benchmark cells, pinned byte for byte.

The first slice of a seeded differential corpus: at each of the three
benchmark cells, and at a noisy smallk cell, seeded instances are decoded at
the default threshold, at 0, at w // 2 and at w // 4 (where strings beyond
the defectives' get listed), and one sha256 covers every (sorted estimate,
string list, failures).  At the benchmark's noisy cell nearly every row that
reaches Berlekamp-Massey lies beyond every radius; at the smallk cell
(w = 12, m = 4) Berlekamp-Massey also decodes rows that no candidate tuple
fits.  The digests were recorded before the noiseless decode moved to cached
log tables and its input checks moved to the public entries, and the smallk
one before Berlekamp-Massey ran one row at a time; a decoder rewrite must
keep them, or change them together with the defect fix it lists.  Words are
generated, not stored.
"""

import hashlib

import numpy as np
import pytest

from bitmix import code, scheme
from bitmix.bundle import build_design

CORPUS = [
    # n, k, xi, regime, instances, sha256 of the outcomes
    (2**26, 10, 0.0, None, 30, "07ec25f3dea78171ccad45ef80fc959e88f72d617dec391c1e5775e59d286cee"),
    (2**20, 10, 0.05, None, 30, "fe75c24516149fe0f6f8c55bf9a6466aa7ce9962f8793946a18892a471a7a366"),
    (2**20, 20, 0.0, None, 30, "58fb56ed779a5273b394f1f754720244b3afd68dac26eaa7f9945bceebe57d3b"),
    (2**16, 4, 0.05, "smallk", 30, "fc4f8a3dd1501c1d3840d7dc1fad37a1842835c155c460e30dc863bfbf06b7ed"),
]


@pytest.mark.parametrize("n, k, xi, regime, instances, digest", CORPUS,
                         ids=["clean-k10", "noisy-k10", "wide-k20", "noisy-smallk"])
def test_decode_outcomes_match_the_recorded_corpus(monkeypatch, n, k, xi, regime, instances,
                                                   digest):
    design = build_design(n, k, xi=xi, regime=regime, seed=1, verify=False)
    mset, cb = design.masking, design.codebook
    w = mset.params.w
    # Count the rows that reach Berlekamp-Massey: the noisy cell must hold some.
    located = []
    locate = code.Codebook._locate_errors

    def spy(self, received, *rest):
        located.append(len(received))
        return locate(self, received, *rest)

    monkeypatch.setattr(code.Codebook, "_locate_errors", spy)
    outcomes = hashlib.sha256()
    for i in range(instances):
        rng = np.random.default_rng([n, k, i])
        defectives = rng.choice(n, size=k, replace=False) + 1
        y1, y2 = scheme.simulate_outcomes(defectives, design.assignment, mset, cb,
                                          rng=rng if xi else None)
        for threshold in (None, 0, w // 2, w // 4):
            result = scheme.decode(y1, y2, mset, cb, threshold=threshold)
            outcome = (sorted(result.estimate), result.string_list.tolist(), result.failures)
            outcomes.update(repr(outcome).encode())
    assert outcomes.hexdigest() == digest
    assert (sum(located) > 0) == (xi > 0)
