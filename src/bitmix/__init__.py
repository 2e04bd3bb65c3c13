"""Bit-mixing-coded non-adaptive group testing.

Construction and verification of low-collision masking-string sets, the
two-batch test design with an MDS index code, sublinear-time decoding under
the noiseless and noisy OR channel, plus brute-force oracles and a
Monte-Carlo experiment harness.
"""

from .bundle import DesignBundle, build_design, load_design, save_design
from .code import ERASURE, Codebook, symbol_pack, symbol_unpack
from .errors import (
    BitmixError,
    ConstructionFailed,
    CorruptDesignFile,
    DecodingFailure,
    InconsistentWord,
    IndexOutOfRange,
    InvalidInput,
    MalformedResultFile,
    ShapeMismatch,
    TooLarge,
    TooManyErasures,
)
from .harness import CellSpec, ExperimentConfig, report, run_experiment, run_trial
from .masking import (
    CollisionStats,
    MaskingSet,
    MaskingString,
    VerifyReport,
    build_lcs,
    build_smallk_set,
    check_lcs_conditions_all,
    collisions,
    construct_candidate,
    smallk_pairs_ok,
    verify_promising,
)
from .oracle import DenseDesign, dense_outcomes, exhaustive_decode, materialize
from .params import (
    REGIME_GENERAL,
    REGIME_SMALLK,
    SchemeParams,
    derive_params,
    total_test_bound,
)
from .scheme import (
    Assignment,
    Batch1Outcome,
    Batch2Outcome,
    DecodeResult,
    batch1_threshold,
    decode,
    identify_items,
    identify_strings,
    outcomes_from_bytes,
    outcomes_to_bytes,
    read_outcomes,
    simulate_outcomes,
    write_outcomes,
)

__version__ = "0.1.0"
