import inspect

import bitmix

# Every name `bitmix` exports is called by the CLI, the harness, the demos or
# the benchmark.  A name that only tests call belongs in the tests (see
# oracle.py), so a new export shows up here as a diff to review.
PUBLIC = [
    "Assignment", "Batch1Outcome", "Batch2Outcome", "BitmixError", "CellSpec",
    "Codebook", "ConstructionFailed", "CorruptDesignFile", "DecodeResult",
    "DecodingFailure", "DesignBundle", "ERASURE", "ExperimentConfig",
    "InconsistentWord", "IndexOutOfRange", "InvalidInput", "MalformedResultFile",
    "MaskingSet", "REGIME_GENERAL", "REGIME_SMALLK", "SchemeParams",
    "ShapeMismatch", "TooManyErasures", "VerifyReport", "batch1_threshold",
    "build_design", "build_lcs", "build_smallk_set", "check_lcs_conditions_all",
    "construct_candidate", "decode", "derive_params", "identify_items",
    "identify_strings", "load_design", "outcomes_from_bytes", "outcomes_to_bytes",
    "report", "run_experiment", "run_trial", "save_design", "simulate_outcomes",
    "smallk_pairs_ok", "total_test_bound", "verify_promising",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(bitmix).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert len(PUBLIC) == 45
    assert names == sorted(PUBLIC)
