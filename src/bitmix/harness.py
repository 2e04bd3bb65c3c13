"""Monte-Carlo experiment runner and report generation.

A run takes a grid of (n, k, xi, regime) cells; per cell it derives params,
builds one design, then simulates `trials` independent instances: draw k'
(uniform on [0, k] unless pinned), draw that many distinct defectives, push
them through the forward model, decode, compare.  Failures are classified as
duplicate-assignment (two defectives drew the same masking string),
string-miss / string-extra (batch-1 list wrong), or code-failure (list right,
index recovery wrong).

Determinism contract: the results object — and the results JSON written from
it — is a pure function of the config's semantic fields (cells, trials, seed,
verify, max_attempts).  Thread count never changes it: per-trial seeds are
derived independently from (master seed, cell index, trial index).  Wall-clock
decode timings are therefore kept out of the results file and written to a
sidecar `<out stem>.timings.json` instead; record_trials adds a third sidecar,
`<out stem>.trials.jsonl`, and leaves the results as they are.

Trials only read the design, which caches no table.

Every JSON object the harness reads (config, cell, params) is read through
its dataclass: the fields are the schema, and unknown keys are an error.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import build_design
from .errors import BitmixError, ConstructionFailed, InvalidInput, MalformedResultFile
from .masking import check_lcs_conditions_all
from .params import (
    REGIME_GENERAL,
    SchemeParams,
    checked_integer,
    derive_params,
    from_json_object,
    total_test_bound,
)
from .scheme import decode, simulate_outcomes
from .seeding import derive_seed

RESULTS_FORMAT = "bitmix-results"
RESULTS_VERSION = 1
TIMINGS_FORMAT = "bitmix-timings"

FAILURE_CLASSES = ("duplicate-assignment", "string-miss", "string-extra", "code-failure")


@dataclass
class CellSpec:
    n: int
    k: int
    xi: float = 0.0
    regime: str = REGIME_GENERAL
    kprime: object = "uniform"  # "uniform" or a pinned integer in [0, k]

    def __post_init__(self):
        # derive_params checks n, k, xi and regime: invalid cells fail fast,
        # before any trials run.
        params = derive_params(self.n, self.k, xi=self.xi, regime=self.regime)
        self.n, self.k, self.xi = params.n, params.k, params.xi
        if self.kprime != "uniform":
            # The CLI passes a pinned k' as its decimal string.
            kp = self.kprime
            self.kprime = checked_integer(
                "kprime", int(kp) if isinstance(kp, str) and kp.isdecimal() else kp
            )
            if not 0 <= self.kprime <= self.k:
                raise InvalidInput(f"pinned kprime must lie in [0, k], got {self.kprime}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "CellSpec":
        return from_json_object(cls, obj, "a cell")


@dataclass
class ExperimentConfig:
    cells: list
    trials: int
    seed: int
    verify: bool = True
    threads: int = 1
    record_trials: bool = False
    max_attempts: int | None = None

    def __post_init__(self):
        self.trials = checked_integer("trials", self.trials, 1)
        self.seed = checked_integer("seed", self.seed)
        self.threads = checked_integer("threads", self.threads, 1)
        if self.max_attempts is not None:
            self.max_attempts = checked_integer("max_attempts", self.max_attempts, 1)
        for name in ("verify", "record_trials"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidInput(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.cells, list):
            raise InvalidInput(f"cells must be a list, got {self.cells!r}")
        if not self.cells:
            raise InvalidInput("config needs at least one cell")
        self.cells = [
            c if isinstance(c, CellSpec) else CellSpec.from_json(c) for c in self.cells
        ]

    def semantic_json(self) -> dict:
        """The fields that determine results (threads and record_trials absent)."""
        obj = asdict(self)
        del obj["threads"], obj["record_trials"]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object; keys and scalars are checked, never coerced."""
        return from_json_object(cls, obj, "a config")


@dataclass
class TrialRecord:
    trial: int
    seed: int
    kprime: int
    cond1: bool
    cond2_all: bool
    list_size: int
    estimate_size: int
    success: bool
    failure: str
    string_failures: int
    # Not deterministic: kept out of the results, and of comparisons.
    batch1_seconds: float = field(compare=False)
    batch2_seconds: float = field(compare=False)


def _sample_distinct(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """size distinct values in [1, n], deterministic in the rng state."""
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if 2 * size > n:
        return np.sort(rng.choice(n, size=size, replace=False).astype(np.int64) + 1)
    seen: set[int] = set()
    while len(seen) < size:
        draw = int(rng.integers(1, n + 1))
        seen.add(draw)
    return np.sort(np.fromiter(seen, dtype=np.int64, count=size))


def classify_failure(success, defectives, string_idx, string_list) -> str:
    if success:
        return "none"
    # A sort, not np.unique, which imports numpy.ma on its first call.
    ordered = np.sort(string_idx)
    if (ordered[1:] == ordered[:-1]).any():
        return "duplicate-assignment"
    listed = set(int(s) for s in string_list)
    wanted = set(int(s) for s in string_idx)
    if wanted - listed:
        return "string-miss"
    if listed - wanted:
        return "string-extra"
    return "code-failure"


def run_trial(bundle, trial_index: int, trial_seed: int, kprime) -> TrialRecord:
    """One simulated instance end to end (pure given its seed)."""
    params = bundle.params
    rng = np.random.default_rng(trial_seed)
    if kprime == "uniform":
        kp = int(rng.integers(0, params.k + 1))
    else:
        kp = int(kprime)
    defectives = _sample_distinct(rng, params.n, kp)

    string_idx = bundle.assignment.index_of(defectives) if kp else np.empty(0, np.int64)
    cond = check_lcs_conditions_all(bundle.masking, string_idx)
    y1, y2 = simulate_outcomes(
        defectives,
        bundle.assignment,
        bundle.masking,
        bundle.codebook,
        rng=rng if params.xi > 0 else None,
    )
    result = decode(y1, y2, bundle.masking, bundle.codebook)
    truth = set(int(d) for d in defectives)
    success = result.estimate == truth
    failure = classify_failure(success, defectives, string_idx, result.string_list)
    return TrialRecord(
        trial=trial_index,
        seed=trial_seed,
        kprime=kp,
        cond1=cond["cond1"],
        cond2_all=cond["cond2_all"],
        list_size=int(result.string_list.size),
        estimate_size=len(result.estimate),
        success=success,
        failure=failure,
        string_failures=len(result.failures),
        batch1_seconds=result.batch1_seconds,
        batch2_seconds=result.batch2_seconds,
    )


def _run_cell(spec: CellSpec, cfg: ExperimentConfig, cell_index: int):
    """The cell's results record and its TrialRecords (none if construction failed)."""
    params = derive_params(spec.n, spec.k, xi=spec.xi, regime=spec.regime)
    record = {
        "cell_index": cell_index,
        "spec": spec.to_json(),
        "params": params.to_json(),
    }
    design_seed = derive_seed(cfg.seed, 1, cell_index)
    try:
        bundle = build_design(
            spec.n, spec.k, xi=spec.xi, regime=spec.regime,
            seed=design_seed, verify=cfg.verify, max_attempts=cfg.max_attempts,
        )
    except ConstructionFailed as exc:
        record["construction"] = {"seed": design_seed, "error": str(exc)}
        record["completed"] = False
        return record, []

    record["construction"] = {
        "seed": design_seed,
        "status": bundle.masking.status,
        "verified": cfg.verify,
    }

    seeds = [derive_seed(cfg.seed, 2, cell_index, t) for t in range(cfg.trials)]

    def one(args):
        t, s = args
        return run_trial(bundle, t, s, spec.kprime)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            trials = list(pool.map(one, enumerate(seeds)))
    else:
        trials = [one(pair) for pair in enumerate(seeds)]
    trials.sort(key=lambda r: r.trial)

    successes = sum(r.success for r in trials)
    failures = {name: 0 for name in FAILURE_CLASSES}
    for r in trials:
        if r.failure != "none":
            failures[r.failure] += 1
    cond_both = sum(r.cond1 and r.cond2_all for r in trials)
    cond_violations = sum(
        (r.cond1 and r.cond2_all and not r.success) for r in trials
    ) if spec.xi == 0.0 else None
    kp_hist = [0] * (spec.k + 1)
    for r in trials:
        kp_hist[r.kprime] += 1

    record.update(
        {
            "completed": True,
            "trials": cfg.trials,
            "successes": int(successes),
            "p_e": (cfg.trials - successes) / cfg.trials,
            "failures": failures,
            "cond_both": int(cond_both),
            "cond_violations": cond_violations,
            "kprime_hist": kp_hist,
            "string_failures": int(sum(r.string_failures for r in trials)),
            "list_oversize": int(sum(r.list_size > spec.k for r in trials)),
        }
    )
    return record, trials


def timings_path_for(results_path) -> str:
    base, _ = os.path.splitext(os.fspath(results_path))
    return base + ".timings.json"


def trials_path_for(results_path) -> str:
    base, _ = os.path.splitext(os.fspath(results_path))
    return base + ".trials.jsonl"


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig, out_path=None):
    """Run every cell; optionally persist results (+ timings sidecar).

    Returns (results, timings) as plain dicts.  The results dict is
    deterministic given the config's semantic fields; timings are not.  With
    record_trials, each TrialRecord (timings included) goes to a
    `<out stem>.trials.jsonl` sidecar, one line per trial.
    """
    cell_records = []
    cell_timings = []
    trial_lines = []
    for idx, spec in enumerate(cfg.cells):
        record, trials = _run_cell(spec, cfg, idx)
        cell_records.append(record)
        cell_timings.append({
            "cell_index": idx,
            "batch1_s": [r.batch1_seconds for r in trials],
            "batch2_s": [r.batch2_seconds for r in trials],
        })
        if cfg.record_trials:
            trial_lines += [{**asdict(r), "cell_index": idx} for r in trials]

    results = {
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "config": cfg.semantic_json(),
        "cells": cell_records,
        "completed": all(c["completed"] for c in cell_records),
    }
    timings = {"format": TIMINGS_FORMAT, "cells": cell_timings}

    if out_path is not None:
        _write_json(out_path, results)
        _write_json(timings_path_for(out_path), timings)
        if cfg.record_trials:
            with open(trials_path_for(out_path), "w", encoding="ascii") as fh:
                for line in trial_lines:
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
    return results, timings


# ---------------------------------------------------------------------------
# Reporting.

_CSV_COLUMNS = [
    "cell_index", "n", "k", "xi", "regime", "kprime", "trials", "successes",
    "p_e", "duplicate_assignment", "string_miss", "string_extra",
    "code_failure", "cond_both", "cond_violations", "w", "ell", "c1",
    "s_size", "t1", "t2", "t_total", "t_identity_ok", "t_bound",
    "bound_ratio", "decode_ms_median", "decode_ms_p90",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(round(value, 9))
    return str(value)


def load_results(path) -> dict:
    try:
        with open(path, encoding="ascii") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedResultFile(f"cannot read results from {path}: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != RESULTS_FORMAT:
        raise MalformedResultFile(f"{path}: not a results file")
    if obj.get("version") != RESULTS_VERSION:
        raise MalformedResultFile(f"{path}: unsupported version {obj.get('version')!r}")
    if "cells" not in obj or not isinstance(obj["cells"], list):
        raise MalformedResultFile(f"{path}: missing cells")
    return obj


def _decode_seconds(timing: dict) -> np.ndarray:
    """Per-trial decode seconds of a timings-sidecar cell: batch 1 plus batch 2."""
    try:
        batch1 = np.asarray(timing["batch1_s"], dtype=float)
        batch2 = np.asarray(timing["batch2_s"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedResultFile(f"timings cell malformed: {exc!r}") from exc
    if batch1.ndim != 1 or batch1.shape != batch2.shape:
        raise MalformedResultFile(
            f"timings cell malformed: batch1_s and batch2_s are not lists of "
            f"one length ({batch1.shape} vs {batch2.shape})"
        )
    return batch1 + batch2


def summarize(results: dict, timings: dict | None = None) -> list[dict]:
    """One flat summary row per cell (the CSV rows, pre-formatting).

    A cell's spec and params are read through CellSpec and SchemeParams; a
    cell they reject, a completed cell without its counters, or a timings
    cell without equally long batch1_s and batch2_s lists, raises
    MalformedResultFile.  Columns a cell cannot fill stay None.
    """
    try:
        timing_by_cell = {t.get("cell_index"): t for t in (timings or {}).get("cells", [])}
    except (TypeError, AttributeError) as exc:
        raise MalformedResultFile(f"timings malformed: {exc!r}") from exc
    rows = []
    for cell in results["cells"]:
        row = dict.fromkeys(_CSV_COLUMNS)
        try:
            spec = CellSpec.from_json(cell["spec"])
            params = SchemeParams.from_json(cell["params"], regime=spec.regime)
            row.update(cell_index=cell["cell_index"], **spec.to_json())
            if cell.get("completed"):
                row.update(trials=cell["trials"], successes=cell["successes"],
                           p_e=cell["p_e"], cond_both=cell.get("cond_both"),
                           cond_violations=cell.get("cond_violations"))
                fl = cell["failures"]
                row.update({name.replace("-", "_"): fl.get(name, 0) for name in FAILURE_CLASSES})
        except (BitmixError, KeyError, TypeError, AttributeError) as exc:
            raise MalformedResultFile(f"cell record malformed: {exc!r}") from exc
        for name in ("w", "ell", "c1", "s_size", "t1", "t2", "t_total"):
            row[name] = getattr(params, name)
        row["t_identity_ok"] = (
            params.t_total == params.c1 * params.k * params.w * (params.ell + 1)
        )
        if spec.regime == REGIME_GENERAL:
            bound = total_test_bound(params)
            row["t_bound"] = round(bound, 3)
            row["bound_ratio"] = round(params.t_total / bound, 6)
        timing = timing_by_cell.get(row["cell_index"])
        if timing and timing.get("batch1_s"):
            total_ms = 1e3 * _decode_seconds(timing)
            row["decode_ms_median"] = round(float(np.median(total_ms)), 6)
            row["decode_ms_p90"] = round(float(np.percentile(total_ms, 90)), 6)
        rows.append(row)
    return rows


def report(results_path, csv_path, cell_json_dir=None) -> str:
    """Render the per-cell summary CSV (and optional per-cell JSON files).

    Returns the CSV text that was written.  Raises MalformedResultFile for
    unreadable or structurally bad inputs; a timings sidecar is picked up
    automatically when present.
    """
    results = load_results(results_path)
    timings = None
    tpath = timings_path_for(results_path)
    if os.path.exists(tpath):
        try:
            with open(tpath, encoding="ascii") as fh:
                timings = json.load(fh)
        except (OSError, ValueError) as exc:
            raise MalformedResultFile(f"bad timings sidecar {tpath}: {exc}") from exc

    rows = summarize(results, timings)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in _CSV_COLUMNS])
    text = buf.getvalue()
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(text)

    if cell_json_dir is not None:
        os.makedirs(cell_json_dir, exist_ok=True)
        for cell in results["cells"]:
            _write_json(os.path.join(cell_json_dir, f"cell_{cell['cell_index']}.json"), cell)
    return text
