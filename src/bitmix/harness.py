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
sidecar `<out stem>.timings.json` instead.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bundle import build_design
from .errors import ConstructionFailed, InvalidInput, MalformedResultFile
from .masking import check_lcs_conditions_all
from .params import REGIMES, REGIME_GENERAL, derive_params, total_test_bound
from .scheme import decode, simulate_outcomes
from .seeding import derive_seed

RESULTS_FORMAT = "bitmix-results"
RESULTS_VERSION = 1
TIMINGS_FORMAT = "bitmix-timings"

FAILURE_CLASSES = ("duplicate-assignment", "string-miss", "string-extra", "code-failure")


def _pinned_kprime(value) -> int:
    """A pinned k' given as an integer or as its decimal string (CLI flag)."""
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise InvalidInput(f'kprime must be "uniform" or an integer, got {value!r}')


def _checked_integer(name: str, value, low=None) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if low is None or value >= low:
            return int(value)
    raise InvalidInput(f"{name} must be an integer{'' if low is None else f' >= {low}'}, "
                       f"got {value!r}")


@dataclass
class CellSpec:
    n: int
    k: int
    xi: float = 0.0
    regime: str = REGIME_GENERAL
    kprime: object = "uniform"  # "uniform" or a pinned integer in [0, k]

    def __post_init__(self):
        self.n = _checked_integer("n", self.n)
        self.k = _checked_integer("k", self.k)
        if not isinstance(self.xi, numbers.Real) or isinstance(self.xi, bool):
            raise InvalidInput(f"xi must be a number, got {self.xi!r}")
        self.xi = float(self.xi)
        if self.regime not in REGIMES:
            raise InvalidInput(f"unknown regime {self.regime!r}")
        if self.kprime != "uniform":
            self.kprime = _pinned_kprime(self.kprime)
            if not 0 <= self.kprime <= self.k:
                raise InvalidInput(f"pinned kprime must lie in [0, k], got {self.kprime}")
        # Fail fast on invalid cells, before any trials run.
        derive_params(self.n, self.k, xi=self.xi, regime=self.regime)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "xi": self.xi,
            "regime": self.regime,
            "kprime": self.kprime,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CellSpec":
        if not isinstance(obj, dict) or not {"n", "k"} <= obj.keys():
            raise InvalidInput(f"a cell needs n and k, got {obj!r}")
        return cls(
            n=obj["n"],
            k=obj["k"],
            xi=obj.get("xi", 0.0),
            regime=obj.get("regime", REGIME_GENERAL),
            kprime=obj.get("kprime", "uniform"),
        )


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
        self.trials = _checked_integer("trials", self.trials, 1)
        self.seed = _checked_integer("seed", self.seed)
        self.threads = _checked_integer("threads", self.threads, 1)
        if self.max_attempts is not None:
            self.max_attempts = _checked_integer("max_attempts", self.max_attempts, 1)
        for name in ("verify", "record_trials"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidInput(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not self.cells:
            raise InvalidInput("config needs at least one cell")
        self.cells = [
            c if isinstance(c, CellSpec) else CellSpec.from_json(c) for c in self.cells
        ]

    def semantic_json(self) -> dict:
        """The fields that determine results (threads intentionally absent)."""
        return {
            "cells": [c.to_json() for c in self.cells],
            "trials": self.trials,
            "seed": self.seed,
            "verify": self.verify,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """The config of a JSON object; scalars are checked, never coerced."""
        if not isinstance(obj, dict) or not {"cells", "trials", "seed"} <= obj.keys():
            raise InvalidInput("a config needs cells, trials and seed")
        if not isinstance(obj["cells"], list):
            raise InvalidInput(f"cells must be a list, got {obj['cells']!r}")
        return cls(
            cells=[CellSpec.from_json(c) for c in obj["cells"]],
            trials=obj["trials"],
            seed=obj["seed"],
            verify=obj.get("verify", True),
            threads=obj.get("threads", 1),
            record_trials=obj.get("record_trials", False),
            max_attempts=obj.get("max_attempts"),
        )


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
    batch1_seconds: float = field(compare=False)
    batch2_seconds: float = field(compare=False)

    def to_json(self) -> dict:
        # Timings deliberately excluded: they are not deterministic.
        return {
            "trial": self.trial,
            "seed": self.seed,
            "kprime": self.kprime,
            "cond1": self.cond1,
            "cond2_all": self.cond2_all,
            "list_size": self.list_size,
            "estimate_size": self.estimate_size,
            "success": self.success,
            "failure": self.failure,
            "string_failures": self.string_failures,
        }


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


def classify_failure(success, defectives, string_idx, string_list, estimate) -> str:
    if success:
        return "none"
    if np.unique(string_idx).size < len(defectives):
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
    failure = classify_failure(
        success, defectives, string_idx, result.string_list, result.estimate
    )
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
    params = derive_params(spec.n, spec.k, xi=spec.xi, regime=spec.regime)
    record = {
        "cell_index": cell_index,
        "spec": spec.to_json(),
        "params": params.to_json(),
    }
    timings = {"cell_index": cell_index, "batch1_s": [], "batch2_s": []}
    design_seed = derive_seed(cfg.seed, 1, cell_index)
    try:
        kwargs = {}
        if cfg.max_attempts is not None:
            kwargs["max_attempts"] = cfg.max_attempts
        bundle = build_design(
            spec.n, spec.k, xi=spec.xi, regime=spec.regime,
            seed=design_seed, verify=cfg.verify, **kwargs,
        )
    except ConstructionFailed as exc:
        record["construction"] = {"seed": design_seed, "error": str(exc)}
        record["completed"] = False
        return record, timings

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
    if cfg.record_trials:
        record["trial_records"] = [r.to_json() for r in trials]
    timings["batch1_s"] = [r.batch1_seconds for r in trials]
    timings["batch2_s"] = [r.batch2_seconds for r in trials]
    return record, timings


def timings_path_for(results_path) -> str:
    base, _ = os.path.splitext(os.fspath(results_path))
    return base + ".timings.json"


def trials_path_for(results_path) -> str:
    base, _ = os.path.splitext(os.fspath(results_path))
    return base + ".trials.jsonl"


def run_experiment(cfg: ExperimentConfig, out_path=None):
    """Run every cell; optionally persist results (+ timings sidecar).

    Returns (results, timings) as plain dicts.  The results dict is
    deterministic given the config's semantic fields; timings are not.
    """
    cell_records = []
    cell_timings = []
    for idx, spec in enumerate(cfg.cells):
        record, timing = _run_cell(spec, cfg, idx)
        cell_records.append(record)
        cell_timings.append(timing)

    results = {
        "format": RESULTS_FORMAT,
        "version": RESULTS_VERSION,
        "config": cfg.semantic_json(),
        "cells": cell_records,
        "completed": all(c["completed"] for c in cell_records),
    }
    timings = {"format": TIMINGS_FORMAT, "cells": cell_timings}

    if out_path is not None:
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(results, fh, sort_keys=True, indent=1)
            fh.write("\n")
        with open(timings_path_for(out_path), "w", encoding="ascii") as fh:
            json.dump(timings, fh, sort_keys=True, indent=1)
            fh.write("\n")
        if cfg.record_trials:
            with open(trials_path_for(out_path), "w", encoding="ascii") as fh:
                for record, timing in zip(cell_records, cell_timings):
                    for r in record.get("trial_records", []):
                        line = dict(r)
                        line["cell_index"] = record["cell_index"]
                        t = r["trial"]
                        line["batch1_seconds"] = timing["batch1_s"][t]
                        line["batch2_seconds"] = timing["batch2_s"][t]
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


def summarize(results: dict, timings: dict | None = None) -> list[dict]:
    """One flat summary row per cell (the CSV rows, pre-formatting)."""
    timing_by_cell = {}
    if timings:
        for t in timings.get("cells", []):
            timing_by_cell[t.get("cell_index")] = t
    rows = []
    for cell in results["cells"]:
        try:
            spec = cell["spec"]
            params = cell["params"]
            row = {
                "cell_index": cell["cell_index"],
                "n": spec["n"], "k": spec["k"], "xi": spec["xi"],
                "regime": spec["regime"], "kprime": spec["kprime"],
            }
        except (KeyError, TypeError) as exc:
            raise MalformedResultFile(f"cell record malformed: {exc}") from exc
        for name in ("w", "ell", "c1", "s_size", "t1", "t2"):
            row[name] = params[name]
        t_total = params["t1"] + params["t2"]
        row["t_total"] = t_total
        row["t_identity_ok"] = (
            t_total == params["c1"] * params["k"] * params["w"] * (params["ell"] + 1)
        )
        if spec["regime"] == REGIME_GENERAL:
            sp = derive_params(spec["n"], spec["k"], xi=spec["xi"], regime=spec["regime"])
            bound = total_test_bound(sp)
            row["t_bound"] = round(bound, 3)
            row["bound_ratio"] = round(t_total / bound, 6)
        else:
            row["t_bound"] = None
            row["bound_ratio"] = None
        if cell.get("completed"):
            row["trials"] = cell["trials"]
            row["successes"] = cell["successes"]
            row["p_e"] = cell["p_e"]
            fl = cell["failures"]
            row["duplicate_assignment"] = fl.get("duplicate-assignment", 0)
            row["string_miss"] = fl.get("string-miss", 0)
            row["string_extra"] = fl.get("string-extra", 0)
            row["code_failure"] = fl.get("code-failure", 0)
            row["cond_both"] = cell.get("cond_both")
            row["cond_violations"] = cell.get("cond_violations")
        else:
            for name in ("trials", "successes", "p_e", "duplicate_assignment",
                         "string_miss", "string_extra", "code_failure",
                         "cond_both", "cond_violations"):
                row[name] = None
        timing = timing_by_cell.get(cell["cell_index"])
        if timing and timing.get("batch1_s"):
            total_ms = 1e3 * (
                np.asarray(timing["batch1_s"]) + np.asarray(timing["batch2_s"])
            )
            row["decode_ms_median"] = round(float(np.median(total_ms)), 6)
            row["decode_ms_p90"] = round(float(np.percentile(total_ms, 90)), 6)
        else:
            row["decode_ms_median"] = None
            row["decode_ms_p90"] = None
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
            out = os.path.join(cell_json_dir, f"cell_{cell['cell_index']}.json")
            with open(out, "w", encoding="ascii") as fh:
                json.dump(cell, fh, sort_keys=True, indent=1)
                fh.write("\n")
    return text
