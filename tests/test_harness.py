import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bitmix.bundle import build_design
from bitmix.cli import main
from bitmix.errors import InvalidInput, MalformedResultFile
from bitmix.harness import (
    CellSpec,
    ExperimentConfig,
    classify_failure,
    load_results,
    report,
    run_experiment,
    run_trial,
    summarize,
    timings_path_for,
    trials_path_for,
)
from bitmix.params import REGIME_SMALLK

DATA = os.path.join(os.path.dirname(__file__), "data")


def _smallk_cell(**kw):
    args = dict(n=2**12, k=2, regime=REGIME_SMALLK)
    args.update(kw)
    return CellSpec(**args)


def test_cellspec_validation():
    with pytest.raises(InvalidInput):
        CellSpec(n=2**12, k=2, regime="nope")
    with pytest.raises(InvalidInput):
        CellSpec(n=2**12, k=2, regime=REGIME_SMALLK, kprime=3)
    with pytest.raises(InvalidInput):
        CellSpec(n=2**12, k=1)  # general regime needs k >= 2
    spec = CellSpec(n=2**12, k=2, regime=REGIME_SMALLK, kprime="2")
    assert spec.kprime == 2
    assert CellSpec(n=2**12, k=2, regime=REGIME_SMALLK, kprime=np.int64(1)).kprime == 1
    for bad in ("foo", "2.0", None, 2.7, 2.0, True, [1]):
        with pytest.raises(InvalidInput, match="kprime"):
            CellSpec(n=2**12, k=2, regime=REGIME_SMALLK, kprime=bad)
    # a JSON cell's scalars are checked, not coerced
    base = {"n": 2**12, "k": 2, "regime": REGIME_SMALLK}
    for name, bad in [("n", 4096.9), ("n", "4096"), ("k", 2.5), ("k", True),
                      ("xi", "0"), ("xi", None), ("xi", False)]:
        with pytest.raises(InvalidInput, match=f"^{name} must"):
            CellSpec.from_json({**base, name: bad})
    for bad in ([4096, 2], {"n": 2**12}, "cell"):
        with pytest.raises(InvalidInput, match="needs n and k"):
            CellSpec.from_json(bad)
    # a misspelt key is an error, not a default
    for typo in ("kprim", "regim", "Xi"):
        with pytest.raises(InvalidInput, match=f"unknown keys \\['{typo}'\\]"):
            CellSpec.from_json({**base, typo: 1})


def test_cellspec_json_round_trip():
    spec = _smallk_cell(kprime=1, xi=0.0)
    assert CellSpec.from_json(spec.to_json()) == spec


def test_config_validation_and_semantics():
    cell = _smallk_cell()
    with pytest.raises(InvalidInput):
        ExperimentConfig(cells=[], trials=5, seed=0)
    with pytest.raises(InvalidInput):
        ExperimentConfig(cells=[cell], trials=0, seed=0)
    cfg = ExperimentConfig(cells=[cell], trials=5, seed=0, threads=8, record_trials=True)
    sem = cfg.semantic_json()
    assert "threads" not in sem and "record_trials" not in sem
    assert sem["trials"] == 5 and sem["seed"] == 0
    # dict cells are accepted and normalized
    cfg2 = ExperimentConfig(cells=[cell.to_json()], trials=5, seed=0)
    assert cfg2.cells[0] == cell
    # a JSON config's scalars are checked, not coerced
    base = {"cells": [cell.to_json()], "trials": 5, "seed": 0}
    ok = ExperimentConfig.from_json(
        {**base, "verify": False, "threads": 2, "record_trials": True, "max_attempts": 3}
    )
    assert (ok.verify, ok.threads, ok.record_trials, ok.max_attempts) == (False, 2, True, 3)
    for name, bad in [
        ("max_attempts", "x"), ("max_attempts", 0), ("max_attempts", 2.0),
        ("verify", "no"), ("verify", 1), ("threads", 2.7), ("threads", "2"),
        ("record_trials", 1), ("record_trials", None), ("trials", "5"),
        ("trials", True), ("seed", 1.5), ("seed", None),
    ]:
        with pytest.raises(InvalidInput, match=f"^{name} must"):
            ExperimentConfig.from_json({**base, name: bad})
    with pytest.raises(InvalidInput, match="cells must be a list"):
        ExperimentConfig.from_json({**base, "cells": cell.to_json()})
    # a misspelt key is an error, not a default
    for typo in ("verfiy", "thread", "record_trial", "max_attempt", "cell"):
        with pytest.raises(InvalidInput, match=f"unknown keys \\['{typo}'\\]"):
            ExperimentConfig.from_json({**base, typo: False})
    with pytest.raises(InvalidInput, match="unknown keys"):
        ExperimentConfig.from_json({**base, "cells": [{**cell.to_json(), "kprim": 1}]})
    for missing in ("cells", "trials", "seed"):
        with pytest.raises(InvalidInput, match="needs cells, trials and seed"):
            ExperimentConfig.from_json({k: v for k, v in base.items() if k != missing})


def test_config_from_json_round_trip():
    cfg = ExperimentConfig(cells=[_smallk_cell()], trials=7, seed=3, verify=False)
    back = ExperimentConfig.from_json(json.loads(json.dumps(cfg.semantic_json())))
    assert back.cells == cfg.cells
    assert back.trials == cfg.trials and back.seed == cfg.seed
    assert back.verify is False


def test_classify_failure_precedence():
    d = np.array([3, 9])
    assert classify_failure(True, d, np.array([1, 5]), np.array([1, 5])) == "none"
    # duplicate assignment wins over everything else
    assert (
        classify_failure(False, d, np.array([4, 4]), np.array([4]))
        == "duplicate-assignment"
    )
    assert classify_failure(False, d, np.array([1, 5]), np.array([1])) == "string-miss"
    assert (
        classify_failure(False, d, np.array([1, 5]), np.array([1, 2, 5]))
        == "string-extra"
    )
    assert classify_failure(False, d, np.array([1, 5]), np.array([1, 5])) == "code-failure"


def test_classify_failure_finds_a_repeat_anywhere():
    d = np.array([3, 9, 12, 40])
    for strings in ([7, 1, 7, 2], [1, 2, 3, 1], [5, 5, 5, 5]):
        assert classify_failure(False, d, np.array(strings), np.array(strings)) \
            == "duplicate-assignment"
    assert classify_failure(False, d, np.array([4, 1, 3, 2]), np.array([1, 2, 3, 4])) \
        == "code-failure"


def test_a_trial_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 0.76 MB of RSS in
    # every `bitmix run` process; a trial tests distinctness with a sort.
    # xi > 0 and some trials that fail reach every path of a trial.
    script = """
import sys
from bitmix.bundle import build_design
from bitmix.harness import run_trial
bundle = build_design(2**12, 4, xi=0.1, regime="smallk", seed=1, verify=False)
records = [run_trial(bundle, i, 100 + i, 4) for i in range(20)]
assert not all(r.success for r in records)
print("numpy.ma" in sys.modules)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_trial_deterministic():
    bundle = build_design(2**12, 2, regime=REGIME_SMALLK, seed=5)
    a = run_trial(bundle, 0, trial_seed=42, kprime="uniform")
    b = run_trial(bundle, 0, trial_seed=42, kprime="uniform")
    assert a == b  # timing fields excluded from comparison
    pinned = run_trial(bundle, 0, trial_seed=43, kprime=2)
    assert pinned.kprime == 2


def test_results_identical_across_threads():
    # the noisy general cell draws batch-2 noise and runs the noisy decoder
    cells = [_smallk_cell(), _smallk_cell(kprime=2), CellSpec(n=2**12, k=3, xi=0.05)]
    base = dict(cells=cells, trials=40, seed=11, verify=False)
    res1, _ = run_experiment(ExperimentConfig(threads=1, **base))
    res3, _ = run_experiment(ExperimentConfig(threads=3, **base))
    assert json.dumps(res1, sort_keys=True) == json.dumps(res3, sort_keys=True)


def test_cell_accounting():
    cfg = ExperimentConfig(cells=[_smallk_cell()], trials=60, seed=7)
    results, timings = run_experiment(cfg)
    cell = results["cells"][0]
    assert cell["completed"]
    assert cell["successes"] + sum(cell["failures"].values()) == 60
    assert cell["p_e"] == (60 - cell["successes"]) / 60
    assert sum(cell["kprime_hist"]) == 60
    assert len(cell["kprime_hist"]) == cell["spec"]["k"] + 1
    # noiseless cell: conditions-hold trials must all have succeeded
    assert cell["cond_violations"] == 0
    assert len(timings["cells"][0]["batch1_s"]) == 60


def test_pinned_zero_defectives_cell():
    cfg = ExperimentConfig(cells=[_smallk_cell(kprime=0)], trials=20, seed=1)
    results, _ = run_experiment(cfg)
    cell = results["cells"][0]
    assert cell["successes"] == 20
    assert cell["kprime_hist"][0] == 20
    assert cell["p_e"] == 0.0


def test_construction_failure_is_recorded_not_raised():
    # a general cell under verify=True at desk scale cannot pass the
    # certificate; the run must record that and keep going (the second cell
    # is a single-string design, which accepts on the first attempt)
    cells = [CellSpec(n=2**14, k=5), CellSpec(n=2, k=1, regime=REGIME_SMALLK)]
    cfg = ExperimentConfig(cells=cells, trials=5, seed=2, verify=True, max_attempts=2)
    results, timings = run_experiment(cfg)
    first, second = results["cells"]
    assert first["completed"] is False
    assert "error" in first["construction"]
    assert second["completed"] is True
    assert results["completed"] is False
    assert timings["cells"][0]["batch1_s"] == []


def test_persisted_files_and_trial_records(tmp_path):
    out = tmp_path / "results.json"
    cfg = ExperimentConfig(
        cells=[_smallk_cell()], trials=15, seed=4, record_trials=True
    )
    results, timings = run_experiment(cfg, out_path=out)
    assert os.path.exists(out)
    assert os.path.exists(timings_path_for(out))
    assert os.path.exists(trials_path_for(out))

    back = load_results(out)
    assert json.dumps(back, sort_keys=True) == json.dumps(results, sort_keys=True)
    # recording trials changes no byte of the results
    plain, _ = run_experiment(ExperimentConfig(cells=[_smallk_cell()], trials=15, seed=4))
    assert json.dumps(plain, sort_keys=True) == json.dumps(results, sort_keys=True)

    lines = [json.loads(l) for l in open(trials_path_for(out))]
    assert len(lines) == 15
    assert {l["trial"] for l in lines} == set(range(15))
    for l in lines:
        assert set(l) == {
            "cell_index", "trial", "seed", "kprime", "cond1", "cond2_all", "list_size",
            "estimate_size", "success", "failure", "string_failures",
            "batch1_seconds", "batch2_seconds",
        }
        assert l["cell_index"] == 0
        assert l["batch1_seconds"] == timings["cells"][0]["batch1_s"][l["trial"]]
        assert l["batch2_seconds"] == timings["cells"][0]["batch2_s"][l["trial"]]
        assert l["failure"] == "none" or not l["success"]


def test_load_results_errors(tmp_path):
    with pytest.raises(MalformedResultFile):
        load_results(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedResultFile):
        load_results(bad)
    bad.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(MalformedResultFile):
        load_results(bad)


def test_summarize_requires_sane_cells(tmp_path, capsys):
    with pytest.raises(MalformedResultFile):
        summarize({"cells": [{"cell_index": 0}]})
    with open(os.path.join(DATA, "golden_results.json")) as fh:
        golden = json.load(fh)
    breaks = [
        lambda cell: cell["params"].pop("w"),
        lambda cell: cell.update(params=list(cell["params"].values())),
        lambda cell: cell.pop("failures"),
        lambda cell: cell["params"].update(w=259.5),
        lambda cell: cell["spec"].update(kprim=1),
    ]
    for i, spoil in enumerate(breaks):
        results = copy.deepcopy(golden)
        spoil(results["cells"][1])
        with pytest.raises(MalformedResultFile, match="cell record malformed"):
            summarize(results)
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(results))
        rc = main(["report", "--results", str(path), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "error: cell record malformed" in capsys.readouterr().err
    with open(os.path.join(DATA, "golden_results.timings.json")) as fh:
        golden_timings = json.load(fh)
    timing_breaks = [
        lambda cell: cell.pop("batch2_s"),
        lambda cell: cell["batch2_s"].pop(),
        lambda cell: cell.update(batch2_s="slow"),
        lambda cell: cell.update(batch2_s=0.5),
    ]
    for i, spoil in enumerate(timing_breaks):
        timings = copy.deepcopy(golden_timings)
        spoil(timings["cells"][1])
        with pytest.raises(MalformedResultFile, match="timings cell malformed"):
            summarize(golden, timings)
        path = tmp_path / f"timed{i}.json"
        path.write_text(json.dumps(golden))
        with open(timings_path_for(str(path)), "w") as fh:
            json.dump(timings, fh)
        rc = main(["report", "--results", str(path), "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "error: timings cell malformed" in capsys.readouterr().err
    for timings in ({"cells": [7]}, {"cells": 7}, [1]):
        with pytest.raises(MalformedResultFile, match="timings malformed"):
            summarize(golden, timings)


def test_summarize_without_timings():
    cfg = ExperimentConfig(cells=[_smallk_cell()], trials=5, seed=0)
    results, _ = run_experiment(cfg)
    rows = summarize(results)
    assert rows[0]["decode_ms_median"] is None
    assert rows[0]["t_identity_ok"] is True
    assert rows[0]["bound_ratio"] is None  # bound applies to the general regime


def test_report_golden_fixture(tmp_path):
    # the checked-in results/timings pair must render to the checked-in CSV
    # byte for byte
    src = os.path.join(DATA, "golden_results.json")
    csv_out = tmp_path / "summary.csv"
    text = report(src, csv_out)
    with open(os.path.join(DATA, "golden_summary.csv")) as fh:
        assert text == fh.read()
    assert csv_out.read_text() == text


def test_golden_results_reproduce():
    # re-running the fixture's config reproduces its results dict exactly
    with open(os.path.join(DATA, "golden_results.json")) as fh:
        golden = json.load(fh)
    cfg = ExperimentConfig.from_json(golden["config"])
    cfg.threads = 2
    results, _ = run_experiment(cfg)
    assert json.dumps(results, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_report_cell_json_dir(tmp_path):
    src = os.path.join(DATA, "golden_results.json")
    outdir = tmp_path / "cells"
    outdir.mkdir()
    report(src, tmp_path / "s.csv", cell_json_dir=outdir)
    files = sorted(os.listdir(outdir))
    assert len(files) == 2
    first = json.loads((outdir / files[0]).read_text())
    assert first["cell_index"] == 0
