import json

import pytest

from bitmix.cli import main
from bitmix.bundle import _sha256, build_design, save_design


def test_build_and_verify_smallk(tmp_path, capsys):
    design = tmp_path / "design.json"
    rc = main([
        "build-design", "--n", "65536", "--k", "2", "--regime", "smallk",
        "--seed", "1", "--out", str(design),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=smallk_verified" in out
    assert "w=12" in out and "|S|=12" in out

    rc = main(["verify-set", "--design", str(design)])
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_verify_set_fails_on_unverified_general(tmp_path, capsys):
    path = tmp_path / "design.json"
    save_design(build_design(2**16, 5, seed=0, verify=False), path)
    rc = main(["verify-set", "--design", str(path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "first violation" in out


def test_verify_set_refuses_a_missing_or_edited_design(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["verify-set", "--design", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {missing}:")
    # the masking seed edited: without a new content hash the hash fails, and
    # with one the rebuilt offsets fail their digest
    path = tmp_path / "design.json"
    save_design(build_design(2**12, 4, seed=3, verify=False), path)
    payload = json.loads(path.read_text())
    payload["masking"]["seed"] += 1
    path.write_text(json.dumps(payload))
    assert main(["verify-set", "--design", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "hash" in err
    del payload["sha256"]
    payload["sha256"] = _sha256(payload)
    path.write_text(json.dumps(payload))
    assert main(["verify-set", "--design", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "offsets_sha256" in err


def test_build_design_missing_args(capsys):
    rc = main(["build-design", "--out", "/tmp/x.json"])
    assert rc == 2
    assert "requires" in capsys.readouterr().err


def test_build_design_construction_error(tmp_path, capsys):
    rc = main([
        "build-design", "--n", "16384", "--k", "5", "--seed", "0",
        "--max-attempts", "2", "--out", str(tmp_path / "d.json"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_and_report_flow(tmp_path, capsys):
    results = tmp_path / "results.json"
    rc = main([
        "run", "--n", "4096", "--k", "2", "--regime", "smallk",
        "--trials", "30", "--seed", "5", "--out", str(results),
        "--record-trials",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cell 0" in out and "30" in out
    assert results.exists()
    assert (tmp_path / "results.timings.json").exists()
    assert (tmp_path / "results.trials.jsonl").exists()

    csv_path = tmp_path / "summary.csv"
    rc = main(["report", "--results", str(results), "--out", str(csv_path)])
    assert rc == 0
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("cell_index,n,k,xi,regime")


def test_run_with_config_file(tmp_path, capsys):
    cfg = {
        "cells": [
            {"n": 4096, "k": 2, "regime": "smallk"},
            {"n": 2, "k": 1, "regime": "smallk"},
        ],
        "trials": 10,
        "seed": 9,
        "verify": False,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    results = tmp_path / "r.json"
    rc = main(["run", "--config", str(cfg_path), "--out", str(results)])
    assert rc == 0
    saved = json.loads(results.read_text())
    assert len(saved["cells"]) == 2
    assert saved["config"]["seed"] == 9
    capsys.readouterr()



def test_run_threads_flag_overrides_the_config(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_run_experiment(cfg, out_path):
        seen.append(cfg)
        return {"cells": [], "completed": True}, None

    monkeypatch.setattr("bitmix.cli.run_experiment", fake_run_experiment)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "cells": [{"n": 4096, "k": 2, "regime": "smallk"}],
        "trials": 10, "seed": 9, "threads": 2,
    }))
    out = str(tmp_path / "r.json")
    cell = ["--n", "4096", "--k", "2", "--regime", "smallk"]
    for argv, threads in [
        (["--config", str(cfg_path), "--threads", "1"], 1),
        (["--config", str(cfg_path), "--threads", "3"], 3),
        (["--config", str(cfg_path)], 2),
        (cell, 1),
        (cell + ["--threads", "2"], 2),
    ]:
        assert main(["run", *argv, "--out", out]) == 0
        assert seen.pop().threads == threads
    capsys.readouterr()

    # the override is validated like a config's own threads
    assert main(["run", "--config", str(cfg_path), "--threads", "0", "--out", out]) == 1
    assert "threads" in capsys.readouterr().err
    assert not seen

def test_run_config_refuses_cell_and_run_flags(tmp_path, monkeypatch, capsys):
    # the file sets every cell and run setting, so a flag that would set one
    # too is refused by name rather than ignored; even one that repeats a
    # default is refused
    seen = []
    monkeypatch.setattr("bitmix.cli.run_experiment",
                        lambda cfg, out_path: seen.append(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "cells": [{"n": 4096, "k": 2, "regime": "smallk"}], "trials": 3, "seed": 9,
    }))
    run = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]
    for flag in (["--n", "99"], ["--k", "7"], ["--xi", "0"], ["--regime", "general"],
                 ["--kprime", "uniform"], ["--trials", "50"], ["--seed", "0"],
                 ["--no-verify"], ["--record-trials"], ["--max-attempts", "3"]):
        assert main(run + flag) == 2
        assert flag[0] in capsys.readouterr().err
    assert main(run + ["--trials", "50", "--record-trials", "--n", "99", "--k", "7"]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in ("--trials", "--record-trials", "--n", "--k"))
    assert not seen


def test_run_rejects_a_bad_kprime(tmp_path, capsys):
    rc = main([
        "run", "--n", "4096", "--k", "2", "--regime", "smallk", "--kprime", "foo",
        "--trials", "1", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    for bad in (2.7, None, True, "foo"):
        cfg = {"cells": [{"n": 4096, "k": 2, "regime": "smallk", "kprime": bad}],
               "trials": 1, "seed": 0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "kprime" in capsys.readouterr().err
    # the config's own scalars are checked the same way
    for name, bad in [("max_attempts", "x"), ("verify", "no"), ("threads", 2.7),
                      ("record_trials", "yes"), ("trials", "10"),
                      ("cells", {"n": 4096, "k": 2, "regime": "smallk"})]:
        cfg = {"cells": [{"n": 4096, "k": 2, "regime": "smallk"}], "trials": 1, "seed": 0}
        cfg[name] = bad
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert f"error: {name}" in capsys.readouterr().err
    # a misspelt config or cell key is refused, not run with its default
    cell = {"n": 4096, "k": 2, "regime": "smallk"}
    for cfg in ({"cells": [cell], "trials": 1, "seed": 0, "verfiy": False},
                {"cells": [{**cell, "kprim": 1}], "trials": 1, "seed": 0}):
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_run_refuses_an_unreadable_config(tmp_path, capsys):
    # a missing or truncated file is a typed error naming the file, not a traceback
    missing, truncated = tmp_path / "none.json", tmp_path / "cut.json"
    truncated.write_text('{"cells": [')
    for path in (missing, truncated):
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "r.json").exists()


def test_run_refuses_a_missing_out_directory_before_any_trial(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr("bitmix.cli.run_experiment",
                        lambda cfg, out_path: seen.append(cfg))
    out = tmp_path / "no-such-dir" / "r.json"
    rc = main(["run", "--n", "4096", "--k", "2", "--regime", "smallk",
               "--trials", "5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert not seen


def test_run_missing_cell_args(tmp_path, capsys):
    rc = main(["run", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    capsys.readouterr()


def test_run_exit_code_on_construction_failure(tmp_path, capsys):
    rc = main([
        "run", "--n", "16384", "--k", "5", "--trials", "5", "--seed", "0",
        "--max-attempts", "2", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


def test_run_refuses_n_of_2_63(tmp_path, capsys):
    # items are numbered in int64: refused before a design is built
    out = tmp_path / "r.json"
    rc = main(["run", "--n", "9223372036854775808", "--k", "3", "--no-verify",
               "--trials", "2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: n must be below 2^63")
    assert not out.exists()


def test_report_missing_results(tmp_path, capsys):
    rc = main(["report", "--results", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
