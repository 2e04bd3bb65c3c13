"""Self-checks of the benchmark: run with `python3 -m pytest benchmarks -q`.

Every workload runs in the short --smoke mode, untraced and traced, and must
print exactly the metrics BENCHMARK.json names.  The tracer must put back
every function it wrapped, compare mode must flag a regression, and the
benchmark must refuse to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compare  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_smoke_run_is_deterministic_per_seed():
    ratios = []
    for _ in range(2):
        proc = _run("--workload", "clean-k10", "--seed", "5", "--seconds", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        ratios.append(json.loads(proc.stdout.strip().splitlines()[-1])
                      ["metrics"]["success_ratio"]["value"])
    assert ratios[0] == ratios[1]


def test_tracer_restores_wrapped_functions_and_nests_spans():
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr, _, _), fn in zip(tracing.TARGETS, before))
        from bitmix.gf import get_field

        field = get_field(4)
        with tracer.span("root"):
            field.div(3, 5)  # div calls inv and mul: two child spans
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS] == before
    assert tracer.count(("gf.div", "gf.inv", "gf.mul"), "root") == 3
    div = tracer.select("gf.div", "root")[0]
    children = tracer.select(("gf.inv", "gf.mul"), "root")
    assert tracer.self_ns[div] == tracer.dur_ns[div] - sum(tracer.dur_ns[i] for i in children)
    assert all(tracer.parent[i] == div for i in children)


def _write_runs(path, workload, values_by_seed):
    with open(path, "w", encoding="utf-8") as fh:
        for seed, value in values_by_seed.items():
            info = {"workload": workload, "seed": seed, "trace": 0,
                    "machine": {"nproc": 2, "python": "3", "numpy": "2"}}
            fh.write("# run " + json.dumps(info) + "\n")
            metrics = {"decode_p90_ms": {"value": value, "unit": "ms"}}
            fh.write(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                 "metrics": metrics}) + "\n")


def test_compare_flags_a_regression_and_an_improvement(tmp_path, capsys):
    parent, slow, fast = tmp_path / "parent", tmp_path / "slow", tmp_path / "fast"
    _write_runs(parent, "clean-k10", {s: 10.0 + 0.01 * s for s in range(10)})
    _write_runs(slow, "clean-k10", {s: 20.0 + 0.01 * s for s in range(10)})
    _write_runs(fast, "clean-k10", {s: 5.0 + 0.01 * s for s in range(10)})
    assert compare.main(str(parent), str(slow), spec=SPEC) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert compare.main(str(parent), str(fast), spec=SPEC) == 0
    assert "improved (10/10 pairs)" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "clean-k10", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
