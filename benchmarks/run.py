#!/usr/bin/env python3
"""bitmix benchmark: per-decode latency and Monte-Carlo sweep throughput.

  python3 benchmarks/run.py --workload clean-k10 --seed 1 --seconds 30 --trace 0
  python3 benchmarks/run.py --workload all --seed 1 --seconds 30
  python3 benchmarks/run.py --compare PARENT.txt CHANGE.txt

A run prints a `# run {...}` line (workload, seed, sample counts, machine),
its metrics by name and unit, and last one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones.  The exit code is 0
only when every correctness check passed.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Import bitmix from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import bitmix
    except ImportError as exc:
        raise SystemExit(f"error: no bitmix package under {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(bitmix.__file__))
    if where != os.path.join(SRC, "bitmix"):
        raise SystemExit(f"error: bitmix was imported from {where}, not from {SRC}")


def git_sha() -> str:
    """The checkout's HEAD commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def run_one(args) -> int:
    spec = load_spec()
    import_program()
    import bench
    import tracing

    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    wl = bench.WORKLOADS[args.workload]
    if args.smoke:
        wl = bench.smoke(wl)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        run = bench.Run(wl, args.seed, args.seconds, workdir, tracer=tracer,
                        smoke=args.smoke)
        values = run.execute()
    if set(values) != set(units):
        raise SystemExit(f"error: metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")

    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "samples": run.samples,
            "machine": machine_info()}
    print("# run " + json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        print(f"#   {name:<44} {values[name]:>16.6f} {unit}")
    for problem in run.problems:
        print(f"# FAILED: {problem}")
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS is its own."""
    import_program()
    import bench

    status = 0
    for name in bench.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="a few instances per phase; a self-check, not a measurement")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two files of captured run outputs")
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare, spec=load_spec())
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
