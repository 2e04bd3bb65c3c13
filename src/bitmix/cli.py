"""Command-line interface.

Subcommands:
  build-design  construct and persist a design bundle for one (n, k, xi) cell
  verify-set    re-run the collision certificate on a persisted design
  run           Monte-Carlo experiment over one cell or a JSON config grid
  report        render a results file to a per-cell CSV summary
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bundle import build_design, load_design, save_design
from .errors import BitmixError
from .harness import (
    CellSpec,
    ExperimentConfig,
    report,
    run_experiment,
    timings_path_for,
)
from .masking import smallk_pairs_ok, verify_promising
from .params import REGIMES, REGIME_GENERAL, REGIME_SMALLK


def _add_cell_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="number of items")
    p.add_argument("--k", type=int, help="maximum number of defectives")
    p.add_argument("--xi", type=float, default=0.0, help="test flip probability")
    p.add_argument("--regime", choices=REGIMES, default=REGIME_GENERAL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bitmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-design", help="construct and save a design bundle")
    _add_cell_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output design file")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the collision certificate (status stays unverified)")
    p.add_argument("--max-attempts", type=int, default=None)

    p = sub.add_parser("verify-set", help="re-run the certificate on a saved design")
    p.add_argument("--design", required=True, help="design bundle file")

    p = sub.add_parser("run", help="run Monte-Carlo trials")
    _add_cell_args(p)
    p.add_argument("--kprime", default="uniform",
                   help='defective count per trial: "uniform" or a fixed integer')
    p.add_argument("--config", help="JSON experiment config (overrides cell flags)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="results JSON path")
    p.add_argument("--threads", type=int, default=None,
                   help="sweep threads (default 1; with --config, overrides its threads)")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--record-trials", action="store_true",
                   help="also write a per-trial JSONL next to the results")
    p.add_argument("--max-attempts", type=int, default=None)

    p = sub.add_parser("report", help="summarize results into CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--cell-json", default=None, help="directory for per-cell JSON")
    return parser


def _cmd_build_design(args) -> int:
    if args.n is None or args.k is None:
        print("build-design requires --n and --k", file=sys.stderr)
        return 2
    bundle = build_design(
        args.n, args.k, xi=args.xi, regime=args.regime, seed=args.seed,
        verify=not args.no_verify, max_attempts=args.max_attempts,
    )
    save_design(bundle, args.out)
    p = bundle.params
    print(
        f"design: n={p.n} k={p.k} xi={p.xi} regime={p.regime} "
        f"w={p.w} ell={p.ell} c1={p.c1} |S|={p.s_size} t1={p.t1} t2={p.t2} "
        f"status={bundle.masking.status} -> {args.out}"
    )
    return 0


def _cmd_verify_set(args) -> int:
    mset = load_design(args.design).masking
    regime = mset.params.regime
    if regime == REGIME_SMALLK:
        ok = smallk_pairs_ok(mset)
        print(f"pairwise collision bound w/(2k): {'pass' if ok else 'FAIL'}")
    else:
        rep = verify_promising(mset)
        ok = rep.passed
        tags = []
        if rep.generalized:
            tags.append("generalized c1")
        if rep.degenerate:
            tags.append("degenerate |S|<2")
        suffix = f" ({', '.join(tags)})" if tags else ""
        print(f"collision certificate: {'pass' if ok else 'FAIL'}{suffix}")
        if rep.first_violation is not None:
            idx, cond, detail = rep.first_violation
            print(f"first violation: string {idx}, condition {cond}: {detail}")
    return 0 if ok else 1


def _cmd_run(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_json(json.load(fh))
    else:
        if args.n is None or args.k is None:
            print("run requires --config, or --n and --k", file=sys.stderr)
            return 2
        cfg = ExperimentConfig(
            cells=[CellSpec(args.n, args.k, xi=args.xi, regime=args.regime,
                            kprime=args.kprime)],
            trials=args.trials,
            seed=args.seed,
            verify=not args.no_verify,
            record_trials=args.record_trials,
            max_attempts=args.max_attempts,
        )
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, threads=args.threads)
    results, _ = run_experiment(cfg, out_path=args.out)
    for cell in results["cells"]:
        spec = cell["spec"]
        head = f"cell {cell['cell_index']} (n={spec['n']} k={spec['k']} xi={spec['xi']} {spec['regime']})"
        if cell["completed"]:
            print(f"{head}: {cell['successes']}/{cell['trials']} ok, p_e={cell['p_e']:.4f}")
        else:
            print(f"{head}: construction FAILED — {cell['construction'].get('error')}")
    print(f"results -> {args.out} (timings -> {timings_path_for(args.out)})")
    return 0 if results["completed"] else 1


def _cmd_report(args) -> int:
    text = report(args.results, args.out, cell_json_dir=args.cell_json)
    print(f"wrote {args.out} ({len(text.splitlines()) - 1} cells)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "build-design": _cmd_build_design,
        "verify-set": _cmd_verify_set,
        "run": _cmd_run,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except BitmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
