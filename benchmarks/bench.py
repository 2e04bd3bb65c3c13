"""Workloads, phases and metrics of the bitmix benchmark.

Importing this module imports bitmix; `run.py` first puts this checkout's
`src/` on the path.  One `Run` is a single-process closed loop on one
workload: set-up, then a measuring window that interleaves decodes and
sweeps, each timed by the benchmark itself around calls into the public API.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from bitmix import bundle, harness, masking, scheme
from bitmix.errors import BitmixError
from tracing import CODE_DECODERS, installed

MIN_DECODES = 100  # so that >= 10 decode latencies lie beyond the p90
MIN_SWEEPS = 5  # sweeps whose counters must agree
DECODE_SHARE = 0.6  # of the measuring time; the sweeps get the rest
CHUNK = 16  # decode inputs held packed at any one time


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    xi: float
    threads: int  # harness threads in the untraced sweep
    pool: int  # decode instances per pass; fixed, so success_ratio is per seed
    sweep_trials: int  # trials per run_experiment call
    setup_reps: int  # set-ups per run; setup_s is their median
    trace_pool: int  # instances per pass of the traced run (each decoded twice)


# Pools are set so that one pass of the decode pool takes a few seconds, and
# sweeps so that one takes about a second, on a 2-core x86 machine at the
# parent commit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean-k10", 2**26, 10, 0.0, threads=1, pool=1000,
                 sweep_trials=100, setup_reps=5, trace_pool=200),
        Workload("noisy-k10", 2**20, 10, 0.05, threads=2, pool=100,
                 sweep_trials=4, setup_reps=5, trace_pool=10),
        Workload("wide-k20", 2**20, 20, 0.0, threads=2, pool=500,
                 sweep_trials=40, setup_reps=3, trace_pool=100),
    )
}


def smoke(wl: Workload) -> Workload:
    """The same workload cut to a few instances, for the self-check tests."""
    return replace(wl, pool=min(wl.pool, 6), sweep_trials=min(wl.sweep_trials, 4),
                   setup_reps=2, trace_pool=min(wl.trace_pool, 3))


def seed_for(seed: int, *tags: int) -> int:
    """A 64-bit seed for one purpose (design, instance, sweep) of a run seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0])


def draw_defectives(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct items in [1, n], without any O(n) buffer."""
    chosen: set[int] = set()
    while len(chosen) < k:
        chosen.update(int(x) for x in rng.integers(1, n + 1, size=k - len(chosen)))
    return np.array(sorted(chosen), dtype=np.int64)


def _median(values) -> float:
    return float(statistics.median(values))


def _p90(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 90))


class Run:
    """One workload, one seed; collects metrics and correctness problems."""

    def __init__(self, wl: Workload, seed: int, seconds: float, workdir: str,
                 tracer=None, smoke: bool = False):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.smoke = smoke
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.design = None
        # decode state: pool position, finished passes, first estimate per instance
        self.pos = 0
        self.passes = 0
        self.first: dict[int, frozenset] = {}
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.wrong = self.listed = self.useful = 0
        # sweep state
        self.sweep_seconds: list[float] = []
        self.counters: set = set()
        self.p_e = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    @contextmanager
    def _traced(self, root: str):
        """Spans around the block, as one request named `root`, when tracing."""
        if self.tracer is None:
            yield
            return
        with installed(self.tracer), self.tracer.span(root):
            yield

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """build-design --no-verify, then verify-set, through the library API.

        Every repetition uses the same seed, so the design file and the
        certificate verdict must not change between them.
        """
        wl = self.wl
        path = os.path.join(self.workdir, "design.json")
        design_seed = seed_for(self.seed, 1)
        times, verdicts, digests = [], set(), set()
        for _ in range(wl.setup_reps):
            with self._traced("bench.setup"):
                t0 = time.perf_counter()
                built = bundle.build_design(wl.n, wl.k, xi=wl.xi, seed=design_seed,
                                            verify=False)
                bundle.save_design(built, path)
                design = bundle.load_design(path)
                report = masking.verify_promising(design.masking)
                times.append(time.perf_counter() - t0)
            with open(path, "rb") as fh:
                blob = fh.read()
            digests.add(hashlib.sha256(blob).hexdigest())
            verdicts.add((report.passed, report.first_violation))
        if len(verdicts) != 1:
            self.fail(f"certificate verdicts differ between set-ups: {sorted(verdicts)}")
        if len(digests) != 1:
            self.fail("design files of one seed differ between set-ups")
        self.design = design
        self.design_file_bytes = len(blob)
        return _median(times)

    # -- decode phase --------------------------------------------------------

    def _make_instance(self, i: int):
        wl, design = self.wl, self.design
        rng = np.random.default_rng([self.seed, 2, i])
        defectives = draw_defectives(rng, wl.n, wl.k)
        y1, y2 = scheme.simulate_outcomes(
            defectives, design.assignment, design.masking, design.codebook,
            rng=rng if wl.xi > 0 else None,
        )
        return i, defectives, scheme.outcomes_to_bytes(y1, y2)

    def _decode(self, y1, y2):
        """(decode result or None if it raised, wall seconds of the call)."""
        design = self.design
        t0 = time.perf_counter()
        try:
            result = scheme.decode(y1, y2, design.masking, design.codebook)
        except BitmixError as exc:
            result = exc
        seconds = time.perf_counter() - t0
        if isinstance(result, BitmixError):
            self.fail(f"decode raised {type(result).__name__}: {result}")
            result = None
        return result, seconds

    def _check(self, i, defectives, result) -> None:
        """Check one decode against the benchmark's own truth.

        An instance's later decodes must repeat its first estimate; only the
        first is scored, which gives the same ratios as scoring every one.
        """
        self.attempted += 1
        estimate = None if result is None else frozenset(int(x) for x in result.estimate)
        if i in self.first:
            if self.first[i] != estimate:
                self.fail(f"instance {i}: decode is not deterministic")
            return
        self.first[i] = estimate
        if estimate is None:
            self.wrong += 1
            return
        if any(not 1 <= x <= self.wl.n for x in estimate):
            self.fail(f"instance {i}: estimate holds items outside [1, n]")
        truth_strings = self.design.assignment.index_of(defectives)
        self.listed += int(result.string_list.size)
        self.useful += int(np.isin(result.string_list, truth_strings).sum())
        if estimate == frozenset(int(d) for d in defectives):
            return
        self.wrong += 1
        if self.wl.xi == 0.0:
            cond = masking.check_lcs_conditions_all(self.design.masking, truth_strings)
            if cond["cond1"] and cond["cond2_all"]:
                self.fail(f"instance {i}: noiseless decode failed although the "
                          "decode conditions hold")

    def _decode_chunk(self) -> None:
        """Decode the next CHUNK instances of the fixed pool, pass after pass.

        Untraced: `pool` instances per pass.  Traced: `trace_pool` instances,
        each decoded untraced and then traced, for the tracing overhead.
        """
        traced = self.tracer is not None
        pool = self.wl.trace_pool if traced else self.wl.pool
        hi = min(pool, self.pos + CHUNK)
        packed = [self._make_instance(i) for i in range(self.pos, hi)]
        for i, defectives, blob in packed:
            y1, y2 = scheme.outcomes_from_bytes(blob)
            result, seconds = self._decode(y1, y2)
            self.latencies.append(seconds)
            self._check(i, defectives, result)
            if traced:
                with self._traced("bench.decode"):
                    result, seconds = self._decode(y1, y2)
                self.traced_latencies.append(seconds)
                self._check(i, defectives, result)
        self.pos = hi % pool
        self.passes += self.pos == 0

    # -- sweeps ----------------------------------------------------------------

    def _sweep(self) -> None:
        """One run_experiment on the workload's cell, always with one seed.

        k' is pinned to k so that a sweep's cost does not depend on the
        seed's draws of k'.  Every sweep must report the same counters.
        """
        wl = self.wl
        cfg = harness.ExperimentConfig(
            cells=[harness.CellSpec(wl.n, wl.k, xi=wl.xi, kprime=wl.k)],
            trials=wl.sweep_trials,
            seed=seed_for(self.seed, 3),
            verify=False,
            threads=1 if self.tracer is not None else wl.threads,
        )
        out = os.path.join(self.workdir, "sweep.json")
        with self._traced("bench.sweep"):
            t0 = time.perf_counter()
            results, _ = harness.run_experiment(cfg, out)
            elapsed = time.perf_counter() - t0
        self.sweep_seconds.append(elapsed)
        self.attempted += wl.sweep_trials
        cell = results["cells"][0]
        if not cell["completed"]:
            self.fail("sweep did not complete")
            return
        self.p_e = cell["p_e"]
        self.counters.add((cell["successes"], tuple(sorted(cell["failures"].items())),
                           cell["cond_both"], cell["string_failures"],
                           cell["cond_violations"], tuple(cell["kprime_hist"])))
        if len(self.counters) > 1:
            self.fail(f"sweeps of one seed disagree: {sorted(self.counters)}")
        if wl.xi == 0.0 and cell["cond_violations"] != 0:
            self.fail(f"noiseless sweep: cond_violations = {cell['cond_violations']}")
        with open(out, encoding="ascii") as fh:
            if json.load(fh) != json.loads(json.dumps(results)):
                self.fail("results file disagrees with run_experiment's return value")
        with open(harness.timings_path_for(out), encoding="ascii") as fh:
            if len(json.load(fh)["cells"][0]["batch2_s"]) != wl.sweep_trials:
                self.fail("timings sidecar does not hold one entry per trial")

    # -- the whole run -------------------------------------------------------

    def _measure(self) -> None:
        """Interleave decode chunks and sweeps over the whole window.

        Both metrics then average over the same stretch of machine time.  On
        a shared host that time is not uniform: the CPU switches between a
        fast and a slow state (about 1.6x apart) for tens of seconds at a
        time, and a run's share of each varies.  Decode latency is therefore
        gated on its p90, which lies in the slow state whenever a run spends
        a tenth of its time there; the median decode, which jumps between the
        states, is reported by the traced run.  Sweep throughput jumped the
        same way, by up to 0.30 across ten seeds, so sweeps are checked for
        correctness but their time is reported only per trial, by the traced
        run.  The decodes get DECODE_SHARE of the time.  The window ends at a pass
        boundary, once the minimum decode and sweep counts are met.
        """
        traced = self.tracer is not None
        min_decodes = 0 if traced or self.smoke else MIN_DECODES
        min_sweeps = 1 if traced else 2 if self.smoke else MIN_SWEEPS
        decode_s = sweep_s = 0.0
        deadline = time.perf_counter() + self.seconds
        while True:
            decode_due = self.pos != 0 or self.passes == 0 or len(self.latencies) < min_decodes
            sweep_due = len(self.sweep_seconds) < min_sweeps
            if time.perf_counter() < deadline:
                decode_next = decode_s <= DECODE_SHARE * (decode_s + sweep_s)
            elif decode_due or sweep_due:
                decode_next = decode_due
            else:
                break
            t0 = time.perf_counter()
            if decode_next:
                self._decode_chunk()
                decode_s += time.perf_counter() - t0
            else:
                self._sweep()
                sweep_s += time.perf_counter() - t0

    def execute(self) -> dict:
        setup_s = self.setup()
        self._measure()
        self.samples = {"setups": self.wl.setup_reps, "passes": self.passes,
                        "decodes": len(self.latencies) + len(self.traced_latencies),
                        "sweeps": len(self.sweep_seconds),
                        "trials": len(self.sweep_seconds) * self.wl.sweep_trials}
        if self.tracer is None:
            return {
                "setup_s": setup_s,
                "decode_p90_ms": 1e3 * _p90(self.latencies),
                "success_ratio": 1.0 - self.wrong / len(self.first),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        return self._layer_metrics()

    def _layer_metrics(self) -> dict:
        t = self.tracer
        dec, trial, setup = "bench.decode", "bench.sweep", "bench.setup"
        n_dec = max(1, t.count(dec, dec))
        words = t.count(CODE_DECODERS, dec)
        gf_names = [n for n in t.names if n.startswith("gf.")]
        run_trial_ms = t.durations_ms("harness.run_trial", trial)
        trial_total = max(1e-12, float(run_trial_ms.sum()))

        def p50(names, root):
            values = t.durations_ms(names, root)
            return float(np.median(values)) if values.size else 0.0

        return {
            "gf.mul_calls_per_decode": t.count("gf.mul", dec) / n_dec,
            "gf.solve_calls_per_decode": t.count("gf.solve", dec) / n_dec,
            "gf.self_ms_per_decode": t.self_ms(gf_names, dec) / n_dec,
            "code.decode_word_ms_p50": p50(CODE_DECODERS, dec),
            "code.words_per_decode": words / n_dec,
            "code.erasures_per_word_mean": t.noted(CODE_DECODERS, dec) / max(1, words),
            "code.word_fail_ratio": t.failures(CODE_DECODERS, dec) / max(1, words),
            "scheme.decode_ms_p50": 1e3 * _median(self.latencies),
            "scheme.identify_strings_ms_p50": p50("scheme.identify_strings", dec),
            "scheme.identify_items_ms_p50": p50("scheme.identify_items", dec),
            "scheme.identify_items_decode_share":
                t.total_ms("scheme.identify_items", dec) / max(1e-12, t.total_ms(dec, dec)),
            "scheme.listed_useful_ratio": self.useful / max(1, self.listed),
            "scheme.simulate_outcomes_ms_p50": p50("scheme.simulate_outcomes", trial),
            "scheme.simulate_outcomes_trial_share":
                t.total_ms("scheme.simulate_outcomes", trial) / trial_total,
            "scheme.decode_trial_share": t.total_ms("scheme.decode", trial) / trial_total,
            "masking.check_lcs_conditions_all_ms_p50":
                p50("masking.check_lcs_conditions_all", trial),
            "masking.check_lcs_conditions_all_trial_share":
                t.total_ms("masking.check_lcs_conditions_all", trial) / trial_total,
            "masking.verify_promising_s": p50("masking.verify_promising", setup) / 1e3,
            "masking.verify_promising_setup_share":
                t.total_ms("masking.verify_promising", setup)
                / max(1e-12, t.total_ms(setup, setup)),
            "bundle.build_design_ms": p50("bundle.build_design", setup),
            "bundle.save_design_ms": p50("bundle.save_design", setup),
            "bundle.load_design_ms": p50("bundle.load_design", setup),
            "bundle.design_file_bytes": float(self.design_file_bytes),
            "harness.run_trial_ms_p50": float(np.median(run_trial_ms)),
            "harness.run_trial_ms_p90": _p90(run_trial_ms),
            "harness.p_e": self.p_e,
            "trace.overhead_ratio": _median(
                [t / u for t, u in zip(self.traced_latencies, self.latencies)]) - 1.0,
        }

