"""Spans around the bitmix layers, for the traced benchmark run.

`installed(tracer)` replaces the public functions of each layer at the names
their callers look up at call time (module globals such as
`bitmix.harness.decode`, and class attributes such as `GF2m.mul`) with
wrappers that record one span per call, and puts the originals back on exit.
Spans are kept in memory as columns: name, parent span, root span (the
request the span belongs to), duration and self time (duration minus the
time covered by child spans), whether the call raised, and an optional count
noted at the boundary.  Single-threaded use only: the open-span stack is not
shared between threads.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from bitmix import bundle, code, gf, harness, masking, scheme


def _erasures(args, kwargs) -> int:
    """Erased symbols in the word handed to Codebook.decode_*(self, rw)."""
    rw = args[1] if len(args) > 1 else kwargs["rw"]
    symbols = getattr(rw, "symbols", rw)
    return int(np.count_nonzero(np.asarray(symbols) == code.ERASURE))


# (owner, attribute, span name, note).  The owner is whatever object the
# caller reads the attribute from, so harness's own by-name imports are
# wrapped in the harness module, not only where they are defined.
TARGETS = [
    (gf.GF2m, "mul", "gf.mul", None),
    (gf.GF2m, "inv", "gf.inv", None),
    (gf.GF2m, "div", "gf.div", None),
    (gf.GF2m, "solve", "gf.solve", None),
    (code.Codebook, "decode_erasures", "code.decode_erasures", _erasures),
    (code.Codebook, "decode_errors_and_erasures", "code.decode_errors_and_erasures", _erasures),
    (masking, "verify_promising", "masking.verify_promising", None),
    (masking, "check_lcs_conditions_all", "masking.check_lcs_conditions_all", None),
    (scheme, "simulate_outcomes", "scheme.simulate_outcomes", None),
    (scheme, "identify_strings", "scheme.identify_strings", None),
    (scheme, "identify_items", "scheme.identify_items", None),
    (scheme, "decode", "scheme.decode", None),
    (bundle, "build_design", "bundle.build_design", None),
    (bundle, "save_design", "bundle.save_design", None),
    (bundle, "load_design", "bundle.load_design", None),
    (harness, "build_design", "bundle.build_design", None),
    (harness, "check_lcs_conditions_all", "masking.check_lcs_conditions_all", None),
    (harness, "simulate_outcomes", "scheme.simulate_outcomes", None),
    (harness, "decode", "scheme.decode", None),
    (harness, "run_trial", "harness.run_trial", None),
]

CODE_DECODERS = ("code.decode_erasures", "code.decode_errors_and_erasures")


class Tracer:
    """In-memory span store; see the module docstring for the columns."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.dur_ns = array("q")
        self.self_ns = array("q")
        self.failed = array("b")
        self.note = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns] per open span

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> None:
        idx = len(self.dur_ns)
        parent = self._stack[-1][0] if self._stack else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.dur_ns.append(0)
        self.self_ns.append(0)
        self.failed.append(0)
        self.note.append(0)
        self._stack.append([idx, 0])

    def _close(self, start: int, failed: bool, note: int) -> None:
        dur = time.perf_counter_ns() - start
        idx, child = self._stack.pop()
        self.dur_ns[idx] = dur
        self.self_ns[idx] = dur - child
        self.failed[idx] = failed
        self.note[idx] = note
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (the root of one request)."""
        self._open(self._name_id(name))
        start = time.perf_counter_ns()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            self._close(start, failed, 0)

    def wrap(self, name: str, fn, note=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counted = note(args, kwargs) if note is not None else 0
            self._open(name_id)
            start = time.perf_counter_ns()
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                self._close(start, failed, counted)

        return traced

    # -- queries ---------------------------------------------------------

    def _col(self, column) -> np.ndarray:
        # A copy: a live view would stop the array from growing.
        return np.array(column, dtype=column.typecode)

    def select(self, names, root: str) -> np.ndarray:
        """Indices of spans named in `names` whose root span is named `root`."""
        if isinstance(names, str):
            names = (names,)
        ids = [self._name_ids[n] for n in names if n in self._name_ids]
        if root not in self._name_ids or not ids:
            return np.zeros(0, dtype=np.int64)
        name = self._col(self.name)
        on_root = name[self._col(self.root)] == self._name_ids[root]
        return np.nonzero(np.isin(name, ids) & on_root)[0]

    def count(self, names, root: str) -> int:
        return int(self.select(names, root).size)

    def durations_ms(self, names, root: str) -> np.ndarray:
        return self._col(self.dur_ns)[self.select(names, root)] / 1e6

    def total_ms(self, names, root: str) -> float:
        return float(self.durations_ms(names, root).sum())

    def self_ms(self, names, root: str) -> float:
        return float(self._col(self.self_ns)[self.select(names, root)].sum()) / 1e6

    def failures(self, names, root: str) -> int:
        return int(self._col(self.failed)[self.select(names, root)].sum())

    def noted(self, names, root: str) -> int:
        return int(self._col(self.note)[self.select(names, root)].sum())


@contextmanager
def installed(tracer: Tracer):
    """Wrap every TARGETS entry for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, note in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
