"""Per-layer tracing of cvmdi from outside the package.

``install`` replaces the public functions of each module with wrappers
and rebinds every name under which a ``cvmdi`` module holds the original
(``from .x import f`` copies), so calls between modules go through the
wrappers too.  No file of the package changes.

In ``time`` mode a wrapper records a span (id, parent, name, start, end)
and adds its duration to the function's total and to its parent's child
time; self time is total minus child time.  Spans stay in memory (the
first ``SPAN_CAP`` of them) and are written out by ``write_spans``.
Functions too cheap to time (``entropy_h`` at about 0.25 us) only count
calls.  In ``memory`` mode the three functions that allocate large
arrays or record lists run under ``tracemalloc`` and report their peak;
every other wrapper passes straight through.  In ``off`` mode all
wrappers pass straight through.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from typing import Callable

SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.mode = "off"
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.child: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks_mb: dict[str, float] = defaultdict(float)
        # span columns: arrays hold no Python objects, so keeping spans
        # adds no work for the garbage collector during the traced run
        self.span_ids, self.span_parents, self.span_names = array("q"), array("q"), array("i")
        self.span_starts, self.span_ends = array("d"), array("d")
        self._stack: list[list] = []
        self._next_id = 0

    def register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.child.append(0.0)
        return len(self.names) - 1

    def timed(self, name: str, fn: Callable, on_result: Callable | None = None,
              peak: str | None = None) -> Callable:
        idx = self.register(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self.mode == "memory" and peak is not None:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks_mb[peak] = max(self.peaks_mb[peak], peak_bytes / 2**20)
            if self.mode != "time":
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.total[idx] += duration
                self.child[idx] += frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id < SPAN_CAP:
                    self.span_ids.append(span_id)
                    self.span_parents.append(parent)
                    self.span_names.append(idx)
                    self.span_starts.append(start)
                    self.span_ends.append(end)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        idx = self.register(name)

        def wrapper(*args, **kwargs):
            if self.mode != "time":
                return fn(*args, **kwargs)
            self.calls[idx] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of a traced name."""
        if name not in self.names:
            return 0, 0.0, 0.0
        idx = self.names.index(name)
        return self.calls[idx], self.total[idx], self.total[idx] - self.child[idx]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, idx, start, end in zip(
                    self.span_ids, self.span_parents, self.span_names,
                    self.span_starts, self.span_ends):
                fh.write(f"{span_id},{parent},{self.names[idx]},{start:.9f},{end:.9f}\n")


def _add(key: str, value: Callable) -> Callable:
    def hook(counts, result):
        counts[key] += value(result)
    return hook


def _argmin(counts, report) -> None:
    counts["attack.n_evaluated"] += report.n_evaluated
    counts["attack.n_skipped"] += report.n_skipped


def _sweep(counts, records) -> None:
    counts["sweep.run_sweep.cells"] += len(records)
    counts["sweep.error_cells"] += sum(r.error is not None for r in records)


def _alignment(counts, report) -> None:
    counts["optics.trials"] += report.trials


# (module, function, how, hook, peak): "time" records spans, "count" only
# counts calls; the hook adds counts read from the result, and a peak name
# makes the function report its tracemalloc peak in memory mode.
TARGETS = [
    ("sweep", "run_sweep", "time", _sweep, "sweep.run_sweep.peak_mb"),
    ("sweep", "relay_scan", "time", None, None),
    ("sweep", "export", "time", _add("sweep.export.bytes", len), None),
    ("keyrate", "key_rate_min_chi", "time", None, None),
    ("keyrate", "key_rate_min_thermal", "time", None, None),
    ("keyrate", "key_rate", "time", None, None),
    ("keyrate", "key_rate_closed_sym", "time", None, None),
    ("keyrate", "key_rate_closed_asym", "time", None, None),
    ("core", "g_max", "time", None, None),
    ("core", "is_physical", "time", None, None),
    ("core", "entropy_h", "count", None, None),
    ("attack", "min_rate_brute", "time", _argmin, "attack.min_rate_brute.peak_mb"),
    ("attack", "rate_profile_y", "time", _add("attack.rate_profile_y.skipped",
                                               lambda p: p.skipped), None),
    # private, but it is where lattice points are computed
    ("attack", "_grid_rates", "count", _add("attack.lattice_points",
                                            lambda r: r[0].size), None),
    ("proofs", "run_verification_suite", "time", None, None),
    ("proofs", "verify_monotone_thermal", "time", None, None),
    ("proofs", "verify_monotone_chi", "time", None, None),
    ("proofs", "verify_p_prime_positive", "time", None, None),
    ("proofs", "verify_lambda_minimization", "time", None, None),
    ("proofs", "classify_nu_regions", "time", None, None),
    ("optics", "check_self_alignment", "time", _alignment,
     "optics.check_self_alignment.peak_mb"),
    ("optics", "propagate", "count", None, None),
    ("optics", "run_path", "count", None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target present in the loaded package.  A target a later
    version of the package no longer has is skipped; its metrics read 0."""
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cvmdi" or name.startswith("cvmdi."))]
    for module_name, fn_name, how, hook, peak in TARGETS:
        module = sys.modules.get(f"cvmdi.{module_name}")
        original = getattr(module, fn_name, None)
        if original is None:
            continue
        name = f"{module_name}.{fn_name}"
        if how == "time":
            wrapper = tracer.timed(name, original, hook, peak)
        else:
            wrapper = tracer.counted(name, original, hook)
        for module in package:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, wrapper)
