"""Timing, memory and tracing helpers for the latlog benchmark.

Nothing here imports latlog: the reference kernel, the set-up probe and the
span recorder only ever see callables handed to them.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc

# About 15 ms on a 2-core x86 box with Python 3.11; fixed, never calibrated
# at run time, so that every run divides by the same amount of work.
KERNEL_ITERATIONS = 11_000


def _kernel_work() -> int:
    table: dict = {}
    for i in range(KERNEL_ITERATIONS):
        key = f"r{i % 509}:{i % 13}"
        table[key] = table.get(key, frozenset()) | {i % 37}
    return len(table)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel, collector paused.

    With the collector off, the kernel's time does not depend on how large
    the heap around it has grown, only on how fast the machine is right now.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel_work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def bracketed(run):
    """Run ``run()`` between two kernels.

    Returns (result, pass seconds, mean kernel seconds).  Dividing the first
    by the second cancels most of the machine's drift in speed.
    """
    gc.collect()
    before = kernel_seconds()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    after = kernel_seconds()
    return result, elapsed, (before + after) / 2


def import_seconds(src_dir: str, module: str, runs: int) -> list[float]:
    """Import time of ``module`` in ``runs`` fresh interpreters, one at a time.

    One extra interpreter runs first and is not counted, so that compiled
    bytecode is cached as it is for any installed copy.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {src_dir!r})\n"
        "start = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - start)\n"
    )
    times = []
    for i in range(runs + 1):
        out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def traced_memory(run):
    """Run ``run()`` under tracemalloc; results stay alive until measured.

    Returns (result, peak MB, held MB), both measured from the traced memory
    just before the call.  Held memory is read after a full collection, so it
    is what the results and any global caches keep.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, (peak - base) / 1e6, (held - base) / 1e6


def quantile(values, q: float) -> float:
    """Value below which a share ``q`` of the values lie (inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]


class Tracer:
    """Spans around calls into latlog, kept in memory.

    A span records its name, start, end and the span that was open when it
    began.  A layer's self time is its span's duration minus the time of the
    spans directly inside it.
    """

    def __init__(self):
        self.spans: list[tuple] = []    # (id, parent id, name, start, end)
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Self seconds per span name, over the spans from ``first_span`` on."""
        child = {}
        for _, parent, _, start, end in self.spans[first_span:]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, _, name, start, end in self.spans[first_span:]:
            own = (end - start) - child.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path) -> None:
        """One JSON array per span: id, parent id, name, start, end, with
        times in seconds from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps([span_id, parent, name, start - origin, end - origin]) + "\n")
