"""Run one latlog benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; latlog is imported from its ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it,
starting with ``#``, describe the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from measure import Tracer, bracketed, import_seconds, kernel_seconds, quantile, traced_memory

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
MEMORY_PASSES = 5

# Self time of each span, per pass, in units of the adjacent kernel time.
SPANS = ("parser.tokenize", "parser.parse", "lattices.registry", "ast.universe",
         "ast.validate", "ast.reorder", "solver.solve", "solver.dump",
         "analysis.graph", "analysis.gen", "trace.outside")
# Work counted at the same boundaries, per pass.
COUNTS = {"parser.tokens": "count", "lattices.fns_checked": "count",
          "lattices.fns_declared": "count", "ast.cache_entries": "count",
          "solver.growths": "count", "solver.deliveries": "count",
          "solver.sweeps": "count", "solver.candidates": "count",
          "solver.redundant_adds": "count", "solver.leaves": "count",
          "solver.growths_per_candidate": "ratio",
          "solver.deliveries_per_growth": "ratio", "analysis.clause_kb": "KiB"}
PER_LAYER = ({f"{name}_ref": "ref" for name in SPANS} | COUNTS
             | {"trace.pass_ref": "ref", "trace.untraced_ref": "ref",
                "trace.overhead_pct": "%"})
END_TO_END = {"pass_ref": "ref", "setup_s": "s", "peak_mb": "MB", "held_mb": "MB"}


def _import_latlog():
    if not (SRC / "latlog" / "cli.py").is_file():
        sys.exit(f"error: latlog sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import latlog

    if Path(latlog.__file__).resolve().parent != SRC / "latlog":
        sys.exit(f"error: imported latlog from {latlog.__file__}, not from {SRC}")


class Run:
    """Passes over one workload, with the operation counts and problems."""

    def __init__(self, workload):
        self.workload = workload
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, measure, op_seconds=None):
        """Run the next pass under ``measure``, check it and count it.

        ``measure(run)`` calls ``run()`` and returns (outputs, *figures);
        the figures are returned.
        """
        operations, expected = self.workload.pass_input(self.passes)
        self.passes += 1
        outputs, *figures = measure(lambda: self.workload.run_pass(operations, op_seconds))
        self.attempted += len(outputs)
        self.failed += sum(out is None for out in outputs)
        self.problems += self.workload.check(expected, outputs)
        return figures


def _ms(seconds: float) -> float:
    return seconds * 1000


def untraced(run: Run, seconds: float) -> dict:
    """Set-up time, then timed passes for ``seconds``, then memory passes."""
    setup = import_seconds(str(SRC), "latlog.cli", SETUP_RUNS)
    ratios, raw, kernels, op_seconds = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        elapsed, kernel = run.one_pass(bracketed, op_seconds)
        ratios.append(elapsed / kernel)
        raw.append(elapsed)
        kernels.append(kernel)
    memory = [run.one_pass(traced_memory) for _ in range(MEMORY_PASSES)]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"# passes={len(ratios)} pass_ms={_ms(statistics.median(raw)):.2f} "
          f"kernel_ms={_ms(statistics.median(kernels)):.3f} "
          f"pass_ref q1={q1:.4f} median={statistics.median(ratios):.4f} q3={q3:.4f}")
    print(f"# operations={len(op_seconds)} op_ms p50={_ms(statistics.median(op_seconds)):.3f} "
          f"p99={_ms(quantile(op_seconds, 0.99)):.3f} "
          f"import_ms={' '.join(f'{_ms(t):.2f}' for t in setup)}")
    return {
        "pass_ref": statistics.median(ratios),
        "setup_s": statistics.median(setup),
        "peak_mb": statistics.median(peak for peak, _ in memory),
        "held_mb": statistics.median(held for _, held in memory),
    }


def _layer_hooks():
    """(owner, attribute, span name, result callback) for every traced call.

    The names are looked up where latlog's own code looks them up: the CLI's
    imported names, the parser's module globals, ``ast.universe_of`` and the
    ``SolveResult.dump_lines`` method.
    """
    from latlog import analysis, ast, cli, parser, solver

    def on_solve(tracer, result):
        stats = result.stats.as_dict()
        for name, key in (("growths", "growths"), ("deliveries", "consumer_invocations"),
                          ("sweeps", "sweep_invocations"), ("candidates", "candidates"),
                          ("redundant_adds", "redundant_adds")):
            tracer.count(f"solver.{name}", stats[key])

    return [
        (parser, "tokenize", "parser.tokenize",
         lambda t, tokens: t.count("parser.tokens", len(tokens))),
        (parser, "standard_registry", "lattices.registry",
         lambda t, registry: t.count("lattices.fns_checked", len(registry.names()))),
        (ast, "universe_of", "ast.universe", None),
        (cli, "parse_clauses", "parser.parse",
         lambda t, program: t.count("lattices.fns_declared", len(program.declared_funs))),
        (cli, "validate", "ast.validate", None),
        (cli, "reorder_preconditions", "ast.reorder", None),
        (cli, "solve", "solver.solve", on_solve),
        (solver.SolveResult, "dump_lines", "solver.dump",
         lambda t, lines: t.count("solver.leaves", len(lines))),
        (analysis, "parse_program_graph", "analysis.graph", None),
        (analysis, "gen_interval_clauses", "analysis.gen",
         lambda t, text: t.count("analysis.clause_kb", len(text) / 1024)),
        (analysis, "gen_sign_clauses", "analysis.gen",
         lambda t, text: t.count("analysis.clause_kb", len(text) / 1024)),
    ]


@contextmanager
def _spans_on(tracer):
    saved = []
    try:
        for owner, attr, name, on_result in _layer_hooks():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.span(name, fn, on_result))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _cache_entries() -> int:
    """Entries in latlog.ast's process-wide lru caches."""
    from latlog import ast

    return sum(fn.cache_info().currsize
               for fn in (ast.clause_vars, ast.pre_vars, ast.lattice_term_vars))


def traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced passes in turn; per-layer medians per pass.

    The spans of every traced pass are written to ``spans_path``.
    """
    tracer = Tracer()
    plain, total, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        elapsed, kernel = run.one_pass(bracketed)
        plain.append(elapsed / kernel)

        first, entries = len(tracer.spans), _cache_entries()
        tracer.counts = {}

        def traced_pass(go):
            with _spans_on(tracer):
                return bracketed(tracer.span("trace.outside", go))

        elapsed, kernel = run.one_pass(traced_pass)
        total.append(elapsed / kernel)
        figures = {f"{name}_ref": 0.0 for name in SPANS} | dict.fromkeys(COUNTS, 0.0)
        figures |= {f"{name}_ref": own / kernel
                    for name, own in tracer.self_times(first).items()}
        figures |= tracer.counts
        figures["ast.cache_entries"] = _cache_entries() - entries
        growths = figures["solver.growths"]
        if figures["solver.candidates"]:
            figures["solver.growths_per_candidate"] = growths / figures["solver.candidates"]
        if growths:
            figures["solver.deliveries_per_growth"] = figures["solver.deliveries"] / growths
        per_pass.append(figures)

    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in list(per_pass[0])}
    metrics["trace.pass_ref"] = statistics.median(total)
    metrics["trace.untraced_ref"] = statistics.median(plain)
    metrics["trace.overhead_pct"] = 100 * (metrics["trace.pass_ref"]
                                           / metrics["trace.untraced_ref"] - 1)
    tracer.write(spans_path)
    spans = sum(metrics[f"{name}_ref"] for name in SPANS)
    print(f"# traced passes={len(per_pass)} spans={len(tracer.spans)} "
          f"sum of self times={spans:.4f} ref, traced pass={metrics['trace.pass_ref']:.4f} "
          f"ref, untraced pass={metrics['trace.untraced_ref']:.4f} ref")
    return metrics


def main(argv=None) -> int:
    top = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    top.add_argument("--workload", required=True)
    top.add_argument("--seed", type=int, required=True)
    top.add_argument("--seconds", type=float, required=True)
    top.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = top.parse_args(argv)

    _import_latlog()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        top.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    kernel_ms = statistics.median(_ms(kernel_seconds()) for _ in range(5))
    print(f"# latlog benchmark workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={platform.python_version()} "
          f"cpus={os.cpu_count()} hashseed={os.environ.get('PYTHONHASHSEED', 'random')} "
          f"kernel_ms={kernel_ms:.3f}", flush=True)

    workload = WORKLOADS[args.workload](args.seed)
    run = Run(workload)
    if args.trace:
        spans_path = Path(__file__).resolve().parent / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        values, units = traced(run, args.seconds, spans_path), PER_LAYER
    else:
        values, units = untraced(run, args.seconds), END_TO_END
    run.problems += workload.check_once()
    for problem in run.problems[:10]:
        print(f"# wrong: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
