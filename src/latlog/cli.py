"""Command-line interface: solve, analyze, compare, check.

Dumps go to stdout (one ``R(a,...) = value`` line per non-bottom leaf, in
deterministic order); errors and ``--stats`` output go to stderr.
Exit codes: 0 success, 1 validation or comparison failure, input that
nests too deeply (deeply parenthesized text, or a precondition conjunction
of a few hundred parts) or running out of memory, 2 usage or I/O (a
missing or unreadable file, or one that is not UTF-8 text).
"""

from __future__ import annotations

import sys
import time

from . import analysis, oracle
from .ast import Program, validate
from .ast import reorder_preconditions  # noqa: F401  uncalled; bench/run.py traces it here
from .errors import LatlogError, ValidationError
from .lattices import render_atom
from .parser import parse_clauses, parse_fact, pretty
from .randgen import random_program
from .records import Record, replace
from .solver import solve


class RunReport(Record):
    """Outcome of one command: dump lines, counters, timing."""

    __slots__ = ("lines", "counters", "elapsed", "ok")

    def __init__(self, lines: list | None = None, counters: dict | None = None,
                 elapsed: float = 0.0, ok: bool = True):
        self.lines = [] if lines is None else lines
        self.counters = {} if counters is None else counters
        self.elapsed = elapsed
        self.ok = ok


def _read_text(path: str) -> str:
    """The file's text as UTF-8, whatever the locale; bad bytes are an I/O error."""
    with open(path, encoding="utf-8") as file:
        try:
            return file.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _with_facts(program: Program, fact_texts) -> Program:
    """The program with each ``--fact`` added in place of the file's facts of
    the same predicate and tuple; validation then checks it as a file fact."""
    if not fact_texts:
        return program
    overrides = {}
    for fact_text in fact_texts:
        fact = parse_fact(fact_text, program)
        if fact.pred not in program.arities:
            raise ValidationError(f"fact {fact.pred}: undeclared predicate {fact.pred}; "
                                  "facts may only populate base relations")
        overrides[(fact.pred, fact.atoms)] = fact
    kept = tuple(f for f in program.facts if (f.pred, f.atoms) not in overrides)
    return replace(program, facts=kept + tuple(overrides.values()))


def _run_program(program: Program, start: float) -> RunReport:
    """Validate and solve a program; time the run from ``start``."""
    program = validate(program)  # the unvalidated one is freed while solving
    result = solve(program)
    return RunReport(lines=result.dump_lines(), counters=result.stats.as_dict(),
                     elapsed=time.perf_counter() - start)


def run_solve(text: str, fact_texts=()) -> RunReport:
    start = time.perf_counter()
    return _run_program(_with_facts(parse_clauses(text), fact_texts), start)


def run_check(text: str) -> RunReport:
    program = validate(parse_clauses(text))
    ranks = ", ".join(f"{p}={r}" for p, r in sorted(program.ranks.items()))
    return RunReport(lines=[
        f"ok: {program.num_strata} strata, {len(program.arities)} predicates, "
        f"{len(program.universe)} atoms",
        f"ranks: {ranks}",
    ])


def run_analyze(graph_text: str, which: str, zmin=None, zmax=None,
                emit_clauses: bool = False) -> RunReport:
    start = time.perf_counter()
    graph = analysis.parse_program_graph(graph_text)
    program = analysis.analysis_program(graph, which, zmin, zmax)
    if emit_clauses:
        return RunReport(lines=pretty(program).splitlines())
    return _run_program(program, start)


def leaf_diff(program: Program, got: dict, want: dict) -> list[str]:
    """Per-leaf differences between two {pred: {atoms: value}} maps."""
    render = program.lattice.render
    diffs = []
    for pred in sorted(program.arities):
        keys = set(got.get(pred, {})) | set(want.get(pred, {}))
        for atoms in sorted(keys, key=repr):
            g = got.get(pred, {}).get(atoms)
            w = want.get(pred, {}).get(atoms)
            if g != w:
                args = ",".join(render_atom(a) for a in atoms)
                diffs.append(f"{pred}({args}): solver="
                             f"{render(g) if g is not None else 'bot'} oracle="
                             f"{render(w) if w is not None else 'bot'}")
    return diffs


def run_compare(program: Program) -> RunReport:
    start = time.perf_counter()
    result = solve(program)  # its program is validated, with every arity
    reference = oracle.naive_fixpoint(result.program)
    diffs = leaf_diff(result.program, result.leaves(), reference.leaves())
    elapsed = time.perf_counter() - start
    if diffs:
        return RunReport(lines=diffs, counters=result.stats.as_dict(),
                         elapsed=elapsed, ok=False)
    return RunReport(lines=["identical"], counters=result.stats.as_dict(),
                     elapsed=elapsed)


def _build_parser():
    """The argument parser; ``argparse`` is imported here, as only
    :func:`main` needs it."""
    import argparse

    top = argparse.ArgumentParser(
        prog="latlog",
        description="Clause solving over finite lattices, with ready-made "
                    "sign and interval analyses for program graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a clause file and dump the store")
    p_solve.add_argument("file")
    p_solve.add_argument("--fact", action="append", default=[],
                         metavar="'R(a,b) = value'",
                         help="replace or add a base fact, checked like a file fact (repeatable)")
    p_solve.add_argument("--stats", action="store_true")

    p_check = sub.add_parser("check", help="validate a clause file only")
    p_check.add_argument("file")

    p_an = sub.add_parser("analyze", help="analyze a program graph")
    p_an.add_argument("file")
    p_an.add_argument("--analysis", choices=("signs", "intervals"), required=True)
    p_an.add_argument("--zmin", type=int, default=None)
    p_an.add_argument("--zmax", type=int, default=None)
    p_an.add_argument("--emit-clauses", action="store_true",
                      help="print the generated clause file instead of solving")
    p_an.add_argument("--stats", action="store_true")

    p_cmp = sub.add_parser("compare",
                           help="diff the solver against the naive reference")
    p_cmp.add_argument("file", nargs="?")
    p_cmp.add_argument("--seed", type=int, default=None,
                       help="compare on a generated random instance instead of a file")
    p_cmp.add_argument("--stats", action="store_true")
    return top


def _emit(report: RunReport, stats: bool) -> None:
    for line in report.lines:
        print(line)
    if stats:
        counters = " ".join(f"{k}={v}" for k, v in sorted(report.counters.items()))
        print(f"stats: {counters} elapsed_ms={report.elapsed * 1000:.1f}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "solve":
            report = run_solve(_read_text(args.file), args.fact)
        elif args.command == "check":
            report = run_check(_read_text(args.file))
        elif args.command == "analyze":
            report = run_analyze(_read_text(args.file), args.analysis,
                                 args.zmin, args.zmax, args.emit_clauses)
        else:
            if (args.file is None) == (args.seed is None):
                print("compare: give a clause file or --seed, not both",
                      file=sys.stderr)
                return 2
            if args.seed is not None:
                program = random_program(args.seed)
            else:
                program = validate(parse_clauses(_read_text(args.file)))
            report = run_compare(program)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LatlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply (Python recursion limit "
              f"{sys.getrecursionlimit()} exceeded)", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    _emit(report, getattr(args, "stats", False))
    return 0 if report.ok else 1
