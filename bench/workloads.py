"""The benchmark's workloads: inputs per pass, the timed calls, and checks.

A pass runs a workload's whole input set from text to dump lines through
``latlog.cli``, as the ``latlog`` command does.  Each workload checks every
output against results computed apart from the engine.
"""

from __future__ import annotations

import random
import re
import time

from latlog import analysis, cli, oracle
from latlog.ast import reorder_preconditions, validate
from latlog.errors import LatlogError
from latlog.parser import parse_clauses, pretty
from latlog.randgen import random_program

import inputs
import reference


class Workload:
    """One named input set.  Subclasses fill in the three pass steps."""

    name = ""

    def pass_input(self, index: int) -> tuple[list, object]:
        """Untimed: the arguments of each operation of pass ``index``, and
        what its check needs."""
        raise NotImplementedError

    def operation(self, args) -> list[str]:
        raise NotImplementedError

    def check(self, expected, outputs: list) -> list[str]:
        """Problems found in a pass's outputs; None marks a failed operation."""
        raise NotImplementedError

    def check_once(self) -> list[str]:
        """Problems found by a check too slow to make on every pass."""
        return []

    def run_pass(self, operations: list, op_seconds: list | None = None) -> list:
        """Timed: run every operation, None for one that failed."""
        outputs = []
        for args in operations:
            start = time.perf_counter()
            try:
                outputs.append(self.operation(args))
            except (LatlogError, RecursionError):
                outputs.append(None)
            if op_seconds is not None:
                op_seconds.append(time.perf_counter() - start)
        return outputs


def _tag(index: int) -> str:
    return f"p{index}"


class Closure(Workload):
    name = "closure"

    def __init__(self, seed: int):
        self.graph = inputs.closure_graph(random.Random(f"closure:{seed}"))

    def pass_input(self, index):
        tag = _tag(index)
        return [inputs.closure_text(self.graph, tag)], tag

    def operation(self, text):
        return cli.run_solve(text).lines

    def check(self, tag, outputs):
        (lines,) = outputs
        if lines is None:
            return []
        return reference.diff(reference.leaf_map(lines),
                              reference.closure_leaves(self.graph, tag))


class Analyses(Workload):
    name = "analyses"

    def __init__(self, seed: int):
        rng = random.Random(f"analyses:{seed}")
        # (graph, analyze arguments after the text, independent domain).
        # Two of the rings leave builtin functions undeclared, which the
        # registry proves monotone all the same.
        self.rings = [
            (inputs.ring(rng, 0, 5, "+*"), ("intervals", 0, 5), reference.Intervals(0, 5)),
            (inputs.ring(rng, 0, 20, "+-*"), ("intervals", 0, 20), reference.Intervals(0, 20)),
            (inputs.ring(rng, -3, 3, "+"), ("signs",), reference.Signs()),
        ]
        self.solutions = [reference.ring_solution(g, dom) for g, _, dom in self.rings]
        self.observed = [reference.concrete_values(g) for g, _, _ in self.rings]

    def pass_input(self, index):
        tag = _tag(index)
        return [(inputs.ring_text(g, tag),) + args for g, args, _ in self.rings], tag

    def operation(self, args):
        return cli.run_analyze(*args).lines

    def check(self, tag, outputs):
        problems = []
        for (_, _, dom), solution, observed, lines in zip(
                self.rings, self.solutions, self.observed, outputs):
            if lines is None:
                continue
            leaves = reference.leaf_map(lines)
            problems += reference.diff(leaves, reference.ring_leaves(dom, solution, tag))
            if leaves is not None:
                problems += reference.unsound(dom, leaves, observed, tag)
        return problems

    def check_once(self, tag: str = "p0") -> list[str]:
        """The sign ring's least model by the naive fixpoint of latlog's
        reference semantics, against the benchmark's own solution.  Every
        pass's result is compared with that solution."""
        g, _, dom = self.rings[-1]
        text = analysis.gen_sign_clauses(analysis.parse_program_graph(inputs.ring_text(g, tag)))
        program = reorder_preconditions(validate(parse_clauses(text)))
        lines = oracle.dump_lines(program, oracle.naive_fixpoint(program))
        want = reference.ring_leaves(dom, self.solutions[-1], tag)
        return [f"oracle: {d}" for d in reference.diff(reference.leaf_map(lines), want)]


_BATCH_PREDICATE = re.compile(r"\b([PQB])(?=[(/])")


class Batch(Workload):
    name = "batch"

    PROGRAMS = 300

    def __init__(self, seed: int):
        self.seed = seed

    def pass_input(self, index):
        """Fresh random programs with tagged predicate names, each with the
        naive fixpoint's dump as the expected output.

        The programs come from the generator's set fragment, which has no
        lattice-variable applications ``'Y(u)``.  With them allowed, about
        one draw in 25 000 gets an engine result that is not the least model.
        """
        rng = random.Random(f"batch:{self.seed}:{index}")
        texts, wants = [], []
        for i in range(self.PROGRAMS):
            program = random_program(rng.randrange(2**32), set_fragment=True)
            rename = f"\\1_{index}_{i}"
            texts.append(_BATCH_PREDICATE.sub(rename, pretty(program)))
            want = oracle.dump_lines(program, oracle.naive_fixpoint(program))
            wants.append({_BATCH_PREDICATE.sub(rename, k): v
                          for k, v in reference.leaf_map(want).items()})
        return texts, wants

    def operation(self, text):
        return cli.run_solve(text).lines

    def check(self, wants, outputs):
        problems = []
        for want, lines in zip(wants, outputs):
            if lines is not None:
                problems += reference.diff(reference.leaf_map(lines), want)
        return problems


WORKLOADS = {w.name: w for w in (Closure, Analyses, Batch)}
