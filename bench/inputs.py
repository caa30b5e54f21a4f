"""Seeded inputs for the benchmark workloads, and their text renderings.

Inputs are plain data made from the run's seed.  Each pass renders them
with its own tag in every atom name, so no pass repeats a text seen earlier
in the run while the work per pass stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# --- closure: transitive closure with edge labels as powerset values ---------

CLOSURE_NODES = 32
CLOSURE_LABELS = 8


@dataclass(frozen=True)
class LabelledGraph:
    """Nodes 0..nodes-1; edges (a, b, label indices) with a < b."""

    nodes: int
    edges: tuple


def closure_graph(rng: random.Random) -> LabelledGraph:
    """A chain 0 -> 1 -> ... plus one random short forward edge per node.

    The chain makes every pair i < j reachable, so the number of closure
    leaves is the same for every seed, and every node but the last two has
    out-degree two.  Where the extra edges land and the two labels of each
    edge vary with the seed.
    """
    n = CLOSURE_NODES

    def labels():
        return frozenset(rng.sample(range(CLOSURE_LABELS), 2))

    edges = {(i, i + 1): labels() for i in range(n - 1)}
    for i in range(n - 2):
        edges[(i, min(n - 1, i + rng.randint(2, 6)))] = labels()
    return LabelledGraph(n, tuple((a, b, lab) for (a, b), lab in sorted(edges.items())))


def node_name(tag: str, i: int) -> str:
    return f"{tag}n{i:02d}"


def label_name(k: int) -> str:
    return f"l{k}"


def label_text(labels) -> str:
    return "{" + ",".join(label_name(k) for k in sorted(labels)) + "}"


def closure_text(graph: LabelledGraph, tag: str) -> str:
    lines = ["lattice powerset {" + ",".join(label_name(k) for k in range(CLOSURE_LABELS)) + "}",
             "rel E/2", "rel T/2"]
    for a, b, labels in graph.edges:
        lines.append(f"fact E({node_name(tag, a)},{node_name(tag, b)}) = {label_text(labels)}")
    lines.append("clause (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))")
    lines.append("  & (forall x. forall y. forall z. forall 'Y. forall 'Z."
                 " T(x,y;'Y) & E(y,z;'Z) => T(x,z;'Y) & T(x,z;'Z))")
    return "\n".join(lines) + "\n"


# --- analyses: ring-shaped program graphs with loops ---------------------------

RING_STATES = 40
RING_VARIABLES = ("x", "y")
RING_CHORDS = 2
# The loop's action kinds, cycled to the loop's length and then shuffled, so
# every seed has the same number of rules and uses each allowed operator.
_RING_KINDS = ("+", "test", "copy", "+", "test", "-", "*", "test", "const", "skip")


@dataclass(frozen=True)
class Ring:
    """States 0..states-1, state 0 initial; edges (src, action, dst).

    Actions: ("const", t, n), ("copy", t, v), ("binop", t, op, a, b) with
    operands ("var", v) or ("lit", n), ("test", v, cmp, n) and ("skip",).
    """

    states: int
    variables: tuple
    edges: tuple


def ring(rng: random.Random, zmin: int, zmax: int, ops: str) -> Ring:
    """States 0 and 1 set x and y to constants, then states 2..n-1 form a
    loop with shuffled actions, plus backward chords that close inner loops.

    Literals lie in zmin..zmax.  Arithmetic uses only the operators in
    ``ops``; the others' places in the loop go to its first operator.
    """
    n = RING_STATES
    xs = RING_VARIABLES

    def lit():
        return rng.randint(zmin, zmax)

    def action(kind):
        t, v = rng.choice(xs), rng.choice(xs)
        if kind == "const":
            return ("const", t, lit())
        if kind == "copy":
            return ("copy", t, v)
        if kind == "-":
            return ("binop", t, "-", ("var", v), ("var", rng.choice(xs)))
        if kind in ("+", "*"):
            return ("binop", t, kind, ("var", v), ("lit", lit()))
        if kind == "test":
            return ("test", v, rng.choice(("<", ">=", "!=")), lit())
        return ("skip",)

    loop = list(range(2, n))
    kinds = [_RING_KINDS[i % len(_RING_KINDS)] for i in range(len(loop))]
    kinds = [ops[0] if k in ("+", "-", "*") and k not in ops else k for k in kinds]
    rng.shuffle(kinds)
    edges = [(0, ("const", xs[0], lit()), 1), (1, ("const", xs[1], lit()), 2)]
    for i, kind in zip(loop, kinds):
        edges.append((i, action(kind), i + 1 if i + 1 < n else 2))
    for _ in range(RING_CHORDS):
        a, b = sorted(rng.sample(loop, 2))
        edges.append((b, action("test"), a))
    return Ring(n, xs, tuple(edges))


def state_name(tag: str, i: int) -> str:
    return f"{tag}s{i:02d}"


def _operand_text(o) -> str:
    return o[1] if o[0] == "var" else str(o[1])


def action_text(action) -> str:
    kind = action[0]
    if kind in ("const", "copy"):
        return f"{action[1]} := {action[2]}"
    if kind == "binop":
        _, t, op, a, b = action
        return f"{t} := {_operand_text(a)} {op} {_operand_text(b)}"
    if kind == "test":
        return f"test {action[1]} {action[2]} {action[3]}"
    return "skip"


def ring_text(g: Ring, tag: str) -> str:
    lines = [f"initial {state_name(tag, 0)}"]
    lines += [f"state {state_name(tag, i)}" for i in range(1, g.states)]
    lines += [f"var {v}" for v in g.variables]
    for src, action, dst in g.edges:
        lines.append(f"{state_name(tag, src)} -> {state_name(tag, dst)} : {action_text(action)}")
    return "\n".join(lines) + "\n"
