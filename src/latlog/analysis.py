"""Program graphs and the shipped analyses built from them.

A program graph is a set of states with action-labeled edges (three-address
assignments, boolean tests, skip).  :func:`parse_program_graph` matches each
edge line once, with one pattern that also splits its action, and checks the
states and operands once every line is read.  :func:`analysis_program` builds
a single-stratum ``ast.Program`` from a graph, each rule's nodes directly, with
no clause text in between: the initial state starts every variable at top,
assignments update the target through a registered transfer function and
frame-copy the remaining variables, and tests/skips propagate unchanged.
``gen_*_clauses`` pretty-print those programs.
"""

from __future__ import annotations

import re
from typing import Union

from . import ast
from .errors import ParseError, ValidationError
from .lattices import Lattice, interval_lattice, sign_lattice, standard_registry
from .parser import _RESERVED, pretty, read_int
from .records import Frozen, set_field

_RESERVED_GRAPH = {"state", "initial", "var", "skip", "test"}


Operand = Union[int, str]  # an integer literal or a variable name


class Assign(Frozen):
    __slots__ = ("target", "rhs")

    def __init__(self, target: str, rhs: Union[Operand, "BinOp"]):
        set_field(self, "target", target)
        set_field(self, "rhs", rhs)


class BinOp(Frozen):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Operand, right: Operand):  # op: + - *
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


class BoolTest(Frozen):
    __slots__ = ("left", "op", "right")

    def __init__(self, left: Operand, op: str, right: Operand):  # op: < <= > >= == !=
        set_field(self, "left", left)
        set_field(self, "op", op)
        set_field(self, "right", right)


class Skip(Frozen):
    __slots__ = ()


Action = Union[Assign, BoolTest, Skip]


class Edge(Frozen):
    __slots__ = ("src", "action", "dst")

    def __init__(self, src: str, action: Action, dst: str):
        set_field(self, "src", src)
        set_field(self, "action", action)
        set_field(self, "dst", dst)


class ProgramGraph(Frozen):
    __slots__ = ("states", "initial", "edges", "variables")

    def __init__(self, states: tuple, initial: str, edges: tuple, variables: tuple):
        set_field(self, "states", states)
        set_field(self, "initial", initial)
        set_field(self, "edges", edges)
        set_field(self, "variables", variables)


# One match per edge line: the states and the action, split into skip, a test
# (left, comparison, right), an assignment (target, operand, then operator and
# operand of a binary operation) or, when none of these parses, the action text
_EDGE_RE = re.compile(
    r"\s*(\w+)\s*->\s*(\w+)\s*:\s*(?:(skip)"
    r"|test\s*(-?\d+|\w+)\s*(<=|>=|==|!=|<|>|=)\s*(-?\d+|\w+)"
    r"|(?!test)(\w+)\s*:=\s*(-?\d+|\w+)\s*(?:([-+*])\s*(-?\d+|\w+))?|(.*?))\s*$")


def parse_program_graph(text: str) -> ProgramGraph:
    """Parse the edge-list graph format.

    Lines: ``initial q0`` (exactly one), ``state q1``, ``var x``, edges
    ``qs -> qt : x := y + z | x := n | x := y | test <cmp> | skip``;
    ``//`` comments.  Names and actions are checked once every line is read,
    so a state or variable may be declared after the edges that use it.
    """
    states: dict = {}  # dicts as insertion-ordered sets
    initial = None
    variables: dict = {}
    raw_edges: list = []
    match = _EDGE_RE.match
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("initial", "state", "var") and (
                not rest.isidentifier() or rest in _RESERVED_GRAPH):
            kind = "variable" if head == "var" else "state"
            raise ParseError(f"bad {kind} name {rest!r}", lineno, 1)
        if head == "initial":
            if initial is not None:
                raise ParseError("second 'initial' line", lineno, 1)
            initial = rest
            states[rest] = None
        elif head == "state":
            states[rest] = None
        elif head == "var":
            variables[rest] = None
        else:
            m = match(line)
            if m is None:
                raise ParseError(f"cannot parse line {raw!r}", lineno, 1)
            # the match, not its groups: one 11-tuple per edge, freed together, would
            # stay allocated in CPython's tuple free list
            raw_edges.append((lineno, m))
    if initial is None:
        raise ParseError("no 'initial' line", 1, 1)

    def operand(text: str) -> Operand:  # a declared variable or an integer literal
        if text in variables:
            return text
        if text[0] == "-" or text.isdecimal():  # the pattern reads "-" only before digits
            return read_int(text, lambda: (lineno, 1))
        raise ParseError(f"unknown variable {text!r}", lineno, 1)

    edges = []
    for lineno, m in raw_edges:
        src, dst, skip, left, cmp, right, target, a, op, b, bad = m.groups()
        for q in (src, dst):
            if q not in states:
                raise ParseError(f"unknown state {q!r}", lineno, 1)
        if skip:
            action = Skip()
        elif cmp:
            action = BoolTest(operand(left), "==" if cmp == "=" else cmp, operand(right))
        elif target:
            if target not in variables:
                raise ParseError(f"unknown variable {target!r}", lineno, 1)
            a = operand(a)
            action = Assign(target, a if op is None else BinOp(op, a, operand(b)))
        else:
            kind = "test" if bad.startswith("test") else "action"
            raise ParseError(f"cannot parse {kind} {bad!r}", lineno, 1)
        edges.append(Edge(src, action, dst))
    if not variables:
        raise ParseError("graph declares no variables", 1, 1)
    return ProgramGraph(tuple(states), initial, tuple(edges), tuple(variables))


def int_literals(graph: ProgramGraph) -> set[int]:
    """Integer literals of the assignment actions (tests never refine, so
    their constants do not contribute to the grid)."""
    operands = set()
    for e in graph.edges:
        if e.action.__class__ is Assign:
            rhs = e.action.rhs
            if rhs.__class__ is BinOp:
                operands.add(rhs.left)
                operands.add(rhs.right)
            else:
                operands.add(rhs)
    return {o for o in operands if isinstance(o, int)}


# --- clause generation ---------------------------------------------------------

_OP_NAME = {"+": "add", "-": "sub", "*": "mul"}


def _interval_grid(literals: set[int], zmin, zmax) -> tuple[int, int]:
    if zmin is not None and zmax is not None and zmin > zmax:
        raise ValidationError(f"empty integer grid: zmin={zmin} > zmax={zmax}")
    candidates = set(literals)
    if zmin is not None:
        candidates.add(zmin)
    if zmax is not None:
        candidates.add(zmax)
    if not candidates:
        candidates = {0}
    return min(candidates), max(candidates)


def _program(graph: ProgramGraph, lattice: Lattice, prefix: str, literals) -> ast.Program:
    """One clause over ``A(state, variable; value)``, equal to what the parser
    makes of its pretty-printed text: the k-th binder named ``b`` is ``b_k``
    from k = 2 on.  Variable operands are queried at the source state, which
    gates the rule on its reachability; an all-literal right-hand side is
    gated on the target variable itself.  The universe records the atoms the
    rules name: the initial state, the variables and each edge's states."""
    _check_graph_names(graph)
    Query, Assert, Imply, Forall, YVar = ast.Query, ast.Assert, ast.Imply, ast.Forall, ast.YVar
    variables = graph.variables
    taken = dict.fromkeys(("v", "'i", "'il", "'ir", "'ig"), 0)
    funs: set[str] = set()
    atoms = {graph.initial, *variables, *[q for e in graph.edges for q in (e.src, e.dst)]}
    consts = {a: ast.Const(a) for a in atoms}  # one node per atom and per literal
    lits = {n: ast.LitConst(lattice.represent(n)) for n in literals}

    def fresh(base: str) -> str:
        n = taken[base] = taken[base] + 1
        return base if n == 1 else f"{base}_{n}"

    top, start = ast.LitConst(lattice.top), consts[graph.initial]
    rules = [Assert("A", (start, consts[v]), top) for v in variables]
    for edge in graph.edges:
        src, dst, action = consts[edge.src], consts[edge.dst], edge.action
        if action.__class__ is not Assign:  # a test or skip copies every variable
            x, y = fresh("v"), fresh("'i")
            var, value = ast.Var(x), YVar(y)
            rules.append(Forall(x, Forall(y, Imply(Query("A", (src, var), value),
                                                     Assert("A", (dst, var), value)))))
            continue
        target, rhs = action.target, action.rhs
        t = consts[target]
        if rhs.__class__ is BinOp:
            binders, pre, terms = [], [], []
            for base, o in (("'il", rhs.left), ("'ir", rhs.right)):
                if o.__class__ is int:
                    terms.append(lits[o])
                else:
                    binders.append(fresh(base))
                    terms.append(YVar(binders[-1]))
                    pre.append(Query("A", (src, consts[o]), terms[-1]))
            if not binders:  # gated on the target
                binders.append(fresh("'ig"))
                pre.append(Query("A", (src, t), YVar(binders[0])))
            value = ast.FnApp(prefix + _OP_NAME[rhs.op], tuple(terms))
            funs.add(value.name)
            rule = Imply(pre[0] if len(pre) == 1 else ast.And(tuple(pre)),
                         Assert("A", (dst, t), value))
            for y in reversed(binders):
                rule = Forall(y, rule)
        else:  # a literal is gated on the target, a copy reads its source
            y = fresh("'i")
            value = YVar(y)
            read, new = (t, lits[rhs]) if rhs.__class__ is int else (consts[rhs], value)
            rule = Forall(y, Imply(Query("A", (src, read), value), Assert("A", (dst, t), new)))
        rules.append(rule)
        for v in variables:  # the frame: every other variable keeps its value
            if v != target:
                y, c = fresh("'i"), consts[v]
                value = YVar(y)
                rules.append(Forall(y, Imply(Query("A", (src, c), value),
                                             Assert("A", (dst, c), value))))
    strata = (rules[0] if len(rules) == 1 else ast.And(tuple(rules)),)
    return ast.Program(lattice=lattice, registry=standard_registry(lattice),
                       strata=strata, arities={"A": 2},
                       universe=ast.universe_of(atoms),
                       declared_funs=tuple((f, 2) for f in sorted(funs)))


def _check_graph_names(graph: ProgramGraph) -> None:
    # every name prints as an atom the tokenizer reads ([a-z][A-Za-z0-9_]*),
    # which no binder v, v_2, ... captures
    for name in graph.states + graph.variables:
        if not (name.isascii() and name.isidentifier() and name[0].islower()):
            raise ValidationError(
                f"graph name {name!r} cannot be used as a clause-file atom")
        if name in _RESERVED or name == "v" or name[:2] == "v_" and name[2:].isdecimal():
            raise ValidationError(
                f"graph name {name!r} collides with generated clause syntax")


def analysis_program(graph: ProgramGraph, which: str, zmin: int | None = None,
                     zmax: int | None = None) -> ast.Program:
    """Program computing, per state and variable, the signs (``which`` is
    ``"signs"``) or an interval (``"intervals"``) covering every value the
    variable may hold there; ``zmin``/``zmax`` widen the interval grid."""
    literals = int_literals(graph)
    if which == "signs":
        return _program(graph, sign_lattice(), "s_", literals)
    return _program(graph, interval_lattice(*_interval_grid(literals, zmin, zmax)), "f_", literals)


def gen_interval_clauses(graph: ProgramGraph, zmin: int | None = None,
                         zmax: int | None = None) -> str:
    """Clause-file text of the interval analysis."""
    return pretty(analysis_program(graph, "intervals", zmin, zmax))


def gen_sign_clauses(graph: ProgramGraph) -> str:
    """Clause-file text of the sign analysis."""
    return pretty(analysis_program(graph, "signs"))

