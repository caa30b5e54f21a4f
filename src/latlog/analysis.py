"""Program graphs and the shipped analyses built from them.

A program graph is a set of states with action-labeled edges (three-address
assignments, boolean tests, skip).  :func:`analysis_program` builds a
single-stratum ``ast.Program`` from a graph, with no clause text in between:
the initial state starts every variable at top, assignments update the target
through a registered transfer function and frame-copy the remaining variables,
and tests/skips propagate unchanged.  ``gen_*_clauses`` pretty-print those
programs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from . import ast
from .errors import ParseError, ValidationError
from .lattices import Lattice, interval_lattice, sign_lattice, standard_registry
from .parser import _RESERVED, pretty, read_int

_RESERVED_GRAPH = {"state", "initial", "var", "skip", "test"}


Operand = Union[int, str]  # an integer literal or a variable name


@dataclass(frozen=True)
class Assign:
    target: str
    rhs: Union[Operand, "BinOp"]


@dataclass(frozen=True)
class BinOp:
    op: str  # + - *
    left: Operand
    right: Operand


@dataclass(frozen=True)
class BoolTest:
    left: Operand
    op: str  # < <= > >= == !=
    right: Operand


@dataclass(frozen=True)
class Skip:
    pass


Action = Union[Assign, BoolTest, Skip]


@dataclass(frozen=True)
class Edge:
    src: str
    action: Action
    dst: str


@dataclass(frozen=True)
class ProgramGraph:
    states: tuple
    initial: str
    edges: tuple
    variables: tuple


_OPERAND_RE = re.compile(r"-?\d+|[A-Za-z_][A-Za-z0-9_]*")
_TEST_RE = re.compile(
    r"^\s*(?P<l>-?\d+|\w+)\s*(?P<op><=|>=|==|!=|<|>|=)\s*(?P<r>-?\d+|\w+)\s*$")
_ASSIGN_RE = re.compile(
    r"^\s*(?P<t>\w+)\s*:=\s*(?P<a>-?\d+|\w+)\s*(?:(?P<op>[-+*])\s*(?P<b>-?\d+|\w+)\s*)?$")
_EDGE_RE = re.compile(r"^\s*(?P<src>\w+)\s*->\s*(?P<dst>\w+)\s*:\s*(?P<act>.*)$")


def _operand(text: str, variables, lineno: int) -> Operand:
    if re.fullmatch(r"-?\d+", text):
        return read_int(text, lambda: (lineno, 1))
    if text not in variables:
        raise ParseError(f"unknown variable {text!r}", lineno, 1)
    return text


def parse_program_graph(text: str) -> ProgramGraph:
    """Parse the edge-list graph format.

    Lines: ``initial q0`` (exactly one), ``state q1``, ``var x``, edges
    ``qs -> qt : x := y + z | x := n | x := y | test <cmp> | skip``;
    ``//`` comments.
    """
    states: dict = {}  # dicts as insertion-ordered sets
    initial = None
    variables: dict = {}
    raw_edges: list = []
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
            m = _EDGE_RE.match(line)
            if m is None:
                raise ParseError(f"cannot parse line {raw!r}", lineno, 1)
            raw_edges.append((lineno, m["src"], m["dst"], m["act"].strip()))
    if initial is None:
        raise ParseError("no 'initial' line", 1, 1)

    edges = []
    for lineno, src, dst, act in raw_edges:
        for q in (src, dst):
            if q not in states:
                raise ParseError(f"unknown state {q!r}", lineno, 1)
        edges.append(Edge(src, _parse_action(act, variables, lineno), dst))
    if not variables:
        raise ParseError("graph declares no variables", 1, 1)
    return ProgramGraph(tuple(states), initial, tuple(edges), tuple(variables))


def _parse_action(act: str, variables, lineno: int) -> Action:
    if act == "skip":
        return Skip()
    if act.startswith("test"):
        m = _TEST_RE.match(act[4:])
        if m is None:
            raise ParseError(f"cannot parse test {act!r}", lineno, 1)
        op = "==" if m["op"] == "=" else m["op"]
        return BoolTest(_operand(m["l"], variables, lineno), op,
                        _operand(m["r"], variables, lineno))
    m = _ASSIGN_RE.match(act)
    if m is None:
        raise ParseError(f"cannot parse action {act!r}", lineno, 1)
    target = m["t"]
    if target not in variables:
        raise ParseError(f"unknown variable {target!r}", lineno, 1)
    a = _operand(m["a"], variables, lineno)
    if m["op"] is None:
        return Assign(target, a)
    return Assign(target, BinOp(m["op"], a, _operand(m["b"], variables, lineno)))


def int_literals(graph: ProgramGraph) -> set[int]:
    """Integer literals of the assignment actions (tests never refine, so
    their constants do not contribute to the grid)."""
    out: set[int] = set()
    for e in graph.edges:
        a = e.action
        if not isinstance(a, Assign):
            continue
        ops = (a.rhs.left, a.rhs.right) if isinstance(a.rhs, BinOp) else (a.rhs,)
        out.update(o for o in ops if isinstance(o, int))
    return out


# --- clause generation ---------------------------------------------------------

_OP_NAME = {"+": "add", "-": "sub", "*": "mul"}


def _interval_grid(graph: ProgramGraph, zmin, zmax) -> tuple[int, int]:
    if zmin is not None and zmax is not None and zmin > zmax:
        raise ValidationError(f"empty integer grid: zmin={zmin} > zmax={zmax}")
    lits = int_literals(graph)
    candidates = set(lits)
    if zmin is not None:
        candidates.add(zmin)
    if zmax is not None:
        candidates.add(zmax)
    if not candidates:
        candidates = {0}
    return min(candidates), max(candidates)


def _program(graph: ProgramGraph, lattice: Lattice, prefix: str) -> ast.Program:
    """One clause over ``A(state, variable; value)``, equal to what the parser
    makes of its pretty-printed text: the k-th binder named ``b`` is ``b_k``
    from k = 2 on.  Variable operands are queried at the source state, which
    gates the rule on its reachability; an all-literal right-hand side is
    gated on the target variable itself."""
    _check_graph_names(graph)
    taken: dict[str, int] = {}
    funs: set[str] = set()

    def fresh(base: str) -> str:
        n = taken[base] = taken.get(base, 0) + 1
        return base if n == 1 else f"{base}_{n}"

    def at(state: str, var) -> tuple:
        return ast.Const(state), var if isinstance(var, ast.Var) else ast.Const(var)

    def rule(edge: Edge, reads: list, var, value) -> ast.Clause:
        """``forall Y.. A(src,r;Y) & .. => A(dst,var;value)`` per (r, Y) read."""
        pre = [ast.Query("A", at(edge.src, r), y) for r, y in reads]
        cl = ast.Imply(pre[0] if len(pre) == 1 else ast.And(tuple(pre)),
                       ast.Assert("A", at(edge.dst, var), value))
        for _, y in reversed(reads):
            cl = ast.Forall(y.name, cl)
        return cl

    def assign(edge: Edge, target: str, rhs) -> ast.Clause:
        if not isinstance(rhs, BinOp):
            y = ast.YVar(fresh("'i"))
            if isinstance(rhs, str):
                return rule(edge, [(rhs, y)], target, y)
            return rule(edge, [(target, y)], target,
                        ast.LitConst(lattice.represent(rhs)))
        reads, terms = [], []
        for base, o in (("'il", rhs.left), ("'ir", rhs.right)):
            if isinstance(o, str):
                reads.append((o, ast.YVar(fresh(base))))
                terms.append(reads[-1][1])
            else:
                terms.append(ast.LitConst(lattice.represent(o)))
        value = ast.FnApp(prefix + _OP_NAME[rhs.op], tuple(terms))
        funs.add(value.name)
        return rule(edge, reads or [(target, ast.YVar(fresh("'ig")))], target, value)

    top = ast.LitConst(lattice.top)
    rules = [ast.Assert("A", at(graph.initial, v), top) for v in graph.variables]
    for edge in graph.edges:
        action = edge.action
        if isinstance(action, Assign):
            rules.append(assign(edge, action.target, action.rhs))
            for v in graph.variables:
                if v != action.target:
                    y = ast.YVar(fresh("'i"))
                    rules.append(rule(edge, [(v, y)], v, y))
        else:
            x, y = ast.Var(fresh("v")), ast.YVar(fresh("'i"))
            rules.append(ast.Forall(x.name, rule(edge, [(x, y)], x, y)))
    strata = (rules[0] if len(rules) == 1 else ast.And(tuple(rules)),)
    return ast.Program(lattice=lattice, registry=standard_registry(lattice),
                       strata=strata, arities={"A": 2},
                       universe=ast.universe_of(strata, ()),
                       declared_funs=tuple((f, 2) for f in sorted(funs)))


def _check_graph_names(graph: ProgramGraph) -> None:
    # every name prints as an atom that no binder v, v_2, ... captures
    for name in graph.states + graph.variables:
        if not (name[0].islower() and name.isidentifier()):
            raise ValidationError(
                f"graph name {name!r} cannot be used as a clause-file atom")
        if name in _RESERVED or re.fullmatch(r"v(_\d+)?", name):
            raise ValidationError(
                f"graph name {name!r} collides with generated clause syntax")


def analysis_program(graph: ProgramGraph, which: str, zmin: int | None = None,
                     zmax: int | None = None) -> ast.Program:
    """Program computing, per state and variable, the signs (``which`` is
    ``"signs"``) or an interval (``"intervals"``) covering every value the
    variable may hold there; ``zmin``/``zmax`` widen the interval grid."""
    if which == "signs":
        return _program(graph, sign_lattice(), "s_")
    return _program(graph, interval_lattice(*_interval_grid(graph, zmin, zmax)), "f_")


def gen_interval_clauses(graph: ProgramGraph, zmin: int | None = None,
                         zmax: int | None = None) -> str:
    """Clause-file text of the interval analysis."""
    return pretty(analysis_program(graph, "intervals", zmin, zmax))


def gen_sign_clauses(graph: ProgramGraph) -> str:
    """Clause-file text of the sign analysis."""
    return pretty(analysis_program(graph, "signs"))

