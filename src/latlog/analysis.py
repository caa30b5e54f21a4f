"""Program graphs and clause generation for the shipped analyses.

A program graph is a set of states with action-labeled edges (three-address
assignments, boolean tests, skip).  The generators emit single-stratum clause
files over the interval or sign lattice: the initial state starts every
variable at top, assignments update the target through a registered transfer
function and frame-copy the remaining variables, and tests/skips propagate
unchanged.  A bounded concrete interpreter backs the soundness tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import ParseError, ValidationError
from .lattices import sign_of

_RESERVED_GRAPH = {"state", "initial", "var", "skip", "test"}


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarRef:
    name: str


Operand = Union[IntLit, VarRef]


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
        return IntLit(int(text))
    if text not in variables:
        raise ParseError(f"unknown variable {text!r}", lineno, 1)
    return VarRef(text)


def parse_program_graph(text: str) -> ProgramGraph:
    """Parse the edge-list graph format.

    Lines: ``initial q0`` (exactly one), ``state q1``, ``var x``, edges
    ``qs -> qt : x := y + z | x := n | x := y | test <cmp> | skip``;
    ``//`` comments.
    """
    states: list = []
    initial = None
    variables: list = []
    raw_edges: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "initial":
            if initial is not None:
                raise ParseError("second 'initial' line", lineno, 1)
            initial = rest
            if rest not in states:
                states.append(rest)
        elif head == "state":
            if rest not in states:
                states.append(rest)
        elif head == "var":
            if not rest.isidentifier() or rest in _RESERVED_GRAPH:
                raise ParseError(f"bad variable name {rest!r}", lineno, 1)
            if rest not in variables:
                variables.append(rest)
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
        out.update(o.value for o in ops if isinstance(o, IntLit))
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


def _frame_rules(graph: ProgramGraph, edge: Edge, target: str) -> list[str]:
    rules = []
    for v in graph.variables:
        if v != target:
            rules.append(f"(forall 'i. A({edge.src},{v};'i) => A({edge.dst},{v};'i))")
    return rules


def _propagate_rule(edge: Edge) -> str:
    return f"(forall v. forall 'i. A({edge.src},v;'i) => A({edge.dst},v;'i))"


def _assign_rule(edge: Edge, rhs, fn_prefix: str, const) -> str:
    """One rule per assignment edge: variable operands are queried at the
    source state (which also gates on its reachability), literal operands
    become lattice constants; an all-literal right-hand side is gated on the
    target variable itself."""
    target = edge.action.target
    if isinstance(rhs, BinOp):
        guards, terms = [], []
        for tag, o in (("l", rhs.left), ("r", rhs.right)):
            if isinstance(o, VarRef):
                yv = f"'i{tag}"
                guards.append(f"A({edge.src},{o.name};{yv})")
                terms.append(yv)
            else:
                terms.append(const(o.value))
        value = f"{fn_prefix}{_OP_NAME[rhs.op]}({terms[0]},{terms[1]})"
        if not guards:
            guards = [f"A({edge.src},{target};'ig)"]
            quant = "forall 'ig. "
        else:
            quant = "".join(f"forall {t}. " for t in terms if t.startswith("'"))
        return f"({quant}{' & '.join(guards)} => A({edge.dst},{target};{value}))"
    if isinstance(rhs, VarRef):
        return (f"(forall 'i. A({edge.src},{rhs.name};'i)"
                f" => A({edge.dst},{target};'i))")
    return (f"(forall 'i. A({edge.src},{target};'i)"
            f" => A({edge.dst},{target};{const(rhs.value)}))")


def _gen_clauses(graph: ProgramGraph, lattice_line: str, funs: list[str],
                 fn_prefix: str, const) -> str:
    rules = [f"A({graph.initial},{v};top)" for v in graph.variables]
    for edge in graph.edges:
        action = edge.action
        if isinstance(action, Assign):
            rules.append(_assign_rule(edge, action.rhs, fn_prefix, const))
            rules.extend(_frame_rules(graph, edge, action.target))
        else:
            rules.append(_propagate_rule(edge))
    lines = [lattice_line]
    lines += [f"fun {f}/2" for f in funs]
    lines.append("rel A/2")
    lines.append("clause " + rules[0])
    lines += [f"  & {r}" for r in rules[1:]]
    return "\n".join(lines) + "\n"


def _check_graph_names(graph: ProgramGraph) -> None:
    from .parser import _RESERVED

    for name in graph.states + graph.variables:
        if not (name[0].islower() and name.isidentifier()):
            raise ValidationError(
                f"graph name {name!r} cannot be used as a clause-file atom")
        if name in _RESERVED or name == "v":
            raise ValidationError(
                f"graph name {name!r} collides with generated clause syntax")


def gen_interval_clauses(graph: ProgramGraph, zmin: int | None = None,
                         zmax: int | None = None) -> str:
    """Clause file computing, per state and variable, an interval covering
    every value the variable may hold there."""
    _check_graph_names(graph)
    lo, hi = _interval_grid(graph, zmin, zmax)
    ops = sorted({_OP_NAME[e.action.rhs.op] for e in graph.edges
                  if isinstance(e.action, Assign) and isinstance(e.action.rhs, BinOp)})
    return _gen_clauses(
        graph,
        f"lattice interval zmin={lo} zmax={hi}",
        [f"f_{op}" for op in ops],
        "f_",
        lambda n: f"[{n},{n}]",
    )


def gen_sign_clauses(graph: ProgramGraph) -> str:
    """Clause file computing, per state and variable, the set of signs the
    variable may have there."""
    _check_graph_names(graph)
    ops = sorted({_OP_NAME[e.action.rhs.op] for e in graph.edges
                  if isinstance(e.action, Assign) and isinstance(e.action.rhs, BinOp)})
    return _gen_clauses(
        graph,
        "lattice signs",
        [f"s_{op}" for op in ops],
        "s_",
        lambda n: "{" + sign_of(n) + "}",
    )


# --- bounded concrete execution ------------------------------------------------

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def _eval_operand(o: Operand, store: dict) -> int:
    return o.value if isinstance(o, IntLit) else store[o.name]


def concrete_reachable(graph: ProgramGraph, initial_store: dict,
                       max_steps: int = 1000, max_configs: int = 200_000) -> set:
    """(state, variable, value) triples reachable within the step bound."""
    start = (graph.initial, tuple(sorted(initial_store.items())))
    frontier = [start]
    visited = {start}
    reached = {(graph.initial, v, n) for v, n in initial_store.items()}
    for _ in range(max_steps):
        if not frontier or len(visited) > max_configs:
            break
        nxt = []
        for state, items in frontier:
            store = dict(items)
            for edge in graph.edges:
                if edge.src != state:
                    continue
                action = edge.action
                if isinstance(action, Assign):
                    rhs = action.rhs
                    if isinstance(rhs, BinOp):
                        value = _ARITH[rhs.op](_eval_operand(rhs.left, store),
                                               _eval_operand(rhs.right, store))
                    else:
                        value = _eval_operand(rhs, store)
                    new_store = dict(store)
                    new_store[action.target] = value
                elif isinstance(action, BoolTest):
                    if not _CMP[action.op](_eval_operand(action.left, store),
                                           _eval_operand(action.right, store)):
                        continue
                    new_store = store
                else:
                    new_store = store
                config = (edge.dst, tuple(sorted(new_store.items())))
                if config not in visited:
                    visited.add(config)
                    nxt.append(config)
                    reached.update((edge.dst, v, n) for v, n in new_store.items())
        frontier = nxt
    return reached


def initial_stores(graph: ProgramGraph, values: Iterable[int]) -> list[dict]:
    """All assignments of the given start values to the graph's variables."""
    stores = [dict()]
    for v in graph.variables:
        stores = [{**s, v: n} for s in stores for n in values]
    return stores
