"""A frozen copy of the program-graph reader as it was before it matched each
edge line with one pattern: a line pattern, then one pattern per action kind,
each operand matched against the integer pattern before the variables.  The
differential test in ``test_analysis.py`` holds ``parse_program_graph`` to
its graphs and its errors.
"""

from __future__ import annotations

import re

from latlog.analysis import Assign, BinOp, BoolTest, Edge, ProgramGraph, Skip
from latlog.errors import ParseError
from latlog.parser import read_int

_RESERVED_GRAPH = {"state", "initial", "var", "skip", "test"}

_TEST_RE = re.compile(
    r"^\s*(?P<l>-?\d+|\w+)\s*(?P<op><=|>=|==|!=|<|>|=)\s*(?P<r>-?\d+|\w+)\s*$")
_ASSIGN_RE = re.compile(
    r"^\s*(?P<t>\w+)\s*:=\s*(?P<a>-?\d+|\w+)\s*(?:(?P<op>[-+*])\s*(?P<b>-?\d+|\w+)\s*)?$")
_EDGE_RE = re.compile(r"^\s*(?P<src>\w+)\s*->\s*(?P<dst>\w+)\s*:\s*(?P<act>.*)$")


def _operand(text: str, variables, lineno: int):
    if re.fullmatch(r"-?\d+", text):
        return read_int(text, lambda: (lineno, 1))
    if text not in variables:
        raise ParseError(f"unknown variable {text!r}", lineno, 1)
    return text


def parse_program_graph(text: str) -> ProgramGraph:
    states: dict = {}
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


def _parse_action(act: str, variables, lineno: int):
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
