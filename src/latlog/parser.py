"""Clause-file text format: tokenizer, parser, and pretty-printer.

File layout: one lattice declaration, then ``rel``/``fun`` declarations,
then ``fact`` and ``clause`` items.  Inside clauses, identifiers bound by
``forall``/``exists`` are universe variables, lattice variables carry a
leading apostrophe (``'Y``), and unbound lowercase identifiers or integers
are universe constants.  Precedence, weakest first: quantifiers, ``=>``
(right-associative), ``|``, ``&``; parentheses group both clauses and
preconditions.  A bracketed single term ``[x]`` denotes the description of
an atom; a bracketed pair ``[lo,hi]`` is an interval constant.

Tokens carry their offset in the text; line and column are computed from it
only when an error is reported.  The parser builds AST nodes in one pass.
Whether an operand is read as a clause or as a precondition is decided when
it starts: in clause position, a chain followed by ``=>`` at its own bracket
depth is the precondition of an implication, and a lookahead over the tokens
finds that ``=>``.  Faults are reported in reading order.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Any, Optional

from . import ast
from .errors import ParseError
from .lattices import (NEG_INF, POS_INF, FunctionRegistry, Lattice,
                       interval_lattice, powerset_lattice, render_atom,
                       sign_lattice, standard_registry)

_RESERVED = {
    "lattice", "powerset", "signs", "interval", "zmin", "zmax",
    "rel", "fun", "fact", "clause", "forall", "exists", "top", "bot", "inf",
}

# one match per token, skipping the whitespace and comments in front of it
_TOKEN_RE = re.compile(r"""
    (?:\s+|//[^\n]*)*
    (?: (?P<yvar>'[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<punct>=>|:=|->|[(){}\[\],;./=!&|+\-*<>])
      | (?P<eof>\Z)
      | (?P<bad>.) )
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "value", "offset")

    def __init__(self, kind: str, value: Any, offset: int):
        self.kind = kind  # ident | yvar | int | punct | eof
        self.value = value  # an int for kind int, None for eof
        self.offset = offset


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[Token]:
    tokens = []
    match, pos = _TOKEN_RE.match, 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start, pos = m.start(kind), m.end()
        if kind == "eof":
            tokens.append(Token(kind, None, start))
            return tokens
        if kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", *_line_col(text, start))
        lexeme = text[start:pos]
        tokens.append(Token(kind, int(lexeme) if kind == "int" else lexeme, start))


# token values that open or close a group, and that end a clause item
_OPEN, _CLOSE = frozenset("([{"), frozenset(")]}")
_ITEM_END = frozenset({"rel", "fun", "fact", "clause", None})


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.lattice: Optional[Lattice] = None
        self.registry: Optional[FunctionRegistry] = None
        self.arities: dict[str, int] = {}
        self.declared_funs: list[tuple[str, int]] = []
        self.facts: list[ast.Fact] = []
        self.strata: list = []
        # scope stacks map surface names to unique internal names
        self.xscope: list[dict] = []
        self.yscope: list[dict] = []
        self.used_names: set[str] = set()
        self.next_suffix: dict[str, int] = {}

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, value) -> bool:
        return self.tokens[self.pos].value == value

    def eat(self, value) -> bool:
        if self.at(value):
            self.advance()
            return True
        return False

    def expect(self, value) -> Token:
        tok = self.peek()
        if not self.at(value):
            self.err(f"expected {value!r}, found {self._show(tok)}", tok)
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.err(f"expected {kind}, found {self._show(tok)}", tok)
        return self.advance()

    @staticmethod
    def _show(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(str(tok.value))

    def err(self, msg: str, tok: Token):
        raise ParseError(msg, *_line_col(self.text, tok.offset))

    # -- file structure

    def parse_file(self, extra_functions=None) -> ast.Program:
        self._parse_lattice_decl()
        if extra_functions:
            for (name, arity), fn in extra_functions.items():
                self.registry.register(name, arity, fn)
        while self.peek().kind != "eof":
            tok = self.peek()
            if self.at("rel"):
                self._parse_rel_decl()
            elif self.at("fun"):
                self._parse_fun_decl()
            elif self.at("fact"):
                self._parse_fact()
            elif self.at("clause"):
                self._parse_clause_item()
            else:
                self.err(f"expected rel/fun/fact/clause, found {self._show(tok)}", tok)
        extra = self.lattice.atoms if self.lattice.kind == "powerset" else ()
        universe = ast.universe_of(self.strata, self.facts, extra)
        return ast.Program(
            lattice=self.lattice,
            registry=self.registry,
            strata=tuple(self.strata),
            facts=tuple(self.facts),
            arities=self.arities,
            universe=universe,
            declared_funs=tuple(self.declared_funs),
        )

    def _parse_lattice_decl(self):
        self.expect("lattice")
        tok = self.peek()
        if self.eat("powerset"):
            self.expect("{")
            atoms = []
            while not self.at("}"):
                atoms.append(self._parse_atom_token())
                if not self.eat(","):
                    break
            self.expect("}")
            if not atoms:
                self.err("powerset universe must not be empty", tok)
            self.lattice = powerset_lattice(atoms)
        elif self.eat("signs"):
            self.lattice = sign_lattice()
        elif self.eat("interval"):
            self.expect("zmin")
            self.expect("=")
            zmin = self._parse_signed_int()
            self.expect("zmax")
            self.expect("=")
            zmax = self._parse_signed_int()
            if zmin > zmax:
                self.err(f"empty integer grid: zmin={zmin} > zmax={zmax}", tok)
            self.lattice = interval_lattice(zmin, zmax)
        else:
            self.err("expected powerset, signs, or interval", tok)
        self.registry = standard_registry(self.lattice)

    def _parse_signed_int(self) -> int:
        sign = -1 if self.eat("-") else 1
        return sign * self.expect_kind("int").value

    def _parse_atom_token(self):
        tok = self.peek()
        if tok.kind == "int":
            return self.advance().value
        if self.at("-"):
            self.advance()
            return -self.expect_kind("int").value
        if tok.kind == "ident":
            name = self.advance().value
            if name in _RESERVED:
                self.err(f"{name!r} is reserved and cannot name an atom", tok)
            if not name[0].islower():
                self.err(f"unknown atom {name!r} (atoms are lowercase identifiers "
                         "or integers)", tok)
            return name
        self.err(f"expected an atom, found {self._show(tok)}", tok)

    def _parse_rel_decl(self):
        self.expect("rel")
        name = self.expect_kind("ident").value
        self.expect("/")
        arity = self.expect_kind("int").value
        prev = self.arities.setdefault(name, arity)
        if prev != arity:
            self.err(f"arity mismatch for {name}: {arity} vs declared {prev}", self.peek())

    def _parse_fun_decl(self):
        self.expect("fun")
        tok = self.peek()
        name = self.expect_kind("ident").value
        self.expect("/")
        arity = self.expect_kind("int").value
        if not self.registry.has(name, arity):
            self.err(f"unknown function symbol {name}/{arity}", tok)
        self.declared_funs.append((name, arity))

    def _parse_fact(self):
        self.expect("fact")
        tok = self.peek()
        pred = self.expect_kind("ident").value
        self.expect("(")
        atoms = []
        while not self.at(")"):
            atoms.append(self._parse_atom_token())
            if not self.eat(","):
                break
        self.expect(")")
        self._note_arity(pred, len(atoms), tok)
        self.expect("=")
        value = self._parse_lconst()
        self.facts.append(ast.Fact(pred, tuple(atoms), value))

    def _parse_clause_item(self):
        self.expect("clause")
        while True:
            self.used_names, self.next_suffix = set(), {}
            self.strata.append(self._parse_quantified(True))
            if not self.eat(","):
                break

    # -- arity bookkeeping

    def _note_arity(self, pred: str, arity: int, tok: Token):
        if pred in _RESERVED:
            self.err(f"{pred!r} is reserved and cannot name a predicate", tok)
        prev = self.arities.setdefault(pred, arity)
        if prev != arity:
            self.err(f"arity mismatch for {pred}: {arity} vs declared {prev}", tok)

    # -- scopes

    def _bind(self, surface: str, is_y: bool, tok: Token) -> str:
        """Internal name for a binder: the first of ``x, x_2, x_3, ...`` not
        yet used in the clause; a suffixed name also skips every name the
        file spells, so that printing it captures no constant.  Used names
        only accumulate, so the search resumes where the previous binder of
        the same name stopped."""
        if surface.lstrip("'") in _RESERVED:
            self.err(f"{surface!r} is reserved and cannot name a variable", tok)
        n = self.next_suffix.get(surface, 1)
        internal = surface if n == 1 else f"{surface}_{n}"
        while internal in self.used_names or n > 1 and internal in self._spelled:
            n += 1
            internal = f"{surface}_{n}"
        self.next_suffix[surface] = n + 1
        self.used_names.add(internal)
        (self.yscope if is_y else self.xscope).append({surface: internal})
        return internal

    @cached_property
    def _spelled(self) -> set:
        """Every token value of the file, collected when a suffix is first tried."""
        return {tok.value for tok in self.tokens}

    def _unbind(self, is_y: bool):
        (self.yscope if is_y else self.xscope).pop()

    def _lookup_x(self, name: str) -> Optional[str]:
        for frame in reversed(self.xscope):
            if name in frame:
                return frame[name]
        return None

    def _lookup_y(self, name: str) -> Optional[str]:
        for frame in reversed(self.yscope):
            if name in frame:
                return frame[name]
        return None

    # -- terms and lattice terms

    def _parse_term(self):
        tok = self.peek()
        if tok.kind == "int":
            atom = self.advance().value
            self._check_powerset_atom(atom, tok)
            return ast.Const(atom)
        if self.at("-"):
            self.advance()
            atom = -self.expect_kind("int").value
            self._check_powerset_atom(atom, tok)
            return ast.Const(atom)
        if tok.kind == "ident":
            name = self.advance().value
            bound = self._lookup_x(name)
            if bound is not None:
                return ast.Var(bound)
            if name in _RESERVED:
                self.err(f"{name!r} is reserved", tok)
            if not name[0].islower():
                self.err(f"unbound identifier {name!r} used as a constant "
                         "(constants are lowercase)", tok)
            self._check_powerset_atom(name, tok)
            return ast.Const(name)
        self.err(f"expected a term, found {self._show(tok)}", tok)

    def _check_powerset_atom(self, atom, tok: Token):
        if self.lattice.kind == "powerset" and atom not in self.lattice.atoms:
            self.err(f"unknown atom {atom!r} (not in the powerset universe)", tok)

    def _parse_lconst(self):
        tok = self.peek()
        if self.eat("top"):
            return self.lattice.top
        if self.eat("bot"):
            return self.lattice.bottom
        if self.at("{"):
            return self._parse_set_literal()
        if self.at("["):
            return self._parse_interval_literal()
        self.err(f"expected a lattice constant, found {self._show(tok)}", tok)

    def _parse_set_literal(self):
        tok = self.expect("{")
        if self.lattice.kind not in ("powerset", "signs"):
            self.err("set literals require a powerset or signs lattice", tok)
        elems = set()
        while not self.at("}"):
            elems.add(self._parse_set_element())
            if not self.eat(","):
                break
        self.expect("}")
        return frozenset(elems)

    def _parse_set_element(self):
        tok = self.peek()
        if self.lattice.kind == "signs":
            if self.eat("-"):
                return "-"
            if self.eat("+"):
                return "+"
            if tok.kind == "int" and tok.value == 0:
                self.advance()
                return "0"
            self.err(f"expected a sign (-, 0, +), found {self._show(tok)}", tok)
        atom = self._parse_atom_token()
        if atom not in self.lattice.atoms:
            self.err(f"unknown atom {atom!r} (not in the powerset universe)", tok)
        return atom

    def _parse_interval_endpoint(self):
        tok = self.peek()
        if self.eat("inf"):
            return POS_INF
        if self.at("-"):
            self.advance()
            if self.eat("inf"):
                return NEG_INF
            return -self.expect_kind("int").value
        if tok.kind == "int":
            return self.advance().value
        self.err(f"expected an interval endpoint, found {self._show(tok)}", tok)

    def _parse_interval_literal(self):
        tok = self.expect("[")
        if self.lattice.kind != "interval":
            self.err("interval literals require an interval lattice", tok)
        lo = self._parse_interval_endpoint()
        self.expect(",")
        hi = self._parse_interval_endpoint()
        self.expect("]")
        return self.lattice.make_interval(lo, hi)

    def _parse_value(self):
        """A lattice term in query/assert position (FnApp legality checked later)."""
        tok = self.peek()
        if tok.kind == "yvar":
            name = self.advance().value
            bound = self._lookup_y(name)
            if bound is None:
                self.err(f"unbound lattice variable {name}", tok)
            return ast.YVar(bound)
        if self.at("["):
            # one bracketed term is a description; a comma makes it an interval
            nxt, nxt2 = self.peek(1), self.peek(2)
            is_literal = (
                nxt.kind == "punct" and nxt.value == "-"
                or (nxt.kind == "ident" and nxt.value == "inf")
                or (nxt.kind == "int" and nxt2.kind == "punct" and nxt2.value == ",")
            )
            if is_literal:
                return ast.LitConst(self._parse_interval_literal())
            self.advance()
            term = self._parse_term()
            self.expect("]")
            return ast.Repr(term)
        if self.at("{") or self.at("top") or self.at("bot"):
            return ast.LitConst(self._parse_lconst())
        if tok.kind == "ident":
            name = self.advance().value
            paren = self.expect("(")
            args = []
            while not self.at(")"):
                args.append(self._parse_value())
                if not self.eat(","):
                    break
            self.expect(")")
            if not self.registry.has(name, len(args)):
                self.err(f"unknown function symbol {name}/{len(args)}", tok)
            return ast.FnApp(name, tuple(args))
        self.err(f"expected a lattice term, found {self._show(tok)}", tok)

    # -- clauses and preconditions: ``clause`` tells the position being read

    def _implies_ahead(self) -> bool:
        """Whether ``=>`` comes next at the current bracket depth, before the
        group's closing bracket, a ``,`` at depth 0, an item keyword or the
        end: that is, whether the chain starting here is a precondition."""
        tokens, i, depth = self.tokens, self.pos, 0
        while True:
            value = tokens[i].value
            if value in _OPEN:
                depth += 1
            elif value in _CLOSE:
                if not depth:
                    return False
                depth -= 1
            elif not depth and value == "=>":
                return True
            elif value in _ITEM_END or not depth and value == ",":
                return False
            i += 1

    def _parse_quantified(self, clause: bool):
        if self.at("forall") or self.at("exists"):
            return self._parse_binder_body(clause, top=True)
        if clause and self._implies_ahead():
            pre = self._parse_or(False)
            self.expect("=>")
            return ast.Imply(pre, self._parse_quantified(True))
        node = self._parse_or(clause)
        if not clause and self.at("=>"):
            self.err("'=>' is not allowed inside preconditions", self.peek())
        return node

    def _parse_binder_body(self, clause: bool, top: bool):
        """``forall`` binds in clause position and ``exists`` in preconditions;
        a binder inside a chain (not ``top``) scopes over one or-chain."""
        tok = self.advance()
        if (tok.value == "forall") != clause:
            self.err("exists is not allowed in clause position" if clause
                     else "forall is not allowed in preconditions", tok)
        bind_tok = self.peek()
        is_y = bind_tok.kind == "yvar"
        name = self.advance().value if is_y else self.expect_kind("ident").value
        var = self._bind(name, is_y, bind_tok)
        self.expect(".")
        body = self._parse_quantified(clause) if top else self._parse_or(clause)
        self._unbind(is_y)
        if clause:
            return ast.ForallY(var, body) if is_y else ast.ForallX(var, body)
        return ast.ExistsY(var, body) if is_y else ast.ExistsX(var, body)

    # A chain ``a op b op c`` is one node; a first operand that is a
    # parenthesized chain of the same operator contributes its parts.

    def _parse_or(self, clause: bool):
        node = self._parse_and(clause)
        if not self.at("|"):
            return node
        parts = list(node.parts) if isinstance(node, ast.PreOr) else [node]
        while self.at("|"):
            tok = self.advance()
            parts.append(self._parse_and(False))
        if clause:
            self.err("disjunction is only allowed in preconditions", tok)
        return ast.PreOr(tuple(parts))

    def _parse_and(self, clause: bool):
        node = self._parse_unit(clause)
        if not self.at("&"):
            return node
        node_type = ast.ClauseAnd if clause else ast.PreAnd
        parts = list(node.parts) if isinstance(node, node_type) else [node]
        while self.eat("&"):
            parts.append(self._parse_unit(clause))
        return node_type(tuple(parts))

    def _parse_unit(self, clause: bool):
        tok = self.peek()
        if self.eat("("):
            node = self._parse_quantified(clause)
            self.expect(")")
            return node
        if self.at("forall") or self.at("exists"):
            return self._parse_binder_body(clause, top=False)
        if self.at("!"):
            if clause:
                self.err("a negated query cannot be asserted", tok)
            self.advance()
            return self._parse_rel_atom(False, neg=True, tok=tok)
        if tok.kind == "int" and tok.value == 1:
            if not clause:
                self.err("'1' is a clause, not a precondition", tok)
            self.advance()
            return ast.TrueClause()
        if tok.kind == "yvar":
            name = self.advance().value
            bound = self._lookup_y(name)
            if bound is None:
                self.err(f"unbound lattice variable {name}", tok)
            if clause:
                self.err("a lattice-variable application is only allowed in preconditions",
                         tok)
            self.expect("(")
            term = self._parse_term()
            self.expect(")")
            return ast.Apply(bound, term)
        if tok.kind == "ident":
            return self._parse_rel_atom(clause, neg=False, tok=tok)
        self.err(f"expected a clause or precondition, found {self._show(tok)}", tok)

    def _parse_rel_atom(self, clause: bool, neg: bool, tok: Token):
        pred = self.expect_kind("ident").value
        self.expect("(")
        args = []
        while not (self.at(";") or self.at(")")):
            args.append(self._parse_term())
            if not self.eat(","):
                break
        self.expect(";")
        value = self._parse_value()
        self.expect(")")
        self._note_arity(pred, len(args), tok)
        if clause:
            return ast.Assert(pred, tuple(args), value)
        if isinstance(value, ast.FnApp):
            self.err("function terms are not allowed in queries", tok)
        return (ast.NegQuery if neg else ast.Query)(pred, tuple(args), value)


def parse_clauses(text: str, extra_functions=None) -> ast.Program:
    """Parse a clause file into a program (unvalidated; see :func:`ast.validate`)."""
    return Parser(text).parse_file(extra_functions)


def parse_fact(text: str, program: ast.Program) -> ast.Fact:
    """Parse one fact written in clause-file syntax against an existing program."""
    parser = Parser(text)
    parser.lattice = program.lattice
    parser.registry = program.registry
    parser.arities = dict(program.arities)
    parser._parse_fact()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.err(f"unexpected trailing input {parser._show(tok)}", tok)
    return parser.facts[0]


# --- pretty-printer -----------------------------------------------------------

_LVL_QUANT = 0
_LVL_IMP = 1
_LVL_OR = 2
_LVL_AND = 3
_LVL_ATOM = 4


def _term_text(t) -> str:
    return t.name if isinstance(t, ast.Var) else render_atom(t.atom)


def _value_text(lattice: Lattice, v) -> str:
    if isinstance(v, ast.YVar):
        return v.name
    if isinstance(v, ast.Repr):
        return f"[{_term_text(v.term)}]"
    if isinstance(v, ast.FnApp):
        return f"{v.name}({','.join(_value_text(lattice, a) for a in v.args)})"
    if isinstance(v, ast.LitConst):
        return lattice.render(v.value)
    raise TypeError(f"not a lattice term: {v!r}")


def _atom_text(lattice, pred, args, value) -> str:
    return f"{pred}({','.join(_term_text(t) for t in args)};{_value_text(lattice, value)})"


def _wrap(text: str, level: int, minimum: int) -> str:
    return f"({text})" if level < minimum else text


def pre_text(lattice: Lattice, p, minimum: int = 0) -> str:
    if isinstance(p, ast.Query):
        return _atom_text(lattice, p.pred, p.args, p.value)
    if isinstance(p, ast.NegQuery):
        return "!" + _atom_text(lattice, p.pred, p.args, p.value)
    if isinstance(p, ast.Apply):
        return f"{p.yvar}({_term_text(p.term)})"
    if isinstance(p, ast.PreAnd):
        s = " & ".join(pre_text(lattice, q, _LVL_AND + 1) for q in p.parts)
        return _wrap(s, _LVL_AND, minimum)
    if isinstance(p, ast.PreOr):
        s = " | ".join(pre_text(lattice, q, _LVL_OR + 1) for q in p.parts)
        return _wrap(s, _LVL_OR, minimum)
    if isinstance(p, ast.ExistsX):
        s = f"exists {p.var}. {pre_text(lattice, p.body, _LVL_QUANT)}"
        return _wrap(s, _LVL_QUANT, minimum)
    if isinstance(p, ast.ExistsY):
        s = f"exists {p.yvar}. {pre_text(lattice, p.body, _LVL_QUANT)}"
        return _wrap(s, _LVL_QUANT, minimum)
    raise TypeError(f"not a precondition: {p!r}")


def clause_text(lattice: Lattice, cl, minimum: int = 0) -> str:
    if isinstance(cl, ast.Assert):
        return _atom_text(lattice, cl.pred, cl.args, cl.value)
    if isinstance(cl, ast.TrueClause):
        return "1"
    if isinstance(cl, ast.ClauseAnd):
        s = " & ".join(clause_text(lattice, c, _LVL_AND + 1) for c in cl.parts)
        return _wrap(s, _LVL_AND, minimum)
    if isinstance(cl, ast.Imply):
        s = (f"{pre_text(lattice, cl.pre, _LVL_OR)}"
             f" => {clause_text(lattice, cl.body, _LVL_IMP)}")
        return _wrap(s, _LVL_IMP, minimum)
    if isinstance(cl, ast.ForallX):
        s = f"forall {cl.var}. {clause_text(lattice, cl.body, _LVL_QUANT)}"
        return _wrap(s, _LVL_QUANT, minimum)
    if isinstance(cl, ast.ForallY):
        s = f"forall {cl.yvar}. {clause_text(lattice, cl.body, _LVL_QUANT)}"
        return _wrap(s, _LVL_QUANT, minimum)
    raise TypeError(f"not a clause: {cl!r}")


def lattice_decl_text(lattice: Lattice) -> str:
    if lattice.kind == "powerset":
        return "lattice powerset {" + ",".join(render_atom(a) for a in lattice.atoms) + "}"
    if lattice.kind == "signs":
        return "lattice signs"
    if lattice.kind == "interval":
        return f"lattice interval zmin={lattice.zvalues[0]} zmax={lattice.zvalues[-1]}"
    raise TypeError(f"lattice kind {lattice.kind!r} has no file syntax")


def pretty(program: ast.Program) -> str:
    """Render a program back to clause-file text; parsing it yields equal ASTs."""
    lines = [lattice_decl_text(program.lattice)]
    for name, arity in program.declared_funs:
        lines.append(f"fun {name}/{arity}")
    for pred in sorted(program.arities):
        lines.append(f"rel {pred}/{program.arities[pred]}")
    for f in program.facts:
        atoms = ",".join(render_atom(a) for a in f.atoms)
        lines.append(f"fact {f.pred}({atoms}) = {program.lattice.render(f.value)}")
    for cl in program.strata:
        lines.append("clause " + clause_text(program.lattice, cl))
    return "\n".join(lines) + "\n"
