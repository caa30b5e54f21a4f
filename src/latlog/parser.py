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
        # surface name -> internal name of the innermost binder in scope,
        # None once that binder's scope has closed
        self.scope: dict[str, Optional[str]] = {}
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
            elif self.eat("fact"):
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
            atoms = self._parse_list(self._parse_atom_token, "}")
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

    def _parse_list(self, item, *close) -> list:
        """Comma-separated ``item``s up to the first of the ``close`` tokens,
        which is then expected; one trailing comma is accepted."""
        items = []
        while self.peek().value not in close:
            items.append(item())
            if not self.eat(","):
                break
        self.expect(close[0])
        return items

    def _parse_atom_token(self):
        tok = self.peek()
        if tok.kind == "int" or self.at("-"):
            return self._parse_signed_int()
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
        tok = self.peek()
        name = self.expect_kind("ident").value
        self.expect("/")
        self._note_arity(name, self.expect_kind("int").value, tok)

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
        """``P(a1, ..., an) = l``, the text after the ``fact`` keyword."""
        tok = self.peek()
        pred = self.expect_kind("ident").value
        self.expect("(")
        atoms = self._parse_list(self._parse_atom_token, ")")
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

    def _bind(self, surface: str, tok: Token) -> str:
        """Bring a binder into scope under its internal name: the first of
        ``x, x_2, x_3, ...`` not yet used in the clause; a suffixed name also
        skips every name the file spells, so that printing it captures no
        constant.  Used names only accumulate, so the search resumes where the
        previous binder of the same name stopped.  A lattice variable's
        surface name keeps its apostrophe, so the two kinds never collide."""
        if surface.lstrip("'") in _RESERVED:
            self.err(f"{surface!r} is reserved and cannot name a variable", tok)
        n = self.next_suffix.get(surface, 1)
        internal = surface if n == 1 else f"{surface}_{n}"
        while internal in self.used_names or n > 1 and internal in self._spelled:
            n += 1
            internal = f"{surface}_{n}"
        self.next_suffix[surface] = n + 1
        self.used_names.add(internal)
        self.scope[surface] = internal
        return internal

    @cached_property
    def _spelled(self) -> set:
        """Every token value of the file, collected when a suffix is first tried."""
        return {tok.value for tok in self.tokens}

    def _bound_yvar(self) -> str:
        """Internal name of the lattice variable token read next."""
        tok = self.advance()
        bound = self.scope.get(tok.value)
        if bound is None:
            self.err(f"unbound lattice variable {tok.value}", tok)
        return bound

    # -- terms and lattice terms

    def _parse_term(self):
        tok = self.peek()
        if tok.kind == "int" or self.at("-"):
            atom = self._parse_signed_int()
            self._check_powerset_atom(atom, tok)
            return ast.Const(atom)
        if tok.kind == "ident":
            name = self.advance().value
            bound = self.scope.get(name)
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
        return frozenset(self._parse_list(self._parse_set_element, "}"))

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
        self._check_powerset_atom(atom, tok)
        return atom

    def _parse_interval_endpoint(self):
        tok = self.peek()
        if self.eat("inf"):
            return POS_INF
        if self.at("-") and self.peek(1).value == "inf":
            self.pos += 2
            return NEG_INF
        if tok.kind == "int" or self.at("-"):
            return self._parse_signed_int()
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
            return ast.YVar(self._bound_yvar())
        if self.at("["):
            # an interval literal starts with inf, -inf, or a signed integer
            # and a comma; any other bracketed term is a description
            i = 2 if self.peek(1).value == "-" else 1
            first = self.peek(i)
            if first.value == "inf" or (first.kind == "int" and self.peek(i + 1).value == ","):
                return ast.LitConst(self._parse_interval_literal())
            self.advance()
            term = self._parse_term()
            self.expect("]")
            return ast.Repr(term)
        if self.at("{") or self.at("top") or self.at("bot"):
            return ast.LitConst(self._parse_lconst())
        if tok.kind == "ident":
            name = self.advance().value
            self.expect("(")
            args = self._parse_list(self._parse_value, ")")
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
        outer = self.scope.get(name)
        var = self._bind(name, bind_tok)
        self.expect(".")
        body = self._parse_quantified(clause) if top else self._parse_or(clause)
        self.scope[name] = outer
        return (ast.Forall if clause else ast.Exists)(var, body)

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
        parts = list(node.parts) if isinstance(node, ast.And) else [node]
        while self.eat("&"):
            parts.append(self._parse_unit(clause))
        return ast.And(tuple(parts))

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
            bound = self._bound_yvar()
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
        args = self._parse_list(self._parse_term, ";", ")")
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
    """Parse one fact against an existing program, written as in a clause
    file but without the ``fact`` keyword: ``P(a1, ..., an) = l``."""
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


def _atom_text(lattice, node) -> str:
    args = ",".join(_term_text(t) for t in node.args)
    return f"{node.pred}({args};{_value_text(lattice, node.value)})"


def formula_text(lattice: Lattice, node, minimum: int = 0) -> str:
    """Text of a clause or a precondition, parenthesized when its operator
    binds more weakly than ``minimum``."""
    if isinstance(node, (ast.Query, ast.Assert)):
        return _atom_text(lattice, node)
    if isinstance(node, ast.NegQuery):
        return "!" + _atom_text(lattice, node)
    if isinstance(node, ast.Apply):
        return f"{node.yvar}({_term_text(node.term)})"
    if isinstance(node, ast.TrueClause):
        return "1"
    if isinstance(node, ast.And):
        level = _LVL_AND
        text = " & ".join(formula_text(lattice, q, _LVL_AND + 1) for q in node.parts)
    elif isinstance(node, ast.PreOr):
        level = _LVL_OR
        text = " | ".join(formula_text(lattice, q, _LVL_OR + 1) for q in node.parts)
    elif isinstance(node, ast.Imply):
        level = _LVL_IMP
        text = (f"{formula_text(lattice, node.pre, _LVL_OR)}"
                f" => {formula_text(lattice, node.body, _LVL_IMP)}")
    elif isinstance(node, (ast.Forall, ast.Exists)):
        level = _LVL_QUANT
        word = "forall" if isinstance(node, ast.Forall) else "exists"
        text = f"{word} {node.var}. {formula_text(lattice, node.body, _LVL_QUANT)}"
    else:
        raise TypeError(f"not a clause or precondition: {node!r}")
    return f"({text})" if level < minimum else text


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
        lines.append("clause " + formula_text(program.lattice, cl))
    return "\n".join(lines) + "\n"
