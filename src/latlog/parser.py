"""Clause-file text format: tokenizer, parser, and pretty-printer.

File layout: one lattice declaration, then ``rel``/``fun`` declarations,
then ``fact`` and ``clause`` items.  Inside clauses, identifiers bound by
``forall``/``exists`` are universe variables, lattice variables carry a
leading apostrophe (``'Y``), and unbound lowercase identifiers or integers
are universe constants.  Precedence, weakest first: quantifiers, ``=>``
(right-associative), ``|``, ``&``; parentheses group both clauses and
preconditions.  A bracketed single term ``[x]`` denotes the description of
an atom; a bracketed pair ``[lo,hi]`` is an interval constant.

A token is its lexeme, a plain string, and ``""`` ends the list.  Its first
character gives its kind: ``'`` a lattice variable, an ASCII letter or ``_``
an identifier, a digit (as ``\\d`` reads one: ``str.isdecimal``) an integer,
anything else punctuation.  An integer's value is read where the parser
needs it, and a position only when an error is reported.  The parser builds
AST nodes in one pass.  A production reads the tokens by index and compares
its fixed punctuation in place; a lexeme that does not fit is handed, at its
index, to :meth:`Parser.expect` or to the general production for it, which
reports the fault.  Whether an operand is read as a clause or as a
precondition is decided when it starts: in clause position, a chain followed
by ``=>`` at its own bracket depth is the precondition of an implication,
and a lookahead over the tokens finds that ``=>``.  Faults are reported in
reading order.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import islice
from typing import Callable, Optional

from . import ast
from .errors import ParseError
from .lattices import (NEG_INF, POS_INF, FunctionRegistry, Lattice,
                       interval_lattice, powerset_lattice, render_atom,
                       sign_lattice, standard_registry)

_RESERVED = {
    "lattice", "powerset", "signs", "interval", "zmin", "zmax",
    "rel", "fun", "fact", "clause", "forall", "exists", "top", "bot", "inf",
}

# one match per lexeme, comments included; findall skips the blanks between
_TOKEN_RE = re.compile(r"""
      //[^\n]*
    | '[A-Za-z_][A-Za-z0-9_]*
    | [A-Za-z_][A-Za-z0-9_]*
    | \d+
    | =>|:=|->|[(){}\[\],;./=!&|+\-*<>]
    | \S
""", re.VERBOSE)

# a line of the newline-joined lexemes that only the catch-all matches
_BAD = re.compile(r"^(?:'|[^'A-Za-z_\d(){}\[\],;./=!&|+\-*<>\n])$", re.MULTILINE).search


def _line_col(text: str, index: int) -> tuple[int, int]:
    """Line and column of the token at ``index``, found by matching again;
    the end of input is the token after the last lexeme."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if m[0][:2] != "//")
    offset = next(islice(starts, index, None), len(text))
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def read_int(digits: str, where: Callable[[], tuple[int, int]]) -> int:
    """The integer that a digit string, with an optional minus sign, spells.
    One longer than ``int()`` converts (Python's limit on integer string
    conversion, left as it is) is a ``ParseError`` at ``where()``."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits.lstrip('-'))} digits is too long",
                         *where()) from None


def tokenize(text: str) -> list[str]:
    """The lexemes of ``text``, ending with ``""`` for the end of input; a
    character that starts no token is an error, so the parser sees none."""
    tokens = _TOKEN_RE.findall(text)
    if "//" in text:
        tokens = [lexeme for lexeme in tokens if lexeme[:2] != "//"]
    tokens.append("")
    bad = _BAD(joined := "\n".join(tokens))
    if bad:
        index = joined.count("\n", 0, bad.start())
        raise ParseError(f"unexpected character {tokens[index]!r}", *_line_col(text, index))
    return tokens


# lexemes that open or close a group, that end a clause item, and that the
# lookahead for ``=>`` looks at
_OPEN, _CLOSE = frozenset("([{"), frozenset(")]}")
_ITEM_END = frozenset({"rel", "fun", "fact", "clause", ""})
_SCANNED = _OPEN | _CLOSE | _ITEM_END | {"=>", ","}


class Parser:
    """Reads a clause file in one pass.  ``atoms``, the universe, records each
    atom where it is read: constant terms, fact atoms and a powerset's carrier."""

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
        self.atoms: set = set()
        self.values: dict = {}
        # surface name -> Var or YVar of the innermost binder in scope, None
        # once that binder's scope has closed
        self.scope: dict[str, Optional[ast.Var | ast.YVar]] = {}
        self.used_names: set[str] = set()
        self.next_suffix: dict[str, int] = {}

    # -- token plumbing: productions read ``self.tokens`` at ``self.pos`` in
    # place, and call these where a lexeme needs a check that can fail

    def expect(self, value: str):
        if self.tokens[self.pos] != value:
            self.expected(repr(value))
        self.pos += 1

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            self.expected("ident")
        self.pos += 1
        return tok

    def int_at(self, index: int) -> int:
        return read_int(self.tokens[index], lambda: _line_col(self.text, index))

    def expect_int(self) -> int:
        if not self.tokens[self.pos].isdecimal():
            self.expected("int")
        self.pos += 1
        return self.int_at(self.pos - 1)

    def _show(self, index: int) -> str:
        tok = self.tokens[index]
        return repr(str(self.int_at(index)) if tok.isdecimal() else tok) if tok else "end of input"

    def expected(self, what: str):
        self.err(f"expected {what}, found {self._show(self.pos)}", self.pos)

    def err(self, msg: str, index: int):
        raise ParseError(msg, *_line_col(self.text, index))

    # -- file structure

    def parse_file(self, extra_functions=None) -> ast.Program:
        self._parse_lattice_decl()
        if extra_functions:
            for (name, arity), fn in extra_functions.items():
                self.registry.register(name, arity, fn)
        while tok := self.tokens[self.pos]:
            if tok == "fact":
                self.pos += 1
                self._parse_fact()
            elif tok == "clause":
                self._parse_clause_item()
            elif tok == "rel":
                self._parse_rel_decl()
            elif tok == "fun":
                self._parse_fun_decl()
            else:
                self.expected("rel/fun/fact/clause")
        return ast.Program(
            lattice=self.lattice,
            registry=self.registry,
            strata=tuple(self.strata),
            facts=tuple(self.facts),
            arities=self.arities,
            universe=ast.universe_of(self.atoms),
            declared_funs=tuple(self.declared_funs),
        )

    def _parse_lattice_decl(self):
        self.expect("lattice")
        start, kind = self.pos, self.tokens[self.pos]
        self.pos += 1
        if kind == "powerset":
            self.expect("{")
            atoms = self._parse_list(self._parse_atom_token, "}")
            if not atoms:
                self.err("powerset universe must not be empty", start)
            self.lattice = powerset_lattice(atoms)
            self.atoms.update(atoms)
        elif kind == "signs":
            self.lattice = sign_lattice()
        elif kind == "interval":
            self.expect("zmin")
            self.expect("=")
            zmin = self._parse_signed_int()
            self.expect("zmax")
            self.expect("=")
            zmax = self._parse_signed_int()
            if zmin > zmax:
                self.err(f"empty integer grid: zmin={zmin} > zmax={zmax}", start)
            self.lattice = interval_lattice(zmin, zmax)
        else:
            self.err("expected powerset, signs, or interval", start)
        self.registry = standard_registry(self.lattice)

    def _parse_signed_int(self) -> int:
        negative = self.tokens[self.pos] == "-"
        self.pos += negative
        return -self.expect_int() if negative else self.expect_int()

    def _parse_list(self, item, *close, plain=()) -> list:
        """Comma-separated ``item``s up to the first of the ``close`` tokens,
        which is then expected; one trailing comma is accepted.  A lexeme in
        ``plain`` is read in place as its own item."""
        tokens, items = self.tokens, []
        while (tok := tokens[self.pos]) not in close:
            if tok in plain:
                items.append(tok)
                self.pos += 1
            else:
                items.append(item())
            if tokens[self.pos] != ",":
                break
            self.pos += 1
        if tokens[self.pos] != close[0]:
            self.expected(repr(close[0]))
        self.pos += 1
        return items

    def _parse_atom_token(self):
        start, tok = self.pos, self.tokens[self.pos]
        if tok.isdecimal() or tok == "-":
            return self._parse_signed_int()
        if tok.isidentifier():
            self.pos += 1
            if tok in _RESERVED:
                self.err(f"{tok!r} is reserved and cannot name an atom", start)
            if not tok[0].islower():
                self.err(f"unknown atom {tok!r} (atoms are lowercase identifiers "
                         "or integers)", start)
            return tok
        self.expected("an atom")

    def _parse_rel_decl(self):
        start, tokens = self.pos + 1, self.tokens
        name = tokens[start]
        if not (name.isidentifier() and tokens[start + 1] == "/"):
            self.pos = start
            self.expect_ident()
            self.expect("/")
        self.pos = start + 2
        self._note_arity(name, self.expect_int(), start)

    def _parse_fun_decl(self):
        self.expect("fun")
        start = self.pos
        name = self.expect_ident()
        self.expect("/")
        arity = self.expect_int()
        if not self.registry.has(name, arity):
            self.err(f"unknown function symbol {name}/{arity}", start)
        self.declared_funs.append((name, arity))

    def _parse_fact(self):
        """``P(a1, ..., an) = l``, the text after the ``fact`` keyword; an atom
        already recorded is read in place."""
        start, tokens = self.pos, self.tokens
        pred = tokens[start]
        if not (pred.isidentifier() and tokens[start + 1] == "("):
            self.expect_ident()
            self.expect("(")
        self.pos = start + 2
        atoms = self._parse_list(self._parse_atom_token, ")", plain=self.atoms)
        self._note_arity(pred, len(atoms), start)
        self.atoms.update(atoms)
        self.expect("=")
        self.facts.append(ast.Fact(pred, tuple(atoms), self._parse_lconst()))

    def _parse_clause_item(self):
        self.pos += 1
        while True:
            self.used_names, self.next_suffix = set(), {}
            self.strata.append(self._parse_quantified(True))
            if self.tokens[self.pos] != ",":
                break
            self.pos += 1

    # -- arity bookkeeping

    def _note_arity(self, pred: str, arity: int, start: int):
        if pred in _RESERVED:
            self.err(f"{pred!r} is reserved and cannot name a predicate", start)
        prev = self.arities.setdefault(pred, arity)
        if prev != arity:
            self.err(f"arity mismatch for {pred}: {arity} vs declared {prev}", start)

    # -- scopes

    def _bind(self, surface: str, start: int) -> str:
        """Bring a binder into scope under its internal name: the first of
        ``x, x_2, x_3, ...`` not yet used in the clause; a suffixed name also
        skips every name the file spells, so that printing it captures no
        constant.  Used names only accumulate, so the search resumes where the
        previous binder of the same name stopped.  A lattice variable's
        surface name keeps its apostrophe, so the two kinds never collide."""
        if surface.lstrip("'") in _RESERVED:
            self.err(f"{surface!r} is reserved and cannot name a variable", start)
        n = self.next_suffix.get(surface, 1)
        internal = surface if n == 1 else f"{surface}_{n}"
        while internal in self.used_names or n > 1 and internal in self._spelled:
            n += 1
            internal = f"{surface}_{n}"
        self.next_suffix[surface] = n + 1
        self.used_names.add(internal)
        self.scope[surface] = (ast.YVar if surface[0] == "'" else ast.Var)(internal)
        return internal

    @cached_property
    def _spelled(self) -> set:
        """Every lexeme of the file, collected when a suffix is first tried."""
        return set(self.tokens)

    def _bound_yvar(self) -> ast.YVar:
        """The lattice variable token read next, as bound."""
        tok = self.tokens[self.pos]
        self.pos += 1
        bound = self.scope.get(tok)
        if bound is None:
            self.err(f"unbound lattice variable {tok}", self.pos - 1)
        return bound

    # -- terms and lattice terms

    def _parse_term(self):
        start, tok = self.pos, self.tokens[self.pos]
        if tok.isdecimal() or tok == "-":
            atom = self._parse_signed_int()
            self._check_powerset_atom(atom, start)
            self.atoms.add(atom)
            return ast.Const(atom)
        if tok.isidentifier():
            self.pos += 1
            bound = self.scope.get(tok)
            if bound is not None:
                return bound
            if tok in _RESERVED:
                self.err(f"{tok!r} is reserved", start)
            if not tok[0].islower():
                self.err(f"unbound identifier {tok!r} used as a constant "
                         "(constants are lowercase)", start)
            self._check_powerset_atom(tok, start)
            self.atoms.add(tok)
            return ast.Const(tok)
        self.expected("a term")

    def _check_powerset_atom(self, atom, start: int):
        # a powerset's top is the frozenset of its atoms
        if self.lattice.kind == "powerset" and atom not in self.lattice.top:
            self.err(f"unknown atom {atom!r} (not in the powerset universe)", start)

    def _parse_lconst(self):
        """A lattice constant; equal set literals give one shared value."""
        tok = self.tokens[self.pos]
        if tok == "top" or tok == "bot":
            self.pos += 1
            return self.lattice.top if tok == "top" else self.lattice.bottom
        if tok == "{":
            self.pos += 1
            if self.lattice.kind not in ("powerset", "signs"):
                self.err("set literals require a powerset or signs lattice", self.pos - 1)
            # a sign, or a powerset atom that is a name, is its own lexeme
            value = frozenset(self._parse_list(self._parse_set_element, "}",
                                               plain=self.lattice.top))
            return self.values.setdefault(value, value)
        if tok == "[":
            return self._parse_interval_literal()
        self.expected("a lattice constant")

    def _parse_set_element(self):
        start, tok = self.pos, self.tokens[self.pos]
        if self.lattice.kind == "signs":
            if tok == "-" or tok == "+" or tok.isdecimal() and self.int_at(start) == 0:
                self.pos += 1
                return tok if tok in "-+" else "0"
            self.expected("a sign (-, 0, +)")
        atom = self._parse_atom_token()
        self._check_powerset_atom(atom, start)
        return atom

    def _parse_interval_endpoint(self):
        tok = self.tokens[self.pos]
        if tok == "inf" or tok == "-" and self.tokens[self.pos + 1] == "inf":
            self.pos += 1 if tok == "inf" else 2
            return POS_INF if tok == "inf" else NEG_INF
        if tok.isdecimal() or tok == "-":
            return self._parse_signed_int()
        self.expected("an interval endpoint")

    def _parse_interval_literal(self):
        self.pos += 1
        if self.lattice.kind != "interval":
            self.err("interval literals require an interval lattice", self.pos - 1)
        lo = self._parse_interval_endpoint()
        self.expect(",")
        hi = self._parse_interval_endpoint()
        self.expect("]")
        return self.lattice.make_interval(lo, hi)

    def _parse_value(self):
        """A lattice term in query/assert position (FnApp legality checked later)."""
        start, tokens = self.pos, self.tokens
        tok = tokens[start]
        if tok[:1] == "'":
            return self._bound_yvar()
        if tok == "[":
            # an interval literal starts with inf, -inf, or a signed integer
            # and a comma; any other bracketed term is a description
            i = start + 2 if tokens[start + 1] == "-" else start + 1
            if tokens[i] == "inf" or (tokens[i].isdecimal() and tokens[i + 1] == ","):
                return ast.LitConst(self._parse_interval_literal())
            self.pos += 1
            term = self._parse_term()
            self.expect("]")
            return ast.Repr(term)
        if tok == "{" or tok == "top" or tok == "bot":
            return ast.LitConst(self._parse_lconst())
        if tok.isidentifier():
            self.pos += 1
            self.expect("(")
            args = self._parse_list(self._parse_value, ")")
            if not self.registry.has(tok, len(args)):
                self.err(f"unknown function symbol {tok}/{len(args)}", start)
            return ast.FnApp(tok, tuple(args))
        self.expected("a lattice term")

    # -- clauses and preconditions: ``clause`` tells the position being read

    def _implies_ahead(self) -> bool:
        """Whether ``=>`` comes next at the current bracket depth, before the
        group's closing bracket, a ``,`` at depth 0, an item keyword or the
        end: that is, whether the chain starting here is a precondition."""
        depth = 0
        for tok in islice(self.tokens, self.pos, None):
            if tok not in _SCANNED:
                continue
            if tok in _OPEN:
                depth += 1
            elif tok in _CLOSE:
                if not depth:
                    return False
                depth -= 1
            elif tok in _ITEM_END or not depth:
                return tok == "=>"

    def _parse_quantified(self, clause: bool):
        if self.tokens[self.pos] in ("forall", "exists"):
            return self._parse_binder_body(clause, top=True)
        if clause and self._implies_ahead():
            pre = self._parse_or(False)
            self.expect("=>")
            return ast.Imply(pre, self._parse_quantified(True))
        node = self._parse_or(clause)
        if not clause and self.tokens[self.pos] == "=>":
            self.err("'=>' is not allowed inside preconditions", self.pos)
        return node

    def _parse_binder_body(self, clause: bool, top: bool):
        """``forall`` binds in clause position and ``exists`` in preconditions;
        a binder inside a chain (not ``top``) scopes over one or-chain."""
        start = self.pos + 1
        if (self.tokens[start - 1] == "forall") != clause:
            self.err("exists is not allowed in clause position" if clause
                     else "forall is not allowed in preconditions", start - 1)
        self.pos = start
        name = self.tokens[start] if self.tokens[start][:1] == "'" else self.expect_ident()
        outer = self.scope.get(name)
        var = self._bind(name, start)
        self.pos = start + 1
        self.expect(".")
        body = self._parse_quantified(clause) if top else self._parse_or(clause)
        self.scope[name] = outer
        return (ast.Forall if clause else ast.Exists)(var, body)

    # A chain ``a op b op c`` is one node; a first operand that is a
    # parenthesized chain of the same operator contributes its parts.  An
    # operand that no operator follows passes through no chain frame.

    def _parse_or(self, clause: bool):
        tokens = self.tokens
        node = self._parse_unit(clause)
        if tokens[self.pos] == "&":
            node = self._parse_and(node, clause)
        if tokens[self.pos] != "|":
            return node
        parts = list(node.parts) if isinstance(node, ast.PreOr) else [node]
        while tokens[self.pos] == "|":
            start = self.pos
            self.pos += 1
            part = self._parse_unit(False)
            parts.append(self._parse_and(part, False) if tokens[self.pos] == "&" else part)
        if clause:
            self.err("disjunction is only allowed in preconditions", start)
        return ast.PreOr(tuple(parts))

    def _parse_and(self, node, clause: bool):
        """The and-chain whose first operand, ``node``, was just read."""
        parts = list(node.parts) if isinstance(node, ast.And) else [node]
        while self.tokens[self.pos] == "&":
            self.pos += 1
            parts.append(self._parse_unit(clause))
        return ast.And(tuple(parts))

    def _parse_unit(self, clause: bool):
        start, tok = self.pos, self.tokens[self.pos]
        if tok == "(":
            self.pos += 1
            node = self._parse_quantified(clause)
            self.expect(")")
            return node
        if tok == "forall" or tok == "exists":
            return self._parse_binder_body(clause, top=False)
        if tok.isidentifier():
            return self._parse_rel_atom(clause, neg=False, start=start)
        if tok == "!":
            if clause:
                self.err("a negated query cannot be asserted", start)
            self.pos += 1
            return self._parse_rel_atom(False, neg=True, start=start)
        if tok.isdecimal() and self.int_at(start) == 1:
            if not clause:
                self.err("'1' is a clause, not a precondition", start)
            self.pos += 1
            return ast.TrueClause()
        if tok[:1] == "'":
            bound = self._bound_yvar()
            if clause:
                self.err("a lattice-variable application is only allowed in preconditions",
                         start)
            self.expect("(")
            term = self._parse_term()
            self.expect(")")
            return ast.Apply(bound.name, term)
        self.expected("a clause or precondition")

    def _parse_rel_atom(self, clause: bool, neg: bool, start: int):
        """``P(t1, ..., tn; v)``; :meth:`_note_arity` runs only to report a fault."""
        i, tokens = self.pos, self.tokens
        pred = tokens[i]
        if not (pred.isidentifier() and tokens[i + 1] == "("):
            self.expect_ident()
            self.expect("(")
        self.pos = i + 2
        args = self._parse_list(self._parse_term, ";", ")")
        value = self._parse_value()
        if tokens[self.pos] != ")":
            self.expected("')'")
        self.pos += 1
        n = len(args)
        if pred in _RESERVED or self.arities.setdefault(pred, n) != n:
            self._note_arity(pred, n, start)
        if clause:
            return ast.Assert(pred, tuple(args), value)
        if isinstance(value, ast.FnApp):
            self.err("function terms are not allowed in queries", start)
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
    if parser.tokens[parser.pos]:
        parser.err(f"unexpected trailing input {parser._show(parser.pos)}", parser.pos)
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
