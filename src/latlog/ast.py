"""Clause-language data model, well-formedness, stratification, reordering.

Clause sequences are ordered strata; every clause must be closed, queries may
not contain function terms, and negative queries are only admitted over
lattices with a complement.  Stratification assigns each predicate the unique
stratum asserting it (never-asserted predicates are base relations of rank 0
populated from the fact list).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Optional, Union

from .errors import StratificationError, ValidationError
from .lattices import Atom, FunctionRegistry, Lattice, atom_sort_key

# --- terms ------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    atom: Atom


Term = Union[Var, Const]


# --- lattice terms ----------------------------------------------------------


@dataclass(frozen=True)
class YVar:
    """Lattice-valued variable."""

    name: str


@dataclass(frozen=True)
class Repr:
    """Best lattice description of a universe term."""

    term: Term


@dataclass(frozen=True)
class FnApp:
    """Registered monotone function applied to lattice terms (assertions only)."""

    name: str
    args: tuple


@dataclass(frozen=True)
class LitConst:
    """Ground lattice constant; behaves like a pre-bound lattice variable."""

    value: Any


LatticeTerm = Union[YVar, Repr, FnApp, LitConst]


# --- preconditions ----------------------------------------------------------


@dataclass(frozen=True)
class Query:
    pred: str
    args: tuple
    value: LatticeTerm


@dataclass(frozen=True)
class NegQuery:
    pred: str
    args: tuple
    value: LatticeTerm


@dataclass(frozen=True)
class Apply:
    """Membership-style use of a lattice variable: the description of the
    term must lie below the variable's value."""

    yvar: str
    term: Term


@dataclass(frozen=True)
class PreAnd:
    """Conjunction of two or more preconditions, checked left to right."""

    parts: tuple


@dataclass(frozen=True)
class PreOr:
    """Disjunction of two or more preconditions."""

    parts: tuple


@dataclass(frozen=True)
class ExistsX:
    var: str
    body: "Pre"


@dataclass(frozen=True)
class ExistsY:
    yvar: str
    body: "Pre"


Pre = Union[Query, NegQuery, Apply, PreAnd, PreOr, ExistsX, ExistsY]


# --- clauses ----------------------------------------------------------------


@dataclass(frozen=True)
class Assert:
    pred: str
    args: tuple
    value: LatticeTerm


@dataclass(frozen=True)
class TrueClause:
    pass


@dataclass(frozen=True)
class ClauseAnd:
    """Conjunction of two or more clauses.

    A chain ``a & b & c`` is one node with three parts; a parenthesized
    conjunction stays one part unless it comes first, as left nesting reads.
    The same holds for :class:`PreAnd` and :class:`PreOr`.

    Parts are built as ``tuple([...])``: ``tuple()`` of an iterator of unknown
    length allocates ten slots and shrinks them, and CPython then keeps every
    shrunk pair on its tuple free list, which a long run's peak memory counts.
    """

    parts: tuple


@dataclass(frozen=True)
class Imply:
    pre: Pre
    body: "Clause"


@dataclass(frozen=True)
class ForallX:
    var: str
    body: "Clause"


@dataclass(frozen=True)
class ForallY:
    yvar: str
    body: "Clause"


Clause = Union[Assert, TrueClause, ClauseAnd, Imply, ForallX, ForallY]


@dataclass(frozen=True)
class Fact:
    pred: str
    atoms: tuple
    value: Any


@dataclass
class Program:
    """A parsed (or programmatically built) clause program.

    ``strata`` is the ordered clause sequence; ``ranks`` is filled in by
    :func:`compute_ranks`.  ``universe`` is the sorted tuple of atoms.
    """

    lattice: Lattice
    registry: FunctionRegistry
    strata: tuple
    facts: tuple = ()
    arities: dict = field(default_factory=dict)
    universe: tuple = ()
    declared_funs: tuple = ()
    ranks: Optional[dict] = None

    @property
    def num_strata(self) -> int:
        return len(self.strata)

    def with_strata(self, strata) -> "Program":
        return replace(self, strata=tuple(strata))


# --- free variables ---------------------------------------------------------


def _term_xvars(t: Term) -> frozenset:
    return frozenset((t.name,)) if isinstance(t, Var) else frozenset()


@lru_cache(maxsize=None)
def lattice_term_vars(v: LatticeTerm) -> tuple:
    """(X-variable names, Y-variable names) free in a lattice term."""
    if isinstance(v, YVar):
        return frozenset(), frozenset((v.name,))
    if isinstance(v, Repr):
        return _term_xvars(v.term), frozenset()
    if isinstance(v, FnApp):
        xs, ys = frozenset(), frozenset()
        for a in v.args:
            ax, ay = lattice_term_vars(a)
            xs, ys = xs | ax, ys | ay
        return xs, ys
    return frozenset(), frozenset()


@lru_cache(maxsize=None)
def pre_vars(p: Pre) -> tuple:
    """(X, Y) variable names free in a precondition."""
    if isinstance(p, (Query, NegQuery)):
        xs = frozenset().union(*[_term_xvars(t) for t in p.args]) if p.args else frozenset()
        vx, vy = lattice_term_vars(p.value)
        return xs | vx, vy
    if isinstance(p, Apply):
        return _term_xvars(p.term), frozenset((p.yvar,))
    if isinstance(p, (PreAnd, PreOr)):
        xs, ys = zip(*map(pre_vars, p.parts))
        return frozenset().union(*xs), frozenset().union(*ys)
    if isinstance(p, ExistsX):
        xs, ys = pre_vars(p.body)
        return xs - {p.var}, ys
    if isinstance(p, ExistsY):
        xs, ys = pre_vars(p.body)
        return xs, ys - {p.yvar}
    raise TypeError(f"not a precondition: {p!r}")


@lru_cache(maxsize=None)
def clause_vars(cl: Clause) -> tuple:
    """(X, Y) variable names free in a clause."""
    if isinstance(cl, Assert):
        xs = frozenset().union(*[_term_xvars(t) for t in cl.args]) if cl.args else frozenset()
        vx, vy = lattice_term_vars(cl.value)
        return xs | vx, vy
    if isinstance(cl, TrueClause):
        return frozenset(), frozenset()
    if isinstance(cl, ClauseAnd):
        xs, ys = zip(*map(clause_vars, cl.parts))
        return frozenset().union(*xs), frozenset().union(*ys)
    if isinstance(cl, Imply):
        px, py = pre_vars(cl.pre)
        bx, by = clause_vars(cl.body)
        return px | bx, py | by
    if isinstance(cl, ForallX):
        xs, ys = clause_vars(cl.body)
        return xs - {cl.var}, ys
    if isinstance(cl, ForallY):
        xs, ys = clause_vars(cl.body)
        return xs, ys - {cl.yvar}
    raise TypeError(f"not a clause: {cl!r}")


def free_names(node) -> frozenset:
    """Names of the variables free in a clause, precondition or term,
    computed afresh on each call (the functions above share process-wide caches)."""
    if isinstance(node, (Var, YVar)):
        return frozenset((node.name,))
    if isinstance(node, Repr):
        return free_names(node.term)
    if isinstance(node, FnApp):
        return frozenset().union(*map(free_names, node.args))
    if isinstance(node, (Query, NegQuery, Assert)):
        return free_names(node.value).union(t.name for t in node.args if isinstance(t, Var))
    if isinstance(node, Apply):
        return free_names(node.term) | {node.yvar}
    if isinstance(node, (PreAnd, PreOr, ClauseAnd)):
        return frozenset().union(*[free_names(q) for q in node.parts])
    if isinstance(node, Imply):
        return free_names(node.pre) | free_names(node.body)
    if isinstance(node, (ForallX, ExistsX)):
        return free_names(node.body) - {node.var}
    if isinstance(node, (ForallY, ExistsY)):
        return free_names(node.body) - {node.yvar}
    return frozenset()


# --- well-formedness --------------------------------------------------------


class _WFChecker:
    def __init__(self, program: Program):
        self.program = program
        self.universe = set(program.universe)
        self.errors: list[str] = []
        self.asserted: set[str] = set()

    def fail(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def check_term(self, t: Term, xs: set, path: str):
        if isinstance(t, Var):
            if t.name not in xs:
                self.fail(path, f"free variable {t.name!r}")
        elif isinstance(t, Const):
            if t.atom not in self.universe:
                self.fail(path, f"unknown atom {t.atom!r}")
        else:
            self.fail(path, f"not a term: {t!r}")

    def check_value(self, v: LatticeTerm, xs: set, ys: set, path: str, assertion: bool):
        if isinstance(v, YVar):
            if v.name not in ys:
                self.fail(path, f"free lattice variable {v.name!r}")
        elif isinstance(v, Repr):
            self.check_term(v.term, xs, path)
        elif isinstance(v, LitConst):
            if not assertion and v.value == self.program.lattice.bottom:
                self.fail(path, "bottom constant in a query (query constants act "
                                "as pre-bound lattice variables, which exclude bottom)")
        elif isinstance(v, FnApp):
            if not assertion:
                self.fail(path, "function terms are only allowed in assertions")
            if not self.program.registry.has(v.name, len(v.args)):
                self.fail(path, f"unknown function {v.name}/{len(v.args)}")
            for a in v.args:
                self.check_value(a, xs, ys, path, assertion)
        else:
            self.fail(path, f"not a lattice term: {v!r}")

    def check_atom_args(self, pred: str, args: tuple, path: str):
        want = self.program.arities.get(pred)
        if want is None:
            self.program.arities[pred] = len(args)
        elif want != len(args):
            self.fail(path, f"arity mismatch for {pred}: {len(args)} vs declared {want}")

    def check_pre(self, p: Pre, xs: set, ys: set, path: str):
        if isinstance(p, (Query, NegQuery)):
            self.check_atom_args(p.pred, p.args, path)
            for t in p.args:
                self.check_term(t, xs, path)
            self.check_value(p.value, xs, ys, path, assertion=False)
            if isinstance(p, NegQuery) and self.program.lattice.complement is None:
                self.fail(path, f"negative query on {p.pred} over lattice "
                                f"{self.program.lattice.name!r} without complement")
        elif isinstance(p, Apply):
            if p.yvar not in ys:
                self.fail(path, f"free lattice variable {p.yvar!r}")
            self.check_term(p.term, xs, path)
        elif isinstance(p, (PreAnd, PreOr)):
            op = "and" if isinstance(p, PreAnd) else "or"
            for i, q in enumerate(p.parts, 1):
                self.check_pre(q, xs, ys, f"{path}/{op}.{i}")
        elif isinstance(p, ExistsX):
            if p.var in xs or p.var in ys:
                self.fail(path, f"shadowed variable {p.var!r}")
            self.check_pre(p.body, xs | {p.var}, ys, path + f"/exists {p.var}")
        elif isinstance(p, ExistsY):
            if p.yvar in ys or p.yvar in xs:
                self.fail(path, f"shadowed variable {p.yvar!r}")
            self.check_pre(p.body, xs, ys | {p.yvar}, path + f"/exists {p.yvar}")
        else:
            self.fail(path, f"not a precondition: {p!r}")

    def check_clause(self, cl: Clause, xs: set, ys: set, path: str):
        if isinstance(cl, Assert):
            self.asserted.add(cl.pred)
            self.check_atom_args(cl.pred, cl.args, path)
            for t in cl.args:
                self.check_term(t, xs, path)
            self.check_value(cl.value, xs, ys, path, assertion=True)
        elif isinstance(cl, TrueClause):
            pass
        elif isinstance(cl, ClauseAnd):
            for i, c in enumerate(cl.parts, 1):
                self.check_clause(c, xs, ys, f"{path}/and.{i}")
        elif isinstance(cl, Imply):
            self.check_pre(cl.pre, xs, ys, path + "/pre")
            self.check_clause(cl.body, xs, ys, path + "/body")
        elif isinstance(cl, ForallX):
            if cl.var in xs or cl.var in ys:
                self.fail(path, f"shadowed variable {cl.var!r}")
            self.check_clause(cl.body, xs | {cl.var}, ys, path + f"/forall {cl.var}")
        elif isinstance(cl, ForallY):
            if cl.yvar in ys or cl.yvar in xs:
                self.fail(path, f"shadowed variable {cl.yvar!r}")
            self.check_clause(cl.body, xs, ys | {cl.yvar}, path + f"/forall {cl.yvar}")
        else:
            self.fail(path, f"not a clause: {cl!r}")


def check_well_formed(program: Program) -> Program:
    """Validate closedness, occurrence discipline, arities, and negation use.

    Raises :class:`ValidationError` listing every violation with its clause
    path; returns the program unchanged when valid.
    """
    if not program.universe:
        raise ValidationError("empty universe: no atoms declared or mentioned")
    checker = _WFChecker(program)
    for i, cl in enumerate(program.strata, 1):
        checker.check_clause(cl, set(), set(), f"stratum {i}")
    for f in program.facts:
        path = f"fact {f.pred}"
        checker.check_atom_args(f.pred, tuple(Const(a) for a in f.atoms), path)
        for a in f.atoms:
            if a not in checker.universe:
                checker.fail(path, f"unknown atom {a!r}")
        if f.pred in checker.asserted:
            checker.fail(path, f"{f.pred} is asserted by a clause; facts may only "
                               "populate base relations")
    if checker.errors:
        raise ValidationError("; ".join(checker.errors))
    return program


# --- stratification ---------------------------------------------------------


def _collect_queries(p: Pre, pos: list, neg: list):
    if isinstance(p, Query):
        pos.append(p.pred)
    elif isinstance(p, NegQuery):
        neg.append(p.pred)
    elif isinstance(p, (PreAnd, PreOr)):
        for q in p.parts:
            _collect_queries(q, pos, neg)
    elif isinstance(p, (ExistsX, ExistsY)):
        _collect_queries(p.body, pos, neg)


def _collect_clause(cl: Clause, asserted: list, pos: list, neg: list):
    if isinstance(cl, Assert):
        asserted.append(cl.pred)
    elif isinstance(cl, ClauseAnd):
        for c in cl.parts:
            _collect_clause(c, asserted, pos, neg)
    elif isinstance(cl, Imply):
        _collect_queries(cl.pre, pos, neg)
        _collect_clause(cl.body, asserted, pos, neg)
    elif isinstance(cl, (ForallX, ForallY)):
        _collect_clause(cl.body, asserted, pos, neg)


def compute_ranks(program: Program) -> dict:
    """Assign each predicate its stratum and validate the query side conditions.

    A predicate asserted in stratum i gets rank i; predicates never asserted
    are base relations of rank 0.  Positive queries in stratum i require
    rank <= i, negative queries require rank < i.
    """
    per_stratum = []
    ranks: dict[str, int] = {}
    for i, cl in enumerate(program.strata, 1):
        asserted: list = []
        pos: list = []
        neg: list = []
        _collect_clause(cl, asserted, pos, neg)
        per_stratum.append((asserted, pos, neg))
        for pred in asserted:
            if ranks.get(pred, i) != i:
                raise StratificationError(
                    f"stratification violation: predicate {pred} asserted in "
                    f"strata {ranks[pred]} and {i}")
            ranks[pred] = i
    for pred in program.arities:
        ranks.setdefault(pred, 0)
    for f in program.facts:
        ranks.setdefault(f.pred, 0)
    for i, (_, pos, neg) in enumerate(per_stratum, 1):
        for pred in pos:
            if ranks.setdefault(pred, 0) > i:
                raise StratificationError(
                    f"stratification violation: stratum {i} positively queries "
                    f"{pred} of rank {ranks[pred]}")
        for pred in neg:
            if ranks.setdefault(pred, 0) >= i:
                raise StratificationError(
                    f"stratification violation: stratum {i} negatively queries "
                    f"{pred} of rank {ranks[pred]}")
    program.ranks = ranks
    return ranks


def validate(program: Program) -> Program:
    """Full static pipeline: well-formedness plus stratification."""
    check_well_formed(program)
    compute_ranks(program)
    return program


# --- precondition reordering -------------------------------------------------


def _defines(p: Pre):
    if isinstance(p, (Query, NegQuery)) and isinstance(p.value, YVar):
        return p.value.name
    return None


def _and_items(p: PreAnd) -> list:
    """Parts of a conjunction, each reordered inside, with nested
    conjunctions spliced in: the spine the applications move along."""
    items: list = []
    for q in p.parts:
        if isinstance(q, PreAnd):
            items += _and_items(q)
        else:
            items.append(_reorder_pre(q))
    return items


def _reorder_pre(p: Pre) -> Pre:
    if isinstance(p, PreAnd):
        items = _and_items(p)
        definers = {d for it in items if (d := _defines(it)) is not None}
        out: list = []
        waiting: dict[str, list] = {}
        seen: set[str] = set()
        for it in items:
            if isinstance(it, Apply) and it.yvar in definers and it.yvar not in seen:
                waiting.setdefault(it.yvar, []).append(it)
                continue
            out.append(it)
            d = _defines(it)
            if d is not None and d not in seen:
                seen.add(d)
                out.extend(waiting.pop(d, ()))
        return PreAnd(tuple(out))
    if isinstance(p, PreOr):
        return PreOr(tuple([_reorder_pre(q) for q in p.parts]))
    if isinstance(p, ExistsX):
        return ExistsX(p.var, _reorder_pre(p.body))
    if isinstance(p, ExistsY):
        return ExistsY(p.yvar, _reorder_pre(p.body))
    return p


def _reorder_clause(cl: Clause) -> Clause:
    if isinstance(cl, ClauseAnd):
        return ClauseAnd(tuple([_reorder_clause(c) for c in cl.parts]))
    if isinstance(cl, Imply):
        return Imply(_reorder_pre(cl.pre), _reorder_clause(cl.body))
    if isinstance(cl, ForallX):
        return ForallX(cl.var, _reorder_clause(cl.body))
    if isinstance(cl, ForallY):
        return ForallY(cl.yvar, _reorder_clause(cl.body))
    return cl


def reorder_preconditions(program: Program) -> Program:
    """Stably move each lattice-variable application after a defining query.

    Within every conjunction spine, an application Y(u) that precedes a query
    binding Y is deferred until just after the first such query; everything
    else keeps its relative order.  Applications with no defining occurrence
    in their spine stay put (the solver then uses the top-binding rule).
    """
    return program.with_strata(_reorder_clause(cl) for cl in program.strata)


def _value_atoms(v, atoms: set) -> None:
    if isinstance(v, Repr) and isinstance(v.term, Const):
        atoms.add(v.term.atom)
    elif isinstance(v, FnApp):
        for a in v.args:
            _value_atoms(a, atoms)


def _term_atoms(ts, atoms: set) -> None:
    for t in ts:
        if isinstance(t, Const):
            atoms.add(t.atom)


def _pre_atoms(p, atoms: set) -> None:
    if isinstance(p, (Query, NegQuery)):
        _term_atoms(p.args, atoms)
        _value_atoms(p.value, atoms)
    elif isinstance(p, Apply):
        _term_atoms((p.term,), atoms)
    elif isinstance(p, (PreAnd, PreOr)):
        for q in p.parts:
            _pre_atoms(q, atoms)
    elif isinstance(p, (ExistsX, ExistsY)):
        _pre_atoms(p.body, atoms)


def _clause_atoms(cl, atoms: set) -> None:
    if isinstance(cl, Assert):
        _term_atoms(cl.args, atoms)
        _value_atoms(cl.value, atoms)
    elif isinstance(cl, ClauseAnd):
        for c in cl.parts:
            _clause_atoms(c, atoms)
    elif isinstance(cl, Imply):
        _pre_atoms(cl.pre, atoms)
        _clause_atoms(cl.body, atoms)
    elif isinstance(cl, (ForallX, ForallY)):
        _clause_atoms(cl.body, atoms)


def universe_of(strata, facts, extra=()) -> tuple:
    """Sorted atom tuple mentioned by clauses, facts, and an extra carrier."""
    atoms: set = set(extra)
    for cl in strata:
        _clause_atoms(cl, atoms)
    for f in facts:
        atoms.update(f.atoms)
    return tuple(sorted(atoms, key=atom_sort_key))
