"""Clause-language data model, well-formedness, stratification, reordering.

Clause sequences are ordered strata; every clause must be closed, queries may
not contain function terms, and negative queries are only admitted over
lattices with a complement.  Stratification assigns each predicate the unique
stratum asserting it (never-asserted predicates are base relations of rank 0
populated from the fact list).

One node serves each quantifier and conjunction: :class:`Forall` and
:class:`Exists` bind universe and lattice variables alike, and an
:class:`And` is a clause or a precondition by its position.  A bound
variable's sort is read from its name (:func:`is_lattice_var`): lattice
variables carry a leading apostrophe.

A program's universe holds the atoms that its producer, the parser or the
analysis builder, recorded as it made them; :func:`universe_of` orders them.

Nodes, :class:`Fact`, and the :class:`~latlog.lattices.Lattice` and
:class:`~latlog.lattices.IntervalValue` they hold are immutable slotted
records (:class:`~latlog.records.Frozen`) compared by value: two are equal
when they are of one class with equal fields, and each hashes as its field
tuple.  They are not dataclasses, so ``dataclasses.replace`` and
``dataclasses.fields`` no longer apply to them;
:func:`latlog.records.replace` copies a record with fields changed, and a
class's ``__slots__`` names its fields in order.  :class:`Program` is a
mutable record.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional, Union

from .errors import StratificationError, ValidationError
from .lattices import Atom, FunctionRegistry, Lattice, atom_sort_key
from .records import Frozen, Record, replace, set_field

# --- terms ------------------------------------------------------------------


class Var(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Const(Frozen):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        set_field(self, "atom", atom)


Term = Union[Var, Const]


def is_lattice_var(name: str) -> bool:
    """Whether a bound variable ranges over the lattice rather than the universe."""
    return name.startswith("'")


# --- lattice terms ----------------------------------------------------------


class YVar(Frozen):
    """Lattice-valued variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Repr(Frozen):
    """Best lattice description of a universe term."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        set_field(self, "term", term)


class FnApp(Frozen):
    """Registered monotone function applied to lattice terms (assertions only)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        set_field(self, "name", name)
        set_field(self, "args", args)


class LitConst(Frozen):
    """Ground lattice constant; behaves like a pre-bound lattice variable."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        set_field(self, "value", value)


LatticeTerm = Union[YVar, Repr, FnApp, LitConst]


# --- preconditions ----------------------------------------------------------


class Query(Frozen):
    __slots__ = ("pred", "args", "value")

    def __init__(self, pred: str, args: tuple, value: LatticeTerm):
        set_field(self, "pred", pred)
        set_field(self, "args", args)
        set_field(self, "value", value)


class NegQuery(Frozen):
    __slots__ = ("pred", "args", "value")

    def __init__(self, pred: str, args: tuple, value: LatticeTerm):
        set_field(self, "pred", pred)
        set_field(self, "args", args)
        set_field(self, "value", value)


class Apply(Frozen):
    """Membership-style use of a lattice variable: the description of the
    term must lie below the variable's value."""

    __slots__ = ("yvar", "term")

    def __init__(self, yvar: str, term: Term):
        set_field(self, "yvar", yvar)
        set_field(self, "term", term)


class And(Frozen):
    """Conjunction of two or more clauses, or of two or more preconditions:
    its position says which.

    A chain ``a & b & c`` is one node with three parts; a parenthesized
    conjunction stays one part unless it comes first, as left nesting reads.
    The same holds for :class:`PreOr`.

    Parts are built as ``tuple([...])``: ``tuple()`` of an iterator of unknown
    length allocates ten slots and shrinks them, and CPython then keeps every
    shrunk pair on its tuple free list, which a long run's peak memory counts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        set_field(self, "parts", parts)


class PreOr(Frozen):
    """Disjunction of two or more preconditions."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        set_field(self, "parts", parts)


class Exists(Frozen):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "Pre"):
        set_field(self, "var", var)
        set_field(self, "body", body)


Pre = Union[Query, NegQuery, Apply, And, PreOr, Exists]


# --- clauses ----------------------------------------------------------------


class Assert(Frozen):
    __slots__ = ("pred", "args", "value")

    def __init__(self, pred: str, args: tuple, value: LatticeTerm):
        set_field(self, "pred", pred)
        set_field(self, "args", args)
        set_field(self, "value", value)


class TrueClause(Frozen):
    __slots__ = ()


class Imply(Frozen):
    __slots__ = ("pre", "body")

    def __init__(self, pre: Pre, body: "Clause"):
        set_field(self, "pre", pre)
        set_field(self, "body", body)


class Forall(Frozen):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: "Clause"):
        set_field(self, "var", var)
        set_field(self, "body", body)


Clause = Union[Assert, TrueClause, And, Imply, Forall]


class Fact(Frozen):
    __slots__ = ("pred", "atoms", "value")

    def __init__(self, pred: str, atoms: tuple, value: Any):
        set_field(self, "pred", pred)
        set_field(self, "atoms", atoms)
        set_field(self, "value", value)


class Program(Record):
    """A parsed (or programmatically built) clause program.

    ``strata`` is the ordered clause sequence; ``ranks`` is filled in by
    :func:`compute_ranks`.  ``universe`` is the sorted tuple of atoms.
    """

    __slots__ = ("lattice", "registry", "strata", "facts", "arities", "universe",
                 "declared_funs", "ranks")

    def __init__(self, lattice: Lattice, registry: FunctionRegistry, strata: tuple,
                 facts: tuple = (), arities: Optional[dict] = None, universe: tuple = (),
                 declared_funs: tuple = (), ranks: Optional[dict] = None):
        self.lattice = lattice
        self.registry = registry
        self.strata = strata
        self.facts = facts
        self.arities = {} if arities is None else arities
        self.universe = universe
        self.declared_funs = declared_funs
        self.ranks = ranks

    @property
    def num_strata(self) -> int:
        return len(self.strata)

    def with_strata(self, strata) -> "Program":
        """A copy with new strata and no ranks, which solving then validates."""
        return replace(self, strata=tuple(strata), ranks=None)


# --- free variables ---------------------------------------------------------


# Nothing in the package calls the three collectors below; the benchmark
# reads their cache sizes.


def _split(names: frozenset) -> tuple:
    xs = frozenset([n for n in names if not is_lattice_var(n)])
    return xs, names - xs


@lru_cache(maxsize=None)
def lattice_term_vars(v: LatticeTerm) -> tuple:
    """(X-variable names, Y-variable names) free in a lattice term."""
    return _split(free_names(v))


@lru_cache(maxsize=None)
def pre_vars(p: Pre) -> tuple:
    """(X, Y) variable names free in a precondition."""
    return _split(free_names(p))


@lru_cache(maxsize=None)
def clause_vars(cl: Clause) -> tuple:
    """(X, Y) variable names free in a clause."""
    return _split(free_names(cl))


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
    if isinstance(node, (And, PreOr)):
        return frozenset().union(*[free_names(q) for q in node.parts])
    if isinstance(node, Imply):
        return free_names(node.pre) | free_names(node.body)
    if isinstance(node, (Forall, Exists)):
        return free_names(node.body) - {node.var}
    return frozenset()


# --- well-formedness --------------------------------------------------------


class _WFChecker:
    def __init__(self, program: Program):
        self.program = program
        self.universe = set(program.universe)
        self.errors: list[str] = []
        # per stratum: the predicates it asserts, queries and negatively queries
        self.uses: list[tuple[list, list, list]] = []

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

    def bind(self, var: str, xs: set, ys: set, path: str) -> tuple:
        """The universe and lattice variables in scope under a binder of ``var``."""
        if var in xs or var in ys:
            self.fail(path, f"shadowed variable {var!r}")
        return (xs, ys | {var}) if is_lattice_var(var) else (xs | {var}, ys)

    def check_pre(self, p: Pre, xs: set, ys: set, path: str):
        if isinstance(p, (Query, NegQuery)):
            _, queried, negated = self.uses[-1]
            (queried if isinstance(p, Query) else negated).append(p.pred)
            self.check_atom_args(p.pred, p.args, path)
            for t in p.args:
                self.check_term(t, xs, path)
            self.check_value(p.value, xs, ys, path, assertion=False)
            if isinstance(p, NegQuery) and self.program.lattice.complement is None:
                self.fail(path, f"negative query on {p.pred} over lattice "
                                f"{self.program.lattice.kind!r} without complement")
        elif isinstance(p, Apply):
            if p.yvar not in ys:
                self.fail(path, f"free lattice variable {p.yvar!r}")
            self.check_term(p.term, xs, path)
        elif isinstance(p, (And, PreOr)):
            op = "and" if isinstance(p, And) else "or"
            for i, q in enumerate(p.parts, 1):
                self.check_pre(q, xs, ys, f"{path}/{op}.{i}")
        elif isinstance(p, Exists):
            self.check_pre(p.body, *self.bind(p.var, xs, ys, path), path + f"/exists {p.var}")
        else:
            self.fail(path, f"not a precondition: {p!r}")

    def check_clause(self, cl: Clause, xs: set, ys: set, path: str):
        if isinstance(cl, Assert):
            asserted, _, _ = self.uses[-1]
            asserted.append(cl.pred)
            self.check_atom_args(cl.pred, cl.args, path)
            for t in cl.args:
                self.check_term(t, xs, path)
            self.check_value(cl.value, xs, ys, path, assertion=True)
        elif isinstance(cl, TrueClause):
            pass
        elif isinstance(cl, And):
            for i, c in enumerate(cl.parts, 1):
                self.check_clause(c, xs, ys, f"{path}/and.{i}")
        elif isinstance(cl, Imply):
            self.check_pre(cl.pre, xs, ys, path + "/pre")
            self.check_clause(cl.body, xs, ys, path + "/body")
        elif isinstance(cl, Forall):
            self.check_clause(cl.body, *self.bind(cl.var, xs, ys, path),
                              path + f"/forall {cl.var}")
        else:
            self.fail(path, f"not a clause: {cl!r}")


def _checked_uses(program: Program) -> list:
    """Check closedness, occurrence discipline, arities and negation use,
    raising one :class:`ValidationError` that lists every violation with its
    clause path; returns, per stratum, the predicates it asserts, queries and
    negatively queries."""
    if not program.universe:
        raise ValidationError("empty universe: no atoms declared or mentioned")
    checker = _WFChecker(program)
    for i, cl in enumerate(program.strata, 1):
        checker.uses.append(([], [], []))
        checker.check_clause(cl, set(), set(), f"stratum {i}")
    asserted = {pred for preds, _, _ in checker.uses for pred in preds}
    for f in program.facts:
        path = f"fact {f.pred}"
        checker.check_atom_args(f.pred, tuple(Const(a) for a in f.atoms), path)
        for a in f.atoms:
            if a not in checker.universe:
                checker.fail(path, f"unknown atom {a!r}")
        if f.pred in asserted:
            checker.fail(path, f"{f.pred} is asserted by a clause; facts may only "
                               "populate base relations")
    if checker.errors:
        raise ValidationError("; ".join(checker.errors))
    return checker.uses


# --- stratification ---------------------------------------------------------


def compute_ranks(program: Program) -> dict:
    """Check the program's well-formedness (:func:`_checked_uses`), then
    assign each predicate its stratum and validate the query side conditions.

    An ill-formed program raises that :class:`ValidationError`.  A predicate
    asserted in stratum i gets rank i; predicates never asserted are base
    relations of rank 0.  Positive queries in stratum i require rank <= i,
    negative queries require rank < i.
    """
    per_stratum = _checked_uses(program)
    ranks: dict[str, int] = {}
    for i, (asserted, _, _) in enumerate(per_stratum, 1):
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
    """Full static pipeline: well-formedness plus stratification, in one walk."""
    compute_ranks(program)
    return program


# --- precondition reordering -------------------------------------------------


def _defines(p: Pre):
    if isinstance(p, (Query, NegQuery)) and isinstance(p.value, YVar):
        return p.value.name
    return None


def _and_items(p: And) -> list:
    """Parts of a conjunction, each reordered inside, with nested
    conjunctions spliced in: the spine the applications move along."""
    items: list = []
    for q in p.parts:
        if isinstance(q, And):
            items += _and_items(q)
        else:
            items.append(_reorder_pre(q))
    return items


def _reorder_pre(p: Pre) -> Pre:
    if isinstance(p, And):
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
        return And(tuple(out))
    if isinstance(p, PreOr):
        return PreOr(tuple([_reorder_pre(q) for q in p.parts]))
    if isinstance(p, Exists):
        return Exists(p.var, _reorder_pre(p.body))
    return p


def _reorder_clause(cl: Clause) -> Clause:
    if isinstance(cl, And):
        return And(tuple([_reorder_clause(c) for c in cl.parts]))
    if isinstance(cl, Imply):
        return Imply(_reorder_pre(cl.pre), _reorder_clause(cl.body))
    if isinstance(cl, Forall):
        return Forall(cl.var, _reorder_clause(cl.body))
    return cl


def reorder_preconditions(program: Program) -> Program:
    """Stably move each lattice-variable application after a defining query.

    Within every conjunction spine, an application Y(u) that precedes a query
    binding Y is deferred until just after the first such query; everything
    else keeps its relative order.  Applications with no defining occurrence
    in their spine stay put (the solver then uses the top-binding rule).
    """
    return program.with_strata(_reorder_clause(cl) for cl in program.strata)


def universe_of(atoms) -> tuple:
    """The atoms a program's producer recorded, in the universe's one order."""
    return tuple(sorted(atoms, key=atom_sort_key))
