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
:func:`validate` checks a program in one walk and returns a new one that also
holds its ranks and, for every top-level conjunct of every stratum, its
shape and constants, which the solver compiles and runs by.

Nodes, :class:`Fact`, :class:`Program`, and the
:class:`~latlog.lattices.Lattice` and :class:`~latlog.lattices.IntervalValue`
they hold are immutable slotted records (:class:`~latlog.records.Frozen`)
compared by value: two are equal when they are of one class with equal
fields, and each hashes as its field tuple (a program's read-only map
views make it unhashable).  They are not dataclasses, so
``dataclasses.replace`` and ``dataclasses.fields`` no longer apply to them;
:func:`latlog.records.replace` copies a record with fields changed, and a
class's ``__slots__`` names its fields in order.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Union

from .errors import StratificationError, ValidationError
from .lattices import Atom, FunctionRegistry, Lattice, atom_sort_key
from .records import Frozen, replace, set_field

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


def _read_only(m: Mapping) -> MappingProxyType:
    """``m`` if it is a read-only view, else a view of the dict ``m``, which
    the program then owns."""
    return m if type(m) is MappingProxyType else MappingProxyType(m)


class Program(Frozen):
    """A parsed (or programmatically built) clause program.

    ``strata`` is the ordered clause sequence, ``universe`` the sorted tuple
    of atoms, and ``arities`` and ``ranks`` read-only maps.  A program that
    :func:`validate` returns has ``ranks``, each predicate's stratum, and
    ``shapes``, per stratum ``(holes, shape_of, consts)``: its conjunct j
    (a lone clause is conjunct 0) has shape ``shape_of[j]`` and constants
    ``consts[j]`` by hole number, an atom as its universe position, and
    ``holes[n]`` maps each ``(is atom, constant)`` of shape n's first
    conjunct to its hole number (see :class:`_WFChecker`).
    """

    __slots__ = ("lattice", "registry", "strata", "facts", "arities", "universe",
                 "declared_funs", "ranks", "shapes")

    def __init__(self, lattice: Lattice, registry: FunctionRegistry, strata: tuple,
                 facts: tuple = (), arities: Optional[Mapping] = None, universe: tuple = (),
                 declared_funs: tuple = (), ranks: Optional[Mapping] = None,
                 shapes: Optional[tuple] = None):
        set_field(self, "lattice", lattice)
        set_field(self, "registry", registry)
        set_field(self, "strata", strata)
        set_field(self, "facts", facts)
        set_field(self, "arities", _read_only(arities or {}))
        set_field(self, "universe", universe)
        set_field(self, "declared_funs", declared_funs)
        set_field(self, "ranks", None if ranks is None else _read_only(ranks))
        set_field(self, "shapes", shapes)

    def __reduce__(self):  # copies get plain dicts, which __init__ wraps again
        return Program, tuple([dict(v) if type(v) is MappingProxyType else v
                               for v in self._values()])

    @property
    def num_strata(self) -> int:
        return len(self.strata)

    def with_strata(self, strata) -> "Program":
        """An unvalidated copy with new strata, which solving validates."""
        return replace(self, strata=tuple(strata), ranks=None, shapes=None)


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
    """Checks closedness, occurrence discipline, arities and negation use in
    one walk, recording each violation under its clause path, a ``(parent,
    segment, argument)`` tuple formatted only then.  Each node returns its
    shape key: nested tuples of node types, names and binder sorts, in which
    a variable reads as its binder's depth and each distinct constant of its
    top-level conjunct as hole ``-1 - n``, numbered in the order first met:
    ``holes`` maps ``(is atom, constant)`` to n and ``consts[n]`` holds it.
    A lone conjunct's key is dropped.  Parts are gathered by loops, as a
    comprehension per node made the walk a quarter slower on CPython 3.11."""

    def __init__(self, program: Program):
        self.lattice, self.registry = program.lattice, program.registry
        self.ids = {a: i for i, a in enumerate(program.universe)}
        self.arities = program.arities.copy()  # dict() would not reuse a freed dict
        self.errors: list[str] = []
        # per stratum: the predicates it asserts, queries and negatively queries
        self.uses: list[tuple[list, list, list]] = []
        self.xs, self.ys = {}, {}  # universe, lattice variables in scope -> depth
        self.shapes, self.holes, self.consts = [], {}, []

    def fail(self, path: tuple, msg: str):
        segments = []
        while path is not None:
            path, segment, arg = path
            segments.append(f"{segment}{arg}")
        self.errors.append(f"{''.join(reversed(segments))}: {msg}")

    def hole(self, atom: bool, c, value) -> int:
        n = self.holes.get((atom, c))
        if n is None:
            n = self.holes[atom, c] = len(self.consts)
            self.consts.append(value)
        return -1 - n

    def depth(self, scope: dict, name: str, path: tuple, sort: str) -> Optional[int]:
        depth = scope.get(name)
        if depth is None:
            self.fail(path, f"free {sort} {name!r}")
        return depth

    def stratum(self, cl, path: tuple) -> None:
        """Check a stratum and add its ``shapes`` entry (see :class:`Program`)."""
        self.uses.append(([], [], []))
        if type(cl) is not And:  # shape 0 of a one-conjunct stratum
            self.holes, self.consts = {}, []
            self.clause(cl, path)
            self.shapes.append(((self.holes,), (0,), (tuple(self.consts),)))
            return
        numbers, holes, shape_of, consts = {}, [], [], []
        for i, c in enumerate(cl.parts, 1):
            self.holes, self.consts = {}, []
            n = numbers.setdefault(self.clause(c, (path, "/and.", i)), len(numbers))
            if n == len(holes):
                holes.append(self.holes)
            shape_of.append(n)
            consts.append(tuple(self.consts))
        self.shapes.append((tuple(holes), tuple(shape_of), tuple(consts)))

    def term(self, t: Term, path: tuple):
        if type(t) is Var:
            return self.depth(self.xs, t.name, path, "variable")
        if type(t) is Const:
            i = self.ids.get(t.atom)
            if i is None:
                self.fail(path, f"unknown atom {t.atom!r}")
            return self.hole(True, t.atom, i)
        self.fail(path, f"not a term: {t!r}")

    def value(self, v: LatticeTerm, path: tuple, assertion: bool):
        t = type(v)
        if t is YVar:
            return self.depth(self.ys, v.name, path, "lattice variable")
        if t is Repr:
            return t, self.term(v.term, path)
        if t is LitConst:
            if not assertion and v.value == self.lattice.bottom:
                self.fail(path, "bottom constant in a query (query constants act "
                                "as pre-bound lattice variables, which exclude bottom)")
            return self.hole(False, v.value, v.value)
        if t is FnApp:
            if not assertion:
                self.fail(path, "function terms are only allowed in assertions")
            if not self.registry.has(v.name, len(v.args)):
                self.fail(path, f"unknown function {v.name}/{len(v.args)}")
            return (t, v.name, *[self.value(a, path, assertion) for a in v.args])
        self.fail(path, f"not a lattice term: {v!r}")

    def arity(self, pred: str, n: int, path: tuple):
        want = self.arities.setdefault(pred, n)
        if want != n:
            self.fail(path, f"arity mismatch for {pred}: {n} vs declared {want}")

    def atom(self, a, path: tuple, assertion: bool) -> tuple:
        """Key of an assertion or a query, after its arity and terms."""
        self.arity(a.pred, len(a.args), path)
        args = []
        for t in a.args:
            args.append(self.term(t, path))
        return type(a), a.pred, tuple(args), self.value(a.value, path, assertion)

    def binder(self, node, path: tuple, body: Callable) -> tuple:
        """Key of a quantifier; ``body`` checks its body with its variable in scope."""
        var, xs, ys = node.var, self.xs, self.ys
        lattice = is_lattice_var(var)
        scope = ys if lattice else xs
        fresh = var not in xs and var not in ys
        if fresh:
            scope[var] = len(xs) + len(ys)
        else:
            self.fail(path, f"shadowed variable {var!r}")
        key = body(node.body, (path, "/forall " if type(node) is Forall else "/exists ", var))
        if fresh:
            del scope[var]
        return type(node), lattice, key

    def pre(self, p: Pre, path: tuple):
        t = type(p)
        if t is Query or t is NegQuery:
            self.uses[-1][1 if t is Query else 2].append(p.pred)
            key = self.atom(p, path, False)
            if t is NegQuery and self.lattice.complement is None:
                self.fail(path, f"negative query on {p.pred} over lattice "
                                f"{self.lattice.kind!r} without complement")
            return key
        if t is Apply:
            depth = self.depth(self.ys, p.yvar, path, "lattice variable")
            return t, depth, self.term(p.term, path)
        if t is And or t is PreOr:
            op = "/and." if t is And else "/or."
            parts = []
            for i, q in enumerate(p.parts, 1):
                parts.append(self.pre(q, (path, op, i)))
            return (t, *parts)
        if t is Exists:
            return self.binder(p, path, self.pre)
        self.fail(path, f"not a precondition: {p!r}")

    def clause(self, cl: Clause, path: tuple):
        t = type(cl)
        if t is Assert:
            self.uses[-1][0].append(cl.pred)
            return self.atom(cl, path, True)
        if t is And:
            parts = []
            for i, c in enumerate(cl.parts, 1):
                parts.append(self.clause(c, (path, "/and.", i)))
            return (t, *parts)
        if t is Imply:
            return (t, self.pre(cl.pre, (path, "/pre", "")),
                    self.clause(cl.body, (path, "/body", "")))
        if t is Forall:
            return self.binder(cl, path, self.clause)
        if t is not TrueClause:
            self.fail(path, f"not a clause: {cl!r}")
        return t


# --- validation and stratification -----------------------------------------


def validate(program: Program) -> Program:
    """The program with its ranks, its arities with each undeclared predicate
    added, and its shapes, after one walk (:class:`_WFChecker`) that checks
    well-formedness and stratification; ``program`` is left as it is.  An
    ill-formed program raises one :class:`ValidationError` that lists every
    violation.  A predicate asserted in stratum i gets rank i; predicates
    never asserted are base relations of rank 0.  Positive queries in stratum
    i require rank <= i, negative queries rank < i."""
    if not program.universe:
        raise ValidationError("empty universe: no atoms declared or mentioned")
    checker = _WFChecker(program)
    for i, cl in enumerate(program.strata, 1):
        checker.stratum(cl, (None, "stratum ", i))
    heads = {pred for preds, _, _ in checker.uses for pred in preds}
    for f in program.facts:
        path = (None, "fact ", f.pred)
        checker.arity(f.pred, len(f.atoms), path)
        for a in f.atoms:
            if a not in checker.ids:
                checker.fail(path, f"unknown atom {a!r}")
        if f.pred in heads:
            checker.fail(path, f"{f.pred} is asserted by a clause; facts may only "
                               "populate base relations")
    if checker.errors:
        raise ValidationError("; ".join(checker.errors))
    ranks: dict[str, int] = {}
    for i, (asserted, _, _) in enumerate(checker.uses, 1):
        for pred in asserted:
            if ranks.get(pred, i) != i:
                raise StratificationError(
                    f"stratification violation: predicate {pred} asserted in "
                    f"strata {ranks[pred]} and {i}")
            ranks[pred] = i
    for pred in checker.arities:
        ranks.setdefault(pred, 0)
    for i, (_, pos, neg) in enumerate(checker.uses, 1):
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
    return Program(program.lattice, program.registry, program.strata, program.facts,
                   checker.arities, program.universe, program.declared_funs, ranks,
                   tuple(checker.shapes))


def compute_ranks(program: Program) -> Mapping:
    """Each predicate's stratum, as :func:`validate` finds it."""
    return validate(program).ranks


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
