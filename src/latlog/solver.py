"""Least-model computation: each distinct rule shape of a stratum is
compiled once into closures, then run with difference propagation from one
worklist of growths.

Compiling fixes each variable's slot in a list environment (universe
variables hold interned atom ids, lattice variables values), a slot per
distinct constant (an atom's id or a lattice literal), the argument
positions that bind or compare, the variables keying each disjunction or
existential memo and an evaluator per lattice term; a clause conjunction
becomes a flat tuple of steps.  Top-level conjuncts that differ only in
their constants and binder names share one compiled step, and each runs it
on an environment holding its own constants.  Running joins assertion
candidates into flat leaf maps over atom id tuples, one per predicate, each
with a table per search signature (the argument positions a query finds
constant or bound, whose atoms are the key it looks up) of the queries
waiting under each key, with their compiled match and the environment they
registered in, and for a partial signature a hash index.  Each strict growth
is queued with the queries then waiting under its key in those tables.  One
loop delivers the queue, oldest first, running each match as a sweep does,
so deliveries never nest, and stops delivering a leaf once a later growth
has replaced it.
Negative queries read the complement of final values.  A lattice variable
also carries a lower bound, the join of the descriptions ``'Y(u)`` checked
it against; narrowing it by meet below that bound fails.  Leaves are never
bottom; atoms reappear only in :class:`SolveResult`.

A run is single-threaded and touches no process-wide state; distinct runs
are independent, and a finished result is safe to share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from . import ast
from .errors import SolverInvariantError
from .lattices import Lattice, render_atom
from .ast import (And, Apply, Assert, Const, Exists, FnApp, Forall, Imply,
                  LitConst, NegQuery, PreOr, Program, Query, Repr, TrueClause,
                  Var, YVar, is_lattice_var)


# --- stores -------------------------------------------------------------------


class AtomTable:
    """Dense deterministic interning of universe atoms."""

    def __init__(self, universe: tuple):
        self._atoms = tuple(universe)
        self._ids = {a: i for i, a in enumerate(self._atoms)}

    def id(self, atom) -> int:
        try:
            return self._ids[atom]
        except KeyError:
            raise SolverInvariantError(f"atom {atom!r} is not in the universe") from None

    def ids(self, atoms: tuple) -> tuple:
        return tuple(self.id(a) for a in atoms)

    def atoms(self, ids: tuple) -> tuple:
        return tuple(self._atoms[i] for i in ids)


@dataclass
class SolveStats:
    """Instrumentation counters for one solve run."""

    growths: int = 0
    consumer_invocations: int = 0
    sweep_invocations: int = 0
    candidates: int = 0
    redundant_adds: int = 0  # always 0: joins that do not grow are not counted

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "growths", "consumer_invocations", "sweep_invocations", "candidates",
            "redundant_adds")}


_NO_KEY, _WHOLE = itemgetter(slice(0)), itemgetter(slice(None))  # () and ids[:], which is ids


def _key_of(sig: tuple, arity: int) -> Callable[[tuple], Any]:
    """A stored tuple's key under a search signature, the positions a query
    binds: () for the empty signature, the tuple itself for the full one,
    else its atom ids at the signature's positions, one bare id for one
    position."""
    if not sig:
        return _NO_KEY
    return _WHOLE if len(sig) == arity else itemgetter(*sig)


def _file(index: dict, key, ids: tuple) -> None:
    """Add an id tuple to its bucket in an index, in insertion order.  A
    bucket of up to eight is a tuple, smaller than a list and untracked by
    the cycle collector once collected; a larger one is a list, so adding
    stays constant time."""
    bucket = index.get(key, ())
    if type(bucket) is list:
        bucket.append(ids)
    elif len(bucket) < 8:
        index[key] = (*bucket, ids)
    else:
        index[key] = [*bucket, ids]


class Table(dict):
    """One predicate's waiting queries under one search signature, by key:
    ``{key: [(match, env), ...]}``, each a compiled match and the
    environment it registered in.  The table also keeps the signature's key
    function (:func:`_key_of`) and, for a partial signature, its hash index
    ``{key: bucket of ids}`` (buckets by :func:`_file`)."""

    __slots__ = ("pred", "sig", "key_of", "index")

    def __init__(self, pred: str, sig: tuple, key_of: Callable[[tuple], Any]):
        self.pred, self.sig, self.key_of, self.index = pred, sig, key_of, None

    def register(self, key, consumer: tuple) -> None:
        self.setdefault(key, []).append(consumer)


class Relation(dict):
    """One predicate's leaves, ``{ids: leaf}`` in insertion order, with a
    tuple of :class:`Table`, one per search signature that a query has used,
    in the order first used.  A partial signature's index is built from the
    leaves when its table opens and gains each tuple that first appears
    later."""

    __slots__ = ("pred", "arity", "tables")

    def __init__(self, pred: str, arity: int):
        self.pred, self.arity, self.tables = pred, arity, ()

    def table(self, sig: tuple) -> Table:
        """The signature's table, opened on first use."""
        for table in self.tables:
            if table.sig == sig:
                return table
        table = Table(self.pred, sig, _key_of(sig, self.arity))
        if 0 < len(sig) < self.arity:
            index = table.index = {}
            for ids in self:
                _file(index, table.key_of(ids), ids)
        self.tables += (table,)
        return table

    def sweep(self, table: Table, key) -> list[tuple[tuple, Any]]:
        """Snapshot of the ``(ids, leaf)`` pairs stored under a key of the
        table's signature, in insertion order: those its index files under
        the key, else all of them for the empty signature and one leaf for
        the full one."""
        if table.index is not None:
            return [(ids, self[ids]) for ids in table.index.get(key, ())]
        if not table.sig:
            return list(self.items())
        leaf = self.get(key)
        return [] if leaf is None else [(key, leaf)]


class ResultStore:
    """A :class:`Relation` per predicate, from ground tuples of atom ids to
    joined values.

    Leaves are never bottom and only grow; once a stratum completes, the
    leaves of its predicates are sealed and any further growth aborts.
    """

    def __init__(self, lattice: Lattice, arities: dict, ranks: dict,
                 stats: Optional[SolveStats] = None):
        self.lattice = lattice
        self.ranks = ranks
        self.stats = stats or SolveStats()
        self._relations = {pred: Relation(pred, arity) for pred, arity in arities.items()}
        self._sealed_rank = -1

    def relation(self, pred: str) -> Relation:
        try:
            return self._relations[pred]
        except KeyError:
            raise SolverInvariantError(f"undeclared predicate {pred!r}") from None

    def current(self, pred: str, ids: tuple):
        leaf = self.relation(pred).get(ids)
        return self.lattice.bottom if leaf is None else leaf

    def raise_leaf(self, pred: str, ids: tuple, l):
        """Join l into the leaf; the new leaf if it strictly grew, else None."""
        leaves, lattice = self.relation(pred), self.lattice
        current = leaves.get(ids)
        if lattice.leq(l, lattice.bottom if current is None else current):
            return None
        if self.sealed(pred):
            raise SolverInvariantError(
                f"predicate {pred} of completed stratum {self.ranks.get(pred, 0)} "
                f"grew at {ids} after sealing")
        if current is None:  # a tuple stored for the first time joins every index
            current = lattice.bottom
            for table in leaves.tables:
                if table.index is not None:
                    _file(table.index, table.key_of(ids), ids)
        joined = leaves[ids] = lattice.join(current, l)
        self.stats.growths += 1
        return joined

    def sub(self, pred: str, sig: tuple = (), key=()) -> list[tuple[tuple, Any]]:
        relation = self.relation(pred)
        return relation.sweep(relation.table(sig), key)

    def drop_tables(self) -> None:
        """Empty every table's waiting map, as waiting queries and their
        continuations refer to each other, and drop the tables; a later
        sweep rebuilds the index it reads."""
        for relation in self._relations.values():
            for table in relation.tables:
                table.clear()
            relation.tables = ()

    def seal_up_to(self, rank: int) -> None:
        self._sealed_rank = max(self._sealed_rank, rank)

    def sealed(self, pred: str) -> bool:
        return self.ranks.get(pred, 0) <= self._sealed_rank


# --- compilation --------------------------------------------------------------

Step = Callable[[list], None]


def _reader(slots: list) -> Callable[[list], tuple]:
    """Tuple of the values in the slots; a None slot reads as None.  Every
    reader of no slots is one shared function, as rules compile many."""
    if not slots:
        return _read_none
    if len(slots) > 1 and None not in slots:
        return itemgetter(*slots)
    return lambda env: tuple([None if s is None else env[s] for s in slots])


def _read_none(env: list) -> tuple:
    return ()


def _enumerate(slots: list, atoms: range, step: Step) -> Step:
    """``step`` once per assignment of atom ids to the slots, in id order."""
    if not slots:
        return step

    def each(env):
        for combo in product(atoms, repeat=len(slots)):
            for s, i in zip(slots, combo):
                env[s] = i
            step(env)
    return each


class _Compiler:
    """Compiles one top-level conjunct of a stratum into a step.

    ``scope`` maps the variables in scope to slots and ``bound`` names those
    bound at the point compiled; a disjunction compiles its continuation once
    per binding state its branches reach.  Every binder and memo has a slot of
    its own, a lattice variable's lower bound in the next one.  A step writes
    an unbound slot before reading it, restores the bound slots it narrows
    and creates the memo sets it owns, so a match runs alike on a sweep's live
    environment and on a waiting query's stored one.

    Each distinct constant is read from a hole slot, which counts as bound.
    ``holes`` maps ``(is atom, constant)`` to slots 0, 1, ... in advance;
    constants it lacks get slots as they are met.  :meth:`env` fills them.
    """

    def __init__(self, engine: "_Engine", holes: Optional[dict] = None):
        self.engine, self.lattice, self.universe = engine, engine.lattice, engine.program.universe
        self.atoms = range(len(self.universe))
        self.holes = {} if holes is None else holes
        self.size = len(self.holes)
        # id(parts) -> (parts, the names free in each parts[i:]); holding
        # parts keeps its id from being reused while the compiler lives
        self.suffix_names: dict = {}

    def slot(self, lattice: bool = False) -> int:
        s = self.size
        self.size += 2 if lattice else 1
        return s

    def hole(self, atom: bool, c) -> int:
        s = self.holes.get((atom, c))
        if s is None:
            s = self.holes[atom, c] = self.slot()
        return s

    def env(self) -> list:
        """A fresh environment whose hole slots hold their constants."""
        env = [None] * self.size
        for (atom, c), s in self.holes.items():
            env[s] = self.engine.table.id(c) if atom else c
        return env

    @staticmethod
    def lookup(scope: dict, name: str) -> int:
        try:
            return scope[name]
        except KeyError:
            raise SolverInvariantError(f"variable {name!r} is not in scope") from None

    def term(self, scope: dict, t) -> int:
        """Slot of a universe variable, or of a constant atom's hole."""
        return self.hole(True, t.atom) if isinstance(t, Const) else self.lookup(scope, t.name)

    def args(self, scope: dict, args: tuple) -> list:
        return [self.term(scope, t) for t in args]

    def unbound(self, scope: dict, bound, terms) -> list:
        """Slots of the distinct unbound universe variables of the terms
        (arguments or lattice terms), first occurrence first."""
        names: list = []
        todo = list(reversed(terms))
        while todo:
            t = todo.pop()
            if isinstance(t, (Repr, FnApp)):
                todo += reversed(t.args) if isinstance(t, FnApp) else (t.term,)
            elif isinstance(t, Var) and t.name not in bound and t.name not in names:
                names.append(t.name)
        return [self.lookup(scope, n) for n in names]

    def clause(self, cl, scope: dict, bound: frozenset) -> Optional[Step]:
        """Step executing a clause, or None when it does nothing."""
        if isinstance(cl, Assert):
            return self.assertion(cl, scope, bound)
        if isinstance(cl, TrueClause):
            return None
        if isinstance(cl, And):
            steps = tuple(filter(None, (self.clause(c, scope, bound) for c in cl.parts)))
            if len(steps) < 2:
                return steps[0] if steps else None

            def conjunction(env):
                for step in steps:
                    step(env)
            return conjunction
        if isinstance(cl, Imply):
            body = cl.body
            return self.pre(cl.pre, scope, bound, ((body,), 0, None),
                            lambda b: self.clause(body, scope, b) or (lambda env: None))
        if isinstance(cl, Forall):
            scope = {**scope, cl.var: self.slot(is_lattice_var(cl.var))}
            return self.clause(cl.body, scope, bound)
        raise SolverInvariantError(f"cannot execute {cl!r}")

    def assertion(self, a: Assert, scope: dict, bound: frozenset) -> Step:
        e = self.engine
        ids_of = _reader(self.args(scope, a.args))
        value = self.evaluator(a.value, scope, bound)
        pred, stats, raise_leaf, broadcast = a.pred, e.stats, e.store.raise_leaf, e._broadcast

        def assert_one(env):
            stats.candidates += 1
            ids = ids_of(env)
            leaf = raise_leaf(pred, ids, value(env))
            if leaf is not None:
                broadcast(pred, ids, leaf)
        return _enumerate(self.unbound(scope, bound, a.args + (a.value,)),
                          self.atoms, assert_one)

    def evaluator(self, v, scope: dict, bound) -> Callable[[list], Any]:
        """Value of a lattice term; unbound lattice variables read as top."""
        represent, universe = self.lattice.represent, self.universe
        if isinstance(v, YVar) and v.name in bound:
            return itemgetter(self.lookup(scope, v.name))
        if isinstance(v, LitConst):
            return itemgetter(self.hole(False, v.value))
        if isinstance(v, YVar):
            top = self.lattice.top
            return lambda env: top
        if isinstance(v, Repr):
            s = self.term(scope, v.term)
            return lambda env: represent(universe[env[s]])
        if isinstance(v, FnApp):
            fn = self.engine.program.registry.function(v.name, len(v.args))
            args = [self.evaluator(a, scope, bound) for a in v.args]
            return lambda env: fn(*[a(env) for a in args])
        raise SolverInvariantError(f"cannot evaluate lattice term {v!r}")

    def pre(self, p, scope: dict, bound: frozenset, rest: Optional[tuple],
            kc: Callable[[frozenset], Step]) -> Step:
        """Step checking a precondition; each match runs ``kc(bound')``, the
        continuation compiled for the variables bound after the match.
        ``rest`` is ``(parts, i, outer)``, the nodes after p whose variables
        the continuation reads: ``parts[i:]``, then those of ``outer``."""
        if isinstance(p, Query):
            return self.query(p, scope, bound, kc)
        if isinstance(p, NegQuery):
            return self.negquery(p, scope, bound, kc)
        if isinstance(p, Apply):
            return self.apply(p, scope, bound, kc)
        if isinstance(p, And):
            return self.conjunction(p.parts, 0, scope, bound, rest, kc)
        memo = self.slot()
        if isinstance(p, PreOr):
            kc = self.memo(memo, scope, rest, kc)
            branches = tuple([self.pre(q, scope, bound, rest, kc) for q in p.parts])
        elif isinstance(p, Exists):
            inner = {**scope, p.var: self.slot(is_lattice_var(p.var))}
            branches = (self.pre(p.body, inner, bound, rest, self.memo(
                memo, scope, rest, lambda b: kc(b - {p.var}))),)
        else:
            raise SolverInvariantError(f"cannot check {p!r}")

        def memoized(env):
            env[memo] = set()
            for branch in branches:
                branch(env)
        return memoized

    def conjunction(self, parts: tuple, i: int, scope: dict, bound: frozenset,
                    rest: Optional[tuple], kc) -> Step:
        """Step checking ``parts[i:]`` in order."""
        if i == len(parts) - 1:
            return self.pre(parts[i], scope, bound, rest, kc)
        return self.pre(parts[i], scope, bound, (parts, i + 1, rest),
                        lambda b: self.conjunction(parts, i + 1, scope, b, rest, kc))

    def reads(self, rest: Optional[tuple]) -> frozenset:
        """Names free in the nodes of ``rest``; each parts tuple's suffixes
        are computed once, on first use."""
        names = frozenset()
        while rest is not None:
            parts, i, rest = rest
            entry = self.suffix_names.get(id(parts))
            if entry is None:
                suffixes = [frozenset()]
                for node in reversed(parts):
                    suffixes.append(suffixes[-1] | ast.free_names(node))
                entry = self.suffix_names[id(parts)] = (parts, suffixes[::-1])
            names |= entry[1][i]
        return names

    def memo(self, memo: int, scope: dict, rest: Optional[tuple], kc):
        """``kc`` behind a filter that passes each binding of the variables of
        ``rest``, with the lower bounds of its lattice variables, once per entry."""
        compiled: dict = {}
        needed = sorted(self.reads(rest))

        def memo_kc(bound):
            if bound not in compiled:
                slots = []
                for name in needed:
                    s = self.lookup(scope, name)
                    width = 2 if is_lattice_var(name) else 1
                    slots += [s + j if name in bound else None for j in range(width)]
                key, k = _reader(slots), kc(bound)

                def once(env):
                    seen, kv = env[memo], key(env)
                    if kv not in seen:
                        seen.add(kv)
                        k(env)
                compiled[bound] = once
            return compiled[bound]
        return memo_kc

    def query(self, q: Query, scope: dict, bound: frozenset, kc) -> Step:
        """Registers the match on a copy of the environment under its key in
        the table, opened when compiled, of its search signature (constant and
        bound argument positions), then sweeps the tuples stored under it."""
        e = self.engine
        slots = self.args(scope, q.args)
        sig = tuple([pos for pos, t in enumerate(q.args)
                     if isinstance(t, Const) or t.name in bound])
        binds, tests, after = [], [], set(bound)
        for pos, t in enumerate(q.args):  # the store matched the signature
            if pos in sig:
                continue
            if t.name not in after:
                binds.append((pos, slots[pos]))
                after.add(t.name)
            else:
                tests.append((pos, slots[pos]))
        match_value = self.matcher(q.value, scope, frozenset(after), kc)

        def match(env, ids, l):
            for pos, s in binds:
                env[s] = ids[pos]
            for pos, s in tests:
                if ids[pos] != env[s]:
                    return
            match_value(env, l)
        keys = [slots[pos] for pos in sig]
        key_of = _reader(keys) if len(sig) in (0, len(slots)) else itemgetter(*keys)
        stats, relation, live = e.stats, e.store.relation(q.pred), not e.store.sealed(q.pred)
        table = relation.table(sig)
        sweep, register = relation.sweep, table.register

        def query(env):
            key = key_of(env)
            if live:  # enclosing loops rebind slots after this, so copy once
                register(key, (match, env[:]))
            swept = sweep(table, key)
            stats.sweep_invocations += len(swept)
            for ids, l in swept:
                match(env, ids, l)
        return query

    def negquery(self, q: NegQuery, scope: dict, bound: frozenset, kc) -> Step:
        complement = self.lattice.complement
        if complement is None:
            raise SolverInvariantError("negative query over a lattice without complement")
        slots = self.unbound(scope, bound, q.args)
        ids_of = _reader(self.args(scope, q.args))
        match = self.matcher(q.value, scope,
                             bound | {t.name for t in q.args if isinstance(t, Var)}, kc)
        pred, current = q.pred, self.engine.store.current
        return _enumerate(slots, self.atoms, lambda env: match(
            env, complement(current(pred, ids_of(env)))))

    def apply(self, p: Apply, scope: dict, bound: frozenset, kc) -> Step:
        """``'Y(u)``: the description of u must lie below 'Y, which reads as
        top while unbound; the description joins into 'Y's lower bound."""
        lat = self.lattice
        y, was_bound = self.lookup(scope, p.yvar), p.yvar in bound
        slots = self.unbound(scope, bound, (p.term,))
        after = bound | ast.free_names(p)
        describe, k = self.evaluator(Repr(p.term), scope, after), kc(after)

        def hit(env):
            value, lower = (env[y], env[y + 1]) if was_bound else (lat.top, lat.bottom)
            d = describe(env)
            if lat.leq(d, value):
                env[y], env[y + 1] = value, lat.join(lower, d)
                k(env)
                env[y + 1] = lower
        return _enumerate(slots, self.atoms, hit)

    def matcher(self, v, scope: dict, bound: frozenset, kc) -> Callable[[list, Any], None]:
        """Match of a query's lattice term against a value l.

        A lattice variable narrows to the meet (unbound, it reads as top),
        failing on bottom or below its lower bound; a described term requires
        its description below l, enumerating the atom when unbound; a constant
        requires containment.
        """
        lat = self.lattice
        leq, meet, top, bottom = lat.leq, lat.meet, lat.top, lat.bottom
        if isinstance(v, YVar):
            s, k, was_bound = self.lookup(scope, v.name), kc(bound | {v.name}), v.name in bound

            def narrow(env, l):
                old, lower = (env[s], env[s + 1]) if was_bound else (top, bottom)
                met = meet(l, old) if was_bound else l
                if met != bottom and (not was_bound or leq(lower, met)):
                    env[s], env[s + 1] = met, lower
                    k(env)
                    env[s] = old
            return narrow
        if isinstance(v, Repr) and isinstance(v.term, Var) and v.term.name not in bound:
            s, atoms = self.lookup(scope, v.term.name), self.atoms
            below = self.matcher(v, scope, bound | {v.term.name}, kc)

            def described(env, l):
                for i in atoms:
                    env[s] = i
                    below(env, l)
            return described
        if isinstance(v, (Repr, LitConst)):
            d, k = self.evaluator(v, scope, bound), kc(bound)

            def below(env, l):
                if leq(d(env), l):
                    k(env)
            return below
        raise SolverInvariantError(f"cannot unify against lattice term {v!r}")


# --- the engine ---------------------------------------------------------------


class _Shape:
    """Structural key of one top-level conjunct, and its constants.

    The key is nested tuples of node types, predicate and function names and
    binder sorts.  A variable reads as its binder's depth; a free one, which
    only unvalidated input has, reads as its name, so compiling reports it.
    Each distinct constant, an atom (also inside a description ``[a]``) or a
    lattice literal, is a hole numbered in the order first seen, and reads
    as ``-1 - n``.  ``holes`` maps ``(is atom, constant)`` to n, and
    ``values[n]`` is what its slot holds: the atom's id or the literal.
    (Methods, not nested functions: a recursive closure is a reference cycle.)
    """

    __slots__ = ("table", "holes", "values", "depth", "key")

    def __init__(self, conjunct, table: AtomTable):
        self.table, self.holes, self.values, self.depth = table, {}, [], {}
        self.key = self.node(conjunct)

    def hole(self, atom: bool, c) -> int:
        key = atom, c
        n = self.holes.get(key)
        if n is None:
            n = self.holes[key] = len(self.values)
            self.values.append(self.table.id(c) if atom else c)
        return -1 - n

    def term(self, t):
        return self.depth.get(t.name, t.name) if type(t) is Var else self.hole(True, t.atom)

    def value(self, v):
        t = type(v)
        if t is YVar:
            return self.depth.get(v.name, v.name)
        if t is LitConst:
            return self.hole(False, v.value)
        if t is Repr:
            return t, self.term(v.term)
        return (t, v.name, *[self.value(a) for a in v.args])

    def node(self, n):
        t = type(n)
        if t is Assert or t is Query or t is NegQuery:
            return t, n.pred, tuple([self.term(a) for a in n.args]), self.value(n.value)
        if t is Imply:
            return t, self.node(n.pre), self.node(n.body)
        if t is And or t is PreOr:
            return (t, *[self.node(p) for p in n.parts])
        if t is Forall or t is Exists:
            depth = self.depth
            depth[n.var] = len(depth)
            key = t, is_lattice_var(n.var), self.node(n.body)
            del depth[n.var]
            return key
        if t is Apply:
            return t, self.depth.get(n.yvar, n.yvar), self.term(n.term)
        return t


class _Engine:
    """Runs a program's strata on a store: a fresh one, or a given one whose
    atom ids come from the same universe."""

    def __init__(self, program: Program, stats: SolveStats,
                 store: Optional[ResultStore] = None):
        self.program = program
        self.lattice = program.lattice
        self.table = AtomTable(program.universe)
        self.stats = stats
        self.store = store or ResultStore(self.lattice, program.arities, program.ranks, stats)
        self.pending: deque = deque()

    def _broadcast(self, pred: str, ids: tuple, leaf) -> None:
        """Queue a growth with the queries waiting for it so far, table by
        table in the order its relation's tables were first used."""
        consumers = []
        for table in self.store._relations[pred].tables:
            waiting = table.get(table.key_of(ids))
            if waiting:
                consumers += waiting
        self.pending.append((pred, consumers, ids, leaf))

    def _drain(self) -> None:
        """Deliver queued growths, oldest first, until none is left, each by
        running a consumer's match on its environment uncopied, as a sweep
        does (see :class:`_Compiler` for the slots a step restores).  A leaf
        no longer stored is delivered no further: the growth that replaced it
        queued the larger leaf for a superset of the same consumers, and
        matching is monotone in the value."""
        pending, relation, stats = self.pending, self.store.relation, self.stats
        while pending:
            pred, consumers, ids, leaf = pending.popleft()
            get = relation(pred).get
            for match, env in consumers:
                if get(ids) is not leaf:
                    break
                stats.consumer_invocations += 1
                match(env, ids, leaf)

    def run_stratum(self, cl) -> None:
        """Run each top-level conjunct on a fresh environment and deliver its
        growths; queries of sealed predicates register no consumers.

        Each distinct rule shape (:class:`_Shape`) is compiled once per
        stratum, for the first conjunct of that shape; every conjunct of the
        shape runs the shared step with its own constants in the hole slots.
        A stratum of one conjunct is compiled without a key."""
        if not isinstance(cl, And):
            compiler = _Compiler(self)
            self._run(compiler.clause(cl, {}, frozenset()), compiler.env())
            return
        shared: dict = {}
        for conjunct in cl.parts:
            shape = _Shape(conjunct, self.table)
            compiled = shared.get(shape.key)
            if compiled is None:
                compiler = _Compiler(self, shape.holes)
                compiled = shared[shape.key] = (compiler.clause(conjunct, {}, frozenset()),
                                                compiler.size)
            step, size = compiled
            env = shape.values
            env += [None] * (size - len(env))
            self._run(step, env)

    def _run(self, step: Optional[Step], env: list) -> None:
        if step is not None:
            step(env)
            self._drain()

    def run(self, facts) -> None:
        for f in facts:
            self.store.raise_leaf(f.pred, self.table.ids(f.atoms), f.value)
        self.store.seal_up_to(0)
        for i, cl in enumerate(self.program.strata, 1):
            self.run_stratum(cl)
            self.store.seal_up_to(i)


@dataclass
class SolveResult:
    """Final store of a solve run plus instrumentation."""

    program: Program
    store: ResultStore
    table: AtomTable
    stats: SolveStats

    def leaves(self) -> dict:
        """{pred: {atom tuple: value}} with bottom leaves absent."""
        return {
            pred: {self.table.atoms(ids): v for ids, v in leaves.items()}
            for pred, leaves in self.store._relations.items()
        }

    def items(self) -> Iterator[tuple[str, tuple, Any]]:
        """(predicate, atom tuple, value), ordered by predicate name and
        interned tuple."""
        for pred in sorted(self.store._relations):
            for ids, v in sorted(self.store.relation(pred).items(), key=itemgetter(0)):
                yield pred, self.table.atoms(ids), v

    def dump_lines(self) -> list[str]:
        """Deterministic dump: predicate name order, interned tuple order.
        Each atom and each distinct leaf value is rendered once."""
        render = self.program.lattice.render
        names = [render_atom(a) for a in self.table._atoms]
        values: dict = {}
        lines = []
        for pred in sorted(self.store._relations):
            for ids, v in sorted(self.store.relation(pred).items(), key=itemgetter(0)):
                text = values.get(v)
                if text is None:
                    text = values[v] = render(v)
                lines.append(f"{pred}({','.join([names[i] for i in ids])}) = {text}")
        return lines


def solve(program: Program) -> SolveResult:
    """Compute the least model of a program above its facts."""
    if program.ranks is None:
        ast.validate(program)
    stats = SolveStats()
    engine = _Engine(program, stats)
    try:
        engine.run(program.facts)
    finally:
        engine.store.drop_tables()
        engine.pending.clear()
    return SolveResult(program, engine.store, engine.table, stats)
