"""Least-model computation: each distinct rule shape of a stratum is
compiled once into closures, then run with difference propagation from one
worklist of growths.

Compiling fixes each variable's slot in a list environment (universe
variables hold atom ids, their universe positions, and lattice variables
values), a slot per distinct constant (an atom's id or a lattice literal),
the argument positions that bind or compare, the variables keying each
disjunction or existential memo and an evaluator per lattice term; a clause
conjunction becomes a flat tuple of steps.  The top-level conjuncts of one
shape, which :func:`ast.validate` finds with their constants, share one
compiled step, and each runs it on an environment holding its own constants,
so ``solve`` walks no rule to key it; a stratum that is one clause is one
conjunct of shape 0.  Running joins assertion candidates into flat leaf maps
over atom id tuples, one per predicate, each with a table per search
signature (the argument positions a query finds constant or bound, whose
atoms are the key it looks up) of the queries waiting under each key, with
their compiled match and the environment they registered in, and for a
partial signature a hash index; a sweep reads the snapshot its table's
kind fixes.  A query on a relation already sealed when compiled registers
nothing and reads the leaves in place, as the growth routine refuses a
sealed relation before it writes.  A step holds the relations it uses,
found by name when compiled.  Assertions that make up a whole conjunction
and have no unbound variable run as one step, in order, each reading its
leaf afresh.  A candidate at or below its leaf stops there; any other, and
each fact, goes to its relation's one growth routine
(:meth:`ResultStore.grower`), which refuses growth of a sealed rank, joins
the leaf and, if queries wait under its key in those tables, queues the
growth with its relation and them.  A candidate at or above its leaf is the
join and is stored itself, so leaves may share value objects.  A query
whose lattice term is an unbound lattice variable and that tests no
argument binds it in its match.
One loop delivers the queue, oldest first, running each match as a sweep
does, so deliveries never nest, and stops delivering a leaf once a later
growth has replaced it.
A positive query on a relation that holds no leaf when compiled and whose
predicate is sealed or can never hold one (:class:`_Liveness`, found at most
once per run, on first need) compiles to one shared no-op step, and what
follows it is never compiled.
Negative queries read the complement of final values in place.  A lattice
variable also carries a lower bound, the join of the descriptions ``'Y(u)``
checked it against; narrowing it by meet below that bound fails.  Leaves are never
bottom; atoms reappear only in :class:`SolveResult`.

A run is single-threaded and touches no process-wide state; distinct runs
are independent, and a finished result is safe to share.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import product
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from . import ast
from .errors import SolverInvariantError
from .lattices import Lattice, render_atom
from .records import Record
from .ast import (And, Apply, Assert, Const, Exists, FnApp, Forall, Imply,
                  LitConst, NegQuery, PreOr, Program, Query, Repr, TrueClause,
                  Var, YVar, is_lattice_var)


# --- stores -------------------------------------------------------------------


class SolveStats(Record):
    """Instrumentation counters for one solve run.  ``redundant_adds`` is
    always 0: joins that do not grow are not counted."""

    __slots__ = ("growths", "consumer_invocations", "sweep_invocations", "candidates",
                 "redundant_adds")

    def __init__(self, growths: int = 0, consumer_invocations: int = 0,
                 sweep_invocations: int = 0, candidates: int = 0, redundant_adds: int = 0):
        self.growths = growths
        self.consumer_invocations = consumer_invocations
        self.sweep_invocations = sweep_invocations
        self.candidates = candidates
        self.redundant_adds = redundant_adds

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


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
    function (:func:`_key_of`), for a partial signature its hash index
    ``{key: bucket of ids}`` (buckets by :func:`_file`), and ``sweep``, which
    :meth:`Relation.table` fixes for the signature's kind."""

    __slots__ = ("pred", "sig", "key_of", "index", "sweep")

    def __init__(self, pred: str, sig: tuple, key_of: Callable[[tuple], Any]):
        self.pred, self.sig, self.key_of, self.index = pred, sig, key_of, None

    def register(self, key, consumer: tuple) -> None:
        self.setdefault(key, []).append(consumer)


class Relation(dict):
    """One predicate's leaves, ``{ids: leaf}`` in insertion order, with its
    stratum rank and a tuple of :class:`Table`, one per search signature
    that a query has used, in the order first used.  A partial signature's
    index is built from the leaves when its table opens and gains each tuple
    that first appears later."""

    __slots__ = ("pred", "arity", "rank", "tables")

    def __init__(self, pred: str, arity: int, rank: int):
        self.pred, self.arity, self.rank, self.tables = pred, arity, rank, ()

    def table(self, sig: tuple) -> Table:
        """The signature's table, opened on first use.  Its ``sweep(key)`` is
        a snapshot of the ``(ids, leaf)`` pairs stored under a key, in
        insertion order: all of them for the empty signature, the one leaf
        at the key for the full one, else those its index files under the key."""
        for table in self.tables:
            if table.sig == sig:
                return table
        table = Table(self.pred, sig, _key_of(sig, self.arity))
        if not sig:
            items = self.items
            table.sweep = lambda key: list(items())
        elif len(sig) == self.arity:
            get = self.get
            table.sweep = lambda key: [] if (leaf := get(key)) is None else [(key, leaf)]
        else:
            index = table.index = {}
            for ids in self:
                _file(index, table.key_of(ids), ids)
            table.sweep = lambda key: [(ids, self[ids]) for ids in index.get(key, ())]
        self.tables += (table,)
        return table


class ResultStore:
    """A :class:`Relation` per predicate, from ground tuples of atom ids to
    joined values; compiled steps hold the relations they use.

    Leaves are never bottom and only grow; once a stratum completes, each
    relation of rank up to ``sealed_rank`` is sealed and any growth aborts.
    """

    def __init__(self, lattice: Lattice, arities: dict, ranks: dict,
                 stats: Optional[SolveStats] = None):
        self.lattice = lattice
        self.stats = stats or SolveStats()
        self._relations = {pred: Relation(pred, arity, ranks.get(pred, 0))
                           for pred, arity in arities.items()}
        self.sealed_rank = -1

    def relation(self, pred: str) -> Relation:
        try:
            return self._relations[pred]
        except KeyError:
            raise SolverInvariantError(f"undeclared predicate {pred!r}") from None

    def grower(self, relation: Relation, pending: deque) -> Callable[[tuple, Any, Any], None]:
        """The one way a leaf of the relation grows: ``grow(ids, l, current)``
        joins l into ``current``, the leaf at ids or None when there is none,
        which the caller found l does not lie below.  When l is the join (no
        leaf, or ``current`` below l) l itself is stored, so leaves may share
        value objects with facts, matched values and each other.  A sealed
        relation refuses; a tuple stored for the first time joins every
        index.  If queries wait under its key, the growth is queued on
        ``pending`` with its relation and them, table by table in the order
        first used."""
        store, stats, join, leq = self, self.stats, self.lattice.join, self.lattice.leq

        def grow(ids, l, current):
            if relation.rank <= store.sealed_rank:
                raise SolverInvariantError(
                    f"predicate {relation.pred} of completed stratum {relation.rank} "
                    f"grew at {ids} after sealing")
            consumers = []
            for table in relation.tables:
                key = table.key_of(ids)
                if current is None and table.index is not None:
                    _file(table.index, key, ids)
                waiting = table.get(key)
                if waiting:
                    consumers += waiting
            leaf = relation[ids] = l if current is None or leq(current, l) else join(current, l)
            stats.growths += 1
            if consumers:
                pending.append((relation, consumers, ids, leaf))
        return grow

    def sub(self, pred: str, sig: tuple = (), key=()) -> list[tuple[tuple, Any]]:
        return self.relation(pred).table(sig).sweep(key)

    def drop_tables(self) -> None:
        """Empty every table's waiting map, as waiting queries and their
        continuations refer to each other, and drop the tables; a later
        sweep rebuilds the index it reads."""
        for relation in self._relations.values():
            for table in relation.tables:
                table.clear()
            relation.tables = ()

    def seal_up_to(self, rank: int) -> None:
        self.sealed_rank = max(self.sealed_rank, rank)


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


def _skip(env: list) -> None:
    """The one step of every query that never matches and every empty body."""


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
    ``holes`` maps ``(is atom, constant)`` to slots 0, 1, ..., as
    :func:`ast.validate` numbered them; the caller fills them.

    A query on a relation sealed at compile time reads it in place
    (:meth:`sealed_query`); any other registers and sweeps.  A conjunction
    of assertions with no unbound variable is one step (:meth:`assertions`).
    """

    def __init__(self, engine: "_Engine", holes: dict):
        self.engine, self.lattice, self.universe = engine, engine.lattice, engine.program.universe
        self.atoms = range(len(self.universe))
        self.holes = holes
        self.size = len(holes)
        # id(parts) -> (parts, the names free in each parts[i:]); holding
        # parts keeps its id from being reused while the compiler lives
        self.suffix_names: dict = {}

    def slot(self, lattice: bool = False) -> int:
        s = self.size
        self.size += 2 if lattice else 1
        return s

    def hole(self, atom: bool, c) -> int:
        try:
            return self.holes[atom, c]
        except KeyError:
            raise SolverInvariantError(f"constant {c!r} has no hole") from None

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
            if all(type(c) is Assert and not self.unbound(scope, bound, c.args + (c.value,))
                   for c in cl.parts):
                return self.assertions(cl.parts, scope, bound)
            steps = tuple(filter(None, (self.clause(c, scope, bound) for c in cl.parts)))
            if len(steps) < 2:
                return steps[0] if steps else None

            def conjunction(env):
                for step in steps:
                    step(env)
            return conjunction
        if isinstance(cl, Imply):
            body = cl.body
            step = self.pre(cl.pre, scope, bound, ((body,), 0, None),
                            lambda b: self.clause(body, scope, b) or _skip)
            return None if step is _skip else step
        if isinstance(cl, Forall):
            scope = {**scope, cl.var: self.slot(is_lattice_var(cl.var))}
            return self.clause(cl.body, scope, bound)
        raise SolverInvariantError(f"cannot execute {cl!r}")

    def head(self, a: Assert, scope: dict, bound: frozenset) -> tuple:
        """What an assertion reads and calls: its tuple's reader, its value's
        evaluator, and its relation's ``get`` and growth routine."""
        relation = self.engine.store.relation(a.pred)
        return (_reader(self.args(scope, a.args)), self.evaluator(a.value, scope, bound),
                relation.get, self.engine.grower(relation))

    def assertion(self, a: Assert, scope: dict, bound: frozenset) -> Step:
        ids_of, value, get, grow = self.head(a, scope, bound)
        stats, leq, bottom = self.engine.stats, self.lattice.leq, self.lattice.bottom

        def assert_one(env):  # a candidate at or below its leaf stops here
            stats.candidates += 1
            ids, l = ids_of(env), value(env)
            current = get(ids)
            if not leq(l, bottom if current is None else current):
                grow(ids, l, current)
        return _enumerate(self.unbound(scope, bound, a.args + (a.value,)),
                          self.atoms, assert_one)

    def assertions(self, parts: tuple, scope: dict, bound: frozenset) -> Step:
        """One step running assertions with no unbound variable, in order,
        each as :meth:`assertion` does; each reads its leaf when it runs, so a
        later one on the same tuple sees what an earlier one grew."""
        heads = [self.head(a, scope, bound) for a in parts]
        stats, leq, bottom, n = self.engine.stats, self.lattice.leq, self.lattice.bottom, len(heads)

        def assert_all(env):
            stats.candidates += n
            for ids_of, value, get, grow in heads:
                ids, l = ids_of(env), value(env)
                current = get(ids)
                if not leq(l, bottom if current is None else current):
                    grow(ids, l, current)
        return assert_all

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
            return self.query(p, scope, bound, kc) if self.engine.can_hold(p.pred) else _skip
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
        branches = tuple([b for b in branches if b is not _skip])
        if not branches:
            return _skip

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

        def memo_kc(bound):  # a memo whose branches are all dead reads no names
            if bound not in compiled:
                slots = []
                for name in sorted(self.reads(rest)):
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
        bound argument positions), then sweeps the tuples stored under it; on
        a sealed relation, the step of :meth:`sealed_query`."""
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
        v, bottom, top = q.value, self.lattice.bottom, self.lattice.top
        if isinstance(v, YVar) and v.name not in after and not tests:
            # the match binds 'Y itself, as the matcher's bind would
            y, k = self.lookup(scope, v.name), kc(frozenset(after | {v.name}))
        else:
            y, match_value = None, self.matcher(v, scope, frozenset(after), kc)

        def match(env, ids, l):
            for pos, s in binds:
                env[s] = ids[pos]
            if y is None:
                for pos, s in tests:
                    if ids[pos] != env[s]:
                        return
                match_value(env, l)
            elif l != bottom:
                env[y], env[y + 1] = l, bottom
                k(env)
                env[y] = top
        keys = [slots[pos] for pos in sig]
        key_of = _reader(keys) if len(sig) in (0, len(slots)) else itemgetter(*keys)
        stats, relation = e.stats, e.store.relation(q.pred)
        if relation.rank <= e.store.sealed_rank:
            return self.sealed_query(relation, sig, key_of, match)
        table = relation.table(sig)
        sweep, register = table.sweep, table.register

        def query(env):
            key = key_of(env)
            register(key, (match, env[:]))  # enclosing loops rebind slots after this, so copy once
            swept = sweep(key)
            stats.sweep_invocations += len(swept)
            for ids, l in swept:
                match(env, ids, l)
        return query

    def sealed_query(self, relation: Relation, sig: tuple, key_of, match) -> Step:
        """A query on a sealed relation, which no growth changes again: it
        waits for nothing and reads the leaves in place, counting each one
        matched as a sweep would."""
        stats = self.engine.stats
        if not sig:
            items = relation.items

            def query(env):
                stats.sweep_invocations += len(relation)
                for ids, l in items():
                    match(env, ids, l)
        elif len(sig) == relation.arity:
            get = relation.get

            def query(env):
                ids = key_of(env)
                l = get(ids)
                if l is not None:
                    stats.sweep_invocations += 1
                    match(env, ids, l)
        else:
            index = relation.table(sig).index

            def query(env):
                bucket = index.get(key_of(env), ())
                stats.sweep_invocations += len(bucket)
                for ids in bucket:
                    match(env, ids, relation[ids])
        return query

    def negquery(self, q: NegQuery, scope: dict, bound: frozenset, kc) -> Step:
        complement = self.lattice.complement
        if complement is None:
            raise SolverInvariantError("negative query over a lattice without complement")
        slots = self.unbound(scope, bound, q.args)
        ids_of = _reader(self.args(scope, q.args))
        match = self.matcher(q.value, scope,
                             bound | {t.name for t in q.args if isinstance(t, Var)}, kc)
        get, bottom = self.engine.store.relation(q.pred).get, self.lattice.bottom
        return _enumerate(slots, self.atoms, lambda env: match(
            env, complement(get(ids_of(env), bottom))))

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
            s, k = self.lookup(scope, v.name), kc(bound | {v.name})
            if v.name not in bound:
                def bind(env, l):
                    if l != bottom:
                        env[s], env[s + 1] = l, bottom
                        k(env)
                        env[s] = top
                return bind

            def narrow(env, l):
                old, lower = env[s], env[s + 1]
                met = meet(l, old)
                if met != bottom and leq(lower, met):
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


class _Liveness:
    """The live predicates, those that can ever hold a leaf: each with a fact
    or a stored leaf, and the head of each assertion whose enclosing
    preconditions can hold while only live predicates have leaves.  As in
    Dowling and Gallier's linear-time Horn propagation, a top-level conjunct
    that finds a predicate dead waits in ``readers`` and is examined again
    only when that predicate becomes live."""

    __slots__ = ("live", "readers", "todo", "conjuncts", "current")

    def __init__(self, program: Program, store: ResultStore):
        self.live = {f.pred for f in program.facts}
        self.live.update([pred for pred, leaves in store._relations.items() if leaves])
        self.readers: defaultdict = defaultdict(set)
        self.conjuncts = [c for cl in program.strata
                          for c in (cl.parts if isinstance(cl, And) else (cl,))]
        self.todo = list(reversed(range(len(self.conjuncts))))  # first conjunct first
        while self.todo:
            self.examine(self.todo.pop())

    def examine(self, i: int) -> None:
        self.current = i
        self.clause(self.conjuncts[i])

    def clause(self, cl) -> None:
        t = type(cl)
        if t is Assert and cl.pred not in self.live:
            self.live.add(cl.pred)
            self.todo += self.readers.pop(cl.pred, ())
        elif t is And:
            for c in cl.parts:
                self.clause(c)
        elif t is Forall or (t is Imply and self.holds(cl.pre)):
            self.clause(cl.body)

    def holds(self, p) -> bool:
        """Whether p can hold: a positive query needs a live predicate, a
        conjunction all of its parts, a disjunction one, an existential its
        body; a negative query or an application ``'Y(u)`` always can."""
        t = type(p)
        if t is Query:
            if p.pred in self.live:
                return True
            self.readers[p.pred].add(self.current)
            return False
        if t is And or t is PreOr:  # all parts, or any one
            any_one = t is PreOr
            for q in p.parts:
                if self.holds(q) is any_one:
                    return any_one
            return not any_one
        return self.holds(p.body) if t is Exists else True


class _Engine:
    """Runs a validated program's strata on a store: a fresh one, or a given
    one whose atom ids come from the same universe.  Each relation that
    grows has one growth routine here; a queued growth holds its relation."""

    def __init__(self, program: Program, stats: SolveStats,
                 store: Optional[ResultStore] = None):
        self.program = program
        self.lattice = program.lattice
        self.stats = stats
        self.store = store or ResultStore(self.lattice, program.arities, program.ranks, stats)
        self.pending: deque = deque()
        self.growers: dict = {}
        self.live: Optional[set] = None

    def can_hold(self, pred: str) -> bool:
        """Whether the predicate holds a leaf or is live (computed on the first
        call for an empty relation that is not sealed: a sealed one never
        grows); a query on any other never matches."""
        relation = self.store.relation(pred)
        if relation:
            return True
        if relation.rank <= self.store.sealed_rank:
            return False
        if self.live is None:
            self.live = _Liveness(self.program, self.store).live
        return pred in self.live

    def grower(self, relation: Relation) -> Callable[[tuple, Any, Any], None]:
        """The relation's growth routine, queueing on this engine's worklist,
        made by the store on first use."""
        grow = self.growers.get(relation.pred)
        if grow is None:
            grow = self.growers[relation.pred] = self.store.grower(relation, self.pending)
        return grow

    def _drain(self) -> None:
        """Deliver queued growths, oldest first, until none is left, each by
        running a consumer's match on its environment uncopied, as a sweep
        does (see :class:`_Compiler` for the slots a step restores).  A leaf
        no longer stored is delivered no further: the growth that replaced it
        queued the larger leaf for a superset of the same consumers, and
        matching is monotone in the value."""
        pending, stats = self.pending, self.stats
        while pending:
            relation, consumers, ids, leaf = pending.popleft()
            get = relation.get
            for match, env in consumers:
                if get(ids) is not leaf:
                    break
                stats.consumer_invocations += 1
                match(env, ids, leaf)

    def run_stratum(self, i: int) -> None:
        """Run stratum i (from 0) of the program: each shape that
        :func:`ast.validate` found is compiled once, and each top-level conjunct
        runs it on a fresh environment with its own constants in the holes."""
        cl, (holes, shape_of, consts) = self.program.strata[i], self.program.shapes[i]
        compiled, pending = [None] * len(holes), self.pending
        for conjunct, n, values in zip(cl.parts if type(cl) is And else (cl,),
                                       shape_of, consts):
            if compiled[n] is None:
                compiler = _Compiler(self, holes[n])
                compiled[n] = (compiler.clause(conjunct, {}, frozenset()),
                               (None,) * (compiler.size - len(values)))
            step, free = compiled[n]
            if step is not None:
                step([*values, *free])
                if pending:
                    self._drain()

    def run(self, facts) -> None:
        if facts:  # an atom's id is its universe position; facts grow as candidates do
            store, leq, bottom = self.store, self.lattice.leq, self.lattice.bottom
            atom_ids = {a: i for i, a in enumerate(self.program.universe)}
            for f in facts:
                relation, ids = store.relation(f.pred), tuple([atom_ids[a] for a in f.atoms])
                current = relation.get(ids)
                if not leq(f.value, bottom if current is None else current):
                    self.grower(relation)(ids, f.value, current)
        self.store.seal_up_to(0)
        for i in range(self.program.num_strata):
            self.run_stratum(i)
            self.store.seal_up_to(i + 1)


class SolveResult(Record):
    """Final store of a solve run plus instrumentation."""

    __slots__ = ("program", "store", "stats")

    def __init__(self, program: Program, store: ResultStore, stats: SolveStats):
        self.program = program
        self.store = store
        self.stats = stats

    def leaves(self) -> dict:
        """{pred: {atom tuple: value}} with bottom leaves absent."""
        universe = self.program.universe
        return {
            pred: {tuple([universe[i] for i in ids]): v for ids, v in leaves.items()}
            for pred, leaves in self.store._relations.items()
        }

    def items(self) -> Iterator[tuple[str, tuple, Any]]:
        """(predicate, atom tuple, value), ordered by predicate name and
        tuple of atom ids (universe positions)."""
        universe = self.program.universe
        for pred in sorted(self.store._relations):
            for ids, v in sorted(self.store.relation(pred).items(), key=itemgetter(0)):
                yield pred, tuple([universe[i] for i in ids]), v

    def dump_lines(self) -> list[str]:
        """Deterministic dump: predicate name order, then atom id (universe
        position) tuple order.
        Each atom and each distinct leaf value is rendered once."""
        render = self.program.lattice.render
        names = [render_atom(a) for a in self.program.universe]
        values: dict = {}
        lines = []
        for pred in sorted(self.store._relations):
            for ids, v in sorted(self.store.relation(pred).items(), key=itemgetter(0)):
                text = values.get(v)
                if text is None:
                    text = values[v] = render(v)
                lines.append(f"{pred}({','.join(map(names.__getitem__, ids))}) = {text}")
        return lines


def solve(program: Program) -> SolveResult:
    """Compute the least model of a program above its facts."""
    if program.shapes is None:
        program = ast.validate(program)
    stats = SolveStats()
    engine = _Engine(program, stats)
    try:
        engine.run(program.facts)
    finally:
        engine.store.drop_tables()
        engine.pending.clear()
    return SolveResult(program, engine.store, stats)
