"""Least-model computation: each stratum is compiled once into closures,
then run by continuation passing with difference propagation.

Compiling fixes each variable's slot in a list environment (universe
variables hold interned atom ids, lattice variables values), constant ids,
the argument positions that bind or compare, the variables keying each
disjunction or existential memo and an evaluator per lattice term; a clause
conjunction becomes a flat tuple of steps.  Running joins assertion
candidates into per-predicate prefix trees over atom ids and delivers each
strict growth to the consumers that positive queries registered under a
matching prefix; negative queries read the complement of final values.  A
lattice variable also carries a lower bound, the join of the descriptions
``'Y(u)`` checked it against; narrowing it by meet below that bound fails.
Leaves are never bottom; atoms reappear only in :class:`SolveResult`.

A run mutates its stores reentrantly and is single-threaded; distinct runs
are independent, and a finished result is safe to share.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from . import ast
from .errors import SolverInvariantError, ValidationError
from .lattices import Lattice, render_atom
from .ast import (Apply, Assert, ClauseAnd, Const, ExistsX, ExistsY,
                  FnApp, ForallX, ForallY, Imply, LitConst, NegQuery, PreAnd,
                  PreOr, Program, Query, Repr, TrueClause, Var, YVar)

_MIN_RECURSION = 20_000


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


class PrefixTree:
    """Radix tree over interned atom ids; leaves hold lattice values."""

    __slots__ = ("arity", "root")

    def __init__(self, arity: int):
        self.arity = arity
        self.root: Any = {} if arity else None

    def get(self, ids: tuple):
        node = self.root
        for i in ids:
            if node is None:
                return None
            node = node.get(i)
        return node

    def set(self, ids: tuple, value) -> None:
        if self.arity == 0:
            self.root = value
            return
        node = self.root
        for i in ids[:-1]:
            node = node.setdefault(i, {})
        node[ids[-1]] = value

    def items(self, prefix: tuple = ()) -> list[tuple[tuple, Any]]:
        """Leaves under the given prefix, in insertion order."""
        node = self.get(prefix)
        if node is None:
            return []
        level = [(tuple(prefix), node)]
        for _ in range(self.arity - len(prefix)):
            level = [(path + (i,), child) for path, inner in level
                     for i, child in inner.items()]
        return level


@dataclass
class ConsumerRecord:
    """Per-consumer instrumentation for the difference-propagation bound."""

    pred: str
    growths_at_registration: int
    sweep_invocations: int = 0
    delivery_invocations: int = 0


@dataclass
class SolveStats:
    """Instrumentation counters for one solve run."""

    growths: int = 0
    growths_per_pred: dict = field(default_factory=dict)
    consumer_invocations: int = 0
    sweep_invocations: int = 0
    candidates: int = 0
    redundant_adds: int = 0
    consumers: list = field(default_factory=list)
    stratum_snapshots: dict = field(default_factory=dict)

    def record_growth(self, pred: str) -> None:
        self.growths += 1
        self.growths_per_pred[pred] = self.growths_per_pred.get(pred, 0) + 1

    def new_consumer(self, pred: str) -> ConsumerRecord:
        rec = ConsumerRecord(pred, self.growths_per_pred.get(pred, 0))
        self.consumers.append(rec)
        return rec

    def propagation_bound_holds(self) -> bool:
        """Every consumer was invoked at most once per post-registration growth
        plus once per swept tuple."""
        for rec in self.consumers:
            after = self.growths_per_pred.get(rec.pred, 0) - rec.growths_at_registration
            if rec.delivery_invocations > after:
                return False
        return True

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in (
            "growths", "consumer_invocations", "sweep_invocations", "candidates",
            "redundant_adds")}


class ResultStore:
    """Per-predicate prefix trees mapping ground tuples to joined values.

    Leaves are never bottom and only grow; once a stratum completes, the
    leaves of its predicates are sealed and any further growth aborts.
    """

    def __init__(self, lattice: Lattice, arities: dict, ranks: dict,
                 stats: Optional[SolveStats] = None):
        self.lattice = lattice
        self.ranks = ranks
        self.stats = stats or SolveStats()
        self._trees = {pred: PrefixTree(arities[pred]) for pred in arities}
        self._sealed_rank = -1

    def tree(self, pred: str) -> PrefixTree:
        try:
            return self._trees[pred]
        except KeyError:
            raise SolverInvariantError(f"undeclared predicate {pred!r}") from None

    def current(self, pred: str, ids: tuple):
        leaf = self.tree(pred).get(ids)
        return self.lattice.bottom if leaf is None else leaf

    def has(self, pred: str, ids: tuple, l) -> bool:
        return self.lattice.leq(l, self.current(pred, ids))

    def raise_leaf(self, pred: str, ids: tuple, l):
        """Join l into the leaf; the new leaf if it strictly grew, else None."""
        tree, lattice = self.tree(pred), self.lattice
        current = tree.get(ids)
        if current is None:
            current = lattice.bottom
        if lattice.leq(l, current):
            return None
        if self.sealed(pred):
            raise SolverInvariantError(
                f"predicate {pred} of completed stratum {self.ranks.get(pred, 0)} "
                f"grew at {ids} after sealing")
        joined = lattice.join(current, l)
        tree.set(ids, joined)
        self.stats.record_growth(pred)
        return joined

    def add(self, pred: str, ids: tuple, l) -> tuple[bool, Any]:
        """Join l into the leaf; returns (strictly grew, new leaf value)."""
        if l == self.lattice.bottom:
            raise SolverInvariantError("bottom is never stored")
        leaf = self.raise_leaf(pred, ids, l)
        if leaf is None:
            self.stats.redundant_adds += 1
            return False, self.current(pred, ids)
        return True, leaf

    def sub(self, pred: str, prefix: tuple = ()) -> list[tuple[tuple, Any]]:
        return self.tree(pred).items(prefix)

    def seal_up_to(self, rank: int) -> None:
        self._sealed_rank = max(self._sealed_rank, rank)

    def sealed(self, pred: str) -> bool:
        return self.ranks.get(pred, 0) <= self._sealed_rank


class ConsumerStore:
    """Registered continuations, prefix-indexed per predicate.

    A growth at a tuple is delivered to every consumer whose registration
    prefix matches; consumers registered during a delivery are picked up by
    subsequent growths (registration separately sweeps the existing store).
    """

    def __init__(self):
        self._by_pred: dict[str, dict[tuple, list]] = {}

    def register(self, pred: str, prefix: tuple, consumer: Callable) -> None:
        self._by_pred.setdefault(pred, {}).setdefault(prefix, []).append(consumer)

    def matching(self, pred: str, ids: tuple) -> list:
        """Snapshot of the consumers whose prefix matches the tuple."""
        per = self._by_pred.get(pred)
        if not per:
            return []
        out = []
        for plen in range(len(ids) + 1):
            out.extend(per.get(ids[:plen], ()))
        return out

    def clear(self) -> None:
        self._by_pred.clear()


# --- compilation --------------------------------------------------------------

Step = Callable[[list], None]


def _reader(parts: list) -> Callable[[list], tuple]:
    """Tuple of ``(slot, constant)`` parts: the slot's value, or the constant
    where the slot is None."""
    if len(parts) > 1 and all(s is not None for s, _ in parts):
        return itemgetter(*[s for s, _ in parts])
    return lambda env: tuple([c if s is None else env[s] for s, c in parts])


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
    its own, a lattice variable's lower bound in the next one.  Steps write
    unbound slots freely and restore the bound slots they narrow.
    """

    def __init__(self, engine: "_Engine"):
        self.engine, self.lattice, self.universe = engine, engine.lattice, engine.program.universe
        self.atoms = range(len(self.universe))
        self.size = 0
        self.lattice_slots: set = set()

    def slot(self, lattice: bool = False) -> int:
        s = self.size
        self.size += 2 if lattice else 1
        if lattice:
            self.lattice_slots.add(s)
        return s

    @staticmethod
    def lookup(scope: dict, name: str) -> int:
        try:
            return scope[name]
        except KeyError:
            raise SolverInvariantError(f"variable {name!r} is not in scope") from None

    def args(self, scope: dict, args: tuple) -> list:
        """(slot, None) per variable argument, (None, id) per constant."""
        return [(None, self.engine.table.id(t.atom)) if isinstance(t, Const)
                else (self.lookup(scope, t.name), None) for t in args]

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
        if isinstance(cl, ClauseAnd):
            steps = tuple(filter(None, (self.clause(c, scope, bound) for c in cl.parts)))
            if len(steps) < 2:
                return steps[0] if steps else None

            def conjunction(env):
                for step in steps:
                    step(env)
            return conjunction
        if isinstance(cl, Imply):
            body = cl.body
            return self.pre(cl.pre, scope, bound, (body,),
                            lambda b: self.clause(body, scope, b) or (lambda env: None))
        if isinstance(cl, (ForallX, ForallY)):
            y = isinstance(cl, ForallY)
            scope = {**scope, cl.yvar if y else cl.var: self.slot(y)}
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
        if isinstance(v, (YVar, LitConst)):
            const = v.value if isinstance(v, LitConst) else self.lattice.top
            return lambda env: const
        if isinstance(v, Repr) and isinstance(v.term, Const):
            atom = v.term.atom
            return lambda env: represent(atom)
        if isinstance(v, Repr):
            s = self.lookup(scope, v.term.name)
            return lambda env: represent(universe[env[s]])
        if isinstance(v, FnApp):
            fn = self.engine.program.registry.function(v.name, len(v.args))
            args = [self.evaluator(a, scope, bound) for a in v.args]
            return lambda env: fn(*[a(env) for a in args])
        raise SolverInvariantError(f"cannot evaluate lattice term {v!r}")

    def pre(self, p, scope: dict, bound: frozenset, rest: tuple,
            kc: Callable[[frozenset], Step]) -> Step:
        """Step checking a precondition; each match runs ``kc(bound')``, the
        continuation compiled for the variables bound after the match.
        ``rest`` holds the nodes after p, whose variables the continuation reads."""
        if isinstance(p, Query):
            return self.query(p, scope, bound, kc)
        if isinstance(p, NegQuery):
            return self.negquery(p, scope, bound, kc)
        if isinstance(p, Apply):
            return self.apply(p, scope, bound, kc)
        if isinstance(p, PreAnd):
            tail = p.parts[1:]
            later = tail[0] if len(tail) == 1 else PreAnd(tail)
            return self.pre(p.parts[0], scope, bound, tail + rest,
                            lambda b: self.pre(later, scope, b, rest, kc))
        memo = self.slot()
        if isinstance(p, PreOr):
            kc = self.memo(memo, scope, rest, kc)
            branches = tuple([self.pre(q, scope, bound, rest, kc) for q in p.parts])
        elif isinstance(p, (ExistsX, ExistsY)):
            y = isinstance(p, ExistsY)
            name = p.yvar if y else p.var
            inner = {**scope, name: self.slot(y)}
            branches = (self.pre(p.body, inner, bound, rest, self.memo(
                memo, scope, rest, lambda b: kc(b - {name}))),)
        else:
            raise SolverInvariantError(f"cannot check {p!r}")

        def memoized(env):
            env[memo] = set()
            for branch in branches:
                branch(env)
        return memoized

    def memo(self, memo: int, scope: dict, rest: tuple, kc):
        """``kc`` behind a filter that passes each binding of the variables of
        ``rest``, with the lower bounds of its lattice variables, once per entry."""
        compiled: dict = {}
        needed = sorted(frozenset().union(*map(ast.free_names, rest)))

        def memo_kc(bound):
            if bound not in compiled:
                parts = []
                for name in needed:
                    s = self.lookup(scope, name)
                    width = 2 if s in self.lattice_slots else 1
                    parts += [(s + j if name in bound else None, None) for j in range(width)]
                key, k = _reader(parts), kc(bound)

                def once(env):
                    seen, kv = env[memo], key(env)
                    if kv not in seen:
                        seen.add(kv)
                        k(env)
                compiled[bound] = once
            return compiled[bound]
        return memo_kc

    def query(self, q: Query, scope: dict, bound: frozenset, kc) -> Step:
        """Registers a consumer under the prefix of constant and bound
        arguments, then sweeps the tuples already stored under it."""
        e = self.engine
        parts = self.args(scope, q.args)
        plen = 0
        while plen < len(parts) and (parts[plen][0] is None or q.args[plen].name in bound):
            plen += 1
        binds, tests, after = [], [], set(bound)
        for pos in range(plen, len(parts)):  # the store matched the prefix
            s, const = parts[pos]
            if s is not None and q.args[pos].name not in after:
                binds.append((pos, s))
                after.add(q.args[pos].name)
            else:
                tests.append((pos, s, const))
        match_value = self.matcher(q.value, scope, frozenset(after), kc)

        def match(env, ids, l):
            for pos, s in binds:
                env[s] = ids[pos]
            for pos, s, const in tests:
                if ids[pos] != (const if s is None else env[s]):
                    return
            match_value(env, l)
        prefix_of = _reader(parts[:plen])
        pred, stats, sub = q.pred, e.stats, e.store.sub
        new_consumer, register = stats.new_consumer, e.infl.register
        live = not e.store.sealed(pred)

        def query(env):
            rec = new_consumer(pred)
            prefix = prefix_of(env)
            if live:
                snapshot = env[:]

                def deliver(ids, l):
                    rec.delivery_invocations += 1
                    stats.consumer_invocations += 1
                    match(snapshot[:], ids, l)
                register(pred, prefix, deliver)
            for ids, l in sub(pred, prefix):
                rec.sweep_invocations += 1
                stats.sweep_invocations += 1
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


class _Engine:
    def __init__(self, program: Program, stats: SolveStats):
        if program.ranks is None:
            raise ValidationError("program must be validated before solving")
        self.program = program
        self.lattice = program.lattice
        self.table = AtomTable(program.universe)
        self.stats = stats
        self.store = ResultStore(self.lattice, program.arities, program.ranks, stats)
        self.infl = ConsumerStore()

    def _broadcast(self, pred: str, ids: tuple, leaf) -> None:
        for consumer in self.infl.matching(pred, ids):
            consumer(ids, leaf)

    def run_stratum(self, cl) -> None:
        """Compile each top-level conjunct once and run it on a fresh
        environment; queries of predicates sealed by now register no consumers."""
        for conjunct in cl.parts if isinstance(cl, ClauseAnd) else (cl,):
            compiler = _Compiler(self)
            step = compiler.clause(conjunct, {}, frozenset())
            if step is not None:
                step([None] * compiler.size)

    def snapshot_rank(self, rank: int) -> None:
        self.stats.stratum_snapshots[rank] = {
            pred: dict(self.store.sub(pred))
            for pred, r in self.program.ranks.items() if r == rank
        }

    def run(self, facts) -> None:
        for f in facts:
            self.store.raise_leaf(f.pred, self.table.ids(f.atoms), f.value)
        self.snapshot_rank(0)
        self.store.seal_up_to(0)
        for i, cl in enumerate(self.program.strata, 1):
            self.run_stratum(cl)
            self.snapshot_rank(i)
            self.store.seal_up_to(i)


@dataclass
class SolveResult:
    """Final store of a solve run plus instrumentation."""

    program: Program
    store: ResultStore
    table: AtomTable
    stats: SolveStats

    def value(self, pred: str, atoms: tuple):
        return self.store.current(pred, self.table.ids(atoms))

    def leaves(self) -> dict:
        """{pred: {atom tuple: value}} with bottom leaves absent."""
        return {
            pred: {self.table.atoms(ids): v for ids, v in tree.items()}
            for pred, tree in self.store._trees.items()
        }

    def items(self) -> Iterator[tuple[str, tuple, Any]]:
        """(predicate, atom tuple, value), ordered by predicate name and
        interned tuple."""
        for pred in sorted(self.store._trees):
            for ids, v in sorted(self.store.sub(pred), key=itemgetter(0)):
                yield pred, self.table.atoms(ids), v

    def dump_lines(self) -> list[str]:
        """Deterministic dump: predicate name order, interned tuple order.
        Each atom and each distinct leaf value is rendered once."""
        render = self.program.lattice.render
        names = [render_atom(a) for a in self.table._atoms]
        values: dict = {}
        lines = []
        for pred in sorted(self.store._trees):
            for ids, v in sorted(self.store.sub(pred), key=itemgetter(0)):
                text = values.get(v)
                if text is None:
                    text = values[v] = render(v)
                lines.append(f"{pred}({','.join([names[i] for i in ids])}) = {text}")
        return lines

    def stratum_isolation_holds(self) -> bool:
        """Leaves of each rank are unchanged since their stratum completed."""
        for rank, snap in self.stats.stratum_snapshots.items():
            for pred, leaves in snap.items():
                if dict(self.store.sub(pred)) != leaves:
                    return False
        return True


def solve(program: Program, fact_overrides=None) -> SolveResult:
    """Compute the least model of a validated program above its facts."""
    if program.ranks is None:
        ast.validate(program)
    stats = SolveStats()
    engine = _Engine(program, stats)
    limit = sys.getrecursionlimit()
    # the engine recurses per delivery; raise the limit for this run only
    sys.setrecursionlimit(max(limit, _MIN_RECURSION))
    try:
        engine.run(_merge_facts(program.facts, fact_overrides))
    finally:
        sys.setrecursionlimit(limit)
        # consumers and their continuations refer to each other; drop them
        engine.infl.clear()
    return SolveResult(program, engine.store, engine.table, stats)


def _merge_facts(facts, overrides) -> tuple:
    if not overrides:
        return tuple(facts)
    merged = {(f.pred, f.atoms): f for f in facts}
    for f in overrides:
        merged[(f.pred, f.atoms)] = f
    return tuple(merged.values())
