"""Least-model computation by continuation passing with difference propagation.

A solve run executes the strata in order.  Assertions enumerate unifiable
candidate tuples, join them into per-predicate prefix trees, and on strict
growth resume the consumers registered by positive queries.  Negative queries
match against the complemented current value, which stratification has made
final.  Each relation leaf holds the join of everything asserted for its
tuple; an absent leaf reads as bottom.

A run mutates its stores reentrantly and is single-threaded; distinct runs
are independent, and a finished result is safe to share.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Iterator, Optional

from . import ast
from .errors import SolverInvariantError, ValidationError
from .lattices import Lattice, render_atom
from .ast import (Apply, Assert, ClauseAnd, Const, ExistsX, ExistsY,
                  FnApp, ForallX, ForallY, Imply, LitConst, NegQuery, PreAnd,
                  PreOr, Program, Query, Repr, TrueClause, Var, YVar,
                  clause_vars, pre_vars)

_MIN_RECURSION = 20_000


class Env:
    """Immutable partial environment: variable name -> optional binding.

    Universe variables map to atoms, lattice variables (apostrophe-prefixed
    names) to non-bottom lattice values; ``None`` marks a declared but still
    unbound variable.  Lookups of undeclared variables are errors.
    """

    __slots__ = ("_m",)

    def __init__(self, mapping=None):
        self._m = {} if mapping is None else mapping

    @staticmethod
    def empty() -> "Env":
        return Env()

    def declared(self, name: str) -> bool:
        return name in self._m

    def get(self, name: str):
        try:
            return self._m[name]
        except KeyError:
            raise SolverInvariantError(f"variable {name!r} is not in scope") from None

    def declare(self, name: str) -> "Env":
        m = dict(self._m)
        m[name] = None
        return Env(m)

    def bind(self, name: str, value) -> "Env":
        if name not in self._m:
            raise SolverInvariantError(f"variable {name!r} is not in scope")
        m = dict(self._m)
        m[name] = value
        return Env(m)

    def remove(self, name: str) -> "Env":
        m = dict(self._m)
        m.pop(name, None)
        return Env(m)

    def key(self, names=None) -> tuple:
        """Hashable snapshot, optionally restricted to the given names."""
        if names is None:
            items = self._m.items()
        else:
            items = ((n, self._m[n]) for n in names if n in self._m)
        return tuple(sorted(items, key=lambda kv: kv[0]))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Env({self._m!r})"


# --- unification --------------------------------------------------------------


def unify_tuple(env: Env, args: tuple, atoms: tuple) -> Optional[Env]:
    """Componentwise match of argument terms against ground atoms.

    Constants and bound variables must equal the atom, unbound variables
    become bound; returns None on mismatch.
    """
    if len(args) != len(atoms):
        raise SolverInvariantError("arity mismatch in unification")
    for t, a in zip(args, atoms):
        if isinstance(t, Const):
            if t.atom != a:
                return None
        else:
            bound = env.get(t.name)
            if bound is None:
                env = env.bind(t.name, a)
            elif bound != a:
                return None
    return env


def unify_lattice(lattice: Lattice, universe: tuple, env: Env, value, l) -> list[Env]:
    """Match a lattice term against a lattice value, yielding extended envs.

    A bound lattice variable narrows to the meet (failing on bottom), an
    unbound one binds to the value (if non-bottom), a described term requires
    its description to lie below the value (enumerating the atom when the
    term is unbound), and a constant requires containment.
    """
    if isinstance(value, YVar):
        current = env.get(value.name)
        if current is not None:
            met = lattice.meet(l, current)
            if met == lattice.bottom:
                return []
            return [env.bind(value.name, met)]
        if l == lattice.bottom:
            return []
        return [env.bind(value.name, l)]
    if isinstance(value, Repr):
        t = value.term
        if isinstance(t, Const):
            return [env] if lattice.leq(lattice.represent(t.atom), l) else []
        bound = env.get(t.name)
        if bound is not None:
            return [env] if lattice.leq(lattice.represent(bound), l) else []
        return [env.bind(t.name, a) for a in universe if lattice.leq(lattice.represent(a), l)]
    if isinstance(value, LitConst):
        return [env] if lattice.leq(value.value, l) else []
    raise SolverInvariantError(f"cannot unify against lattice term {value!r}")


def unify(lattice: Lattice, universe: tuple, env: Env, args: tuple, value,
          atoms: tuple, l) -> list[Env]:
    """Full match of (args; value) against a ground tuple (atoms; l)."""
    env2 = unify_tuple(env, args, atoms)
    if env2 is None:
        return []
    return unify_lattice(lattice, universe, env2, value, l)


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

    def atom(self, i: int):
        return self._atoms[i]

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
        if self.arity == 0:
            return node
        for i in ids[:-1]:
            node = node.get(i)
            if node is None:
                return None
        return node.get(ids[-1])

    def set(self, ids: tuple, value) -> None:
        if self.arity == 0:
            self.root = value
            return
        node = self.root
        for i in ids[:-1]:
            node = node.setdefault(i, {})
        node[ids[-1]] = value

    def items(self, prefix: tuple = ()) -> Iterator[tuple[tuple, Any]]:
        """Leaves under the given prefix, in insertion order."""

        def walk(node, depth, path):
            if depth == self.arity:
                if node is not None:
                    yield path, node
                return
            for i, child in node.items():
                yield from walk(child, depth + 1, path + (i,))

        node = self.root
        for depth, i in enumerate(prefix):
            if self.arity == 0 or node is None:
                return
            node = node.get(i)
            if node is None:
                return
        yield from walk(node, len(prefix), tuple(prefix))


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
        return {
            "growths": self.growths,
            "consumer_invocations": self.consumer_invocations,
            "sweep_invocations": self.sweep_invocations,
            "candidates": self.candidates,
            "redundant_adds": self.redundant_adds,
        }


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

    def add(self, pred: str, ids: tuple, l) -> tuple[bool, Any]:
        """Join l into the leaf; returns (strictly grew, new leaf value)."""
        if l == self.lattice.bottom:
            raise SolverInvariantError("bottom is never stored")
        current = self.current(pred, ids)
        joined = self.lattice.join(current, l)
        if joined == current:
            self.stats.redundant_adds += 1
            return False, current
        if self.ranks.get(pred, 0) <= self._sealed_rank:
            raise SolverInvariantError(
                f"predicate {pred} of completed stratum {self.ranks.get(pred, 0)} "
                f"grew at {ids} after sealing")
        self.tree(pred).set(ids, joined)
        self.stats.record_growth(pred)
        return True, joined

    def sub(self, pred: str, prefix: tuple = ()) -> Iterator[tuple[tuple, Any]]:
        yield from self.tree(pred).items(prefix)

    def seal_up_to(self, rank: int) -> None:
        self._sealed_rank = max(self._sealed_rank, rank)

    def sealed(self, pred: str) -> bool:
        return self.ranks.get(pred, 0) <= self._sealed_rank

    def leaves(self) -> dict:
        """Plain nested dict of the whole store, keyed by interned ids."""
        return {pred: dict(tree.items()) for pred, tree in self._trees.items()}


Consumer = Callable[[tuple, Any], None]


class ConsumerStore:
    """Registered continuations, prefix-indexed per predicate.

    A growth at a tuple is delivered to every consumer whose registration
    prefix matches; consumers registered during a delivery are picked up by
    subsequent growths (registration separately sweeps the existing store).
    """

    def __init__(self):
        self._by_pred: dict[str, dict[tuple, list]] = {}

    def register(self, pred: str, prefix: tuple, consumer: Consumer) -> None:
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


# --- the engine ---------------------------------------------------------------


class _Engine:
    def __init__(self, program: Program, stats: SolveStats):
        if program.ranks is None:
            raise ValidationError("program must be validated before solving")
        self.program = program
        self.lattice = program.lattice
        self.registry = program.registry
        self.universe = program.universe
        self.table = AtomTable(program.universe)
        self.stats = stats
        self.store = ResultStore(self.lattice, program.arities, program.ranks, stats)
        self.infl = ConsumerStore()

    # -- candidate enumeration (assertions and negative queries)

    def _unbound_xvars(self, env: Env, args: tuple, value=None) -> list[str]:
        seen: list[str] = []

        def note(name):
            if env.get(name) is None and name not in seen:
                seen.append(name)

        for t in args:
            if isinstance(t, Var):
                note(t.name)
        if value is not None:
            def walk(v):
                if isinstance(v, Repr) and isinstance(v.term, Var):
                    note(v.term.name)
                elif isinstance(v, FnApp):
                    for a in v.args:
                        walk(a)
            walk(value)
        return seen

    def _ground_args(self, env: Env, args: tuple) -> tuple:
        out = []
        for t in args:
            if isinstance(t, Const):
                out.append(t.atom)
            else:
                out.append(env.get(t.name))
        return tuple(out)

    def eval_value(self, env: Env, value):
        """Lattice component of a candidate under a (partially) extended env:
        unbound lattice variables read as top."""
        if isinstance(value, YVar):
            bound = env.get(value.name)
            return self.lattice.top if bound is None else bound
        if isinstance(value, Repr):
            t = value.term
            atom = t.atom if isinstance(t, Const) else env.get(t.name)
            return self.lattice.represent(atom)
        if isinstance(value, FnApp):
            return self.registry.apply(value.name, tuple(self.eval_value(env, a)
                                                         for a in value.args))
        if isinstance(value, LitConst):
            return value.value
        raise SolverInvariantError(f"cannot evaluate lattice term {value!r}")

    def unifiable(self, env: Env, args: tuple, value) -> Iterator[tuple[tuple, Any]]:
        """Candidate ground tuples: unbound argument variables range over the
        universe, and the lattice component is evaluated under each extension
        so described terms track the atom actually chosen."""
        names = self._unbound_xvars(env, args, value)
        for combo in product(self.universe, repeat=len(names)):
            env2 = env
            for name, atom in zip(names, combo):
                env2 = env2.bind(name, atom)
            yield self._ground_args(env2, args), self.eval_value(env2, value)

    # -- execute / check

    def execute(self, cl, env: Env) -> None:
        if isinstance(cl, Assert):
            for atoms, l in self.unifiable(env, cl.args, cl.value):
                self.stats.candidates += 1
                ids = self.table.ids(atoms)
                if self.store.has(cl.pred, ids, l):
                    continue
                grew, leaf = self.store.add(cl.pred, ids, l)
                if grew:
                    self._broadcast(cl.pred, ids, atoms, leaf)
        elif isinstance(cl, TrueClause):
            pass
        elif isinstance(cl, ClauseAnd):
            self.execute(cl.left, env)
            self.execute(cl.right, env)
        elif isinstance(cl, Imply):
            needed = frozenset.union(*clause_vars(cl.body))
            self.check(cl.pre, lambda e: self.execute(cl.body, e), env, needed)
        elif isinstance(cl, ForallX):
            self.execute(cl.body, env.declare(cl.var))
        elif isinstance(cl, ForallY):
            self.execute(cl.body, env.declare(cl.yvar))
        else:
            raise SolverInvariantError(f"cannot execute {cl!r}")

    def _broadcast(self, pred: str, ids: tuple, atoms: tuple, leaf) -> None:
        for consumer in self.infl.matching(pred, ids):
            consumer(atoms, leaf)

    def check(self, pre, next_fn, env: Env, needed: frozenset) -> None:
        if isinstance(pre, Query):
            self._check_query(pre, next_fn, env)
        elif isinstance(pre, NegQuery):
            self._check_negquery(pre, next_fn, env)
        elif isinstance(pre, Apply):
            self._check_apply(pre, next_fn, env)
        elif isinstance(pre, PreAnd):
            rx, ry = pre_vars(pre.right)
            self.check(pre.left,
                       lambda e: self.check(pre.right, next_fn, e, needed),
                       env, needed | rx | ry)
        elif isinstance(pre, PreOr):
            seen: set = set()

            def memo_next(e: Env):
                k = e.key(needed)
                if k in seen:
                    return
                seen.add(k)
                next_fn(e)

            self.check(pre.left, memo_next, env, needed)
            self.check(pre.right, memo_next, env, needed)
        elif isinstance(pre, (ExistsX, ExistsY)):
            var = pre.var if isinstance(pre, ExistsX) else pre.yvar
            seen = set()

            def memo_removed(e: Env):
                e2 = e.remove(var)
                k = e2.key(needed)
                if k in seen:
                    return
                seen.add(k)
                next_fn(e2)

            self.check(pre.body, memo_removed, env.declare(var), needed)
        else:
            raise SolverInvariantError(f"cannot check {pre!r}")

    def _check_query(self, pre: Query, next_fn, env: Env) -> None:
        rec = self.stats.new_consumer(pre.pred)
        lattice, universe = self.lattice, self.universe

        def consume(atoms: tuple, l, sweep: bool = False) -> None:
            if sweep:
                rec.sweep_invocations += 1
                self.stats.sweep_invocations += 1
            else:
                rec.delivery_invocations += 1
                self.stats.consumer_invocations += 1
            for e in unify(lattice, universe, env, pre.args, pre.value, atoms, l):
                next_fn(e)

        prefix = self._ground_prefix(env, pre.args)
        if not self.store.sealed(pre.pred):
            self.infl.register(pre.pred, prefix, consume)
        for ids, leaf in list(self.store.sub(pre.pred, prefix)):
            consume(self.table.atoms(ids), leaf, sweep=True)

    def _ground_prefix(self, env: Env, args: tuple) -> tuple:
        prefix = []
        for t in args:
            if isinstance(t, Const):
                prefix.append(self.table.id(t.atom))
            else:
                bound = env.get(t.name)
                if bound is None:
                    break
                prefix.append(self.table.id(bound))
        return tuple(prefix)

    def _check_negquery(self, pre: NegQuery, next_fn, env: Env) -> None:
        complement = self.lattice.complement
        if complement is None:
            raise SolverInvariantError("negative query over a lattice without complement")
        names = self._unbound_xvars(env, pre.args)
        for combo in product(self.universe, repeat=len(names)):
            env2 = env
            for name, atom in zip(names, combo):
                env2 = env2.bind(name, atom)
            atoms = self._ground_args(env2, pre.args)
            leaf = self.store.current(pre.pred, self.table.ids(atoms))
            c = complement(leaf)
            for e in unify(self.lattice, self.universe, env2, pre.args, pre.value,
                           atoms, c):
                next_fn(e)

    def _check_apply(self, pre: Apply, next_fn, env: Env) -> None:
        env2 = env if env.get(pre.yvar) is not None else env.bind(pre.yvar, self.lattice.top)
        bound_val = env2.get(pre.yvar)

        def hit(atom, e: Env):
            if self.lattice.leq(self.lattice.represent(atom), bound_val):
                next_fn(e)

        t = pre.term
        if isinstance(t, Const):
            hit(t.atom, env2)
            return
        bound = env2.get(t.name)
        if bound is not None:
            hit(bound, env2)
            return
        for atom in self.universe:
            hit(atom, env2.bind(t.name, atom))

    # -- top level

    def load_facts(self, facts) -> None:
        for f in facts:
            if f.value == self.lattice.bottom:
                continue
            ids = self.table.ids(f.atoms)
            if not self.store.has(f.pred, ids, f.value):
                self.store.add(f.pred, ids, f.value)

    def snapshot_rank(self, rank: int) -> None:
        self.stats.stratum_snapshots[rank] = {
            pred: dict(self.store.sub(pred))
            for pred, r in self.program.ranks.items() if r == rank
        }

    def run(self, facts) -> None:
        self.load_facts(facts)
        self.snapshot_rank(0)
        self.store.seal_up_to(0)
        for i, cl in enumerate(self.program.strata, 1):
            self.execute(cl, Env.empty())
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
            for ids, v in sorted(self.store.sub(pred), key=lambda kv: kv[0]):
                yield pred, self.table.atoms(ids), v

    def dump_lines(self) -> list[str]:
        """Deterministic dump: predicate name order, interned tuple order."""
        lattice = self.program.lattice
        return [
            f"{pred}({','.join(render_atom(a) for a in atoms)}) = {lattice.render(v)}"
            for pred, atoms, v in self.items()
        ]

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
    return SolveResult(program, engine.store, engine.table, stats)


def _merge_facts(facts, overrides) -> tuple:
    if not overrides:
        return tuple(facts)
    merged = {(f.pred, f.atoms): f for f in facts}
    for f in overrides:
        merged[(f.pred, f.atoms)] = f
    return tuple(merged.values())
