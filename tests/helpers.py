"""Shared test utilities: independent brute-force oracles, an observer of
solve runs, a driver that compiles one clause outside a stratum, and
fixtures.

Everything here recomputes expected values from first principles (set
denotations, exhaustive enumeration, representative integers, bounded
concrete execution of program graphs) so the tests stay independent of the
code paths they check; the solve audit records what the engine does from
outside it.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from latlog import ast, solver
from latlog.analysis import Assign, BinOp, BoolTest, Operand, ProgramGraph
from latlog.lattices import IntervalValue, sign_of
from latlog.parser import parse_clauses
from latlog.solver import ResultStore, SolveStats, Table, _Engine, solve

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def sample(name: str) -> str:
    return (SAMPLES / name).read_text()


def run_pipeline(text: str):
    """parse -> validate -> solve, as ``latlog solve`` runs; returns (program, result)."""
    program = ast.validate(parse_clauses(text))
    return program, solve(program)


# --- interval denotations -------------------------------------------------------


def denote(iv: IntervalValue, window: range) -> frozenset:
    """Integers of the window inside the interval (window wider than the grid,
    so infinite and finite endpoints stay distinguishable)."""
    return frozenset(z for z in window if iv.contains(z))


def denotation_window(zvalues) -> range:
    return range(min(zvalues) - 3, max(zvalues) + 4)


def covering_interval(values, make):
    """Smallest interval containing all the given integers (the brute-force
    image of an exact operation)."""
    values = list(values)
    return make(min(values), max(values))


# --- lattice-law checking -------------------------------------------------------


def check_lattice_laws(lattice, atoms=()):
    """Exhaustive order/bound/lub/glb/complement/representation laws."""
    elems = list(lattice.enumerate_elements())
    leq, join, meet = lattice.leq, lattice.join, lattice.meet
    for a in elems:
        assert leq(a, a), f"not reflexive at {a!r}"
        assert leq(lattice.bottom, a) and leq(a, lattice.top), f"bounds fail at {a!r}"
    for a in elems:
        for b in elems:
            if leq(a, b) and leq(b, a):
                assert a == b, f"not antisymmetric at {a!r}, {b!r}"
            j, m = join(a, b), meet(a, b)
            assert leq(a, j) and leq(b, j), f"join not an upper bound: {a!r} {b!r}"
            assert leq(m, a) and leq(m, b), f"meet not a lower bound: {a!r} {b!r}"
            if lattice.complement is not None and leq(a, b):
                assert leq(lattice.complement(b), lattice.complement(a)), \
                    f"complement not anti-monotone at {a!r} <= {b!r}"
    for a in elems:
        for b in elems:
            for c in elems:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c), f"not transitive at {a!r},{b!r},{c!r}"
                if leq(a, c) and leq(b, c):
                    assert leq(join(a, b), c), f"join not least at {a!r},{b!r},{c!r}"
                if leq(c, a) and leq(c, b):
                    assert leq(c, meet(a, b)), f"meet not greatest at {a!r},{b!r},{c!r}"
    for atom in atoms:
        assert lattice.represent(atom) != lattice.bottom, \
            f"atom {atom!r} represented as bottom"


# --- sign brute force -----------------------------------------------------------

SIGN_REPS = {"-": (-4, -3, -2, -1), "0": (0,), "+": (1, 2, 3, 4)}
_PY_OP = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b}


def brute_sign_transfer(op: str, s1: frozenset, s2: frozenset) -> frozenset:
    """Signs reachable by applying the operation to representative integers."""
    out = set()
    for g1 in s1:
        for g2 in s2:
            for a in SIGN_REPS[g1]:
                for b in SIGN_REPS[g2]:
                    out.add(sign_of(_PY_OP[op](a, b)))
    return frozenset(out)


def all_sign_sets():
    signs = ("-", "0", "+")
    sets = [frozenset()]
    for s in signs:
        sets += [e | {s} for e in sets]
    return sets


def signs_of_interval(iv: IntervalValue) -> frozenset:
    """Sign abstraction of an interval value."""
    if iv.is_empty:
        return frozenset()
    out = set()
    if iv.lo < 0:
        out.add("-")
    if iv.lo <= 0 <= iv.hi:
        out.add("0")
    if iv.hi > 0:
        out.add("+")
    return frozenset(out)


# --- independent stratification verifier ----------------------------------------


def independent_rank_check(program: ast.Program, ranks: dict) -> bool:
    """Re-checks the three rank conditions by a direct walk, independently of
    the assignment computation."""

    def atoms_of_pre(p, pos, neg):
        if isinstance(p, ast.Query):
            pos.append(p.pred)
        elif isinstance(p, ast.NegQuery):
            neg.append(p.pred)
        elif isinstance(p, (ast.And, ast.PreOr)):
            for q in p.parts:
                atoms_of_pre(q, pos, neg)
        elif isinstance(p, ast.Exists):
            atoms_of_pre(p.body, pos, neg)

    def walk(cl, i):
        if isinstance(cl, ast.Assert):
            if ranks.get(cl.pred) != i:
                return False
        elif isinstance(cl, ast.And):
            return all(walk(c, i) for c in cl.parts)
        elif isinstance(cl, ast.Imply):
            pos, neg = [], []
            atoms_of_pre(cl.pre, pos, neg)
            if any(ranks.get(p, 0) > i for p in pos):
                return False
            if any(ranks.get(p, 0) >= i for p in neg):
                return False
            return walk(cl.body, i)
        elif isinstance(cl, ast.Forall):
            return walk(cl.body, i)
        return True

    return all(walk(cl, i) for i, cl in enumerate(program.strata, 1))


# --- solve audit ----------------------------------------------------------------


@dataclass
class ConsumerRecord:
    """One registered consumer: the growths of its predicate before it was
    registered, and the deliveries it has received since."""

    pred: str
    growths_at_registration: int
    delivery_invocations: int = 0


@dataclass
class SolveAudit:
    """What :func:`audit` saw of the solves run inside it."""

    growths_per_pred: dict = field(default_factory=dict)
    consumers: list = field(default_factory=list)
    stratum_snapshots: dict = field(default_factory=dict)


@contextmanager
def audit():
    """Observe the engine from outside while the block runs, by wrapping
    ``ResultStore.raise_leaf`` (growths per predicate), ``Table.register``,
    which files a waiting query in its relation's table for one search
    signature (one record per consumer, counting its deliveries by wrapping
    the match of its ``(match, env)`` pair), and ``ResultStore.seal_up_to``
    (a copy of the leaves of the rank being sealed).  Wrap one solve per
    block."""
    seen = SolveAudit()
    raise_leaf, register, seal_up_to = (
        ResultStore.raise_leaf, Table.register, ResultStore.seal_up_to)

    def counted_raise_leaf(store, relation, ids, l):
        leaf = raise_leaf(store, relation, ids, l)
        if leaf is not None:
            pred = relation.pred
            seen.growths_per_pred[pred] = seen.growths_per_pred.get(pred, 0) + 1
        return leaf

    def recorded_register(table, key, consumer):
        rec = ConsumerRecord(table.pred, seen.growths_per_pred.get(table.pred, 0))
        seen.consumers.append(rec)

        match, env = consumer

        def counted(env, ids, leaf):
            rec.delivery_invocations += 1
            match(env, ids, leaf)
        register(table, key, (counted, env))

    def snapshot_seal_up_to(store, rank):
        seen.stratum_snapshots[rank] = {
            pred: dict(store.sub(pred))
            for pred, relation in store._relations.items() if relation.rank == rank}
        seal_up_to(store, rank)

    ResultStore.raise_leaf = counted_raise_leaf
    Table.register = recorded_register
    ResultStore.seal_up_to = snapshot_seal_up_to
    try:
        yield seen
    finally:
        ResultStore.raise_leaf = raise_leaf
        Table.register = register
        ResultStore.seal_up_to = seal_up_to


def propagation_bound_holds(seen: SolveAudit) -> bool:
    """Every consumer was delivered at most once per growth of its predicate
    after its registration."""
    for rec in seen.consumers:
        after = seen.growths_per_pred.get(rec.pred, 0) - rec.growths_at_registration
        if rec.delivery_invocations > after:
            return False
    return True


def stratum_isolation_holds(seen: SolveAudit, result) -> bool:
    """Leaves of each rank are unchanged since their stratum completed."""
    for snap in seen.stratum_snapshots.values():
        for pred, leaves in snap.items():
            if dict(result.store.sub(pred)) != leaves:
                return False
    return True


def recheck(result) -> SolveStats:
    """Check that a finished result is a model of its program: seal every
    rank, then run the facts and each stratum once more on an engine that
    shares the store.  Every query now only sweeps the final leaves, so a
    rule instance whose head the store does not yet satisfy grows a sealed
    leaf, which raises ``SolverInvariantError``.  Returns the counters of
    that run.  This shows a model, not the least one: a leaf raised too high
    passes, so leastness stays with ``oracle.naive_fixpoint``."""
    program = result.program
    result.store.seal_up_to(len(program.strata))
    engine = _Engine(program, SolveStats(), result.store)
    engine.run(program.facts)
    return engine.stats


# --- compiling one clause outside a stratum -------------------------------------


class FreshHoles(dict):
    """A compiler's holes map for a clause that validation did not number:
    each constant gets a slot of ``compiler`` when it is first met."""

    compiler = None

    def __missing__(self, key):
        s = self[key] = self.compiler.slot()
        return s


def fresh_compiler(engine):
    """A compiler whose holes are a :class:`FreshHoles` map."""
    holes = FreshHoles()
    holes.compiler = solver._Compiler(engine, holes)
    return holes.compiler


def env(compiler) -> list:
    """A fresh environment whose hole slots hold their constants, an atom as
    its universe position."""
    universe, env = compiler.universe, [None] * compiler.size
    for (atom, c), s in compiler.holes.items():
        env[s] = universe.index(c) if atom else c
    return env


def run_clause(engine, cl) -> None:
    """Compile a clause into one step and run it on a fresh environment, as
    the engine runs a stratum's lone conjunct."""
    compiler = fresh_compiler(engine)
    step = compiler.clause(cl, {}, frozenset())
    if step is not None:
        step(env(compiler))
        engine._drain()


# --- misc -----------------------------------------------------------------------


def program_fingerprint(program: ast.Program):
    """Structure of a program for round-trip comparison (the lattice handle
    holds closures, so it is compared by its description)."""
    return (
        program.lattice.kind,
        program.lattice.atoms,
        program.lattice.zvalues,
        program.strata,
        program.facts,
        tuple(sorted(program.arities.items())),
        program.universe,
        program.declared_funs,
    )


def conjuncts(pre) -> list:
    out = []

    def flatten(p):
        if isinstance(p, ast.And):
            for q in p.parts:
                flatten(q)
        else:
            out.append(p)

    flatten(pre)
    return out


def all_tuples(universe, arity):
    return [tuple(t) for t in product(universe, repeat=arity)]


# --- bounded concrete execution ------------------------------------------------

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def _eval_operand(o: Operand, store: dict) -> int:
    return o if isinstance(o, int) else store[o]


def concrete_reachable(graph: ProgramGraph, initial_store: dict,
                       max_steps: int = 1000, max_configs: int = 200_000) -> set:
    """(state, variable, value) triples reachable within the step bound."""
    start = (graph.initial, tuple(sorted(initial_store.items())))
    frontier = [start]
    visited = {start}
    reached = {(graph.initial, v, n) for v, n in initial_store.items()}
    for _ in range(max_steps):
        if not frontier or len(visited) > max_configs:
            break
        nxt = []
        for state, items in frontier:
            store = dict(items)
            for edge in graph.edges:
                if edge.src != state:
                    continue
                action = edge.action
                if isinstance(action, Assign):
                    rhs = action.rhs
                    if isinstance(rhs, BinOp):
                        value = _ARITH[rhs.op](_eval_operand(rhs.left, store),
                                               _eval_operand(rhs.right, store))
                    else:
                        value = _eval_operand(rhs, store)
                    new_store = dict(store)
                    new_store[action.target] = value
                elif isinstance(action, BoolTest):
                    if not _CMP[action.op](_eval_operand(action.left, store),
                                           _eval_operand(action.right, store)):
                        continue
                    new_store = store
                else:
                    new_store = store
                config = (edge.dst, tuple(sorted(new_store.items())))
                if config not in visited:
                    visited.add(config)
                    nxt.append(config)
                    reached.update((edge.dst, v, n) for v, n in new_store.items())
        frontier = nxt
    return reached


def initial_stores(graph: ProgramGraph, values: Iterable[int]) -> list[dict]:
    """All assignments of the given start values to the graph's variables."""
    stores = [dict()]
    for v in graph.variables:
        stores = [{**s, v: n} for s in stores for n in values]
    return stores
