"""Compiled unification, stores, consumers, and whole solve runs."""

import copy
import gc
import pickle
import re
import sys
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latlog import ast, cli, solver
from latlog.analysis import analysis_program, parse_program_graph
from latlog.ast import (Apply, Assert, Const, Forall, Imply, LitConst, PreOr,
                        Query, Repr, TrueClause, Var, YVar,
                        reorder_preconditions, validate)
from latlog.errors import SolverInvariantError, StratificationError
from latlog.lattices import powerset_lattice
from latlog.parser import parse_clauses
from latlog.solver import ResultStore, SolveStats, Table, _Compiler, _Engine, solve
import latlog.oracle as oracle

import helpers
import reference_semantics as semantics

LAT2 = powerset_lattice(("a", "b"))
A, B, AB, BOT = frozenset("a"), frozenset("b"), frozenset("ab"), frozenset()
# Each relation has a fact, so it is live and a query on it compiles in
# full; the tests below never load the facts, so the store starts empty.
RELS = ("lattice powerset {a,b}\nrel R/1\nrel R2/2\nrel F/0\n"
        "fact R(a) = {a}\nfact R2(a,a) = {a}\nfact F() = {a}\nclause 1")


def engine_for(text):
    program = validate(parse_clauses(text))
    return _Engine(program, SolveStats()), program


def ids_of(solved, atoms):
    """The atom ids, universe positions, of an engine or a result."""
    return tuple(solved.program.universe.index(a) for a in atoms)


def atoms_of(solved, ids):
    return tuple(solved.program.universe[i] for i in ids)


def compiled(engine, bindings, build):
    """Compile with the variables of ``bindings`` in scope, bound to the given
    atom or lattice value (None leaves one unbound).  ``build(compiler, scope,
    bound, record)`` returns the step; ``record`` is the continuation that
    appends the bindings it sees, {name: atom or value}, to the returned list.
    The environment holds the constants in their hole slots, which
    :class:`helpers.FreshHoles` gives them as they are met."""
    compiler = helpers.fresh_compiler(engine)
    scope = {n: compiler.slot(ast.is_lattice_var(n)) for n in bindings}
    seen = []

    def record(after):
        def k(env):
            seen.append({n: env[s] if ast.is_lattice_var(n) else atoms_of(engine, (env[s],))[0]
                         for n, s in scope.items() if n in after})
        return k
    bound = frozenset(n for n, v in bindings.items() if v is not None)
    step = build(compiler, scope, bound, record)
    env = helpers.env(compiler)
    for n, v in bindings.items():
        if v is not None and ast.is_lattice_var(n):
            env[scope[n]], env[scope[n] + 1] = v, engine.lattice.bottom
        elif v is not None:
            env[scope[n]] = ids_of(engine, (v,))[0]
    return step, env, seen


def check(engine, pre, bindings, needed=()):
    """Bindings seen by each continuation call of one run of a precondition."""
    rest = (tuple(YVar(n) if ast.is_lattice_var(n) else Var(n) for n in needed), 0, None)
    step, env, seen = compiled(engine, bindings, lambda c, scope, bound, k:
                               c.pre(pre, scope, bound, rest, k))
    step(env)
    return seen


def deliver(pre, bindings, atoms, l, text=RELS):
    """Bindings that one delivery of (atoms; l) to a compiled query yields."""
    engine, _ = engine_for(text)
    step, env, seen = compiled(engine, bindings, lambda c, scope, bound, k:
                               c.pre(pre, scope, bound, None, k))
    step(env)  # registers the consumer; the store is empty, so nothing is swept
    # the growth routine itself, past the check that stops a bottom value
    relation = engine.store.relation(pre.pred)
    engine.store.grower(relation, engine.pending)(ids_of(engine, atoms), l, None)
    engine._drain()
    return seen


def asserted(engine, cl, bindings):
    """(atoms, value) leaves in insertion order after running one assertion."""
    step, env, _ = compiled(engine, bindings, lambda c, scope, bound, k:
                            c.clause(cl, scope, bound))
    step(env)
    return [(atoms_of(engine, ids), v) for ids, v in engine.store.sub(cl.pred)]


# --- tuple unification ------------------------------------------------------------


def test_unify_tuple_binds_unbound_variable():
    envs = deliver(Query("R", (Var("x"),), YVar("'Y")), {"x": None, "'Y": None}, ("a",), A)
    assert envs[0]["x"] == "a"


def test_unify_tuple_rejects_conflicting_binding():
    assert deliver(Query("R", (Var("x"),), YVar("'Y")),
                   {"x": "a", "'Y": None}, ("b",), A) == []


def test_unify_tuple_constant_self_match():
    q = Query("R", (Const("a"),), YVar("'Y"))
    assert len(deliver(q, {"'Y": None}, ("a",), A)) == 1
    assert deliver(q, {"'Y": None}, ("b",), A) == []


def test_unify_tuple_threads_repeated_variable():
    q = Query("R2", (Var("x"), Var("x")), YVar("'Y"))
    assert deliver(q, {"x": None, "'Y": None}, ("a", "b"), A) == []
    envs = deliver(q, {"x": None, "'Y": None}, ("a", "a"), A)
    assert envs[0]["x"] == "a"


# --- lattice unification ------------------------------------------------------------


def flag(value):
    return Query("F", (), value)


def test_unify_lattice_binds_unbound_variable():
    envs = deliver(flag(YVar("'Y")), {"'Y": None}, (), A)
    assert [e["'Y"] for e in envs] == [A]


def test_unify_lattice_unbound_variable_rejects_bottom():
    assert deliver(flag(YVar("'Y")), {"'Y": None}, (), BOT) == []


def test_unify_lattice_bound_variable_meets():
    envs = deliver(flag(YVar("'Y")), {"'Y": AB}, (), A)
    assert [e["'Y"] for e in envs] == [A]


def test_unify_lattice_bound_variable_empty_meet_fails():
    assert deliver(flag(YVar("'Y")), {"'Y": A}, (), B) == []


def test_unify_lattice_description_of_unbound_enumerates():
    envs = deliver(flag(Repr(Var("x"))), {"x": None}, (), A)
    assert [e["x"] for e in envs] == ["a"]


def test_unify_lattice_description_of_bound_checks_containment():
    assert deliver(flag(Repr(Var("x"))), {"x": "a"}, (), B) == []
    assert deliver(flag(Repr(Var("x"))), {"x": "a"}, (), AB) == [{"x": "a"}]


def test_unify_lattice_constant_requires_containment():
    assert deliver(flag(LitConst(A)), {}, (), AB) == [{}]
    assert deliver(flag(LitConst(AB)), {}, (), A) == []


# --- combined unification -----------------------------------------------------------


def test_unify_binds_both_components():
    envs = deliver(Query("R", (Var("x"),), YVar("'Y")), {"x": None, "'Y": None},
                   ("a",), A)
    assert len(envs) == 1
    assert envs[0]["x"] == "a"
    assert envs[0]["'Y"] == A


def test_unify_constant_mismatch_fails_before_lattice():
    assert deliver(Query("R", (Const("a"),), YVar("'Y")), {"'Y": None},
                   ("b",), A) == []


def test_unify_description_not_below_value_fails():
    assert deliver(Query("R", (Var("x"),), Repr(Var("x"))), {"x": None},
                   ("a",), B) == []


# --- candidate enumeration ----------------------------------------------------------


def test_unifiable_correlates_description_with_atom():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    got = asserted(engine, Assert("R", (Var("x"),), Repr(Var("x"))), {"x": None})
    assert got == [(("a",), frozenset("a")), (("b",), frozenset("b"))]


def test_unifiable_bound_variables_fix_candidates():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    got = asserted(engine, Assert("R", (Var("x"),), YVar("'Y")),
                   {"x": "a", "'Y": frozenset("b")})
    assert got == [(("a",), frozenset("b"))]


def test_unifiable_unbound_lattice_variable_reads_top():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    got = asserted(engine, Assert("R", (Var("x"),), YVar("'Y")), {"'Y": None, "x": "a"})
    assert got == [(("a",), frozenset(("a", "b")))]


def test_unifiable_function_terms_evaluate_per_candidate():
    engine, program = engine_for(
        "lattice interval zmin=0 zmax=3\nfun f_add/2\nrel R/1\n"
        "fact B(2) = [2,2]\nclause 1")
    mk = program.lattice.make_interval
    got = asserted(engine, Assert("R", (Var("x"),), ast.FnApp(
        "f_add", (Repr(Var("x")), LitConst(mk(1, 1))))), {"x": 2})
    assert got == [((2,), mk(3, 3))]


# --- stores ---------------------------------------------------------------------------


def store2(arities=None, ranks=None):
    arities = arities or {"R": 1}
    ranks = ranks or {p: 1 for p in arities}
    return ResultStore(LAT2, arities, ranks)


def test_store_insert_lookup_sweep():
    x, y, z = frozenset("a"), frozenset("b"), frozenset("ab")
    t = store2({"R": 2})
    assert t.sub("R", (0,), 0) == []  # builds the index while the store is empty
    helpers.grow(t, "R", (0, 1), x)
    helpers.grow(t, "R", (0, 2), y)
    helpers.grow(t, "R", (1, 1), z)
    assert t.relation("R").get((0, 2)) == y
    assert t.relation("R").get((2, 2)) is None
    assert list(t.sub("R")) == [((0, 1), x), ((0, 2), y), ((1, 1), z)]
    assert list(t.sub("R", (0,), 0)) == [((0, 1), x), ((0, 2), y)]
    assert list(t.sub("R", (0, 1), (1, 1))) == [((1, 1), z)]
    # an index on any positions; the one built early was kept up to date
    assert t.relation("R").table((0,)).index == {0: ((0, 1), (0, 2)), 1: ((1, 1),)}
    assert list(t.sub("R", (1,), 1)) == [((0, 1), x), ((1, 1), z)]
    assert list(t.sub("R", (1,), 0)) == []
    # a bucket past eight tuples becomes a list and keeps the order
    for i in range(3, 12):
        helpers.grow(t, "R", (0, i), x)
    assert t.relation("R").table((0,)).index[0] == [(0, i) for i in range(1, 12)]
    assert [ids for ids, _ in t.sub("R", (0,), 0)] == [(0, i) for i in range(1, 12)]


def test_store_zero_arity():
    t = store2({"F": 0})
    assert list(t.sub("F")) == []
    helpers.grow(t, "F", (), A)
    assert t.relation("F").get(()) == A
    assert list(t.sub("F")) == [((), A)]


def has(store, pred, ids, l):
    """The leaf at ``ids`` lies at or above ``l``."""
    return store.lattice.leq(l, store.relation(pred).get(ids, store.lattice.bottom))


def test_store_first_insert_grows():
    s = store2()
    assert not has(s, "R", (0,), frozenset("a"))
    leaf = helpers.grow(s, "R", (0,), frozenset("a"))
    assert leaf is not None and leaf == frozenset("a")
    assert has(s, "R", (0,), frozenset("a"))


def test_store_join_merges_leaf():
    s = store2()
    helpers.grow(s, "R", (0,), frozenset("a"))
    leaf = helpers.grow(s, "R", (0,), frozenset("b"))
    assert leaf is not None and leaf == frozenset(("a", "b"))
    assert has(s, "R", (0,), frozenset(("a", "b")))
    assert helpers.grow(s, "R", (0,), frozenset("a")) is None


def test_store_absent_leaf_reads_bottom():
    s = store2()
    assert not has(s, "R", (1,), frozenset("a"))
    assert has(s, "R", (1,), frozenset())  # bottom is below everything


def test_store_rejects_growth_after_seal():
    s = store2()
    helpers.grow(s, "R", (0,), frozenset("a"))
    s.seal_up_to(1)
    with pytest.raises(SolverInvariantError, match="completed stratum"):
        helpers.grow(s, "R", (1,), frozenset("a"))
    with pytest.raises(SolverInvariantError, match="completed stratum"):
        helpers.grow(s, "R", (0,), frozenset("b"))
    # non-growing joins stay no-ops
    assert helpers.grow(s, "R", (0,), frozenset("a")) is None
    assert list(s.sub("R")) == [((0,), frozenset("a"))]


def test_compiled_assertion_cannot_grow_a_sealed_relation():
    # R is a base relation, rank 0: a compiled assertion fills it before
    # rank 0 is sealed, and afterwards may only assert what R already holds
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    helpers.run_clause(engine, Assert("R", (Const("a"),), LitConst(A)))
    engine.store.seal_up_to(0)
    for atom, value in (("a", A), ("a", BOT), ("b", BOT)):  # at or below the leaf
        helpers.run_clause(engine, Assert("R", (Const(atom),), LitConst(value)))
    assert engine.stats.growths == 1 and engine.stats.candidates == 4
    assert list(engine.store.sub("R")) == [(ids_of(engine, ("a",)), A)]
    for atom, value in (("a", B), ("b", A)):
        with pytest.raises(SolverInvariantError, match="completed stratum 0"):
            helpers.run_clause(engine, Assert("R", (Const(atom),), LitConst(value)))
    assert list(engine.store.sub("R")) == [(ids_of(engine, ("a",)), A)]


@pytest.mark.parametrize("stored", [True, False])
def test_rerunning_a_sealed_stratum_cannot_regrow_a_lowered_or_removed_leaf(stored):
    # a compiled assertion that finds T's leaf lowered grows a stored leaf,
    # and one that finds it removed stores a tuple for the first time; the
    # growth routine refuses both once T's stratum is sealed
    engine, program = engine_for(
        "lattice powerset {a,b}\nrel E/2\nfact E(n0,n1) = {a,b}\nfact E(n1,n2) = {b}\n"
        "clause forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y)")
    engine.run(program.facts)
    rank, ids = program.ranks["T"], ids_of(engine, ("n0", "n1"))
    assert engine.store.sealed_rank == rank
    relation = engine.store.relation("T")
    if stored:
        relation[ids] = A
    else:
        del relation[ids]
    growths = engine.stats.growths
    with pytest.raises(SolverInvariantError, match=re.escape(
            f"predicate T of completed stratum {rank} grew at {ids} after sealing")):
        engine.run_stratum(program.num_strata - 1)
    assert engine.stats.growths == growths
    assert relation.get(ids) == (A if stored else None)


def test_atom_ids_are_universe_positions():
    engine, _ = engine_for("lattice powerset {a}\nrel R/1\n"
                           "fact R(c) = {a}\nfact R(a) = {a}\nfact R(b) = {a}\nclause 1")
    assert ids_of(engine, ("a", "b", "c")) == (0, 1, 2)
    assert atoms_of(engine, (2, 0)) == ("c", "a")
    engine.run(engine.program.facts)  # facts load in order, each at its atoms' positions
    assert list(engine.store.relation("R")) == [(2,), (0,), (1,)]


# --- consumers ------------------------------------------------------------------------


def test_consumer_signature_matching_and_snapshot():
    engine, _ = engine_for(RELS)
    relation = engine.store.relation("R2")
    seen = []

    def record(env, atoms, v):
        seen.append((env[0], atoms))

    def waiting(ids):  # each growth stores a new tuple
        helpers.grow(engine.store, "R2", ids, A, engine.pending)
        return engine.pending.pop()[1]
    relation.table(()).register((), (record, ["any"]))
    relation.table((0,)).register(0, (record, ["p0"]))
    relation.table((1,)).register(5, (record, ["s5"]))
    relation.table((0, 1)).register((0, 5), (record, ["both"]))
    for match, env in waiting((0, 5)):
        match(env, ("a", "f"), None)
    assert seen == [("any", ("a", "f")), ("p0", ("a", "f")), ("s5", ("a", "f")),
                    ("both", ("a", "f"))]
    seen.clear()
    for match, env in waiting((1, 5)):
        match(env, ("b", "f"), None)
    assert seen == [("any", ("b", "f")), ("s5", ("b", "f"))]
    seen.clear()
    for match, env in waiting((1, 6)):
        match(env, ("b", "g"), None)
    assert seen == [("any", ("b", "g"))]


def test_growth_invokes_each_consumer_once():
    text = ("lattice powerset {a,b}\n"
            "clause forall x. forall 'Y. R(x;'Y) => S(x;'Y),\n"
            "       forall x. forall 'Y. R(x;'Y) => T(x;'Y)")
    # R's fact, never loaded, makes R live, so the queries compile
    program = validate(parse_clauses(
        text.replace("clause", "rel R/1\nfact R(b) = {b}\nclause", 1)))
    engine = _Engine(program, SolveStats())
    for i in range(program.num_strata):  # register consumers without sealing strata
        engine.run_stratum(i)
    assert engine.stats.consumer_invocations == 0
    leaf = helpers.grow(engine.store, "R", (0,), frozenset("a"), engine.pending)
    assert leaf is not None
    engine._drain()
    assert engine.stats.consumer_invocations == 2
    assert has(engine.store, "S", (0,), frozenset("a"))
    assert has(engine.store, "T", (0,), frozenset("a"))


def test_non_growing_add_triggers_no_consumers():
    program, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    stats = result.stats
    assert stats.redundant_adds >= 0
    # replay a non-growing add against the finished store with a spy consumer
    engine = _Engine(program, SolveStats())
    engine.run(program.facts)
    calls = []
    engine.store.relation("E").table(()).register(
        (), (lambda env, ids, v: calls.append(ids), []))
    ids = ids_of(engine, ("a",))
    assert has(engine.store, "E", ids, frozenset("a"))
    # a compiled assertion skips non-growing candidates before broadcasting
    helpers.run_clause(engine, ast.Assert("E", (Const("a"),), LitConst(frozenset("a"))))
    assert calls == []


# --- compiled clauses and preconditions --------------------------------------------


def test_execute_assert_constant_top():
    engine, _ = engine_for("lattice powerset {q0,v}\nrel A/2\nclause 1")
    helpers.run_clause(engine, ast.Assert("A", (Const("q0"), Const("v")),
                                          LitConst(engine.lattice.top)))
    assert engine.store.relation("A").get(ids_of(engine, ("q0", "v"))) == \
        engine.lattice.top


def test_execute_unit_is_noop():
    engine, _ = engine_for("lattice powerset {a}\nrel R/1\nclause 1")
    helpers.run_clause(engine, ast.TrueClause())
    assert list(engine.store.sub("R")) == []
    assert engine.stats.growths == 0


def test_execute_forall_described_atoms():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    helpers.run_clause(engine, Forall("x", Assert("R", (Var("x"),), Repr(Var("x")))))
    leaves = {atoms_of(engine, ids): v for ids, v in engine.store.sub("R")}
    assert leaves == {("a",): frozenset("a"), ("b",): frozenset("b")}


def test_check_apply_unbound_variable_reads_top():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    seen = check(engine, Apply("'Y", Var("x")), {"'Y": None, "x": "a"}, ("'Y",))
    assert [e["'Y"] for e in seen] == [engine.lattice.top]


def test_check_apply_filters_atoms_by_description():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    seen = check(engine, Apply("'Y", Var("x")), {"'Y": frozenset("a"), "x": None})
    assert [e["x"] for e in seen] == ["a"]


def test_check_disjunction_memoizes_duplicate_environments():
    engine, _ = engine_for("lattice powerset {a}\nrel R/1\nclause 1")
    helpers.grow(engine.store, "R", (0,), frozenset("a"))
    q = Query("R", (Var("x"),), Repr(Var("x")))
    seen = check(engine, PreOr((q, q)), {"x": None}, ("x",))
    assert [e["x"] for e in seen] == ["a"]


def test_check_exists_removes_variable_and_memoizes():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/2\nclause 1")
    helpers.grow(engine.store, "R", (0, 0), frozenset("a"))
    helpers.grow(engine.store, "R", (0, 1), frozenset("a"))
    q = Query("R", (Var("x"), Var("w")), LitConst(frozenset("a")))
    seen = check(engine, ast.Exists("w", q), {"x": None}, ("x",))
    # two witnesses for w collapse to one continuation call, w out of scope
    assert [(e["x"], "w" in e) for e in seen] == [("a", False)]


def test_compiling_a_chain_of_memos_is_linear(monkeypatch):
    # each memo needs the names the rest of the chain reads; finding them
    # once per part keeps the free_names calls linear in the chain's length
    calls = []
    free_names = ast.free_names
    monkeypatch.setattr(ast, "free_names", lambda node: calls.append(1) or free_names(node))

    def calls_to_solve(parts):
        chain = " & ".join(["(exists z. R(x;[x]) | S(x;[x]))"] * parts)
        program = validate(parse_clauses(
            "lattice powerset {a}\nrel R/1\nrel S/1\nrel T/1\nfact R(a) = {a}\n"
            f"clause forall x. {chain} => T(x;[x])"))
        calls.clear()
        assert solve(program).dump_lines() == ["R(a) = {a}", "T(a) = {a}"]
        return len(calls)

    assert calls_to_solve(80) <= 2.2 * calls_to_solve(40)


# --- one compiled step per rule shape --------------------------------------------


@pytest.fixture
def compiles(monkeypatch):
    """One entry per step compiled from here on: each step has its own compiler."""
    made = []

    class Counting(_Compiler):
        def __init__(self, *args):
            made.append(None)
            super().__init__(*args)
    monkeypatch.setattr(solver, "_Compiler", Counting)
    return made


# Each stratum's conjuncts share shapes that differ in one respect; the
# consumers registered first see their growths only by delivery.
SHARED_SHAPES = {
    "atom constants": (
        "lattice powerset {a,b,c}\nrel E/2\nfact E(a,b) = {a}\nfact E(b,c) = {b,c}\n"
        "clause (forall 'Y. R(b;'Y) => S(c;'Y)) & (forall 'Y. R(c;'Y) => S(a;'Y))"
        " & (forall 'Y. E(a,b;'Y) => R(b;'Y)) & (forall 'Y. E(b,c;'Y) => R(c;'Y))", 2),
    "binder names": (
        "lattice powerset {a,b,c}\nrel E/2\nfact E(a,b) = {a}\nfact E(b,c) = {c}\n"
        "clause (forall x. forall y. forall 'Y. T(x,y;'Y) => U(y,x;'Y))"
        " & (forall y. forall x. forall 'W. T(y,x;'W) => U(x,y;'W))"
        " & (forall x. forall y. forall 'Y. T(x,y;'Y) => V(x,y;'Y))"
        " & (forall u. forall v. forall 'Y. E(u,v;'Y) => T(u,v;'Y))", 3),
    "a repeated constant against two distinct ones": (
        "lattice powerset {a,b}\nrel E/2\n"
        "fact E(a,a) = {a}\nfact E(a,b) = {b}\nfact E(b,b) = {a}\n"
        "clause (forall 'Y. T(a,a;'Y) => R(a;'Y)) & (forall 'Y. T(a,b;'Y) => R(b;'Y))"
        " & (forall 'Y. T(b,b;'Y) => R(b;'Y))"
        " & (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))", 3),
    "lattice literals": (
        "lattice powerset {a,b,c}\nrel E/1\nfact E(a) = {a,b}\nfact E(b) = {c}\n"
        "clause (forall x. R(x;{a}) => S(x;{b,c})) & (forall x. R(x;{c}) => S(x;{a}))"
        " & (forall x. E(x;{a,b}) => R(x;{a})) & (forall x. E(x;{c}) => R(x;{c,a}))", 2),
    "interval literals": (
        "lattice interval zmin=0 zmax=9\nfun f_add/2\nrel A/1\nfact A(p) = [1,2]\n"
        "clause (forall 'i. B(q;'i) => C(q;f_add('i,[1,1])))"
        " & (forall 'i. B(r;'i) => C(r;f_add('i,[3,3])))"
        " & (forall 'i. A(p;'i) => B(q;f_add('i,[0,1])))"
        " & (forall 'i. A(p;'i) => B(r;f_add('i,[2,2])))", 2),
    "constant descriptions": (
        "lattice powerset {a,b,c}\nrel E/2\nfact E(a,b) = {b}\nfact E(b,c) = {a}\n"
        "clause (R(a;[a]) => S(a;[b])) & (R(b;[b]) => S(b;[c])) & (R(c;[a]) => S(c;[a]))"
        " & (forall x. forall y. forall 'Y. E(x,y;'Y) => R(y;'Y))", 3),
    "a constant before a variable in a query prefix": (
        "lattice powerset {a,b,c}\nrel E/2\n"
        "fact E(a,b) = {a}\nfact E(b,c) = {b}\nfact E(a,c) = {c}\n"
        "clause (forall x. forall 'Y. T(a,x;'Y) => S(x;'Y))"
        " & (forall x. forall 'Y. T(b,x;'Y) => S(x;'Y))"
        " & (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))", 2),
}


@pytest.mark.parametrize("text, steps", SHARED_SHAPES.values(), ids=SHARED_SHAPES)
def test_conjuncts_of_one_shape_share_a_step_and_match_naive(text, steps, compiles):
    program = validate(parse_clauses(text))
    assert cli.run_compare(program).lines == ["identical"]
    assert len(compiles) == steps


def ring_graph(states: int) -> str:
    return "\n".join([
        "initial q0", *(f"state q{i}" for i in range(1, states)), "var x", "var y",
        *(f"q{i} -> q{i + 1} : {v} := {v} + 1" for i, v in zip(range(states - 1), cycle("xy"))),
        f"q{states - 1} -> q0 : skip"])


@pytest.mark.parametrize("states", [1000, 2000])
def test_ring_analysis_compiles_four_steps(states, compiles):
    # initial, increment, frame copy and skip: the ring's length adds none
    report = cli.run_analyze(ring_graph(states), "intervals", 0, 5)
    assert len(report.lines) == 2 * states
    assert len(compiles) == 4


def chain(n: int, backward: bool) -> str:
    """Reachability along the edges n0 -> n1 -> ... from n0, or back to
    every node from the last one."""
    rule = ("R(n{last};{{+}}) & (forall x. forall y. forall 'Y. R(y;'Y) & E(x,y;'Y) => R(x;'Y))"
            if backward else
            "R(n0;{{+}}) & (forall x. forall y. R(x;{{+}}) & E(x,y;{{+}}) => R(y;{{+}}))")
    return "\n".join(["lattice signs", *(f"fact E(n{i},n{i + 1}) = {{+}}" for i in range(n - 1)),
                      "clause " + rule.format(last=n - 1)])


@pytest.mark.parametrize("n", [1000, 4000])
def test_backward_reachability_sweeps_each_edge_once(n):
    # R(y;'Y) binds E's second argument only; the index on that position
    # finds the one edge into y, where a key of leading bound arguments
    # swept all of E on every growth of R, about n * n sweeps
    program, result = helpers.run_pipeline(chain(n, backward=True))
    assert len(result.leaves()["R"]) == n
    assert result.stats.sweep_invocations <= 2 * result.stats.growths


def test_join_on_a_last_argument_matches_naive():
    text = ("lattice powerset {a,b}\nrel P/2\n"
            "fact P(c,d) = {a}\nfact P(e,d) = {b}\nfact P(c,e) = {a,b}\nfact P(d,e) = {b}\n"
            "clause forall x. forall y. forall z. forall 'Y. forall 'Z."
            " P(x,z;'Y) & P(y,z;'Z) => Q(x,y;'Y)")
    report = cli.run_compare(validate(parse_clauses(text)))
    assert report.lines == ["identical"]
    # the second query reads the two tuples under its z, not all four
    assert report.counters["sweep_invocations"] == 4 + 4 * 2


def test_repeated_variable_after_a_bound_argument_matches_naive():
    # R(x,y,y) with x bound: y binds at the second position, and the third
    # must hold the same atom
    text = ("lattice powerset {a,b}\nrel R/3\nrel S/1\n"
            "fact R(c,d,d) = {a}\nfact R(c,d,e) = {b}\nfact R(d,e,e) = {a,b}\n"
            "fact R(c,e,e) = {b}\nfact S(c) = {a}\nfact S(e) = {b}\n"
            "clause forall x. forall y. forall 'Y. forall 'Z. S(x;'Z) & R(x,y,y;'Y) => T(x,y;'Y)")
    program = validate(parse_clauses(text))
    assert cli.run_compare(program).lines == ["identical"]
    assert solve(program).leaves()["T"] == {("c", "d"): A, ("c", "e"): B}


def test_recheck_rejects_a_leaf_below_the_model():
    program, result = helpers.run_pipeline(
        "lattice powerset {a,b}\nrel E/2\nfact E(c,d) = {a,b}\n"
        "clause forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y)")
    assert helpers.recheck(result).sweep_invocations == 1
    result.store.relation("T")[ids_of(result, ("c", "d"))] = A
    with pytest.raises(SolverInvariantError, match="after sealing"):
        helpers.recheck(result)


@pytest.mark.parametrize("which", ["signs", "intervals"])
@pytest.mark.parametrize("states", [1000, 2000])
def test_ring_analyses_pass_the_recheck(states, which):
    program = validate(analysis_program(parse_program_graph(ring_graph(states)), which, 0, 5))
    result = solve(program)
    assert len(result.dump_lines()) == 2 * states
    helpers.recheck(result)  # raises if a rule would still grow a leaf


@pytest.mark.parametrize("backward", [False, True])
def test_long_chains_pass_the_recheck(backward):
    n = 20_000
    program, result = helpers.run_pipeline(chain(n, backward))
    assert len(result.leaves()["R"]) == n
    helpers.recheck(result)


@pytest.mark.parametrize("which", ["signs", "intervals"])
@pytest.mark.parametrize("name, steps", [("branch.graph", 6), ("countdown.graph", 4),
                                         ("loop.graph", 4), ("products.graph", 6),
                                         ("sums.graph", 6)])
def test_sample_analysis_compiles_one_step_per_shape(name, steps, which, compiles):
    cli.run_analyze(helpers.sample(name), which)
    assert len(compiles) == steps


# --- rules that cannot fire --------------------------------------------------------

# D is declared and has no fact; E has facts
DEAD = "lattice powerset {a,b}\nrel D/1\nrel E/2\nfact E(a,b) = {a}\nfact E(b,b) = {b}\n"
UNFIRED = {
    "a recursive rule with no base case":
        "clause (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x;'Y))"
        " & (forall x. forall y. forall z. forall 'Y. R(x,y;'Y) & E(y,z;'Y) => R(x,z;'Y))",
    "a disjunction with one dead and one live branch":
        "clause forall x. forall 'Y. D(x;'Y) | (exists y. E(x,y;'Y)) => S(x;'Y)",
    "an existential over a dead query":
        "clause (forall x. (exists y. R(x,y;{a})) => S(x;{b}))"
        " & (forall x. forall y. forall 'Y. R(x,y;'Y) => R(y,x;'Y))",
    "a negated query on a never-live predicate":
        "clause forall x. forall 'Y. !D(x;'Y) => N(x;'Y)",
    "two strata, the first ending empty":
        "clause (forall x. forall 'Y. D(x;'Y) => F(x;'Y))"
        " & (forall x. forall y. E(x,y;{a,b}) => F(x;{a}))\n"
        "clause (forall x. forall 'Y. F(x;'Y) => G(x;'Y))"
        " & (forall x. forall 'Y. !F(x;'Y) => M(x;'Y))",
    # N's query compiles before N's only rule, whose premise is a negated
    # query: liveness that found a negated query never holding lost all of M
    "a query on a predicate that a negated query makes live":
        "clause (forall x. forall 'Y. N(x;'Y) => M(x;'Y))"
        " & (forall x. forall 'Y. !D(x;'Y) => N(x;'Y))",
}


@pytest.mark.parametrize("text", UNFIRED.values(), ids=UNFIRED)
def test_rules_that_cannot_fire_match_naive(text):
    assert cli.run_compare(validate(parse_clauses(DEAD + text))).lines == ["identical"]


# --- queries on sealed relations and bodies of several heads ----------------------

# E and L are base relations, sealed before the first stratum runs
SEALED = ("lattice powerset {a,b,c}\nrel E/2\nrel L/1\n"
          "fact E(a,a) = {a,b}\nfact E(a,b) = {a}\nfact E(b,c) = {b}\n"
          "fact E(c,a) = {b,c}\nfact E(c,c) = {c}\nfact L(a) = {c}\nfact L(b) = {a}\n")
SEALED_READS = {
    "an empty signature":
        SEALED + "clause forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y)",
    "a partial signature with a constant":
        SEALED + "clause forall y. forall 'Y. E(a,y;'Y) => T(y;'Y)",
    "a partial signature with a bound variable":
        SEALED + "clause forall x. forall y. forall 'Y. forall 'Z. L(x;'Y) & E(x,y;'Z) => T(y;'Z)",
    "a full signature, hit and missed":
        SEALED + "clause forall x. forall y. forall 'Y. forall 'Z. E(x,y;'Y) & E(y,x;'Z)"
        " => T(x,y;'Z)",
    "a repeated variable":
        SEALED + "clause forall x. forall 'Y. E(x,x;'Y) => T(x;'Y)",
    "a lower stratum's relation under each kind":
        SEALED + "clause forall x. forall y. forall z. forall 'Y."
        " E(x,y;'Y) | (E(x,z;'Y) & E(z,y;'Y)) => P(x,y;'Y)\n"
        "clause (forall x. forall 'Y. P(x,x;'Y) => T(x;'Y))"
        " & (forall y. forall 'Y. forall 'Z. P(a,y;'Y) & P(y,a;'Z) => T(y;'Z))"
        " & (forall x. forall y. forall 'Y. P(x,y;'Y) & !L(y;'Y) => U(x,y;'Y))",
    "two heads on one tuple":
        SEALED + "clause forall x. forall y. forall 'Y. forall 'Z. L(x;'Y) & E(x,y;'Z)"
        " => T(y;'Y) & T(y;'Z)",
    "three heads":
        SEALED + "clause forall x. forall y. forall 'Y. forall 'Z. L(x;'Y) & E(x,y;'Z)"
        " => T(y;'Z) & L2(y;'Y) & T(x;'Y)",
    # with every leaf read before any head grows, the second head finds no
    # leaf, stores its candidate and loses the first head's value
    "two heads on one tuple, no other source":
        "lattice powerset {a,b}\nrel E/1\nrel F/1\nfact E(a) = {a}\nfact F(a) = {b}\n"
        "fact F(b) = {b}\n"
        "clause forall x. forall 'Y. forall 'Z. E(x;'Y) & F(x;'Z) => T(x;'Y) & T(x;'Z)",
}


@pytest.mark.parametrize("text", SEALED_READS.values(), ids=SEALED_READS)
def test_sealed_reads_and_several_heads_match_naive(text):
    program, result = helpers.run_pipeline(text)
    assert result.leaves()["T"]
    assert semantics.from_leaves(program, result.leaves()) == oracle.naive_fixpoint(program)
    helpers.recheck(result)


def test_negated_query_on_a_never_live_predicate_holds_with_top():
    _, result = helpers.run_pipeline(DEAD + UNFIRED["a negated query on a never-live predicate"])
    assert result.leaves()["N"] == {("a",): AB, ("b",): AB}


@pytest.fixture
def liveness_runs(monkeypatch):
    """One entry per liveness computation from here on."""
    made = []

    class Counting(solver._Liveness):
        __slots__ = ()

        def __init__(self, *args):
            made.append(None)
            super().__init__(*args)
    monkeypatch.setattr(solver, "_Liveness", Counting)
    return made


def test_dead_rules_compile_no_assertion(monkeypatch, liveness_runs):
    calls = []
    assertion = _Compiler.assertion
    monkeypatch.setattr(_Compiler, "assertion",
                        lambda self, *args: calls.append(args[0]) or assertion(self, *args))
    _, result = helpers.run_pipeline(DEAD + UNFIRED["a recursive rule with no base case"]
                                     .replace("E(x,y;'Y) => T", "D(x;'Y) & E(x,y;'Y) => T"))
    assert result.dump_lines() == ["E(a,b) = {a}", "E(b,b) = {b}"]
    assert calls == []
    assert len(liveness_runs) == 1  # once per solve, for several dead queries
    helpers.run_pipeline(DEAD + UNFIRED["a recursive rule with no base case"])
    assert [a.pred for a in calls] == ["T"]  # T's query is live again; R's stays dead


@pytest.mark.parametrize("text", [
    "clause forall x. forall 'Y. D(x;'Y) => S(x;'Y)",
    UNFIRED["two strata, the first ending empty"],
], ids=["a base relation with no fact", "an earlier stratum's predicate ending empty"])
def test_sealed_empty_relations_need_no_liveness(text, liveness_runs):
    # a sealed relation never grows, so an empty one is dead without analysis
    assert cli.run_compare(validate(parse_clauses(DEAD + text))).lines == ["identical"]
    assert liveness_runs == []


def test_liveness_is_not_computed_when_every_queried_relation_has_leaves(liveness_runs):
    # the closure workload's shape and a ring analysis: each relation a query
    # reads has leaves by the time the query compiles
    _, result = helpers.run_pipeline(
        "lattice powerset {a,b}\nrel E/2\nfact E(n0,n1) = {a}\nfact E(n1,n2) = {b}\n"
        "clause (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))"
        "  & (forall x. forall y. forall z. forall 'Y. forall 'Z."
        " T(x,y;'Y) & E(y,z;'Z) => T(x,z;'Y) & T(x,z;'Z))")
    assert len(result.leaves()["T"]) == 3
    assert len(cli.run_analyze(ring_graph(50), "intervals", 0, 5).lines) == 100
    assert liveness_runs == []


def reversed_chain(rules: int) -> str:
    """``P2 => P1``, ..., ``P{rules} => P{rules - 1}``, then ``P{rules}(a;{a})``
    last: each rule's query is live only once every later rule is examined."""
    parts = [f"(forall x. forall 'Y. P{i + 1}(x;'Y) => P{i}(x;'Y))" for i in range(1, rules)]
    return "lattice powerset {a}\nclause " + " & ".join(parts + [f"P{rules}(a;{{a}})"])


@pytest.mark.parametrize("rules", [1000, 4000])
def test_liveness_examines_each_conjunct_at_most_twice(rules, monkeypatch):
    # a repeat-until-stable loop in program order would make one predicate
    # live per pass over all the rules
    examined = []
    examine = solver._Liveness.examine
    monkeypatch.setattr(solver._Liveness, "examine",
                        lambda self, i: examined.append(i) or examine(self, i))
    result = solve(validate(parse_clauses(reversed_chain(rules))))
    assert len(result.dump_lines()) == rules
    assert 0 < len(examined) <= 2 * rules


# --- whole solve runs ----------------------------------------------------------------


def test_solve_eq_neq_two_atoms():
    program, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    assert result.leaves() == {
        "E": {("a",): frozenset("a"), ("b",): frozenset("b")},
        "N": {("a",): frozenset("b"), ("b",): frozenset("a")},
    }


def test_solve_eq_neq_three_atoms():
    program, result = helpers.run_pipeline(helpers.sample("eq_neq_abc.lat"))
    assert result.leaves()["N"] == {
        ("a",): frozenset(("b", "c")),
        ("b",): frozenset(("a", "c")),
        ("c",): frozenset(("a", "b")),
    }


def test_solve_facts_only():
    program, result = helpers.run_pipeline(helpers.sample("facts_only.lat"))
    assert result.leaves()["R"] == {
        ("a", "b"): frozenset("c"),
        ("b", "c"): frozenset(("a", "b", "c")),
    }


def test_solve_late_binding_application():
    # the application precedes its defining query and still sees the binding
    text = ("lattice powerset {a,b}\n"
            "fact B(a) = {a}\nfact B(b) = {a,b}\n"
            "rel B/1\nrel S/1\n"
            "clause forall x. forall 'Y. 'Y(x) & B(x;'Y) => S(x;'Y)")
    program, result = helpers.run_pipeline(text)
    reference = oracle.naive_fixpoint(program)
    assert semantics.from_leaves(program, result.leaves()) == reference
    assert result.leaves()["S"] == {("a",): frozenset("a"),
                                    ("b",): frozenset(("a", "b"))}


def test_solve_facts_with_unit_stratum():
    text = ("lattice powerset {a,b,c}\nrel R/2\n"
            "fact R(a,b) = {c}\nclause 1")
    program, result = helpers.run_pipeline(text)
    assert result.leaves()["R"] == {("a", "b"): frozenset("c")}


def test_env_rejects_out_of_scope_lookup():
    # R's fact makes R live: a query on a predicate that can never hold a
    # leaf compiles to nothing and looks up no variable
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nfact R(a) = {a}\nclause 1")
    with pytest.raises(SolverInvariantError, match="not in scope"):
        helpers.run_clause(engine, Assert("R", (Var("x"),), LitConst(frozenset("a"))))
    with pytest.raises(SolverInvariantError, match="not in scope"):
        helpers.run_clause(engine, Imply(Query("R", (Var("x"),), LitConst(frozenset("a"))),
                                         TrueClause()))


def test_zero_arity_predicate_end_to_end():
    text = ("lattice powerset {a,b}\nrel Flag/0\nrel R/1\n"
            "fact R(a) = {b}\n"
            "clause forall x. forall 'Y. R(x;'Y) => Flag(;'Y)")
    program, result = helpers.run_pipeline(text)
    assert result.leaves()["Flag"] == {(): frozenset("b")}
    assert "Flag() = {b}" in result.dump_lines()
    assert semantics.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    from latlog.parser import parse_fact
    assert parse_fact("Flag() = {b}", program) == \
        ast.Fact("Flag", (), frozenset("b"))


def test_result_items_iterator_order():
    _, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    assert list(result.items()) == [
        ("E", ("a",), frozenset("a")), ("E", ("b",), frozenset("b")),
        ("N", ("a",), frozenset("b")), ("N", ("b",), frozenset("a")),
    ]


def test_dump_lines_are_valid_fact_syntax():
    from latlog.parser import parse_fact

    program, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    for line in result.dump_lines():
        fact = parse_fact(line, program)
        pred, args = line.split("(", 1)
        assert fact.pred == pred


def test_solve_labeled_transitive_closure():
    # recursion through consumers at arity 2 with joins computed by a
    # registered function, over a cyclic edge relation
    text = """
    lattice powerset {a,b,c,d}
    fun u_join/2
    rel Edge/2
    rel Path/2
    fact Edge(a,b) = {a}
    fact Edge(b,c) = {b}
    fact Edge(c,d) = {c}
    fact Edge(d,b) = {d}
    clause (forall x. forall y. forall 'L. Edge(x,y;'L) => Path(x,y;'L))
         & (forall x. forall y. forall z. forall 'L1. forall 'L2.
             Path(x,y;'L1) & Edge(y,z;'L2) => Path(x,z;u_join('L1,'L2)))
    """
    program = validate(parse_clauses(text, {("u_join", 2): frozenset.union}))
    with helpers.audit() as seen:
        result = solve(program)
    assert semantics.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    paths = result.leaves()["Path"]
    assert paths[("a", "d")] == frozenset(("a", "b", "c", "d"))
    assert paths[("b", "b")] == frozenset(("b", "c", "d"))
    assert ("b", "a") not in paths
    assert helpers.propagation_bound_holds(seen)


@pytest.mark.parametrize("build", [
    lambda: parse_clauses(helpers.sample("signs_relational.lat")),
    lambda: analysis_program(parse_program_graph(helpers.sample("loop.graph")), "intervals"),
], ids=["parsed-sample", "analysis-program"])
def test_solve_validates_an_unvalidated_program(build):
    program = build()
    assert program.ranks is None and program.shapes is None
    result = solve(program)
    assert program.ranks is None and program.shapes is None
    assert result.program.ranks is not None and result.program.shapes is not None
    assert result.dump_lines() == solve(validate(build())).dump_lines()


def test_shape_constants_are_the_engines_atom_ids():
    # validation stores each atom constant as its universe position, which
    # is the engine's id for it; a lone conjunct is shape 0 of its stratum
    program = validate(parse_clauses(
        "lattice powerset {a,b,c}\nclause R(c;[b]) & R(a;{c}) & R(a;[c]) & R(b;[b])\n"
        "clause forall 'Y. R(b;'Y) => S(c,a;{c})"))
    holes, shape_of, consts = program.shapes[0]
    assert shape_of == (0, 1, 0, 2)
    assert consts == ((2, 1), (0, frozenset("c")), (0, 2), (1,))
    assert [dict(h) for h in holes] == [{(True, "c"): 0, (True, "b"): 1},
                                        {(True, "a"): 0, (False, frozenset("c")): 1},
                                        {(True, "b"): 0}]
    assert program.shapes[1] == (({(True, "b"): 0, (True, "c"): 1, (True, "a"): 2,
                                   (False, frozenset("c")): 3},),
                                 (0,), ((1, 2, 0, frozenset("c")),))
    for holes, shape_of, consts in program.shapes:
        for n, shape_holes in enumerate(holes):  # kept for each shape's first conjunct
            first = consts[shape_of.index(n)]
            for (atom, c), slot in shape_holes.items():
                assert first[slot] == (program.universe.index(c) if atom else c)
    assert program.universe == ("a", "b", "c")


def test_a_constant_without_a_hole_is_refused():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    compiler = _Compiler(engine, {(True, "a"): 0})
    for cl in (Assert("R", (Const("b"),), LitConst(A)),  # an atom, then a literal
               Assert("R", (Const("a"),), LitConst(A))):
        with pytest.raises(SolverInvariantError, match="has no hole"):
            compiler.clause(cl, {}, frozenset())


def test_every_validated_stratum_has_its_shapes():
    from latlog.randgen import random_program
    programs = [parse_clauses(path.read_text())
                for path in sorted(helpers.SAMPLES.glob("*.lat"))
                if path.name != "nonstratified.lat"]
    programs += [analysis_program(parse_program_graph(path.read_text()), which)
                 for path in sorted(helpers.SAMPLES.glob("*.graph"))
                 for which in ("signs", "intervals")]
    programs = [validate(p) for p in programs] + [random_program(s) for s in range(1000)]
    for program in programs:
        assert len(program.shapes) == program.num_strata
        for cl, (holes, shape_of, consts) in zip(program.strata, program.shapes):
            parts = cl.parts if type(cl) is ast.And else (cl,)
            assert len(shape_of) == len(consts) == len(parts)
            firsts = [n for j, n in enumerate(shape_of) if n not in shape_of[:j]]
            assert firsts == list(range(len(holes)))  # numbered as first met
            for n, values in zip(shape_of, consts):
                assert len(values) == len(holes[n])


def test_solve_validates_strata_swapped_into_a_validated_program():
    # solved with the old ranks, the new stratum gives P(a) = {b}
    text = "lattice powerset {a,b}\nfact B(a) = {a}\n"
    program = validate(parse_clauses(text + "clause forall x. B(x;[x]) => P(x;{a})"))
    strata = parse_clauses(text + "clause forall x. B(x;[x]) & !P(x;[x]) => P(x;{b})").strata
    with pytest.raises(StratificationError, match="stratum 1 negatively queries P of rank 1"):
        solve(program.with_strata(strata))


def test_solve_dump_deterministic():
    lines1 = helpers.run_pipeline(helpers.sample("eq_neq.lat"))[1].dump_lines()
    lines2 = helpers.run_pipeline(helpers.sample("eq_neq.lat"))[1].dump_lines()
    assert lines1 == lines2
    assert lines1 == ["E(a) = {a}", "E(b) = {b}", "N(a) = {b}", "N(b) = {a}"]


def test_every_delivered_leaf_is_the_stored_leaf(monkeypatch):
    # transitive closure over labelled edges: leaves of T grow more than
    # once, so a queued leaf can be replaced before it is delivered
    labels = "abcd"
    edges = [(i, j, labels[(i + j) % 4] + labels[(i * j) % 4])
             for i in range(6) for j in range(i + 1, min(6, i + 3))]
    text = "\n".join(
        [f"lattice powerset {{{','.join(labels)}}}", "rel E/2", "rel T/2",
         *(f"fact E(n{i},n{j}) = {{{','.join(lab)}}}" for i, j, lab in edges),
         "clause (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))"
         "  & (forall x. forall y. forall z. forall 'Y. forall 'Z."
         " T(x,y;'Y) & E(y,z;'Z) => T(x,z;'Y) & T(x,z;'Z))"])
    program = validate(parse_clauses(text))
    engine = _Engine(program, SolveStats())
    stale = []
    register = Table.register

    def checked_register(table, key, consumer):
        match, env = consumer
        pred = table.pred

        def checked(env, ids, leaf):
            if leaf is not engine.store.relation(pred).get(ids):
                stale.append((pred, ids, leaf))
            match(env, ids, leaf)
        register(table, key, (checked, env))

    monkeypatch.setattr(Table, "register", checked_register)
    engine.run(program.facts)
    assert engine.stats.consumer_invocations > 0
    assert stale == []


def test_drain_delivers_oldest_first_and_skips_replaced_leaves():
    engine, _ = engine_for(RELS)
    seen = []
    engine.store.relation("R").table(()).register(
        (), (lambda env, ids, leaf: seen.append((ids, leaf)), []))
    for i, l in ((0, A), (1, A), (0, B)):  # the third replaces the first leaf
        helpers.grow(engine.store, "R", (i,), l, engine.pending)
    engine._drain()
    assert seen == [((1,), A), ((0,), AB)]


def closure_program(nodes=32, labels=8):
    """The benchmark's closure shape, as ``(edges, text)``: a chain n0 -> n1
    -> ... -> n31 plus one short forward edge per node, each labelled by two
    of eight atoms; T(x,z) joins the labels of every edge on a path from x
    to z."""
    edges = {}
    for i in range(nodes - 1):
        edges[(i, i + 1)] = {i % labels, (3 * i + 1) % labels}
    for i in range(nodes - 2):
        edges[(i, min(nodes - 1, i + 2 + (7 * i) % 5))] = {(5 * i + 2) % labels,
                                                           (i * i + 3) % labels}
    return edges, "\n".join(
        ["lattice powerset {" + ",".join(f"l{k}" for k in range(labels)) + "}",
         "rel E/2", "rel T/2",
         *(f"fact E(n{a},n{b}) = {{{','.join(f'l{k}' for k in sorted(lab))}}}"
           for (a, b), lab in sorted(edges.items())),
         "clause (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))"
         "  & (forall x. forall y. forall z. forall 'Y. forall 'Z."
         " T(x,y;'Y) & E(y,z;'Z) => T(x,z;'Y) & T(x,z;'Z))"])


def test_oldest_first_delivery_bounds_closure_growths_and_deliveries():
    # the closure shape's 40 atoms put the naive oracle's ground instances
    # out of reach, so graph search is the reference
    nodes = 32
    edges, text = closure_program(nodes)
    program, result = helpers.run_pipeline(text)
    reach = {v: set() for v in range(nodes)}
    for a in reversed(range(nodes)):  # every edge leads forward
        for (u, v) in edges:
            if u == a:
                reach[a] |= {v} | reach[v]
    expected = {
        (f"n{x}", f"n{z}"): frozenset(
            f"l{k}" for (u, v), lab in edges.items()
            if (u == x or u in reach[x]) and (v == z or z in reach[v]) for k in lab)
        for x in range(nodes) for z in reach[x]}
    assert result.leaves()["T"] == expected
    # 1 358 growths (61 of them E facts) and 701 deliveries; delivering
    # newest first takes 1 630 and 1 091
    assert result.stats.growths <= 1490
    assert result.stats.consumer_invocations <= 900


def test_solving_costs_a_few_calls_per_candidate():
    # a count, not a timing, so it holds on any machine: a growth in two
    # calls (the store's join, then the engine's queueing), a match that
    # called its lattice variable's bind and a sweep that tested its table's
    # kind made 4.88 calls per candidate; one growth routine per relation,
    # a match that binds and a sweep fixed per table make 3.68; reading the
    # sealed E in place and running both heads in one step make 2.17
    program = validate(parse_clauses(closure_program()[1]))
    candidates = solve(program).stats.candidates
    assert candidates == 2869
    assert helpers.calls(solve, program) <= 2.5 * candidates


def test_only_candidates_that_may_grow_enter_the_store(monkeypatch):
    # no candidate of the closure shape asserts bottom, so each fact and
    # each candidate above its leaf grows it; the rest stop before the store
    entries = []
    grower = ResultStore.grower

    def counted_grower(store, relation, pending):
        grow = grower(store, relation, pending)

        def counted(ids, l, current):
            entries.append(ids)
            grow(ids, l, current)
        return counted
    monkeypatch.setattr(ResultStore, "grower", counted_grower)
    _, result = helpers.run_pipeline(closure_program()[1])
    stats = result.stats
    assert len(entries) == stats.growths < stats.candidates


def leaf_values(result) -> list:
    return [v for leaves in result.leaves().values() for v in leaves.values()]


def test_a_growth_whose_join_is_its_candidate_stores_the_candidate():
    # a count of objects, not a timing: joining every candidate into its
    # leaf, or into bottom, made each of the leaves a value of its own
    _, result = helpers.run_pipeline(chain(2000, False))
    values = leaf_values(result)
    assert len(values) == 3999 and len({id(v) for v in values}) == 1
    _, result = helpers.run_pipeline(closure_program()[1])
    values = leaf_values(result)
    assert len(values) == 557 and len({id(v) for v in values}) <= 228


def test_shared_leaf_values_leave_the_program_and_copies_intact():
    program = validate(parse_clauses(closure_program()[1]))
    facts = copy.deepcopy(program.facts)
    first = solve(program)
    assert solve(program).dump_lines() == first.dump_lines()
    assert program.facts == facts
    copied = copy.deepcopy(first)
    assert copied.dump_lines() == first.dump_lines() and copied.stats == first.stats
    # the lattice's local functions keep a whole result from pickling, so
    # pickle its leaf maps and counters
    relations, stats = pickle.loads(pickle.dumps((first.store._relations, first.stats)))
    assert relations == first.store._relations and stats == first.stats
    assert len({id(v) for v in leaf_values(copied)}) == len({id(v) for v in leaf_values(first)})


def test_solve_stratum_isolation_and_propagation_bound():
    with helpers.audit() as seen:
        program, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    assert helpers.stratum_isolation_holds(seen, result)
    assert helpers.propagation_bound_holds(seen)


def test_audit_catches_delivery_without_growth():
    program = validate(parse_clauses(
        "lattice powerset {a,b}\nrel R/1\nfact R(b) = {b}\n"  # R is live; never loaded
        "clause forall x. forall 'Y. R(x;'Y) => S(x;'Y)"))
    unobserved_grower = ResultStore.grower
    with helpers.audit() as seen:
        engine = _Engine(program, SolveStats())
        for i in range(program.num_strata):  # register consumers without sealing strata
            engine.run_stratum(i)
        assert helpers.propagation_bound_holds(seen)
        # a growth of R that the audit does not see
        relation = engine.store.relation("R")
        unobserved_grower(engine.store, relation, engine.pending)((0,), A, None)
        engine._drain()
    assert engine.stats.consumer_invocations == 1
    assert not helpers.propagation_bound_holds(seen)


def test_audit_catches_write_into_sealed_rank():
    with helpers.audit() as seen:
        program, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    assert helpers.stratum_isolation_holds(seen, result)
    # past the growth routine, which would refuse the growth
    result.store.relation("E")[ids_of(result, ("a",))] = AB
    assert not helpers.stratum_isolation_holds(seen, result)


def test_solver_matches_naive_on_random_programs():
    from latlog.randgen import random_program

    for seed in range(60):
        program = random_program(seed)
        with helpers.audit() as seen:
            result = solve(program)
        assert semantics.from_leaves(program, result.leaves()) == \
            oracle.naive_fixpoint(program), f"seed {seed}"
        assert helpers.stratum_isolation_holds(seen, result), f"seed {seed}"
        assert helpers.propagation_bound_holds(seen), f"seed {seed}"
        # every growth strictly climbs one leaf's chain, so the total is
        # bounded by (number of possible tuples) x (longest chain)
        height = len(program.lattice.atoms) + 1
        bound = sum(len(program.universe) ** k
                    for k in program.arities.values()) * height
        assert result.stats.growths <= bound, f"seed {seed}"


def test_solver_needs_no_reordering_of_applications():
    # an application 'Y(u) before the query defining 'Y reads 'Y as top and
    # leaves u's description as its lower bound, which the query's narrowing
    # must keep; so the engine reaches the least model in either order
    from latlog.randgen import random_program

    moved = 0
    for seed in range(3000):
        program = random_program(seed)
        if reorder_preconditions(program).strata == program.strata:
            continue
        moved += 1
        assert semantics.from_leaves(program, solve(program).leaves()) == \
            oracle.naive_fixpoint(program), f"seed {seed}"
    assert moved >= 100


@pytest.fixture
def recursion_limit():
    """A known limit, which a solve must leave as it is, restored after the test."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    yield 1500
    sys.setrecursionlimit(before)


def test_solve_restores_recursion_limit(recursion_limit):
    helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    assert sys.getrecursionlimit() == recursion_limit


def test_solve_restores_recursion_limit_when_it_raises(recursion_limit):
    class Boom(Exception):
        pass

    armed = []

    def grow(v):  # identity while registration proves it monotone
        if armed:
            raise Boom
        return v

    text = """
    lattice powerset {a,b}
    fun grow/1
    rel P/1
    rel Q/1
    fact P(a) = {a}
    clause forall x. forall 'i. P(x;'i) => Q(x;grow('i))
    """
    program = validate(parse_clauses(text, {("grow", 1): grow}))
    armed.append(True)
    with pytest.raises(Boom):
        solve(program)
    assert sys.getrecursionlimit() == recursion_limit


@pytest.mark.parametrize("name", sorted(p.name for p in helpers.SAMPLES.glob("*.lat")))
def test_solve_never_sets_the_recursion_limit(name, monkeypatch, capsys):
    def refuse(limit):
        raise AssertionError(f"sys.setrecursionlimit({limit}) called")
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    code = cli.main(["solve", str(helpers.SAMPLES / name)])
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.solve"
    assert f"exit {code}\n{capsys.readouterr().out}" == golden.read_text()


# --- applications 'Y(u) narrowed by a later query --------------------------------

NARROWED_APPLICATIONS = [
    "forall 'Y. 'Y(c) & Q(;'Y) & R(;'Y) => P(;'Y)",
    "forall 'Y. 'Y(c) & Q(;'Y) => (R(;'Y) => P(;'Y))",
    "forall 'Y. 'Y(c) & (exists 'Z. R(;'Y)) => P(;'Y)",
]


@pytest.mark.parametrize("clause", NARROWED_APPLICATIONS)
def test_application_fails_when_a_later_query_narrows_below_it(clause):
    # 'Y must contain c and lie below {d}: no binding satisfies the premise
    text = ("lattice powerset {c,d}\nrel P/0\nrel Q/0\nrel R/0\n"
            "fact Q() = {c,d}\nfact R() = {d}\nclause " + clause)
    program, result = helpers.run_pipeline(text)
    assert semantics.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    assert result.leaves()["P"] == {}
    assert cli.run_compare(program).lines == ["identical"]


def test_application_inside_exists_matches_naive():
    from latlog.randgen import random_program

    program = random_program(3951134603)
    assert cli.run_compare(program).lines == ["identical"]


# --- process state and memory ----------------------------------------------------


def test_solve_leaves_nothing_for_the_cycle_collector():
    runs = [lambda name=name: cli.run_solve(helpers.sample(name))
            for name in ("eq_neq.lat", "signs_relational.lat")]
    runs += [lambda: cli.run_analyze(helpers.sample("loop.graph"), "intervals", 0, 3),
             lambda: cli.run_analyze(helpers.sample("sums.graph"), "signs")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for run in runs:
            gc.collect()
            report = run()
            assert report.lines
            del report
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_waiting_queries_keep_few_tracked_objects_per_rule():
    # a waiting query keeps its compiled match and one environment; a
    # closure of its own per registration made this 6.55 per rule
    program = validate(analysis_program(parse_program_graph(ring_graph(1000)),
                                        "intervals", 0, 5))
    rules = sum(len(cl.parts) if isinstance(cl, ast.And) else 1 for cl in program.strata)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = len(gc.get_objects())
        engine = _Engine(program, SolveStats())
        engine.run(program.facts)
        gc.collect()
        live = len(gc.get_objects()) - before
        engine.store.drop_tables()  # waiting queries and the engine refer to each other
    finally:
        if enabled:
            gc.enable()
    assert len(engine.store.sub("A")) == 2000
    assert live / rules <= 5.0, f"{live} tracked objects for {rules} rules"


def test_solve_leaves_ast_caches_untouched():
    # atom names no earlier test used, so cached entries cannot stand in
    tag = f"u{id(object())}"
    text = (f"lattice powerset {{a,b}}\nrel E/2\nrel T/2\n"
            f"fact E({tag}0,{tag}1) = {{a}}\nfact E({tag}1,{tag}2) = {{b}}\n"
            "clause (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))"
            " & (forall x. forall y. forall z. forall 'Y. forall 'Z."
            " T(x,y;'Y) & E(y,z;'Z) & (exists w. !E(z,w;{a})) => T(x,z;'Y))")
    program = validate(parse_clauses(text))
    caches = (ast.clause_vars, ast.pre_vars, ast.lattice_term_vars)
    before = [fn.cache_info().currsize for fn in caches]
    result = solve(program)
    assert result.leaves()["T"]
    assert [fn.cache_info().currsize for fn in caches] == before


def test_dump_renders_like_items():
    graph_text = helpers.sample("loop.graph")
    from latlog.analysis import gen_interval_clauses, parse_program_graph
    program, result = helpers.run_pipeline(
        gen_interval_clauses(parse_program_graph(graph_text), 0, 3))
    render = program.lattice.render
    assert result.dump_lines() == [
        f"{pred}({','.join(str(a) for a in atoms)}) = {render(v)}"
        for pred, atoms, v in result.items()]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=100, max_value=2**32 - 1))
def test_solver_matches_naive_on_drawn_random_programs(seed):
    # the full fragment, with applications 'Y(u), on seeds past the fixed 100
    from latlog.randgen import random_program

    program = random_program(seed)
    with helpers.audit() as seen:
        result = solve(program)
    assert semantics.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    assert helpers.stratum_isolation_holds(seen, result)
    assert helpers.propagation_bound_holds(seen)
    helpers.recheck(result)
