"""Unification, stores, consumers, and whole solve runs."""

import sys

import pytest

from latlog import ast
from latlog.ast import (Apply, Assert, Const, ForallX, LitConst, PreOr,
                        Query, Repr, Var, YVar, reorder_preconditions,
                        validate)
from latlog.errors import SolverInvariantError
from latlog.lattices import powerset_lattice
from latlog.parser import parse_clauses
from latlog.solver import (AtomTable, ConsumerStore, Env, PrefixTree,
                           ResultStore, SolveStats, _Engine, solve,
                           unify, unify_lattice, unify_tuple)
import latlog.oracle as oracle

import helpers

LAT2 = powerset_lattice(("a", "b"))
U2 = ("a", "b")


def env_with(*names, **bound):
    env = Env.empty()
    for n in names:
        env = env.declare(n)
    for n, v in bound.items():
        env = env.declare(n).bind(n, v)
    return env


# --- tuple unification ------------------------------------------------------------


def test_unify_tuple_binds_unbound_variable():
    env = unify_tuple(env_with("x"), (Var("x"),), ("a",))
    assert env.get("x") == "a"


def test_unify_tuple_rejects_conflicting_binding():
    assert unify_tuple(env_with(x="a"), (Var("x"),), ("b",)) is None


def test_unify_tuple_constant_self_match():
    env = env_with()
    assert unify_tuple(env, (Const("a"),), ("a",)) is env
    assert unify_tuple(env, (Const("a"),), ("b",)) is None


def test_unify_tuple_threads_repeated_variable():
    assert unify_tuple(env_with("x"), (Var("x"), Var("x")), ("a", "b")) is None
    env = unify_tuple(env_with("x"), (Var("x"), Var("x")), ("a", "a"))
    assert env.get("x") == "a"


# --- lattice unification ------------------------------------------------------------


def test_unify_lattice_binds_unbound_variable():
    envs = unify_lattice(LAT2, U2, env_with("'Y"), YVar("'Y"), frozenset("a"))
    assert [e.get("'Y") for e in envs] == [frozenset("a")]


def test_unify_lattice_unbound_variable_rejects_bottom():
    assert unify_lattice(LAT2, U2, env_with("'Y"), YVar("'Y"), frozenset()) == []


def test_unify_lattice_bound_variable_meets():
    env = env_with(**{"'Y": frozenset(("a", "b"))})
    envs = unify_lattice(LAT2, U2, env, YVar("'Y"), frozenset("a"))
    assert [e.get("'Y") for e in envs] == [frozenset("a")]


def test_unify_lattice_bound_variable_empty_meet_fails():
    env = env_with(**{"'Y": frozenset("a")})
    assert unify_lattice(LAT2, U2, env, YVar("'Y"), frozenset("b")) == []


def test_unify_lattice_description_of_unbound_enumerates():
    envs = unify_lattice(LAT2, U2, env_with("x"), Repr(Var("x")), frozenset("a"))
    assert [e.get("x") for e in envs] == ["a"]


def test_unify_lattice_description_of_bound_checks_containment():
    env = env_with(x="a")
    assert unify_lattice(LAT2, U2, env, Repr(Var("x")), frozenset("b")) == []
    assert unify_lattice(LAT2, U2, env, Repr(Var("x")), frozenset(("a", "b"))) == [env]


def test_unify_lattice_constant_requires_containment():
    env = env_with()
    assert unify_lattice(LAT2, U2, env, LitConst(frozenset("a")),
                         frozenset(("a", "b"))) == [env]
    assert unify_lattice(LAT2, U2, env, LitConst(frozenset(("a", "b"))),
                         frozenset("a")) == []


# --- combined unification -----------------------------------------------------------


def test_unify_binds_both_components():
    envs = unify(LAT2, U2, env_with("x", "'Y"), (Var("x"),), YVar("'Y"),
                 ("a",), frozenset("a"))
    assert len(envs) == 1
    assert envs[0].get("x") == "a"
    assert envs[0].get("'Y") == frozenset("a")


def test_unify_constant_mismatch_fails_before_lattice():
    assert unify(LAT2, U2, env_with("'Y"), (Const("a"),), YVar("'Y"),
                 ("b",), frozenset("a")) == []


def test_unify_description_not_below_value_fails():
    assert unify(LAT2, U2, env_with("x"), (Var("x"),), Repr(Var("x")),
                 ("a",), frozenset("b")) == []


# --- candidate enumeration ----------------------------------------------------------


def engine_for(text):
    program = reorder_preconditions(validate(parse_clauses(text)))
    return _Engine(program, SolveStats()), program


def test_unifiable_correlates_description_with_atom():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    env = Env.empty().declare("x")
    got = list(engine.unifiable(env, (Var("x"),), Repr(Var("x"))))
    assert got == [(("a",), frozenset("a")), (("b",), frozenset("b"))]


def test_unifiable_bound_variables_fix_candidates():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    env = env_with(x="a", **{"'Y": frozenset("b")})
    assert list(engine.unifiable(env, (Var("x"),), YVar("'Y"))) == \
        [(("a",), frozenset("b"))]


def test_unifiable_unbound_lattice_variable_reads_top():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    env = env_with("'Y", x="a")
    assert list(engine.unifiable(env, (Var("x"),), YVar("'Y"))) == \
        [(("a",), frozenset(("a", "b")))]


def test_unifiable_function_terms_evaluate_per_candidate():
    engine, program = engine_for(
        "lattice interval zmin=0 zmax=3\nfun f_add/2\nrel R/1\n"
        "fact B(2) = [2,2]\nclause 1")
    mk = program.lattice.make_interval
    env = env_with(x=2)
    got = list(engine.unifiable(
        env, (Var("x"),), ast.FnApp("f_add", (Repr(Var("x")), LitConst(mk(1, 1))))))
    assert got == [((2,), mk(3, 3))]


# --- stores ---------------------------------------------------------------------------


def test_prefix_tree_insert_lookup_iterate():
    t = PrefixTree(2)
    t.set((0, 1), "x")
    t.set((0, 2), "y")
    t.set((1, 1), "z")
    assert t.get((0, 2)) == "y"
    assert t.get((2, 2)) is None
    assert list(t.items()) == [((0, 1), "x"), ((0, 2), "y"), ((1, 1), "z")]
    assert list(t.items((0,))) == [((0, 1), "x"), ((0, 2), "y")]
    assert list(t.items((1, 1))) == [((1, 1), "z")]


def test_prefix_tree_zero_arity():
    t = PrefixTree(0)
    assert list(t.items()) == []
    t.set((), "v")
    assert t.get(()) == "v"
    assert list(t.items()) == [((), "v")]


def store2(arities=None, ranks=None):
    arities = arities or {"R": 1}
    ranks = ranks or {p: 1 for p in arities}
    return ResultStore(LAT2, arities, ranks)


def test_store_first_insert_grows():
    s = store2()
    assert not s.has("R", (0,), frozenset("a"))
    grew, leaf = s.add("R", (0,), frozenset("a"))
    assert grew and leaf == frozenset("a")
    assert s.has("R", (0,), frozenset("a"))


def test_store_join_merges_leaf():
    s = store2()
    s.add("R", (0,), frozenset("a"))
    grew, leaf = s.add("R", (0,), frozenset("b"))
    assert grew and leaf == frozenset(("a", "b"))
    assert s.has("R", (0,), frozenset(("a", "b")))
    grew, _ = s.add("R", (0,), frozenset("a"))
    assert not grew


def test_store_absent_leaf_reads_bottom():
    s = store2()
    assert not s.has("R", (1,), frozenset("a"))
    assert s.has("R", (1,), frozenset())  # bottom is below everything


def test_store_rejects_growth_after_seal():
    s = store2()
    s.add("R", (0,), frozenset("a"))
    s.seal_up_to(1)
    with pytest.raises(SolverInvariantError, match="completed stratum"):
        s.add("R", (1,), frozenset("a"))
    grew, _ = s.add("R", (0,), frozenset("a"))  # non-growing joins stay no-ops
    assert not grew


def test_atom_table_is_deterministic():
    t = AtomTable(tuple(sorted(("b", "a", "c"))))
    assert t.ids(("a", "b", "c")) == (0, 1, 2)
    assert t.atoms((2, 0)) == ("c", "a")


# --- consumers ------------------------------------------------------------------------


def test_consumer_prefix_matching_and_snapshot():
    infl = ConsumerStore()
    seen = []
    infl.register("R", (0,), lambda atoms, v: seen.append(("p0", atoms)))
    infl.register("R", (), lambda atoms, v: seen.append(("any", atoms)))
    for fn in infl.matching("R", (0, 5)):
        fn(("a", "f"), None)
    assert seen == [("any", ("a", "f")), ("p0", ("a", "f"))]
    seen.clear()
    for fn in infl.matching("R", (1, 5)):
        fn(("b", "f"), None)
    assert seen == [("any", ("b", "f"))]


def test_growth_invokes_each_consumer_once():
    text = ("lattice powerset {a,b}\n"
            "clause forall x. forall 'Y. R(x;'Y) => S(x;'Y),\n"
            "       forall x. forall 'Y. R(x;'Y) => T(x;'Y)")
    program = reorder_preconditions(validate(parse_clauses(
        text.replace("clause", "rel R/1\nclause", 1))))
    engine = _Engine(program, SolveStats())
    for cl in program.strata:  # register consumers without sealing strata
        engine.execute(cl, Env.empty())
    assert engine.stats.consumer_invocations == 0
    grew, leaf = engine.store.add("R", (0,), frozenset("a"))
    assert grew
    engine._broadcast("R", (0,), ("a",), leaf)
    assert engine.stats.consumer_invocations == 2
    assert engine.store.has("S", (0,), frozenset("a"))
    assert engine.store.has("T", (0,), frozenset("a"))


def test_non_growing_add_triggers_no_consumers():
    program, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    stats = result.stats
    assert stats.redundant_adds >= 0
    # replay a non-growing add against the finished store with a spy consumer
    engine = _Engine(program, SolveStats())
    engine.run(program.facts)
    calls = []
    engine.infl.register("E", (), lambda atoms, v: calls.append(atoms))
    ids = engine.table.ids(("a",))
    assert engine.store.has("E", ids, frozenset("a"))
    # the execute path skips non-growing candidates before broadcasting
    engine.execute(ast.Assert("E", (Const("a"),), LitConst(frozenset("a"))),
                   Env.empty())
    assert calls == []


# --- execute / check ---------------------------------------------------------------


def test_execute_assert_constant_top():
    engine, _ = engine_for("lattice powerset {q0,v}\nrel A/2\nclause 1")
    engine.execute(ast.Assert("A", (Const("q0"), Const("v")),
                              LitConst(engine.lattice.top)), Env.empty())
    assert engine.store.current("A", engine.table.ids(("q0", "v"))) == \
        engine.lattice.top


def test_execute_unit_is_noop():
    engine, _ = engine_for("lattice powerset {a}\nrel R/1\nclause 1")
    engine.execute(ast.TrueClause(), Env.empty())
    assert list(engine.store.sub("R")) == []
    assert engine.stats.growths == 0


def test_execute_forall_described_atoms():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    engine.execute(ForallX("x", Assert("R", (Var("x"),), Repr(Var("x")))),
                   Env.empty())
    leaves = {engine.table.atoms(ids): v for ids, v in engine.store.sub("R")}
    assert leaves == {("a",): frozenset("a"), ("b",): frozenset("b")}


def test_check_apply_unbound_variable_reads_top():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    seen = []
    env = Env.empty().declare("'Y").declare("x").bind("x", "a")
    engine.check(Apply("'Y", Var("x")), lambda e: seen.append(e.get("'Y")),
                 env, frozenset(("'Y",)))
    assert seen == [engine.lattice.top]


def test_check_apply_filters_atoms_by_description():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    seen = []
    env = Env.empty().declare("'Y").bind("'Y", frozenset("a")).declare("x")
    engine.check(Apply("'Y", Var("x")), lambda e: seen.append(e.get("x")),
                 env, frozenset())
    assert seen == ["a"]


def test_check_disjunction_memoizes_duplicate_environments():
    engine, _ = engine_for("lattice powerset {a}\nrel R/1\nclause 1")
    engine.store.add("R", (0,), frozenset("a"))
    q = Query("R", (Var("x"),), Repr(Var("x")))
    seen = []
    env = Env.empty().declare("x")
    engine.check(PreOr(q, q), lambda e: seen.append(e.get("x")), env,
                 frozenset(("x",)))
    assert seen == ["a"]


def test_check_exists_removes_variable_and_memoizes():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/2\nclause 1")
    engine.store.add("R", (0, 0), frozenset("a"))
    engine.store.add("R", (0, 1), frozenset("a"))
    q = Query("R", (Var("x"), Var("w")), LitConst(frozenset("a")))
    seen = []
    env = Env.empty().declare("x")
    engine.check(ast.ExistsX("w", q),
                 lambda e: seen.append((e.get("x"), e.declared("w"))),
                 env, frozenset(("x",)))
    # two witnesses for w collapse to one continuation call, w out of scope
    assert seen == [("a", False)]


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


def test_solve_fact_overrides_replace_matching_tuple():
    program = reorder_preconditions(validate(parse_clauses(
        helpers.sample("facts_only.lat"))))
    result = solve(program, [ast.Fact("R", ("a", "b"), frozenset("a"))])
    assert result.leaves()["R"][("a", "b")] == frozenset("a")


def test_solve_late_binding_application():
    # the application precedes its defining query and still sees the binding
    text = ("lattice powerset {a,b}\n"
            "fact B(a) = {a}\nfact B(b) = {a,b}\n"
            "rel B/1\nrel S/1\n"
            "clause forall x. forall 'Y. 'Y(x) & B(x;'Y) => S(x;'Y)")
    program, result = helpers.run_pipeline(text)
    reference = oracle.naive_fixpoint(program)
    assert oracle.from_leaves(program, result.leaves()) == reference
    assert result.leaves()["S"] == {("a",): frozenset("a"),
                                    ("b",): frozenset(("a", "b"))}


def test_solve_facts_with_unit_stratum():
    text = ("lattice powerset {a,b,c}\nrel R/2\n"
            "fact R(a,b) = {c}\nclause 1")
    program, result = helpers.run_pipeline(text)
    assert result.leaves()["R"] == {("a", "b"): frozenset("c")}


def test_env_rejects_out_of_scope_lookup():
    with pytest.raises(SolverInvariantError, match="not in scope"):
        Env.empty().get("x")
    with pytest.raises(SolverInvariantError, match="not in scope"):
        Env.empty().bind("x", "a")


def test_zero_arity_predicate_end_to_end():
    text = ("lattice powerset {a,b}\nrel Flag/0\nrel R/1\n"
            "fact R(a) = {b}\n"
            "clause forall x. forall 'Y. R(x;'Y) => Flag(;'Y)")
    program, result = helpers.run_pipeline(text)
    assert result.leaves()["Flag"] == {(): frozenset("b")}
    assert "Flag() = {b}" in result.dump_lines()
    assert oracle.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    from latlog.parser import parse_fact
    assert parse_fact("fact Flag() = {b}", program) == \
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
        fact = parse_fact("fact " + line, program)
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
    program = reorder_preconditions(validate(parse_clauses(
        text, {("u_join", 2): frozenset.union})))
    result = solve(program)
    assert oracle.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    paths = result.leaves()["Path"]
    assert paths[("a", "d")] == frozenset(("a", "b", "c", "d"))
    assert paths[("b", "b")] == frozenset(("b", "c", "d"))
    assert ("b", "a") not in paths
    assert result.stats.propagation_bound_holds()


def test_solve_dump_deterministic():
    lines1 = helpers.run_pipeline(helpers.sample("eq_neq.lat"))[1].dump_lines()
    lines2 = helpers.run_pipeline(helpers.sample("eq_neq.lat"))[1].dump_lines()
    assert lines1 == lines2
    assert lines1 == ["E(a) = {a}", "E(b) = {b}", "N(a) = {b}", "N(b) = {a}"]


def test_solve_stratum_isolation_and_propagation_bound():
    program, result = helpers.run_pipeline(helpers.sample("eq_neq.lat"))
    assert result.stratum_isolation_holds()
    assert result.stats.propagation_bound_holds()


def test_solver_matches_naive_on_random_programs():
    from latlog.randgen import random_program

    for seed in range(60):
        program = random_program(seed)
        result = solve(reorder_preconditions(program))
        assert oracle.from_leaves(program, result.leaves()) == \
            oracle.naive_fixpoint(program), f"seed {seed}"
        assert result.stratum_isolation_holds(), f"seed {seed}"
        assert result.stats.propagation_bound_holds(), f"seed {seed}"
        # every growth strictly climbs one leaf's chain, so the total is
        # bounded by (number of possible tuples) x (longest chain)
        height = len(program.lattice.atoms) + 1
        bound = sum(len(program.universe) ** k
                    for k in program.arities.values()) * height
        assert result.stats.growths <= bound, f"seed {seed}"


@pytest.fixture
def recursion_limit():
    """A known limit below the solver's own, restored after the test."""
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
    program = reorder_preconditions(validate(parse_clauses(
        text, {("grow", 1): grow})))
    armed.append(True)
    with pytest.raises(Boom):
        solve(program)
    assert sys.getrecursionlimit() == recursion_limit
