"""Compiled unification, stores, consumers, and whole solve runs."""

import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from latlog import ast, cli
from latlog.ast import (Apply, Assert, Const, ForallX, Imply, LitConst, PreOr,
                        Query, Repr, TrueClause, Var, YVar,
                        reorder_preconditions, validate)
from latlog.errors import SolverInvariantError
from latlog.lattices import powerset_lattice
from latlog.parser import parse_clauses
from latlog.solver import (AtomTable, ConsumerStore, PrefixTree, ResultStore,
                           SolveStats, _Compiler, _Engine, solve)
import latlog.oracle as oracle

import helpers

LAT2 = powerset_lattice(("a", "b"))
A, B, AB, BOT = frozenset("a"), frozenset("b"), frozenset("ab"), frozenset()
RELS = "lattice powerset {a,b}\nrel R/1\nrel R2/2\nrel F/0\nclause 1"


def engine_for(text):
    program = reorder_preconditions(validate(parse_clauses(text)))
    return _Engine(program, SolveStats()), program


def compiled(engine, bindings, build):
    """Compile with the variables of ``bindings`` in scope, bound to the given
    atom or lattice value (None leaves one unbound).  ``build(compiler, scope,
    bound, record)`` returns the step; ``record`` is the continuation that
    appends the bindings it sees, {name: atom or value}, to the returned list."""
    compiler = _Compiler(engine)
    scope = {n: compiler.slot(n.startswith("'")) for n in bindings}
    seen = []

    def record(after):
        def k(env):
            seen.append({n: env[s] if n.startswith("'") else engine.table.atoms((env[s],))[0]
                         for n, s in scope.items() if n in after})
        return k
    bound = frozenset(n for n, v in bindings.items() if v is not None)
    step = build(compiler, scope, bound, record)
    env = [None] * compiler.size
    for n, v in bindings.items():
        if v is not None and n.startswith("'"):
            env[scope[n]], env[scope[n] + 1] = v, engine.lattice.bottom
        elif v is not None:
            env[scope[n]] = engine.table.id(v)
    return step, env, seen


def check(engine, pre, bindings, needed=()):
    """Bindings seen by each continuation call of one run of a precondition."""
    rest = tuple(YVar(n) if n.startswith("'") else Var(n) for n in needed)
    step, env, seen = compiled(engine, bindings, lambda c, scope, bound, k:
                               c.pre(pre, scope, bound, rest, k))
    step(env)
    return seen


def deliver(pre, bindings, atoms, l, text=RELS):
    """Bindings that one delivery of (atoms; l) to a compiled query yields."""
    engine, _ = engine_for(text)
    step, env, seen = compiled(engine, bindings, lambda c, scope, bound, k:
                               c.pre(pre, scope, bound, (), k))
    step(env)  # registers the consumer; the store is empty, so nothing is swept
    engine._broadcast(pre.pred, engine.table.ids(atoms), l)
    return seen


def asserted(engine, cl, bindings):
    """(atoms, value) leaves in insertion order after running one assertion."""
    step, env, _ = compiled(engine, bindings, lambda c, scope, bound, k:
                            c.clause(cl, scope, bound))
    step(env)
    return [(engine.table.atoms(ids), v) for ids, v in engine.store.sub(cl.pred)]


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
        engine.run_stratum(cl)
    assert engine.stats.consumer_invocations == 0
    grew, leaf = engine.store.add("R", (0,), frozenset("a"))
    assert grew
    engine._broadcast("R", (0,), leaf)
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
    engine.infl.register("E", (), lambda ids, v: calls.append(ids))
    ids = engine.table.ids(("a",))
    assert engine.store.has("E", ids, frozenset("a"))
    # a compiled assertion skips non-growing candidates before broadcasting
    engine.run_stratum(ast.Assert("E", (Const("a"),), LitConst(frozenset("a"))))
    assert calls == []


# --- compiled clauses and preconditions --------------------------------------------


def test_execute_assert_constant_top():
    engine, _ = engine_for("lattice powerset {q0,v}\nrel A/2\nclause 1")
    engine.run_stratum(ast.Assert("A", (Const("q0"), Const("v")),
                                  LitConst(engine.lattice.top)))
    assert engine.store.current("A", engine.table.ids(("q0", "v"))) == \
        engine.lattice.top


def test_execute_unit_is_noop():
    engine, _ = engine_for("lattice powerset {a}\nrel R/1\nclause 1")
    engine.run_stratum(ast.TrueClause())
    assert list(engine.store.sub("R")) == []
    assert engine.stats.growths == 0


def test_execute_forall_described_atoms():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    engine.run_stratum(ForallX("x", Assert("R", (Var("x"),), Repr(Var("x")))))
    leaves = {engine.table.atoms(ids): v for ids, v in engine.store.sub("R")}
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
    engine.store.add("R", (0,), frozenset("a"))
    q = Query("R", (Var("x"),), Repr(Var("x")))
    seen = check(engine, PreOr((q, q)), {"x": None}, ("x",))
    assert [e["x"] for e in seen] == ["a"]


def test_check_exists_removes_variable_and_memoizes():
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/2\nclause 1")
    engine.store.add("R", (0, 0), frozenset("a"))
    engine.store.add("R", (0, 1), frozenset("a"))
    q = Query("R", (Var("x"), Var("w")), LitConst(frozenset("a")))
    seen = check(engine, ast.ExistsX("w", q), {"x": None}, ("x",))
    # two witnesses for w collapse to one continuation call, w out of scope
    assert [(e["x"], "w" in e) for e in seen] == [("a", False)]


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
    engine, _ = engine_for("lattice powerset {a,b}\nrel R/1\nclause 1")
    with pytest.raises(SolverInvariantError, match="not in scope"):
        engine.run_stratum(Assert("R", (Var("x"),), LitConst(frozenset("a"))))
    with pytest.raises(SolverInvariantError, match="not in scope"):
        engine.run_stratum(Imply(Query("R", (Var("x"),), LitConst(frozenset("a"))),
                                 TrueClause()))


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
    assert oracle.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    assert result.leaves()["P"] == {}
    assert cli.run_compare(program).lines == ["identical"]


def test_application_inside_exists_matches_naive():
    from latlog.randgen import random_program

    program = reorder_preconditions(random_program(3951134603))
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


def test_solve_leaves_ast_caches_untouched():
    # atom names no earlier test used, so cached entries cannot stand in
    tag = f"u{id(object())}"
    text = (f"lattice powerset {{a,b}}\nrel E/2\nrel T/2\n"
            f"fact E({tag}0,{tag}1) = {{a}}\nfact E({tag}1,{tag}2) = {{b}}\n"
            "clause (forall x. forall y. forall 'Y. E(x,y;'Y) => T(x,y;'Y))"
            " & (forall x. forall y. forall z. forall 'Y. forall 'Z."
            " T(x,y;'Y) & E(y,z;'Z) & (exists w. !E(z,w;{a})) => T(x,z;'Y))")
    program = reorder_preconditions(validate(parse_clauses(text)))
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
    result = solve(reorder_preconditions(program))
    assert oracle.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)
    assert result.stratum_isolation_holds()
    assert result.stats.propagation_bound_holds()
