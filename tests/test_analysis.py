"""Program-graph parsing, clause generation, and analysis soundness."""

from itertools import cycle

import pytest

from latlog import ast, oracle
from latlog.analysis import (Assign, BinOp, BoolTest, Edge, Skip,
                             gen_interval_clauses, gen_sign_clauses,
                             int_literals, analysis_program, parse_program_graph)
from latlog.errors import ParseError, ValidationError
from latlog.parser import parse_clauses, pretty
from latlog.solver import solve

import helpers
import reference_semantics as semantics

GRAPHS = ["loop.graph", "countdown.graph", "sums.graph", "products.graph",
          "branch.graph"]

START_VALUES = (-2, 0, 1, 5)


def graph(name):
    return parse_program_graph(helpers.sample(name))


def analyze(text):
    return helpers.run_pipeline(text)[1]


# --- graph parsing ------------------------------------------------------------


def test_parse_assignment_edge():
    g = parse_program_graph("initial q0\nstate q1\nvar x\nq0 -> q1 : x := 0")
    assert g.edges == (Edge("q0", Assign("x", 0), "q1"),)
    assert g.initial == "q0"


def test_parse_three_address_forms():
    g = graph("loop.graph")
    acts = [e.action for e in g.edges]
    assert acts[0] == Assign("x", 0)
    assert acts[1] == BoolTest("x", "<", 3)
    assert acts[2] == Assign("x", BinOp("+", "x", 1))


def test_parse_skip_edge():
    g = graph("branch.graph")
    assert Skip() in [e.action for e in g.edges]


def test_parse_rejects_unknown_state_and_variable():
    with pytest.raises(ParseError, match="unknown state"):
        parse_program_graph("initial q0\nvar x\nq0 -> q9 : skip")
    with pytest.raises(ParseError, match="unknown variable"):
        parse_program_graph("initial q0\nstate q1\nvar x\nq0 -> q1 : y := 1")


def test_parse_requires_initial():
    with pytest.raises(ParseError, match="initial"):
        parse_program_graph("state q0\nvar x\nq0 -> q0 : skip")


def test_parse_rejects_second_initial_line():
    with pytest.raises(ParseError) as err:
        parse_program_graph("initial q0\ninitial q1\nvar x\nq0 -> q1 : skip")
    assert str(err.value) == "2:1: second 'initial' line"


def test_parse_long_ring_keeps_first_occurrence_order():
    # a state line before the initial one, and every name declared twice
    n = 20_000
    g = parse_program_graph("\n".join([
        "state q1", "initial q0", *(f"state q{i}" for i in range(1, n)), "var x", "var x",
        *(f"q{i} -> q{i + 1} : x := x + 1" for i in range(n - 1)), f"q{n - 1} -> q0 : skip"]))
    assert g.states == ("q1", "q0", *(f"q{i}" for i in range(2, n)))
    assert (len(g.edges), g.variables) == (n, ("x",))


def test_literals_come_from_assignments_only():
    assert int_literals(graph("loop.graph")) == {0, 1}
    assert int_literals(graph("countdown.graph")) == {5, 1}


def test_generator_rejects_colliding_names():
    g = parse_program_graph("initial q0\nstate q1\nvar v\nq0 -> q1 : v := 1")
    with pytest.raises(ValidationError, match="collides"):
        gen_interval_clauses(g)
    # the second propagation rule binds v_2, which would capture this state
    g = parse_program_graph("initial q0\nstate v_2\nvar x\n"
                            "q0 -> v_2 : skip\nv_2 -> q0 : skip")
    with pytest.raises(ValidationError, match="collides"):
        gen_sign_clauses(g)


@pytest.mark.parametrize("name", [*GRAPHS, "no-edges"])
def test_built_program_is_what_its_text_parses_to(name):
    # a graph without edges makes a single assertion, not a conjunction
    g = parse_program_graph("initial q0\nvar x\n" if name == "no-edges"
                            else helpers.sample(name))
    for args in (("signs",), ("intervals",), ("intervals", -2, 7)):
        program = analysis_program(g, *args)
        parsed = parse_clauses(pretty(program))
        assert parsed.strata == program.strata
        assert (parsed.arities, parsed.universe, parsed.declared_funs) == \
            (program.arities, program.universe, program.declared_funs)
        assert (parsed.lattice.kind, parsed.lattice.zvalues) == \
            (program.lattice.kind, program.lattice.zvalues)


def test_long_ring_text_parses_at_default_recursion_limit(default_recursion_limit):
    # one clause of about 2 000 conjuncts, each a parenthesized implication
    n = 1000
    g = parse_program_graph("\n".join([
        "initial q0", *(f"state q{i}" for i in range(1, n)), "var x", "var y",
        *(f"q{i} -> q{i + 1} : {v} := {v} + 1" for i, v in zip(range(n - 1), cycle("xy"))),
        f"q{n - 1} -> q0 : skip"]))
    program = analysis_program(g, "intervals", 0, 5)
    assert ast.validate(parse_clauses(pretty(program))).strata == program.strata


# --- interval analysis ----------------------------------------------------------


def loop_result():
    text = gen_interval_clauses(graph("loop.graph"), 0, 3)
    program = ast.reorder_preconditions(ast.validate(parse_clauses(text)))
    return program, solve(program)


def test_generated_interval_file_is_single_stratum():
    text = gen_interval_clauses(graph("loop.graph"), 0, 3)
    program = ast.validate(parse_clauses(text))
    assert program.num_strata == 1
    assert program.ranks == {"A": 1}


def test_loop_graph_interval_result():
    program, result = loop_result()
    mk = program.lattice.make_interval
    inf = float("inf")
    leaves = result.leaves()["A"]
    assert leaves[("q1", "x")] == mk(0, inf)
    assert leaves[("q3", "x")] == mk(0, inf)
    assert leaves[("q0", "x")] == program.lattice.top
    reference = oracle.naive_fixpoint(program)
    assert semantics.from_leaves(program, result.leaves()) == reference


def test_unreached_state_stays_bottom():
    text = ("initial q0\nstate q1\nstate island\nstate q2\nvar x\n"
            "q0 -> q1 : x := 1\n"
            "island -> q2 : x := 9\n")
    clause_text = gen_interval_clauses(parse_program_graph(text))
    result = analyze(clause_text)
    leaves = result.leaves()["A"]
    assert ("q2", "x") not in leaves
    assert ("island", "x") not in leaves


def test_skip_and_test_edges_propagate_unchanged():
    text = ("initial q0\nstate q1\nstate q2\nvar x\n"
            "q0 -> q1 : skip\n"
            "q1 -> q2 : test x < 5\n")
    result = analyze(gen_interval_clauses(parse_program_graph(text)))
    leaves = result.leaves()["A"]
    top = leaves[("q0", "x")]
    assert leaves[("q1", "x")] == top
    assert leaves[("q2", "x")] == top


def test_copy_and_literal_assignments():
    text = ("initial q0\nstate q1\nstate q2\nvar x\nvar y\n"
            "q0 -> q1 : x := 4\n"
            "q1 -> q2 : y := x\n")
    program, result = helpers.run_pipeline(
        gen_interval_clauses(parse_program_graph(text), 0, 5))
    mk = program.lattice.make_interval
    leaves = result.leaves()["A"]
    assert leaves[("q1", "x")] == mk(4, 4)
    assert leaves[("q2", "y")] == mk(4, 4)
    assert leaves[("q2", "x")] == mk(4, 4)


@pytest.mark.parametrize("name", GRAPHS)
def test_interval_analysis_sound_against_execution(name):
    g = graph(name)
    program, result = helpers.run_pipeline(gen_interval_clauses(g))
    leaves = result.leaves().get("A", {})
    for store in helpers.initial_stores(g, START_VALUES):
        for state, var, value in helpers.concrete_reachable(g, store, max_steps=1000):
            iv = leaves.get((state, var))
            assert iv is not None, (name, state, var)
            assert iv.contains(value), (name, state, var, value, iv)


# --- sign analysis ----------------------------------------------------------------


def test_sign_transfer_follows_representatives():
    # the dedicated brute-force comparison lives in the lattice tests; here
    # just the spot values the analyses lean on
    from latlog.lattices import sign_transfer

    s_add = sign_transfer("add")
    assert s_add(frozenset("+"), frozenset("+")) == frozenset("+")
    assert s_add(frozenset("+"), frozenset("-")) == frozenset(("-", "0", "+"))


def test_assign_positive_literal():
    text = ("initial q0\nstate q1\nvar x\nq0 -> q1 : x := 1\n")
    result = analyze(gen_sign_clauses(parse_program_graph(text)))
    assert result.leaves()["A"][("q1", "x")] == frozenset("+")


def test_generated_sign_file_matches_oracle():
    text = gen_sign_clauses(graph("branch.graph"))
    program = ast.reorder_preconditions(ast.validate(parse_clauses(text)))
    result = solve(program)
    assert semantics.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)


def test_sign_initialization_joins_to_top():
    # asserting the three sign singletons equals asserting top
    program, result = helpers.run_pipeline(
        "lattice signs\n"
        "rel A/1\nrel B/1\n"
        "clause A(q;{-}) & A(q;{0}) & A(q;{+}) & B(q;top)")
    leaves = result.leaves()
    assert leaves["A"][("q",)] == leaves["B"][("q",)] == frozenset(("-", "0", "+"))


@pytest.mark.parametrize("name", GRAPHS)
def test_sign_result_abstracts_interval_result(name):
    g = graph(name)
    interval_leaves = helpers.run_pipeline(
        gen_interval_clauses(g))[1].leaves().get("A", {})
    sign_leaves = helpers.run_pipeline(
        gen_sign_clauses(g))[1].leaves().get("A", {})
    for key, iv in interval_leaves.items():
        assert helpers.signs_of_interval(iv) <= sign_leaves.get(key, frozenset()), \
            (name, key)


def test_relational_sign_file_agrees_with_functional_analysis():
    program, result = helpers.run_pipeline(helpers.sample("signs_relational.lat"))
    relational = result.leaves()["A"]
    assert semantics.from_leaves(program, result.leaves()) == \
        oracle.naive_fixpoint(program)

    functional_graph = parse_program_graph(
        "initial q0\nstate q1\nstate q2\nvar x\nvar y\n"
        "q0 -> q1 : x := 1\n"
        "q1 -> q2 : y := x + x\n")
    functional = helpers.run_pipeline(
        gen_sign_clauses(functional_graph))[1].leaves()["A"]
    rename = {"neg": "-", "zer": "0", "pos": "+"}
    for key, signs in functional.items():
        assert frozenset(rename[a] for a in relational[key]) == signs, key
