"""Reference semantics: satisfaction, naive fixpoint, models, glb, ordering."""

import random

import pytest

from latlog import ast, oracle
from latlog.ast import (Const, NegQuery, Query, Repr, Var, YVar,
                        reorder_preconditions, validate)
from latlog.errors import OracleSizeError, UnsupportedInstanceError
from latlog.lattices import interval_lattice, standard_registry
from latlog.parser import parse_clauses
from latlog.randgen import random_program
from latlog.solver import solve

import helpers
import cases_semantics
import reference_semantics as semantics


# --- the hand-written conformance table -------------------------------------------


@pytest.mark.parametrize("case", cases_semantics.CASES, ids=lambda c: c.name)
def test_semantics_case(case):
    assert cases_semantics.run_case(case) == case.expected


def test_semantics_table_shape():
    assert len(cases_semantics.CASES) >= 20
    missing = set(cases_semantics._COVERED_KINDS) - \
        cases_semantics.covered_constructs()
    assert not missing
    assert {c.tag for c in cases_semantics.CASES} == {"direct", "derived"}


# --- satisfaction spot checks -------------------------------------------------------


def ctx2():
    program = validate(parse_clauses(helpers.sample("eq_neq.lat")))
    interp = oracle.Interpretation(program.lattice, program.arities,
                                   {"E": {("a",): frozenset("a")}})
    return program, interp


def test_satisfies_described_query():
    program, interp = ctx2()
    assert oracle.satisfies_pre(program, interp, {},
                                Query("E", (Const("a"),), Repr(Const("a"))))


def test_satisfies_negquery_via_complement():
    program, interp = ctx2()
    assert oracle.satisfies_pre(program, interp, {"'Y": frozenset("b")},
                                NegQuery("E", (Const("a"),), YVar("'Y")))
    assert not oracle.satisfies_pre(program, interp, {"'Y": frozenset("a")},
                                    NegQuery("E", (Const("a"),), YVar("'Y")))


def test_satisfies_unit_clause():
    program, interp = ctx2()
    assert semantics.satisfies_clause(program, interp, {}, ast.TrueClause())


def test_existential_lattice_quantifier_needs_enumeration():
    lat = interval_lattice(0, 1)
    object.__setattr__(lat, "enumerate_elements", None)
    program = ast.Program(lattice=lat, registry=standard_registry(lat),
                          strata=(), arities={"R": 1}, universe=(0, 1))
    interp = oracle.Interpretation(lat, {"R": 1})
    pre = ast.Exists("'I", Query("R", (Const(0),), YVar("'I")))
    with pytest.raises(UnsupportedInstanceError):
        oracle.satisfies_pre(program, interp, {}, pre)


# --- naive fixpoint -----------------------------------------------------------------


def test_naive_fixpoint_eq_neq():
    program = validate(parse_clauses(helpers.sample("eq_neq.lat")))
    got = oracle.naive_fixpoint(program)
    assert got.leaves() == {
        "E": {("a",): frozenset("a"), ("b",): frozenset("b")},
        "N": {("a",): frozenset("b"), ("b",): frozenset("a")},
    }
    assert semantics.is_model(program, got)


def test_naive_fixpoint_facts_only():
    program = validate(parse_clauses(helpers.sample("facts_only.lat")))
    got = oracle.naive_fixpoint(program)
    assert got == oracle.facts_interpretation(program)


def test_oracle_dump_matches_solver_dump_format():
    program = reorder_preconditions(validate(parse_clauses(
        helpers.sample("eq_neq_abc.lat"))))
    result = solve(program)
    reference = oracle.naive_fixpoint(program)
    assert oracle.dump_lines(program, reference) == result.dump_lines()


def test_naive_fixpoint_guard_on_large_universe():
    atoms = [f"a{i}" for i in range(70)]
    text = "lattice powerset {" + ",".join(atoms) + "}\nclause R(a0;[a0])"
    program = validate(parse_clauses(text))
    with pytest.raises(OracleSizeError):
        oracle.naive_fixpoint(program)


# --- model enumeration ----------------------------------------------------------------


def test_models_contain_fixpoint_and_top():
    for seed in range(12):
        program = random_program(seed)
        models = semantics.enumerate_models(program)
        fix = oracle.naive_fixpoint(program)
        assert fix in models, f"seed {seed}"
        top = oracle.Interpretation(program.lattice, program.arities)
        for pred, arity in program.arities.items():
            for atoms in helpers.all_tuples(program.universe, arity):
                top.set(pred, atoms, program.lattice.top)
        assert top in models, f"seed {seed}"


def test_models_of_single_constant_assertion():
    program = validate(parse_clauses(
        "lattice powerset {a,b}\nrel R/1\nclause R(a;{a})"))
    models = semantics.enumerate_models(program)
    elements = list(program.lattice.enumerate_elements())
    expected = 0
    for va in elements:
        for vb in elements:
            if frozenset("a") <= va:
                expected += 1
    assert len(models) == expected
    assert all(frozenset("a") <= m.get("R", ("a",)) for m in models)


def test_enumeration_guard():
    program = validate(parse_clauses(
        "lattice powerset {a,b,c}\nrel R/2\nrel S/2\nclause R(a,a;{a}) & S(a,a;{a})"))
    with pytest.raises(OracleSizeError):
        semantics.enumerate_models(program)


# --- staged glb -------------------------------------------------------------------------


def test_glb_single_stratum_is_pointwise_meet():
    program = validate(parse_clauses(
        "lattice powerset {a,b}\nrel R/1\nclause R(a;{a})"))
    models = semantics.enumerate_models(program)
    glb = semantics.glb_interpretations(program, models)
    for atoms in helpers.all_tuples(program.universe, 1):
        meet = program.lattice.top
        for m in models:
            meet = program.lattice.meet(meet, m.get("R", atoms))
        assert glb.get("R", atoms) == meet


def test_glb_of_singleton_is_identity():
    program = random_program(3)
    fix = oracle.naive_fixpoint(program)
    assert semantics.glb_interpretations(program, [fix]) == fix


def test_staged_glb_differs_from_pointwise_meet():
    # two strata: the pointwise meet of two models breaks the second stratum,
    # the staged construction does not
    program = validate(parse_clauses(
        "lattice powerset {a,b}\n"
        "clause Q(a;{a}),\n"
        "       forall 'Y. !Q(a;'Y) => P(a;'Y)"))
    m1 = oracle.Interpretation(program.lattice, program.arities, {
        "Q": {("a",): frozenset("a")}, "P": {("a",): frozenset("b")}})
    m2 = oracle.Interpretation(program.lattice, program.arities, {
        "Q": {("a",): frozenset(("a", "b"))}})
    assert semantics.is_model(program, m1) and semantics.is_model(program, m2)
    pointwise = oracle.Interpretation(program.lattice, program.arities, {
        "Q": {("a",): frozenset("a")}})
    assert not semantics.is_model(program, pointwise)
    staged = semantics.glb_interpretations(program, [m1, m2])
    assert staged == m1
    assert semantics.is_model(program, staged)


def test_glb_over_sampled_model_subsets_is_model():
    rng = random.Random(7)
    for seed in range(10):
        program = random_program(seed)
        models = semantics.enumerate_models(program)
        for _ in range(5):
            subset = rng.sample(models, rng.randint(1, len(models)))
            glb = semantics.glb_interpretations(program, subset)
            assert semantics.is_model(program, glb), f"seed {seed}"


# --- lexicographic order ------------------------------------------------------------------


def test_lex_reflexive_and_antisymmetric():
    for seed in range(8):
        program = random_program(seed)
        models = semantics.enumerate_models(program)
        sampled = models[:: max(1, len(models) // 12)]
        for m in sampled:
            assert semantics.lex_leq(program, m, m)
        for m1 in sampled:
            for m2 in sampled:
                if semantics.lex_leq(program, m1, m2) and \
                        semantics.lex_leq(program, m2, m1):
                    assert m1 == m2


def test_lex_transitive_at_desk_scale():
    program = random_program(1)
    models = semantics.enumerate_models(program)
    sampled = models[:: max(1, len(models) // 8)]
    for m1 in sampled:
        for m2 in sampled:
            for m3 in sampled:
                if semantics.lex_leq(program, m1, m2) and \
                        semantics.lex_leq(program, m2, m3):
                    assert semantics.lex_leq(program, m1, m3)


def test_lex_single_stratum_without_base_is_pointwise():
    program = validate(parse_clauses(
        "lattice powerset {a,b}\nrel R/1\nclause R(a;{a})"))
    models = semantics.enumerate_models(program)
    sampled = models[:: max(1, len(models) // 10)]
    for m1 in sampled:
        for m2 in sampled:
            assert semantics.lex_leq(program, m1, m2) == semantics.pred_leq(m1, m2, "R")


def test_lex_base_difference_uses_stage_zero():
    program = validate(parse_clauses(
        "lattice powerset {a}\nrel B/1\nrel P/1\n"
        "clause forall x. forall 'Y. B(x;'Y) => P(x;'Y)"))
    small = oracle.Interpretation(program.lattice, program.arities, {})
    big = oracle.Interpretation(program.lattice, program.arities, {
        "B": {("a",): frozenset("a")}, "P": {("a",): frozenset("a")}})
    assert semantics.lex_leq(program, small, big)
    assert not semantics.lex_leq(program, big, small)


def test_solver_output_is_lex_least():
    for seed in range(15):
        program = random_program(seed)
        result = solve(reorder_preconditions(program))
        got = semantics.from_leaves(program, result.leaves())
        for m in semantics.enumerate_models(program):
            assert semantics.lex_leq(program, got, m), f"seed {seed}"


# --- set-based correspondence ----------------------------------------------------------


def test_datalog_translation_of_eq_neq():
    program = validate(parse_clauses(helpers.sample("eq_neq.lat")))
    strata, facts = semantics.to_datalog(program)
    rel = semantics.datalog_fixpoint(strata, facts, program.universe)
    assert rel["E"] == {("a", "a"), ("b", "b")}
    assert rel["N"] == {("a", "b"), ("b", "a")}


def test_datalog_matches_solver_on_fragment():
    for seed in range(25):
        program = random_program(seed, set_fragment=True)
        result = solve(reorder_preconditions(program))
        assert semantics.correspondence_diff(program, result.leaves()) == [], \
            f"seed {seed}"
        fix = oracle.naive_fixpoint(program)
        assert semantics.correspondence_diff(program, fix.leaves()) == [], \
            f"seed {seed} (naive)"


def test_datalog_translation_rejects_applications():
    program = validate(parse_clauses(
        "lattice powerset {a}\n"
        "clause forall x. forall 'Y. R(x;'Y) & 'Y(x) => S(x;'Y)"))
    with pytest.raises(UnsupportedInstanceError):
        semantics.to_datalog(program)


# --- reordering neutrality ---------------------------------------------------------------


def test_reordering_preserves_least_model():
    for seed in range(40):
        program = random_program(seed)
        result = solve(reorder_preconditions(program))
        assert semantics.from_leaves(program, result.leaves()) == \
            oracle.naive_fixpoint(program), f"seed {seed}"
