"""Parsing, pretty-printing, well-formedness, stratification, reordering."""

import pytest

from latlog import ast
from latlog.ast import (Apply, Assert, ClauseAnd, Const, FnApp,
                        ForallX, ForallY, Imply, LitConst, NegQuery, PreAnd,
                        PreOr, Query, Repr, TrueClause, Var, YVar,
                        check_well_formed, compute_ranks,
                        reorder_preconditions, validate)
from latlog.errors import ParseError, StratificationError, ValidationError
from latlog.lattices import powerset_lattice, standard_registry
from latlog.parser import parse_clauses, parse_fact, pretty
from latlog.randgen import random_program

import helpers


def powerset_program(strata, facts=(), atoms=("a", "b"), arities=None):
    lat = powerset_lattice(atoms)
    return ast.Program(
        lattice=lat,
        registry=standard_registry(lat),
        strata=tuple(strata),
        facts=tuple(facts),
        arities=dict(arities or {}),
        universe=tuple(sorted(atoms)),
    )


# --- parsing --------------------------------------------------------------------


def test_parse_described_assert():
    p = parse_clauses("lattice powerset {a,b}\nclause forall x. E(x;[x])")
    assert p.strata == (ForallX("x", Assert("E", (Var("x"),), Repr(Var("x")))),)


def test_parse_unit_clause():
    p = parse_clauses("lattice powerset {a}\nclause 1")
    assert p.strata == (TrueClause(),)


def test_parse_negative_query_implication():
    p = parse_clauses(
        "lattice powerset {a,b}\n"
        "clause forall x. forall 'Y. !E(x;'Y) => N(x;'Y)")
    assert p.strata == (
        ForallX("x", ForallY("'Y", Imply(
            NegQuery("E", (Var("x"),), YVar("'Y")),
            Assert("N", (Var("x"),), YVar("'Y"))))),)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_clauses("lattice powerset {a}\nclause forall x. E(x;[x)")
    assert err.value.line == 2


def test_parse_arity_mismatch():
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_clauses("lattice powerset {a}\nrel E/2\nclause E(a;[a])")


def test_parse_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse_clauses("lattice signs\nclause R(a;s_div({+},{+}))")


def test_parse_unknown_atom_outside_powerset_universe():
    with pytest.raises(ParseError, match="unknown atom"):
        parse_clauses("lattice powerset {a,b}\nclause R(zzz;[zzz])")


def test_parse_fnapp_in_query_rejected():
    with pytest.raises(ParseError, match="not allowed in queries"):
        parse_clauses("lattice signs\nfun s_add/2\n"
                      "clause forall 'Y. R(a;s_add('Y,'Y)) => S(a;'Y)")


def test_parse_uppercase_unbound_identifier_rejected():
    with pytest.raises(ParseError, match="constants are lowercase"):
        parse_clauses("lattice powerset {a}\nclause R(Zed;[a])")


def test_parse_unbound_lattice_variable():
    with pytest.raises(ParseError, match="unbound lattice variable"):
        parse_clauses("lattice powerset {a}\nclause R(a;'Y)")


def test_parse_interval_literals_and_descriptions():
    p = parse_clauses(
        "lattice interval zmin=0 zmax=4\n"
        "clause forall x. R(x;[x]) & S(x;[1,2]) & T(x;[-inf,3]) & U(x;[1])")
    flat = []

    def walk(cl):
        if isinstance(cl, ClauseAnd):
            for c in cl.parts:
                walk(c)
        else:
            flat.append(cl)

    walk(p.strata[0].body)
    lat = p.lattice
    assert flat[0].value == Repr(Var("x"))
    assert flat[1].value == LitConst(lat.make_interval(1, 2))
    assert flat[2].value == LitConst(lat.make_interval(float("-inf"), 3))
    assert flat[3].value == Repr(Const(1))


def test_parse_sign_set_literals():
    p = parse_clauses("lattice signs\nfact R(q) = {-,0}\nfact S(q) = {+}")
    assert p.facts[0].value == frozenset(("-", "0"))
    assert p.facts[1].value == frozenset("+")


def test_parse_comma_separates_strata():
    one = parse_clauses("lattice powerset {a}\nclause R(a;[a]), S(a;[a])")
    two = parse_clauses("lattice powerset {a}\nclause R(a;[a])\nclause S(a;[a])")
    assert one.strata == two.strata
    assert len(one.strata) == 2


def test_parse_shadowed_binder_renamed_apart():
    p = parse_clauses(
        "lattice powerset {a}\nclause forall x. forall x. R(x;[x])")
    inner = p.strata[0].body
    assert inner.var == "x_2"
    assert inner.body.args == (Var("x_2"),)


def test_parse_binder_names_skip_user_written_suffixes():
    rule = "(forall x. R(x;[x]))"
    p = parse_clauses("lattice powerset {a}\nclause forall x_3. forall 'Y. "
                      f"{rule} & {rule} & {rule} & {rule} & (forall 'Y. R(x_3;'Y))")
    outer = p.strata[0]
    conj = outer.body.body
    assert [outer.var, outer.body.yvar] == ["x_3", "'Y"]
    assert [c.var for c in conj.parts[:4]] == ["x", "x_2", "x_4", "x_5"]
    assert conj.parts[4].yvar == "'Y_2"
    # each clause item names its binders afresh
    p = parse_clauses(f"lattice powerset {{a}}\nclause {rule} & {rule}, {rule}")
    assert [c.var for c in p.strata[0].parts] + [p.strata[1].var] == ["x", "x_2", "x"]


def test_parse_chains_into_one_node():
    r, s, t = (f"{n}(a;[a])" for n in "RST")
    want = ClauseAnd(tuple(Assert(n, (Const("a"),), Repr(Const("a"))) for n in "RST"))
    for text in (f"{r} & {s} & {t}", f"({r} & {s}) & {t}", f"(({r} & {s})) & {t}"):
        assert parse_clauses(f"lattice powerset {{a}}\nclause {text}").strata == (want,)
    nested = parse_clauses(f"lattice powerset {{a}}\nclause {r} & ({s} & {t})").strata[0]
    assert nested == ClauseAnd((want.parts[0], ClauseAnd(want.parts[1:])))
    pre = parse_clauses(
        f"lattice powerset {{a}}\nclause {r} | {s} & {t} | ({r} | {s}) => {t}").strata[0].pre
    q = {n: Query(n, (Const("a"),), Repr(Const("a"))) for n in "RST"}
    assert pre == PreOr((q["R"], PreAnd((q["S"], q["T"])), PreOr((q["R"], q["S"]))))


@pytest.mark.parametrize("text", [
    "R(a;[a]) & S(a;[a]) & T(a;[a])",
    "R(a;[a]) & (S(a;[a]) & T(a;[a]))",
    "R(a;[a]) | (S(a;[a]) | T(a;[a])) & R(a;[a]) | T(a;[a]) => S(a;[a]) & 1",
])
def test_pretty_prints_chains_as_written(text):
    p = parse_clauses(f"lattice powerset {{a}}\nclause {text}")
    assert pretty(p).splitlines()[-1] == f"clause {text}"


def test_parse_fact_override_text():
    program = validate(parse_clauses(helpers.sample("facts_only.lat")))
    fact = parse_fact("fact R(a,b) = {a}", program)
    assert fact == ast.Fact("R", ("a", "b"), frozenset("a"))
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_fact("fact R(a) = {a}", program)


# --- pretty-printing round trips --------------------------------------------------


@pytest.mark.parametrize("name", ["eq_neq.lat", "eq_neq_abc.lat",
                                  "facts_only.lat", "signs_relational.lat",
                                  "nonstratified.lat"])
def test_roundtrip_sample_files(name):
    p1 = parse_clauses(helpers.sample(name))
    p2 = parse_clauses(pretty(p1))
    assert helpers.program_fingerprint(p1) == helpers.program_fingerprint(p2)


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_random_programs(seed):
    p1 = random_program(seed)
    p2 = parse_clauses(pretty(p1))
    assert helpers.program_fingerprint(p1) == helpers.program_fingerprint(p2)


def test_roundtrip_interval_program():
    text = ("lattice interval zmin=-2 zmax=3\n"
            "fun f_add/2\n"
            "fact B(n) = [0,2]\n"
            "clause forall x. (exists 'I. B(x;'I) & 'I(x)) => "
            "R(x;f_add([1,1],[x]))")
    p1 = parse_clauses(text)
    p2 = parse_clauses(pretty(p1))
    assert helpers.program_fingerprint(p1) == helpers.program_fingerprint(p2)


# --- well-formedness ---------------------------------------------------------------


def test_free_variable_rejected():
    program = powerset_program([Assert("E", (Var("x"),), Repr(Var("x")))])
    with pytest.raises(ValidationError, match="free variable"):
        check_well_formed(program)


def test_validation_paths_index_the_parts():
    ok = Assert("E", (Const("a"),), Repr(Const("a")))
    ok_q = Query("R", (Const("a"),), Repr(Const("a")))
    bad_q = Query("R", (Var("x"),), LitConst(frozenset("a")))
    pre = PreOr((ok_q, PreAnd((ok_q, bad_q))))
    program = powerset_program([ClauseAnd((ok, ok, Imply(pre, ok)))])
    with pytest.raises(ValidationError) as err:
        check_well_formed(program)
    assert str(err.value) == "stratum 1/and.3/pre/or.2/and.2: free variable 'x'"


def test_fnapp_in_query_rejected_programmatically():
    pre = Query("R", (Var("x"),), FnApp("u_join", (YVar("'Y"), YVar("'Y"))))
    program = powerset_program(
        [ForallX("x", ForallY("'Y", Imply(pre, Assert("S", (Var("x"),), YVar("'Y")))))])
    program.registry.register("u_join", 2, frozenset.union)
    with pytest.raises(ValidationError, match="only allowed in assertions"):
        check_well_formed(program)


def test_negation_requires_complement():
    with pytest.raises(ValidationError, match="without complement"):
        validate(parse_clauses(
            "lattice interval zmin=0 zmax=1\n"
            "clause R(q;[0,1]),\n"
            "       forall 'I. !R(q;'I) => S(q;'I)"))


def test_bottom_constant_in_query_rejected():
    with pytest.raises(ValidationError, match="bottom constant"):
        validate(parse_clauses("lattice powerset {a}\nclause R(a;bot) => S(a;[a])"))


def test_unknown_atom_in_programmatic_ast():
    program = powerset_program([Assert("E", (Const("z"),), LitConst(frozenset("a")))])
    with pytest.raises(ValidationError, match="unknown atom"):
        check_well_formed(program)


def test_fact_for_asserted_predicate_rejected():
    program = powerset_program(
        [Assert("E", (Const("a"),), LitConst(frozenset("a")))],
        facts=[ast.Fact("E", ("a",), frozenset("b"))])
    with pytest.raises(ValidationError, match="base relations"):
        check_well_formed(program)


def test_shadowing_rejected_programmatically():
    program = powerset_program(
        [ForallX("x", ForallX("x", Assert("E", (Var("x"),), Repr(Var("x")))))])
    with pytest.raises(ValidationError, match="shadowed"):
        check_well_formed(program)


def test_empty_universe_rejected():
    text = "lattice signs\nclause forall x. R(x;[x])"
    with pytest.raises(ValidationError, match="empty universe"):
        validate(parse_clauses(text))


def test_eq_neq_sample_accepted():
    program = validate(parse_clauses(helpers.sample("eq_neq.lat")))
    assert program.ranks == {"E": 1, "N": 2}


# --- stratification ----------------------------------------------------------------


def test_ranks_eq_neq():
    program = check_well_formed(parse_clauses(helpers.sample("eq_neq.lat")))
    assert compute_ranks(program) == {"E": 1, "N": 2}


def test_negative_cycle_rejected():
    program = check_well_formed(parse_clauses(helpers.sample("nonstratified.lat")))
    with pytest.raises(StratificationError):
        compute_ranks(program)


def test_positive_self_recursion_allowed():
    program = check_well_formed(parse_clauses(
        "lattice powerset {a}\n"
        "clause forall x. forall 'Y. R(x;'Y) => R(x;'Y)"))
    assert compute_ranks(program) == {"R": 1}


def test_assertion_in_two_strata_rejected():
    program = check_well_formed(parse_clauses(
        "lattice powerset {a}\nclause R(a;[a]), R(a;top)"))
    with pytest.raises(StratificationError, match="asserted in strata"):
        compute_ranks(program)


def test_negative_query_of_same_stratum_rejected():
    program = check_well_formed(parse_clauses(
        "lattice powerset {a}\n"
        "clause forall x. forall 'Y. !R(x;'Y) => R(x;'Y)"))
    with pytest.raises(StratificationError):
        compute_ranks(program)


@pytest.mark.parametrize("seed", range(30))
def test_ranks_verified_independently(seed):
    program = random_program(seed)
    assert helpers.independent_rank_check(program, program.ranks)


# --- precondition reordering --------------------------------------------------------


def _spine_program(pre):
    body = Imply(pre, Assert("S", (Var("x"),), YVar("'Y")))
    return powerset_program(
        [ForallX("x", ForallY("'Y", body)),
         ],
        arities={"R": 1, "S": 1, "T": 1})


def test_reorder_moves_application_after_definition():
    pre = PreAnd((Apply("'Y", Var("x")), Query("R", (Var("x"),), YVar("'Y"))))
    program = validate(_spine_program(pre))
    out = reorder_preconditions(program).strata[0].body.body.pre
    assert out == PreAnd((Query("R", (Var("x"),), YVar("'Y")), Apply("'Y", Var("x"))))


def test_reorder_keeps_ordered_spine():
    pre = PreAnd((Query("R", (Var("x"),), YVar("'Y")), Apply("'Y", Var("x"))))
    program = validate(_spine_program(pre))
    assert reorder_preconditions(program).strata[0].body.body.pre == pre


def test_reorder_leaves_undefined_application_alone():
    pre = PreAnd((Apply("'Y", Var("x")),
                  Query("T", (Var("x"),), Repr(Var("x")))))
    program = validate(_spine_program(pre))
    assert reorder_preconditions(program).strata[0].body.body.pre == pre


def test_reorder_recurses_into_disjuncts():
    inner = PreAnd((Apply("'Y", Var("x")), Query("R", (Var("x"),), YVar("'Y"))))
    pre = PreOr((inner, Query("T", (Var("x"),), Repr(Var("x")))))
    program = validate(_spine_program(pre))
    out = reorder_preconditions(program).strata[0].body.body.pre
    assert out.parts[0] == PreAnd((Query("R", (Var("x"),), YVar("'Y")),
                                   Apply("'Y", Var("x"))))
    assert out.parts[1] == pre.parts[1]


@pytest.mark.parametrize("seed", range(40))
def test_reorder_preserves_conjunct_multisets(seed):
    program = random_program(seed)
    reordered = reorder_preconditions(program)

    def spines(cl, out):
        if isinstance(cl, ClauseAnd):
            for c in cl.parts:
                spines(c, out)
        elif isinstance(cl, Imply):
            out.append(sorted(map(repr, helpers.conjuncts(cl.pre))))
            spines(cl.body, out)
        elif isinstance(cl, (ForallX, ForallY)):
            spines(cl.body, out)

    before, after = [], []
    for cl in program.strata:
        spines(cl, before)
    for cl in reordered.strata:
        spines(cl, after)
    assert before == after
