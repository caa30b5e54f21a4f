"""Parsing, pretty-printing, well-formedness, stratification, reordering."""

import gc
import hashlib
import random
import re
import tracemalloc

import pytest

from latlog import ast
from latlog.ast import (And, Apply, Assert, Const, FnApp, Forall, Imply,
                        LitConst, NegQuery, PreOr, Query, Repr, TrueClause, Var,
                        YVar, compute_ranks, reorder_preconditions, validate)
from latlog.cli import _with_facts, run_solve
from latlog.errors import ParseError, StratificationError, ValidationError
from latlog.lattices import interval_lattice, powerset_lattice, standard_registry
from latlog.parser import parse_clauses, parse_fact, pretty, tokenize
from latlog.randgen import random_program

import helpers
from test_robustness import _CLAUSE_VOCAB, _mutate, _without_comments


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
    assert p.strata == (Forall("x", Assert("E", (Var("x"),), Repr(Var("x")))),)


def test_parse_unit_clause():
    p = parse_clauses("lattice powerset {a}\nclause 1")
    assert p.strata == (TrueClause(),)


def test_parse_negative_query_implication():
    p = parse_clauses(
        "lattice powerset {a,b}\n"
        "clause forall x. forall 'Y. !E(x;'Y) => N(x;'Y)")
    assert p.strata == (
        Forall("x", Forall("'Y", Imply(
            NegQuery("E", (Var("x"),), YVar("'Y")),
            Assert("N", (Var("x"),), YVar("'Y"))))),)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_clauses("lattice powerset {a}\nclause forall x. E(x;[x)")
    assert err.value.line == 2


POWERSET = "lattice powerset {a,b}\n"


@pytest.mark.parametrize("text, message, line, col", [
    (POWERSET + "clause exists x. R(x;[x])",
     "exists is not allowed in clause position", 2, 8),
    (POWERSET + "clause forall x. (forall y. R(y;[y])) => S(x;[x])",
     "forall is not allowed in preconditions", 2, 19),
    (POWERSET + "clause R(a;[a]) | S(a;[a])",
     "disjunction is only allowed in preconditions", 2, 17),
    (POWERSET + "clause !R(a;[a])",
     "a negated query cannot be asserted", 2, 8),
    (POWERSET + "clause forall 'Y. 'Y(a)",
     "a lattice-variable application is only allowed in preconditions", 2, 19),
    (POWERSET + "clause 1 => R(a;[a])",
     "'1' is a clause, not a precondition", 2, 8),
    (POWERSET + "clause (R(a;[a]) => S(a;[a])) & T(a;[a]) => U(a;[a])",
     "'=>' is not allowed inside preconditions", 2, 18),
    ("lattice signs\nfun s_add/2\nclause forall 'Y. R(a;s_add('Y,'Y)) => S(a;'Y)",
     "function terms are not allowed in queries", 3, 19),
    (POWERSET + "clause R(a;[a]) # S(a;[a])",
     "unexpected character '#'", 2, 17),
    (POWERSET + "clause R(a;[a]) &",
     "expected a clause or precondition, found end of input", 2, 18),
    ("// header\n" + POWERSET + "\n   // note\nclause !R(a;[a])",
     "a negated query cannot be asserted", 5, 8),
    (POWERSET + "clause\tR(a;[a]) |\tS(a;[a])",
     "disjunction is only allowed in preconditions", 2, 17),
    (POWERSET + "rel fact/1",
     "'fact' is reserved and cannot name a predicate", 2, 5),
    (POWERSET + "rel E/1\nrel E/2",
     "arity mismatch for E: 2 vs declared 1", 3, 5),
    ("lattice interval zmin=3 zmax=1\nrel R/1",
     "empty integer grid: zmin=3 > zmax=1", 1, 9),
    ("lattice signs\nfun g/2\nrel R/1",
     "unknown function symbol g/2", 2, 5),
    (POWERSET + "rel R/1\nfact R(a) = x",
     "expected a lattice constant, found 'x'", 3, 13),
    ("lattice interval zmin=0 zmax=3\nrel R/1\nfact R(1) = {1}",
     "set literals require a powerset or signs lattice", 3, 13),
    ("lattice signs\nrel R/1\nfact R(1) = {a}",
     "expected a sign (-, 0, +), found 'a'", 3, 14),
    ("lattice interval zmin=0 zmax=3\nrel R/1\nfact R(1) = [x,1]",
     "expected an interval endpoint, found 'x'", 3, 14),
    (POWERSET + "rel R/1\nfact R(a) = [0,1]",
     "interval literals require an interval lattice", 3, 13),
    (POWERSET + "clause R(a;[a]) #",
     "unexpected character '#'", 2, 17),
    (POWERSET + "clause R(a;[a]  \n  // tail",
     "expected ')', found end of input", 3, 10),
    (POWERSET + "clause R(a;[a]) & \n\n   ",
     "expected a clause or precondition, found end of input", 4, 4),
    (POWERSET + "clause R(a;[a]) )\n é",
     "unexpected character 'é'", 3, 2),
    (POWERSET + "clause R(a;[a]) & S(²;[a])",
     "unexpected character '²'", 2, 21),
    (POWERSET + "clause forall x'. R(x;[x])",
     "unexpected character \"'\"", 2, 16),
], ids=["exists-in-clause", "forall-in-precondition", "disjunction-asserted",
        "negation-asserted", "application-asserted", "one-as-precondition",
        "implication-in-precondition", "function-term-in-query", "bad-character",
        "and-at-end", "after-comment-and-blank-lines", "after-tab",
        "reserved-rel-name", "rel-arity-mismatch", "empty-grid", "unknown-function",
        "bad-lattice-constant", "set-literal-on-intervals", "bad-sign",
        "bad-interval-endpoint", "interval-literal-on-powerset",
        "bad-character-at-end", "end-after-trailing-comment", "end-after-trailing-blanks",
        "bad-character-before-parse-error", "superscript-digit", "lone-apostrophe"])
def test_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_clauses(text)
    assert (str(err.value), err.value.line, err.value.col) == \
        (f"{line}:{col}: {message}", line, col)


def test_tokens_are_untracked_strings_of_few_bytes():
    n = 20_000
    text = "lattice signs\n" + "".join(
        f"fact E(n{i},n{i + 1}) = {{+}}\n" for i in range(n - 1)) + \
        "clause R(n0;{+}) & (forall x. forall y. R(x;{+}) & E(x,y;{+}) => R(y;{+}))\n"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tokens = tokenize(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the header, 11 per fact, 46 for the clause and the end marker
    assert len(tokens) == 2 + 11 * (n - 1) + 46 + 1 and tokens[-1] == ""
    assert held <= 40 * len(tokens)
    assert not any(map(gc.is_tracked, tokens))


@pytest.mark.parametrize("suffix", ["", " => S(a;[a])"],
                         ids=["clause", "precondition"])
def test_parse_deep_parentheses_at_default_recursion_limit(suffix, default_recursion_limit):
    depth = 150
    text = f"{POWERSET}clause {'(' * depth}R(a;[a]){')' * depth}{suffix}"
    atom = (Const("a"),), Repr(Const("a"))
    want = Imply(Query("R", *atom), Assert("S", *atom)) if suffix else Assert("R", *atom)
    assert parse_clauses(text).strata == (want,)


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
        if isinstance(cl, And):
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


@pytest.mark.parametrize("lattice, dump", [
    ("powerset {-1,a}", "R(-1) = {-1}"),
    ("interval zmin=-2 zmax=2", "R(-1) = [-1,-1]"),
])
def test_parse_description_of_a_negative_atom(lattice, dump):
    assert run_solve(f"lattice {lattice}\nclause R(-1;[-1])").lines == [dump]


def test_parse_signed_first_endpoint_and_comma_make_an_interval_literal():
    lat = interval_lattice(-2, 2)
    p = parse_clauses("lattice interval zmin=-2 zmax=2\n"
                      "clause R(a;[-2,2]) & R(b;[-inf,0]) & R(c;[-1])")
    assert [c.value for c in p.strata[0].parts] == [
        LitConst(lat.make_interval(-2, 2)),
        LitConst(lat.make_interval(float("-inf"), 0)),
        Repr(Const(-1))]


def test_parse_sign_set_literals():
    p = parse_clauses("lattice signs\nfact R(q) = {-,0}\nfact S(q) = {+}")
    assert p.facts[0].value == frozenset(("-", "0"))
    assert p.facts[1].value == frozenset("+")


def _interval_const(lo, hi):
    return LitConst(interval_lattice(0, 2).make_interval(lo, hi))


@pytest.mark.parametrize("text, field, want", [
    ("lattice powerset {a,}", "universe", ("a",)),
    (POWERSET + "fact R(a,) = {a}", "facts", (ast.Fact("R", ("a",), frozenset("a")),)),
    (POWERSET + "fact R(a) = {a,}", "facts", (ast.Fact("R", ("a",), frozenset("a")),)),
    (POWERSET + "clause R(a,;[a])", "strata", (Assert("R", (Const("a"),), Repr(Const("a"))),)),
    ("lattice interval zmin=0 zmax=2\nclause R(a;f_add([1,1],[0,0],))", "strata",
     (Assert("R", (Const("a"),),
             FnApp("f_add", (_interval_const(1, 1), _interval_const(0, 0)))),)),
    (POWERSET + "fact R() = {a}", "facts", (ast.Fact("R", (), frozenset("a")),)),
    (POWERSET + "fact R(a) = {}", "facts", (ast.Fact("R", ("a",), frozenset()),)),
    (POWERSET + "clause R(;[a])", "strata", (Assert("R", (), Repr(Const("a"))),)),
], ids=["powerset-atoms", "fact-atoms", "set-literal", "relation-args", "function-args",
        "fact-atoms-empty", "set-literal-empty", "relation-args-empty"])
def test_parse_comma_lists_accept_one_trailing_comma(text, field, want):
    assert getattr(parse_clauses(text), field) == want


def test_parse_universe_and_lattice_binders_of_one_name_stay_apart():
    p = parse_clauses(POWERSET + "clause forall y. forall 'y. R(y;'y)")
    assert p.strata == (
        Forall("y", Forall("'y", Assert("R", (Var("y"),), YVar("'y")))),)


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
    assert [outer.var, outer.body.var] == ["x_3", "'Y"]
    assert [c.var for c in conj.parts[:4]] == ["x", "x_2", "x_4", "x_5"]
    assert conj.parts[4].var == "'Y_2"
    # each clause item names its binders afresh
    p = parse_clauses(f"lattice powerset {{a}}\nclause {rule} & {rule}, {rule}")
    assert [c.var for c in p.strata[0].parts] + [p.strata[1].var] == ["x", "x_2", "x"]


def test_parse_chains_into_one_node():
    r, s, t = (f"{n}(a;[a])" for n in "RST")
    want = And(tuple(Assert(n, (Const("a"),), Repr(Const("a"))) for n in "RST"))
    for text in (f"{r} & {s} & {t}", f"({r} & {s}) & {t}", f"(({r} & {s})) & {t}"):
        assert parse_clauses(f"lattice powerset {{a}}\nclause {text}").strata == (want,)
    nested = parse_clauses(f"lattice powerset {{a}}\nclause {r} & ({s} & {t})").strata[0]
    assert nested == And((want.parts[0], And(want.parts[1:])))
    pre = parse_clauses(
        f"lattice powerset {{a}}\nclause {r} | {s} & {t} | ({r} | {s}) => {t}").strata[0].pre
    q = {n: Query(n, (Const("a"),), Repr(Const("a"))) for n in "RST"}
    assert pre == PreOr((q["R"], And((q["S"], q["T"])), PreOr((q["R"], q["S"]))))


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
    fact = parse_fact("R(a,b) = {a}", program)
    assert fact == ast.Fact("R", ("a", "b"), frozenset("a"))
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_fact("R(a) = {a}", program)


def _parse_outcome(parse, text, *args):
    try:
        return parse(text, *args)
    except ParseError as err:
        return str(err), err.line, err.col


def _digest(outcomes) -> str:
    return hashlib.sha256("".join(f"{o!r}\n" for o in outcomes).encode()).hexdigest()


def _mutants(texts, count, seed):
    token_lists = [re.findall(r"'?\w+|=>|:=|->|\S", _without_comments(text))
                   for text in texts]
    rng = random.Random(seed)
    return [" ".join(_mutate(rng, tokens, _CLAUSE_VOCAB))
            for tokens in token_lists for _ in range(count)]


def test_parse_outcomes_are_pinned():
    # every program's text and universe, or every error's message and
    # position, over the samples, random programs and their mutants
    texts = [helpers.sample(p.name) for p in sorted(helpers.SAMPLES.glob("*.lat"))]
    texts += [pretty(random_program(seed, set_fragment=fragment))
              for seed in range(300) for fragment in (False, True)]
    texts += _mutants(texts, 4, 2029)
    assert len(texts) == 3035

    def outcome(text):
        program = _parse_outcome(parse_clauses, text)
        if isinstance(program, tuple):
            return program
        return pretty(program), program.universe

    assert _digest(map(outcome, texts)) == "194950a922ec56f59e0f298c4175603b1e4e09182c94fb2cb208941e12370e0f"


def test_parse_fact_outcomes_are_pinned():
    programs = [parse_clauses(text) for text in (
        helpers.sample("facts_only.lat"),
        "lattice signs\nrel E/2",
        "lattice interval zmin=-3 zmax=3\nrel R/1",
    )]
    facts = (["R(a,b) = {a}", "R(c,a) = top", "R(b,b) = bot"],
             ["E(n0,n1) = {+}", "E(x,y) = {-,0}", "E(0,-1) = top"],
             ["R(a) = [-1,inf]", "R(-2) = [-inf,3]", "R(b) = bot"])
    outcomes = []
    for program, texts in zip(programs, facts):
        for text in texts + _mutants(texts, 22, 2030):
            fact = _parse_outcome(parse_fact, text, program)
            if isinstance(fact, ast.Fact):
                fact = fact.pred, fact.atoms, program.lattice.render(fact.value)
            outcomes.append(fact)
    assert len(outcomes) == 207
    assert _digest(outcomes) == "11319cada2b1ef93eeaa3daae0426780d4c9511beefad1a45df96d1032088b2e"


def test_parsing_costs_a_few_calls_per_fact_and_per_token():
    # a count, not a timing, so it holds on any machine; a method call per
    # lexeme read makes about 40 calls per fact and 4.6 per token
    n = 2000
    chain = "lattice signs\n" + "".join(
        f"fact E(n{i},n{i + 1}) = {{+}}\n" for i in range(n)) + \
        "clause R(n0;{+}) & (forall x. forall y. R(x;{+}) & E(x,y;{+}) => R(y;{+}))\n"
    assert helpers.calls(parse_clauses, chain) <= 10 * n
    texts = [pretty(random_program(seed, set_fragment=fragment))
             for seed in range(300) for fragment in (False, True)]
    tokens = sum(len(tokenize(text)) for text in texts)
    assert tokens == 34_809
    assert sum(helpers.calls(parse_clauses, text) for text in texts) <= 3.0 * tokens


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


@pytest.mark.parametrize("text, line", [
    (POWERSET + "clause R(a;[a]) // é ² #\n", "clause R(a;[a])"),
    ("lattice interval zmin=٣ zmax=٥", "lattice interval zmin=3 zmax=5"),
    ("lattice powerset {007,a}\nfact R(7) = {7}", "lattice powerset {7,a}"),
    ("lattice powerset {007,a}\nfact R(7) = {7}", "fact R(7) = {7}"),
    ("lattice signs\nclause R(0;{00})", "clause R(0;{0})"),
], ids=["characters-in-comment", "arabic-indic-digits", "leading-zeros-atom",
        "leading-zeros-fact", "leading-zeros-sign"])
def test_roundtrip_lexemes_print_as_read(text, line):
    p1 = parse_clauses(text)
    assert line in pretty(p1).splitlines()
    p2 = parse_clauses(pretty(p1))
    assert helpers.program_fingerprint(p1) == helpers.program_fingerprint(p2)


def test_roundtrip_renamed_binder_captures_no_constant():
    # the second binder x must not be renamed to x_2, a constant of its scope
    p1 = parse_clauses("lattice powerset {a,x_2}\n"
                       "clause (forall x. A(x;top)) & (forall x. B(x_2,x;top))")
    assert p1.strata[0].parts[1].body.args[0] == Const("x_2")
    p2 = parse_clauses(pretty(p1))
    assert helpers.program_fingerprint(p1) == helpers.program_fingerprint(p2)


def test_roundtrip_description_of_a_negative_atom():
    lat = powerset_lattice((-1, "a"))
    clause = Assert("R", (Const(-1),), Repr(Const(-1)))
    program = ast.Program(lattice=lat, registry=standard_registry(lat),
                          strata=(clause,), arities={"R": 1}, universe=(-1, "a"))
    assert parse_clauses(pretty(program)).strata == (clause,)


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
        validate(program)


def test_validation_paths_index_the_parts():
    ok = Assert("E", (Const("a"),), Repr(Const("a")))
    ok_q = Query("R", (Const("a"),), Repr(Const("a")))
    bad_q = Query("R", (Var("x"),), LitConst(frozenset("a")))
    pre = PreOr((ok_q, And((ok_q, bad_q))))
    program = powerset_program([And((ok, ok, Imply(pre, ok)))])
    with pytest.raises(ValidationError) as err:
        validate(program)
    assert str(err.value) == "stratum 1/and.3/pre/or.2/and.2: free variable 'x'"


_A = LitConst(frozenset("a"))
_OK = Assert("E", (Const("a"),), _A)
_OK_Q = Query("R", (Const("a"),), _A)
_ONE = LitConst(interval_lattice(0, 1).top)
# (strata, facts, arities, interval lattice?) -> the exact message, one
# "path: problem" per violation, in the order the walk meets them
_PINNED_MESSAGES = {
    "forall": (
        [Forall("x", Assert("E", (Var("y"),), Repr(Var("x"))))], [], {}, False,
        "stratum 1/forall x: free variable 'y'"),
    "exists": (
        [Imply(ast.Exists("x", Query("R", (Var("z"),), Repr(Var("x")))), _OK)], [], {}, False,
        "stratum 1/pre/exists x: free variable 'z'"),
    "pre-body": (
        [Forall("'Y", Imply(Query("R", (Var("x"),), YVar("'Y")),
                            Assert("E", (Const("a"),), YVar("'Z"))))], [], {}, False,
        "stratum 1/forall 'Y/pre: free variable 'x'; "
        "stratum 1/forall 'Y/body: free lattice variable \"'Z\""),
    "or-and": (
        [And((_OK, Imply(PreOr((_OK_Q, And((_OK_Q, Apply("'Y", Const("a")))))), _OK)))],
        [], {}, False,
        "stratum 1/and.2/pre/or.2/and.2: free lattice variable \"'Y\""),
    "shadowing": (
        [Forall("x", Imply(ast.Exists("x", Query("R", (Var("x"),), _A)),
                           Forall("'Y", Forall("'Y", Assert("E", (Var("x"),), YVar("'Y"))))))],
        [], {}, False,
        "stratum 1/forall x/pre: shadowed variable 'x'; "
        "stratum 1/forall x/body/forall 'Y: shadowed variable \"'Y\""),
    "negation": (
        [And((Assert("R", (Const("a"),), _ONE),
              Forall("'I", Imply(NegQuery("R", (Const("a"),), YVar("'I")),
                                 Assert("S", (Const("a"),), YVar("'I"))))))], [], {}, True,
        "stratum 1/and.2/forall 'I/pre: negative query on R over lattice 'interval' "
        "without complement"),
    "several": (
        [And((Forall("x", Assert("E", (Var("x"), Const("c")), FnApp("nope", (Repr(Var("x")),)))),
              Imply(And((Query("R", (Const("a"),), LitConst(frozenset())),
                         NegQuery("R", (Var("w"),), FnApp("u_join", (_A, _A))))),
                    TrueClause()))),
         Forall("'Y", Imply(ast.Exists("x", PreOr((Query("R", (Var("x"), Var("x")), YVar("'Q")),
                                                    Apply("'Q", Var("q"))))), _OK)),
         "garbage",
         Imply("junk", Assert("E", ("t",), 3))],
        [ast.Fact("R", ("z",), frozenset("a")), ast.Fact("E", ("a",), frozenset("a")),
         ast.Fact("S", ("a", "b"), frozenset("a"))], {"S": 1}, False,
        "stratum 1/and.1/forall x: unknown atom 'c'; "
        "stratum 1/and.1/forall x: unknown function nope/1; "
        "stratum 1/and.2/pre/and.1: bottom constant in a query (query constants act as "
        "pre-bound lattice variables, which exclude bottom); "
        "stratum 1/and.2/pre/and.2: free variable 'w'; "
        "stratum 1/and.2/pre/and.2: function terms are only allowed in assertions; "
        "stratum 1/and.2/pre/and.2: unknown function u_join/2; "
        "stratum 2/forall 'Y/pre/exists x/or.1: arity mismatch for R: 2 vs declared 1; "
        "stratum 2/forall 'Y/pre/exists x/or.1: free lattice variable \"'Q\"; "
        "stratum 2/forall 'Y/pre/exists x/or.2: free lattice variable \"'Q\"; "
        "stratum 2/forall 'Y/pre/exists x/or.2: free variable 'q'; "
        "stratum 2/forall 'Y/body: arity mismatch for E: 1 vs declared 2; "
        "stratum 3: not a clause: 'garbage'; "
        "stratum 4/pre: not a precondition: 'junk'; "
        "stratum 4/body: arity mismatch for E: 1 vs declared 2; "
        "stratum 4/body: not a term: 't'; "
        "stratum 4/body: not a lattice term: 3; "
        "fact R: unknown atom 'z'; "
        "fact E: arity mismatch for E: 1 vs declared 2; "
        "fact E: E is asserted by a clause; facts may only populate base relations; "
        "fact S: arity mismatch for S: 2 vs declared 1"),
}


@pytest.mark.parametrize("case", _PINNED_MESSAGES)
def test_validation_messages_are_pinned(case):
    strata, facts, arities, interval, message = _PINNED_MESSAGES[case]
    lat = interval_lattice(0, 1) if interval else powerset_lattice(("a", "b"))
    program = ast.Program(lattice=lat, registry=standard_registry(lat), strata=tuple(strata),
                          facts=tuple(facts), arities=arities, universe=("a", "b"))
    with pytest.raises(ValidationError) as err:
        validate(program)
    assert str(err.value) == message


def test_fnapp_in_query_rejected_programmatically():
    pre = Query("R", (Var("x"),), FnApp("u_join", (YVar("'Y"), YVar("'Y"))))
    program = powerset_program(
        [Forall("x", Forall("'Y", Imply(pre, Assert("S", (Var("x"),), YVar("'Y")))))])
    program.registry.register("u_join", 2, frozenset.union)
    with pytest.raises(ValidationError, match="only allowed in assertions"):
        validate(program)


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
        validate(program)


def test_fact_for_asserted_predicate_rejected():
    program = powerset_program(
        [Assert("E", (Const("a"),), LitConst(frozenset("a")))],
        facts=[ast.Fact("E", ("a",), frozenset("b"))])
    with pytest.raises(ValidationError, match="base relations"):
        validate(program)


def _rejected_programmatically(clause, match):
    with pytest.raises(ValidationError, match=match):
        validate(powerset_program([clause]))


def test_shadowing_rejected_programmatically():
    _rejected_programmatically(
        Forall("x", Forall("x", Assert("E", (Var("x"),), Repr(Var("x"))))), "shadowed")


def test_binder_without_apostrophe_binds_a_universe_variable():
    _rejected_programmatically(Forall("Y", Assert("R", (), YVar("Y"))),
                               "free lattice variable 'Y'")


def test_binder_with_apostrophe_binds_a_lattice_variable():
    top = LitConst(frozenset("ab"))
    _rejected_programmatically(Forall("'y", Assert("R", (Var("'y"),), top)), "free variable")


def test_empty_universe_rejected():
    text = "lattice signs\nclause forall x. R(x;[x])"
    with pytest.raises(ValidationError, match="empty universe"):
        validate(parse_clauses(text))


@pytest.mark.parametrize("text, universe", [
    ("lattice signs\nfact R(z) = {+}\nclause S(a;[a])", ("a", "z")),
    ("lattice signs\nclause forall x. R(x;[x]) => S(a;[b])", ("a", "b")),
    ("lattice signs\nclause S(a;s_add([b],[c]))", ("a", "b", "c")),
    ("lattice signs\nclause forall 'Y. R(a;'Y) & 'Y(c) => S(a;'Y)", ("a", "c")),
    ("lattice powerset {c,a,b}\nclause R(a;[a])", ("a", "b", "c")),
    ("lattice interval zmin=-3 zmax=3\nclause R(b,-2,a,1;[-1])", (-2, -1, 1, "a", "b")),
], ids=["fact-only", "description-only", "function-argument", "application",
        "powerset-carrier", "integers-first"])
def test_parse_records_every_atom_in_the_universe(text, universe):
    assert parse_clauses(text).universe == universe


def test_eq_neq_sample_accepted():
    program = validate(parse_clauses(helpers.sample("eq_neq.lat")))
    assert program.ranks == {"E": 1, "N": 2}


# --- free variables ----------------------------------------------------------------


def test_pre_vars_of_a_query():
    q = Query("R", (Var("x"), Const("a")), YVar("'Y"))
    assert ast.pre_vars(q) == (frozenset({"x"}), frozenset({"'Y"}))


def test_pre_vars_drop_the_bound_lattice_variable():
    pre = ast.Exists("'Y", And((Query("R", (Var("x"),), YVar("'Y")),
                                Apply("'Z", Var("y")))))
    assert ast.pre_vars(pre) == (frozenset({"x", "y"}), frozenset({"'Z"}))


def test_clause_vars_drop_the_bound_universe_variable():
    cl = Forall("x", Imply(Query("R", (Var("x"),), YVar("'Y")),
                           Assert("S", (Var("x"), Var("z")), Repr(Var("w")))))
    assert ast.clause_vars(cl) == (frozenset({"z", "w"}), frozenset({"'Y"}))


def test_lattice_term_vars_of_a_function_application():
    v = FnApp("u_join", (YVar("'Y"), FnApp("u_join", (Repr(Var("x")), LitConst(frozenset())))))
    assert ast.lattice_term_vars(v) == (frozenset({"x"}), frozenset({"'Y"}))


# --- stratification ----------------------------------------------------------------


def test_ranks_eq_neq():
    program = parse_clauses(helpers.sample("eq_neq.lat"))
    assert compute_ranks(program) == {"E": 1, "N": 2}


def test_negative_cycle_rejected():
    program = parse_clauses(helpers.sample("nonstratified.lat"))
    with pytest.raises(StratificationError):
        compute_ranks(program)


def test_positive_self_recursion_allowed():
    program = parse_clauses(
        "lattice powerset {a}\n"
        "clause forall x. forall 'Y. R(x;'Y) => R(x;'Y)")
    assert compute_ranks(program) == {"R": 1}


def test_assertion_in_two_strata_rejected():
    program = parse_clauses(
        "lattice powerset {a}\nclause R(a;[a]), R(a;top)")
    with pytest.raises(StratificationError, match="asserted in strata"):
        compute_ranks(program)


def test_negative_query_of_same_stratum_rejected():
    program = parse_clauses(
        "lattice powerset {a}\n"
        "clause forall x. forall 'Y. !R(x;'Y) => R(x;'Y)")
    with pytest.raises(StratificationError):
        compute_ranks(program)


def test_ranks_reject_an_ill_formed_program():
    program = powerset_program([Assert("R", (Var("x"),), Repr(Var("x")))])
    with pytest.raises(ValidationError, match="free variable 'x'"):
        compute_ranks(program)


@pytest.mark.parametrize("seed", range(30))
def test_ranks_verified_independently(seed):
    program = random_program(seed)
    assert helpers.independent_rank_check(program, program.ranks)


def test_validating_a_copy_leaves_the_original_unchanged():
    # the swapped-in clause asserts P, which the first file never declares:
    # validation adds P to the arities of the program it returns only
    text = "lattice powerset {a,b}\nfact B(a) = {a}\n"
    strata = parse_clauses(text + "clause forall x. B(x;[x]) => P(x;{b})").strata
    program = validate(parse_clauses(text + "clause 1"))
    swapped = program.with_strata(strata)
    with_fact = _with_facts(swapped, ["B(b) = {b}"])
    for copy in (swapped, with_fact):
        assert validate(copy).arities == {"B": 1, "P": 1}
    for original in (program, swapped, with_fact):
        assert original.arities == {"B": 1}
    assert program.ranks == {"B": 0} and swapped.ranks is None and with_fact.ranks is None


# --- precondition reordering --------------------------------------------------------


def _spine_program(pre):
    body = Imply(pre, Assert("S", (Var("x"),), YVar("'Y")))
    return powerset_program(
        [Forall("x", Forall("'Y", body)),
         ],
        arities={"R": 1, "S": 1, "T": 1})


def test_reorder_moves_application_after_definition():
    pre = And((Apply("'Y", Var("x")), Query("R", (Var("x"),), YVar("'Y"))))
    program = validate(_spine_program(pre))
    out = reorder_preconditions(program).strata[0].body.body.pre
    assert out == And((Query("R", (Var("x"),), YVar("'Y")), Apply("'Y", Var("x"))))


def test_reorder_keeps_ordered_spine():
    pre = And((Query("R", (Var("x"),), YVar("'Y")), Apply("'Y", Var("x"))))
    program = validate(_spine_program(pre))
    assert reorder_preconditions(program).strata[0].body.body.pre == pre


def test_reorder_leaves_undefined_application_alone():
    pre = And((Apply("'Y", Var("x")),
                  Query("T", (Var("x"),), Repr(Var("x")))))
    program = validate(_spine_program(pre))
    assert reorder_preconditions(program).strata[0].body.body.pre == pre


def test_reorder_recurses_into_disjuncts():
    inner = And((Apply("'Y", Var("x")), Query("R", (Var("x"),), YVar("'Y"))))
    pre = PreOr((inner, Query("T", (Var("x"),), Repr(Var("x")))))
    program = validate(_spine_program(pre))
    out = reorder_preconditions(program).strata[0].body.body.pre
    assert out.parts[0] == And((Query("R", (Var("x"),), YVar("'Y")),
                                   Apply("'Y", Var("x"))))
    assert out.parts[1] == pre.parts[1]


@pytest.mark.parametrize("seed", range(40))
def test_reorder_preserves_conjunct_multisets(seed):
    program = random_program(seed)
    reordered = reorder_preconditions(program)

    def spines(cl, out):
        if isinstance(cl, And):
            for c in cl.parts:
                spines(c, out)
        elif isinstance(cl, Imply):
            out.append(sorted(map(repr, helpers.conjuncts(cl.pre))))
            spines(cl.body, out)
        elif isinstance(cl, Forall):
            spines(cl.body, out)

    before, after = [], []
    for cl in program.strata:
        spines(cl, before)
    for cl in reordered.strata:
        spines(cl, after)
    assert before == after


def test_powerset_atoms_are_checked_without_scanning_the_carrier(monkeypatch):
    # a facts-only file over a 16 000-atom powerset: looking each atom up in
    # the carrier tuple made checking it quadratic, 2.2 s where it now takes
    # about 0.2 s
    from latlog import cli, parser
    from latlog.records import replace

    class Carrier(tuple):
        scans = 0

        def __contains__(self, atom):
            Carrier.scans += 1
            return tuple.__contains__(self, atom)

    def counted_powerset(universe):
        lattice = powerset_lattice(universe)
        return replace(lattice, atoms=Carrier(lattice.atoms))

    monkeypatch.setattr(parser, "powerset_lattice", counted_powerset)
    atoms = [f"a{i}" for i in range(16_000)]
    text = "\n".join(["lattice powerset {" + ",".join(atoms) + "}", "rel R/1",
                      *(f"fact R({a}) = {{{a}}}" for a in atoms)])
    assert cli.run_check(text).lines[0] == "ok: 0 strata, 1 predicates, 16000 atoms"
    assert Carrier.scans == 0
