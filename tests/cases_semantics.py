"""Hand-written conformance table for the satisfaction checker.

Every semantic construct gets at least one positive and one negative entry:
positive/negative queries, lattice-variable application, conjunction,
disjunction, both existentials, assertions (plain, constant, function term),
the unit clause, implication, both universals, and whole clause sequences.
``tag`` records how the expected value was obtained: ``direct`` entries
assert containments readable off the definitions, ``derived`` entries
compute the expected value independently in the builder (set complements,
unions, function images).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from latlog import ast
from latlog.lattices import powerset_lattice, standard_registry


def _context():
    lattice = powerset_lattice(("a", "b"))
    registry = standard_registry(lattice)
    registry.register("u_join", 2, frozenset.union)
    program = ast.Program(
        lattice=lattice,
        registry=registry,
        strata=(),
        arities={"R": 1, "S": 1},
        universe=("a", "b"),
    )
    return program


PROGRAM = _context()

A, B = frozenset("a"), frozenset("b")
AB = frozenset(("a", "b"))
TOP_COMPLEMENT_OF_A = AB - A  # derived: set complement in the two-atom carrier
UNION_A_B = A | B             # derived: the registered function's image


@dataclass(frozen=True)
class Case:
    name: str
    tag: str            # direct | derived
    kind: str           # pre | clause | sequence
    node: Any
    expected: bool
    env: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)


def q(pred, *args, v):
    return ast.Query(pred, tuple(args), v)


def nq(pred, *args, v):
    return ast.NegQuery(pred, tuple(args), v)


def asrt(pred, *args, v):
    return ast.Assert(pred, tuple(args), v)


CA, CB = ast.Const("a"), ast.Const("b")
X = ast.Var("x")

CASES = [
    # positive query
    Case("query_described_atom", "direct", "pre",
         q("R", CA, v=ast.Repr(CA)), True,
         leaves={"R": {("a",): A}}),
    Case("query_described_atom_empty", "direct", "pre",
         q("R", CB, v=ast.Repr(CB)), False,
         leaves={"R": {("a",): A}}),
    Case("query_latvar_below", "direct", "pre",
         q("R", CA, v=ast.YVar("'Y")), True,
         env={"'Y": A}, leaves={"R": {("a",): AB}}),
    Case("query_latvar_above", "direct", "pre",
         q("R", CA, v=ast.YVar("'Y")), False,
         env={"'Y": AB}, leaves={"R": {("a",): A}}),
    Case("query_constant", "direct", "pre",
         q("R", CA, v=ast.LitConst(AB)), False,
         leaves={"R": {("a",): B}}),
    # negative query (expected values derived from the set complement)
    Case("negquery_complement_holds", "derived", "pre",
         nq("R", CA, v=ast.YVar("'Y")), B <= TOP_COMPLEMENT_OF_A,
         env={"'Y": B}, leaves={"R": {("a",): A}}),
    Case("negquery_complement_fails", "derived", "pre",
         nq("R", CA, v=ast.YVar("'Y")), A <= TOP_COMPLEMENT_OF_A,
         env={"'Y": A}, leaves={"R": {("a",): A}}),
    Case("negquery_absent_leaf", "derived", "pre",
         nq("R", CB, v=ast.LitConst(AB)), AB <= (AB - frozenset()),
         leaves={}),
    # lattice-variable application
    Case("apply_below", "direct", "pre",
         ast.Apply("'Y", CA), True, env={"'Y": AB}),
    Case("apply_not_below", "direct", "pre",
         ast.Apply("'Y", CA), False, env={"'Y": B}),
    # conjunction / disjunction
    Case("and_both", "direct", "pre",
         ast.PreAnd((q("R", CA, v=ast.Repr(CA)), q("S", CA, v=ast.Repr(CA)))), True,
         leaves={"R": {("a",): A}, "S": {("a",): AB}}),
    Case("and_one_fails", "direct", "pre",
         ast.PreAnd((q("R", CA, v=ast.Repr(CA)), q("S", CA, v=ast.Repr(CA)))), False,
         leaves={"R": {("a",): A}}),
    Case("or_right", "direct", "pre",
         ast.PreOr((q("R", CB, v=ast.Repr(CB)), q("S", CA, v=ast.Repr(CA)))), True,
         leaves={"S": {("a",): A}}),
    Case("or_neither", "direct", "pre",
         ast.PreOr((q("R", CB, v=ast.Repr(CB)), q("S", CA, v=ast.Repr(CA)))), False,
         leaves={}),
    # existential over the universe
    Case("exists_atom_witness", "direct", "pre",
         ast.ExistsX("x", q("R", X, v=ast.Repr(X))), True,
         leaves={"R": {("b",): B}}),
    Case("exists_atom_no_witness", "direct", "pre",
         ast.ExistsX("x", q("R", X, v=ast.Repr(X))), False,
         leaves={"R": {("a",): B}}),
    # existential over non-bottom lattice values
    Case("exists_latvar_nonempty_leaf", "direct", "pre",
         ast.ExistsY("'Y", q("R", CA, v=ast.YVar("'Y"))), True,
         leaves={"R": {("a",): A}}),
    Case("exists_latvar_empty_leaf", "direct", "pre",
         ast.ExistsY("'Y", q("R", CA, v=ast.YVar("'Y"))), False,
         leaves={}),
    # assertions
    Case("assert_constant_holds", "direct", "clause",
         asrt("R", CA, v=ast.LitConst(A)), True,
         leaves={"R": {("a",): AB}}),
    Case("assert_constant_fails", "direct", "clause",
         asrt("R", CA, v=ast.LitConst(AB)), False,
         leaves={"R": {("a",): A}}),
    Case("assert_function_image", "derived", "clause",
         asrt("R", CA, v=ast.FnApp("u_join", (ast.LitConst(A), ast.LitConst(B)))),
         True, leaves={"R": {("a",): UNION_A_B}}),
    Case("assert_function_image_strict", "derived", "clause",
         asrt("R", CA, v=ast.FnApp("u_join", (ast.LitConst(A), ast.LitConst(B)))),
         False, leaves={"R": {("a",): A}}),
    # unit clause
    Case("unit_always_true", "direct", "clause", ast.TrueClause(), True),
    # clause conjunction
    Case("clause_and_both", "direct", "clause",
         ast.ClauseAnd((asrt("R", CA, v=ast.LitConst(A)), ast.TrueClause())), True,
         leaves={"R": {("a",): A}}),
    Case("clause_and_one_fails", "direct", "clause",
         ast.ClauseAnd((asrt("R", CA, v=ast.LitConst(A)),
                        asrt("S", CA, v=ast.LitConst(B)))), False,
         leaves={"R": {("a",): A}}),
    # implication
    Case("imply_vacuous", "direct", "clause",
         ast.Imply(q("R", CA, v=ast.Repr(CA)), asrt("S", CA, v=ast.LitConst(AB))),
         True, leaves={}),
    Case("imply_applied_fails", "direct", "clause",
         ast.Imply(q("R", CA, v=ast.Repr(CA)), asrt("S", CA, v=ast.LitConst(AB))),
         False, leaves={"R": {("a",): A}}),
    # universal over the universe
    Case("forall_atom_all_described", "direct", "clause",
         ast.ForallX("x", asrt("R", X, v=ast.Repr(X))), True,
         leaves={"R": {("a",): A, ("b",): B}}),
    Case("forall_atom_one_missing", "direct", "clause",
         ast.ForallX("x", asrt("R", X, v=ast.Repr(X))), False,
         leaves={"R": {("a",): A}}),
    # universal over non-bottom lattice values (forces the full carrier)
    Case("forall_latvar_needs_top", "direct", "clause",
         ast.ForallY("'Y", asrt("R", CA, v=ast.YVar("'Y"))), True,
         leaves={"R": {("a",): AB}}),
    Case("forall_latvar_below_top", "direct", "clause",
         ast.ForallY("'Y", asrt("R", CA, v=ast.YVar("'Y"))), False,
         leaves={"R": {("a",): A}}),
    # clause sequences: satisfied iff every stratum is
    Case("sequence_all_strata", "direct", "sequence",
         (asrt("R", CA, v=ast.LitConst(A)),
          ast.Imply(q("R", CA, v=ast.Repr(CA)), asrt("S", CA, v=ast.LitConst(B)))),
         True, leaves={"R": {("a",): A}, "S": {("a",): B}}),
    Case("sequence_second_stratum_fails", "direct", "sequence",
         (asrt("R", CA, v=ast.LitConst(A)),
          ast.Imply(q("R", CA, v=ast.Repr(CA)), asrt("S", CA, v=ast.LitConst(B)))),
         False, leaves={"R": {("a",): A}}),
]

_COVERED_KINDS = {
    "query": ast.Query, "negquery": ast.NegQuery, "apply": ast.Apply,
    "and": ast.PreAnd, "or": ast.PreOr, "existsx": ast.ExistsX,
    "existsy": ast.ExistsY, "assert": ast.Assert, "one": ast.TrueClause,
    "clause_and": ast.ClauseAnd, "imply": ast.Imply, "forallx": ast.ForallX,
    "forally": ast.ForallY,
}


def run_case(case: Case) -> bool:
    from latlog import oracle

    interp = oracle.Interpretation(PROGRAM.lattice, PROGRAM.arities, case.leaves)
    if case.kind == "pre":
        return oracle.satisfies_pre(PROGRAM, interp, dict(case.env), case.node)
    if case.kind == "clause":
        return oracle.satisfies_clause(PROGRAM, interp, dict(case.env), case.node)
    return all(oracle.satisfies_clause(PROGRAM, interp, dict(case.env), cl)
               for cl in case.node)


def covered_constructs() -> set:
    """Construct types exercised anywhere in the table (sequences included)."""
    seen = set()

    def note(node):
        seen.add(type(node))
        for attr in ("left", "right", "body", "pre", "value"):
            child = getattr(node, attr, None)
            if child is not None and child.__class__.__module__ == ast.__name__:
                note(child)

    for case in CASES:
        nodes = case.node if case.kind == "sequence" else (case.node,)
        for n in nodes:
            note(n)
    return seen
