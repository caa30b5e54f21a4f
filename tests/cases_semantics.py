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
         ast.And((q("R", CA, v=ast.Repr(CA)), q("S", CA, v=ast.Repr(CA)))), True,
         leaves={"R": {("a",): A}, "S": {("a",): AB}}),
    Case("and_one_fails", "direct", "pre",
         ast.And((q("R", CA, v=ast.Repr(CA)), q("S", CA, v=ast.Repr(CA)))), False,
         leaves={"R": {("a",): A}}),
    Case("or_right", "direct", "pre",
         ast.PreOr((q("R", CB, v=ast.Repr(CB)), q("S", CA, v=ast.Repr(CA)))), True,
         leaves={"S": {("a",): A}}),
    Case("or_neither", "direct", "pre",
         ast.PreOr((q("R", CB, v=ast.Repr(CB)), q("S", CA, v=ast.Repr(CA)))), False,
         leaves={}),
    # existential over the universe
    Case("exists_atom_witness", "direct", "pre",
         ast.Exists("x", q("R", X, v=ast.Repr(X))), True,
         leaves={"R": {("b",): B}}),
    Case("exists_atom_no_witness", "direct", "pre",
         ast.Exists("x", q("R", X, v=ast.Repr(X))), False,
         leaves={"R": {("a",): B}}),
    # existential over non-bottom lattice values
    Case("exists_latvar_nonempty_leaf", "direct", "pre",
         ast.Exists("'Y", q("R", CA, v=ast.YVar("'Y"))), True,
         leaves={"R": {("a",): A}}),
    Case("exists_latvar_empty_leaf", "direct", "pre",
         ast.Exists("'Y", q("R", CA, v=ast.YVar("'Y"))), False,
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
         ast.And((asrt("R", CA, v=ast.LitConst(A)), ast.TrueClause())), True,
         leaves={"R": {("a",): A}}),
    Case("clause_and_one_fails", "direct", "clause",
         ast.And((asrt("R", CA, v=ast.LitConst(A)),
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
         ast.Forall("x", asrt("R", X, v=ast.Repr(X))), True,
         leaves={"R": {("a",): A, ("b",): B}}),
    Case("forall_atom_one_missing", "direct", "clause",
         ast.Forall("x", asrt("R", X, v=ast.Repr(X))), False,
         leaves={"R": {("a",): A}}),
    # universal over non-bottom lattice values (forces the full carrier)
    Case("forall_latvar_needs_top", "direct", "clause",
         ast.Forall("'Y", asrt("R", CA, v=ast.YVar("'Y"))), True,
         leaves={"R": {("a",): AB}}),
    Case("forall_latvar_below_top", "direct", "clause",
         ast.Forall("'Y", asrt("R", CA, v=ast.YVar("'Y"))), False,
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
    "and": ast.And, "or": ast.PreOr, "existsx": ast.Exists,
    "existsy": ast.Exists, "assert": ast.Assert, "one": ast.TrueClause,
    "clause_and": ast.And, "imply": ast.Imply, "forallx": ast.Forall,
    "forally": ast.Forall,
}


def run_case(case: Case) -> bool:
    from latlog import oracle
    import reference_semantics as semantics

    interp = oracle.Interpretation(PROGRAM.lattice, PROGRAM.arities, case.leaves)
    if case.kind == "pre":
        return oracle.satisfies_pre(PROGRAM, interp, dict(case.env), case.node)
    if case.kind == "clause":
        return semantics.satisfies_clause(PROGRAM, interp, dict(case.env), case.node)
    return all(semantics.satisfies_clause(PROGRAM, interp, dict(case.env), cl)
               for cl in case.node)


def construct_kind(node, clause: bool) -> str:
    """The ``_COVERED_KINDS`` key of a formula; ``clause`` is its position.

    One class serves both binder sorts and both conjunction positions, so the
    bound name's sort and the position pick the kind.
    """
    if isinstance(node, ast.And):
        return "clause_and" if clause else "and"
    if isinstance(node, (ast.Exists, ast.Forall)):
        sort = "y" if ast.is_lattice_var(node.var) else "x"
        return type(node).__name__.lower() + sort
    return next(k for k, cls in _COVERED_KINDS.items() if cls is type(node))


def covered_constructs() -> set:
    """Construct kinds exercised anywhere in the table (sequences included)."""
    seen = set()

    def note(node, clause):
        seen.add(construct_kind(node, clause))
        for attr in ("body", "pre"):
            child = getattr(node, attr, None)
            if child is not None:
                note(child, clause and attr != "pre")

    for case in CASES:
        nodes = case.node if case.kind == "sequence" else (case.node,)
        for n in nodes:
            note(n, case.kind != "pre")
    return seen
