"""Shared test utilities: independent brute-force oracles and fixtures.

Everything here recomputes expected values from first principles (set
denotations, exhaustive enumeration, representative integers) so the tests
stay independent of the code paths they check.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path

from latlog import ast
from latlog.lattices import IntervalValue, sign_of
from latlog.parser import parse_clauses
from latlog.solver import solve

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def sample(name: str) -> str:
    return (SAMPLES / name).read_text()


def run_pipeline(text: str):
    """parse -> validate -> reorder -> solve; returns (program, result)."""
    program = ast.reorder_preconditions(ast.validate(parse_clauses(text)))
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
        elif isinstance(p, (ast.PreAnd, ast.PreOr)):
            for q in p.parts:
                atoms_of_pre(q, pos, neg)
        elif isinstance(p, (ast.ExistsX, ast.ExistsY)):
            atoms_of_pre(p.body, pos, neg)

    def walk(cl, i):
        if isinstance(cl, ast.Assert):
            if ranks.get(cl.pred) != i:
                return False
        elif isinstance(cl, ast.ClauseAnd):
            return all(walk(c, i) for c in cl.parts)
        elif isinstance(cl, ast.Imply):
            pos, neg = [], []
            atoms_of_pre(cl.pre, pos, neg)
            if any(ranks.get(p, 0) > i for p in pos):
                return False
            if any(ranks.get(p, 0) >= i for p in neg):
                return False
            return walk(cl.body, i)
        elif isinstance(cl, (ast.ForallX, ast.ForallY)):
            return walk(cl.body, i)
        return True

    return all(walk(cl, i) for i, cl in enumerate(program.strata, 1))


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
        if isinstance(p, ast.PreAnd):
            for q in p.parts:
                flatten(q)
        else:
            out.append(p)

    flatten(pre)
    return out


def all_tuples(universe, arity):
    return [tuple(t) for t in product(universe, repeat=arity)]
