"""Reference semantics that only the tests use.

The package's ``latlog.oracle`` keeps what ``latlog compare`` runs: the
literal precondition semantics and the stratum-wise naive fixpoint.  This
module adds, on top of those, the literal clause semantics and the model
check, a brute-force model enumerator for tiny instances, the staged
greatest-lower-bound construction over model sets, the stratum-lexicographic
order on interpretations, and a small set-based stratified evaluator used to
check the powerset correspondence of function-free programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable

from latlog.ast import (And, Apply, Assert, Const, Exists, Forall, Imply,
                        LitConst, NegQuery, PreOr, Program, Query, Repr,
                        TrueClause, Var, YVar)
from latlog.errors import OracleSizeError, UnsupportedInstanceError
from latlog.oracle import (Interpretation, _domain, _sigma_args, _sigma_term,
                           _sigma_value, facts_interpretation, satisfies_pre)


# --- satisfaction -------------------------------------------------------------


def from_leaves(program: Program, leaves: dict) -> Interpretation:
    return Interpretation(program.lattice, program.arities, leaves)


def support(interp: Interpretation, pred: str) -> Iterable[tuple]:
    return interp._data[pred].keys()


def pred_equal(a: Interpretation, b: Interpretation, pred: str) -> bool:
    return a._data[pred] == b._data[pred]


def pred_leq(a: Interpretation, b: Interpretation, pred: str) -> bool:
    keys = set(a._data[pred]) | set(b._data[pred])
    return all(a.lattice.leq(a.get(pred, k), b.get(pred, k)) for k in keys)


def satisfies_clause(program: Program, interp: Interpretation, env: dict, cl) -> bool:
    """Literal reading of the clause semantics."""
    lattice = program.lattice
    if isinstance(cl, Assert):
        have = interp.get(cl.pred, _sigma_args(env, cl.args))
        return lattice.leq(_sigma_value(program, env, cl.value), have)
    if isinstance(cl, TrueClause):
        return True
    if isinstance(cl, And):
        return all(satisfies_clause(program, interp, env, c) for c in cl.parts)
    if isinstance(cl, Imply):
        if not satisfies_pre(program, interp, env, cl.pre):
            return True
        return satisfies_clause(program, interp, env, cl.body)
    if isinstance(cl, Forall):
        return all(satisfies_clause(program, interp, {**env, cl.var: a}, cl.body)
                   for a in _domain(program, cl.var))
    raise TypeError(f"not a clause: {cl!r}")


def is_model(program: Program, interp: Interpretation) -> bool:
    """Satisfies every stratum and lies above the base facts."""
    base = facts_interpretation(program)
    for pred in program.arities:
        if not pred_leq(base, interp, pred):
            return False
    return all(satisfies_clause(program, interp, {}, cl) for cl in program.strata)


# --- model enumeration --------------------------------------------------------

_MAX_MODEL_SPACE = 200_000
_MAX_MODEL_UNIVERSE = 3
_MAX_MODEL_ELEMENTS = 8
_MAX_MODEL_PREDS = 2
_MAX_MODEL_ARITY = 2


def enumerate_models(program: Program) -> list[Interpretation]:
    """All interpretations above the facts satisfying every stratum.

    Only meant for tiny instances; anything beyond the guards raises
    :class:`OracleSizeError`.
    """
    lattice = program.lattice
    if len(program.universe) > _MAX_MODEL_UNIVERSE:
        raise OracleSizeError(f"universe larger than {_MAX_MODEL_UNIVERSE} atoms")
    if lattice.element_count is None or lattice.element_count > _MAX_MODEL_ELEMENTS:
        raise OracleSizeError(f"lattice larger than {_MAX_MODEL_ELEMENTS} elements")
    if len(program.arities) > _MAX_MODEL_PREDS:
        raise OracleSizeError(f"more than {_MAX_MODEL_PREDS} predicates")
    if any(k > _MAX_MODEL_ARITY for k in program.arities.values()):
        raise OracleSizeError(f"predicate arity exceeds {_MAX_MODEL_ARITY}")

    elements = list(lattice.enumerate_elements())
    domains = {
        pred: [tuple(t) for t in product(program.universe, repeat=k)]
        for pred, k in sorted(program.arities.items())
    }
    space = 1
    for pred, dom in domains.items():
        space *= len(elements) ** len(dom)
        if space > _MAX_MODEL_SPACE:
            raise OracleSizeError("model space too large to enumerate")

    preds = sorted(domains)
    slots = [(pred, atoms) for pred in preds for atoms in domains[pred]]
    models = []
    for values in product(elements, repeat=len(slots)):
        interp = Interpretation(lattice, program.arities)
        for (pred, atoms), v in zip(slots, values):
            interp.set(pred, atoms, v)
        if is_model(program, interp):
            models.append(interp)
    return models


# --- staged greatest lower bound and the stratum-lexicographic order ----------


def glb_interpretations(program: Program, models: list) -> Interpretation:
    """Greatest lower bound of a model set, staged stratum by stratum.

    Rank by rank, the value of a rank-j predicate is the pointwise meet over
    the models that agree with the bound on every lower rank; the meet over
    an empty stage is top.
    """
    if not models:
        raise ValueError("glb of an empty interpretation set is undefined here")
    lattice = program.lattice
    ranks = program.ranks or {}
    out = Interpretation(lattice, program.arities)
    stage = list(models)
    for j in range(program.num_strata + 1):
        preds_j = sorted(p for p in program.arities if ranks.get(p, 0) == j)
        for pred in preds_j:
            arity = program.arities[pred]
            if len(program.universe) ** arity > _MAX_MODEL_SPACE:
                raise OracleSizeError("predicate domain too large for staged meet")
            for atoms in product(program.universe, repeat=arity):
                value = lattice.top
                for m in stage:
                    value = lattice.meet(value, m.get(pred, atoms))
                out.set(pred, atoms, value)
        stage = [m for m in stage
                 if all(_pred_agrees(m, out, pred) for pred in preds_j)]
    return out


def _pred_agrees(m: Interpretation, out: Interpretation, pred: str) -> bool:
    keys = set(support(m, pred)) | set(support(out, pred))
    return all(m.get(pred, k) == out.get(pred, k) for k in keys)


def lex_leq(program: Program, a: Interpretation, b: Interpretation) -> bool:
    """Stratum-lexicographic order: equal below some rank j, pointwise at j,
    and strictly smaller somewhere at j unless j is the last stratum.

    The witness rank ranges over 0..s: stage 0 covers interpretations that
    already differ on base relations, which the greatest-lower-bound
    construction relies on.
    """
    ranks = program.ranks or {}
    s = program.num_strata
    by_rank: dict[int, list] = {}
    for pred in program.arities:
        by_rank.setdefault(ranks.get(pred, 0), []).append(pred)
    for j in range(0, s + 1):
        below = [p for r, ps in by_rank.items() if r < j for p in ps]
        at = by_rank.get(j, [])
        if not all(pred_equal(a, b, p) for p in below):
            continue
        if not all(pred_leq(a, b, p) for p in at):
            continue
        if j == s or any(not pred_equal(a, b, p) for p in at):
            return True
    return False


# --- set-based stratified evaluation (powerset correspondence) ----------------


@dataclass(frozen=True)
class DQuery:
    pred: str
    args: tuple
    neg: bool = False


@dataclass(frozen=True)
class DAnd:
    """Conjunction of any number of parts; with none it is true."""

    parts: tuple


@dataclass(frozen=True)
class DOr:
    parts: tuple


@dataclass(frozen=True)
class DExists:
    var: str
    body: Any


@dataclass(frozen=True)
class DAssert:
    pred: str
    args: tuple


@dataclass(frozen=True)
class DCAnd:
    """Conjunction of any number of clauses; with none it is the clause 1."""

    parts: tuple


@dataclass(frozen=True)
class DImply:
    pre: Any
    body: Any


@dataclass(frozen=True)
class DForall:
    var: str
    body: Any


def _translate_value_pre(pred, args, value, neg: bool):
    if isinstance(value, YVar):
        return DQuery(pred, args + (Var(value.name),), neg)
    if isinstance(value, Repr):
        return DQuery(pred, args + (value.term,), neg)
    if isinstance(value, LitConst):
        return DAnd(tuple(DQuery(pred, args + (Const(b),), neg)
                          for b in sorted(value.value, key=repr)))
    raise UnsupportedInstanceError(
        "function terms have no set-based counterpart")


def _translate_pre(pre):
    if isinstance(pre, Query):
        return _translate_value_pre(pre.pred, pre.args, pre.value, neg=False)
    if isinstance(pre, NegQuery):
        return _translate_value_pre(pre.pred, pre.args, pre.value, neg=True)
    if isinstance(pre, Apply):
        raise UnsupportedInstanceError(
            "lattice-variable applications are outside the set-based fragment")
    if isinstance(pre, And):
        return DAnd(tuple(map(_translate_pre, pre.parts)))
    if isinstance(pre, PreOr):
        return DOr(tuple(map(_translate_pre, pre.parts)))
    if isinstance(pre, Exists):
        return DExists(pre.var, _translate_pre(pre.body))
    raise TypeError(f"not a precondition: {pre!r}")


def _translate_clause(cl):
    if isinstance(cl, Assert):
        if isinstance(cl.value, YVar):
            return DAssert(cl.pred, cl.args + (Var(cl.value.name),))
        if isinstance(cl.value, Repr):
            return DAssert(cl.pred, cl.args + (cl.value.term,))
        if isinstance(cl.value, LitConst):
            return DCAnd(tuple(DAssert(cl.pred, cl.args + (Const(b),))
                               for b in sorted(cl.value.value, key=repr)))
        raise UnsupportedInstanceError("function terms have no set-based counterpart")
    if isinstance(cl, TrueClause):
        return DCAnd(())
    if isinstance(cl, And):
        return DCAnd(tuple(map(_translate_clause, cl.parts)))
    if isinstance(cl, Imply):
        return DImply(_translate_pre(cl.pre), _translate_clause(cl.body))
    if isinstance(cl, Forall):
        return DForall(cl.var, _translate_clause(cl.body))
    raise TypeError(f"not a clause: {cl!r}")


def to_datalog(program: Program):
    """Flatten a function-free powerset program into set-based clauses.

    Each relation gains one argument holding a member of its lattice value;
    lattice variables become plain variables (their apostrophe names cannot
    clash with universe variables).
    """
    if program.lattice.kind != "powerset":
        raise UnsupportedInstanceError("set-based reading needs a powerset lattice")
    strata = tuple(_translate_clause(cl) for cl in program.strata)
    facts = set()
    for f in program.facts:
        for b in f.value:
            facts.add((f.pred, f.atoms + (b,)))
    return strata, facts


def _d_sat(rel: dict, env: dict, universe: tuple, pre) -> bool:
    if isinstance(pre, DQuery):
        t = tuple(_sigma_term(env, a) for a in pre.args)
        present = t in rel.get(pre.pred, set())
        return not present if pre.neg else present
    if isinstance(pre, DAnd):
        return all(_d_sat(rel, env, universe, q) for q in pre.parts)
    if isinstance(pre, DOr):
        return any(_d_sat(rel, env, universe, q) for q in pre.parts)
    if isinstance(pre, DExists):
        return any(_d_sat(rel, {**env, pre.var: a}, universe, pre.body)
                   for a in universe)
    raise TypeError(f"not a set-based precondition: {pre!r}")


def _d_collect(rel: dict, env: dict, universe: tuple, cl, out: set) -> None:
    if isinstance(cl, DAssert):
        out.add((cl.pred, tuple(_sigma_term(env, a) for a in cl.args)))
    elif isinstance(cl, DCAnd):
        for c in cl.parts:
            _d_collect(rel, env, universe, c, out)
    elif isinstance(cl, DImply):
        if _d_sat(rel, env, universe, cl.pre):
            _d_collect(rel, env, universe, cl.body, out)
    elif isinstance(cl, DForall):
        for a in universe:
            _d_collect(rel, {**env, cl.var: a}, universe, cl.body, out)
    else:
        raise TypeError(f"not a set-based clause: {cl!r}")


def datalog_fixpoint(strata, facts: set, universe: tuple) -> dict:
    """Naive stratified evaluation of set-based clauses."""
    rel: dict[str, set] = {}
    for pred, t in facts:
        rel.setdefault(pred, set()).add(t)
    for cl in strata:
        changed = True
        while changed:
            changed = False
            pending: set = set()
            _d_collect(rel, {}, universe, cl, pending)
            for pred, t in pending:
                bucket = rel.setdefault(pred, set())
                if t not in bucket:
                    bucket.add(t)
                    changed = True
    return rel


def correspondence_diff(program: Program, solver_leaves: dict) -> list[str]:
    """Mismatches between the solver's leaves and the set-based evaluation,
    read through (tuple, member) pairs; empty means they agree."""
    strata, facts = to_datalog(program)
    rel = datalog_fixpoint(strata, facts, program.universe)
    diffs = []
    for pred in sorted(program.arities):
        lifted = {atoms + (b,) for atoms, v in solver_leaves.get(pred, {}).items()
                  for b in v}
        flat = rel.get(pred, set())
        for t in sorted(lifted - flat, key=repr):
            diffs.append(f"{pred}{t!r} only in solver reading")
        for t in sorted(flat - lifted, key=repr):
            diffs.append(f"{pred}{t!r} only in set-based reading")
    return diffs
