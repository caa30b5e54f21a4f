"""Reference semantics used to cross-check the solver.

This module evaluates programs the slow, obviously-correct way: a direct
satisfaction checker, a stratum-wise naive fixpoint, a brute-force model
enumerator for tiny instances, the staged greatest-lower-bound construction
over model sets, and the stratum-lexicographic order on interpretations.
It also hosts a small set-based stratified evaluator used to check the
powerset correspondence of function-free programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Optional

from .ast import (Apply, Assert, ClauseAnd, Const, ExistsX, ExistsY,
                  FnApp, ForallX, ForallY, Imply, LitConst, NegQuery, PreAnd,
                  PreOr, Program, Query, Repr, TrueClause, Var, YVar)
from .errors import OracleSizeError, UnsupportedInstanceError


class Interpretation:
    """Total map from predicates to tuple-indexed lattice values, default bottom."""

    def __init__(self, lattice, arities: dict, data: Optional[dict] = None):
        self.lattice = lattice
        self.arities = dict(arities)
        self._data: dict = {pred: {} for pred in self.arities}
        if data:
            for pred, leaves in data.items():
                for atoms, v in leaves.items():
                    self.set(pred, atoms, v)

    def get(self, pred: str, atoms: tuple):
        return self._data[pred].get(atoms, self.lattice.bottom)

    def set(self, pred: str, atoms: tuple, value) -> None:
        if value == self.lattice.bottom:
            self._data[pred].pop(atoms, None)
        else:
            self._data[pred][atoms] = value

    def join_in(self, pred: str, atoms: tuple, value) -> bool:
        current = self.get(pred, atoms)
        joined = self.lattice.join(current, value)
        if joined == current:
            return False
        self._data[pred][atoms] = joined
        return True

    def copy(self) -> "Interpretation":
        return Interpretation(self.lattice, self.arities, self._data)

    def leaves(self) -> dict:
        return {pred: dict(m) for pred, m in self._data.items()}

    def support(self, pred: str) -> Iterable[tuple]:
        return self._data[pred].keys()

    def pred_equal(self, other: "Interpretation", pred: str) -> bool:
        return self._data[pred] == other._data[pred]

    def pred_leq(self, other: "Interpretation", pred: str) -> bool:
        keys = set(self._data[pred]) | set(other._data[pred])
        return all(self.lattice.leq(self.get(pred, k), other.get(pred, k)) for k in keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, Interpretation) and self._data == other._data

    def __hash__(self):
        return hash(tuple(sorted(
            (pred, tuple(sorted(m.items()))) for pred, m in self._data.items())))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Interpretation({self._data!r})"


def from_leaves(program: Program, leaves: dict) -> Interpretation:
    return Interpretation(program.lattice, program.arities, leaves)


def dump_lines(program: Program, interp: Interpretation) -> list[str]:
    """Render an interpretation in the solver's dump format, same ordering."""
    from .lattices import render_atom

    order = {a: i for i, a in enumerate(program.universe)}
    lines = []
    for pred in sorted(program.arities):
        entries = sorted(interp.leaves()[pred].items(),
                         key=lambda kv: tuple(order[a] for a in kv[0]))
        for atoms, v in entries:
            args = ",".join(render_atom(a) for a in atoms)
            lines.append(f"{pred}({args}) = {program.lattice.render(v)}")
    return lines


# --- satisfaction -------------------------------------------------------------


def _sigma_term(env: dict, t):
    return t.atom if isinstance(t, Const) else env[t.name]


def _sigma_args(env: dict, args: tuple) -> tuple:
    return tuple(_sigma_term(env, t) for t in args)


def _sigma_value(program: Program, env: dict, v):
    """Value of a lattice term under a total environment (function symbols
    resolved through the registry)."""
    if isinstance(v, YVar):
        return env[v.name]
    if isinstance(v, Repr):
        return program.lattice.represent(_sigma_term(env, v.term))
    if isinstance(v, LitConst):
        return v.value
    if isinstance(v, FnApp):
        return program.registry.function(v.name, len(v.args))(
            *[_sigma_value(program, env, a) for a in v.args])
    raise TypeError(f"not a lattice term: {v!r}")


def _nonbottom_elements(program: Program) -> list:
    lattice = program.lattice
    if lattice.enumerate_elements is None:
        raise UnsupportedInstanceError(
            f"lattice {lattice.kind!r} is not enumerable; quantification over "
            "lattice variables needs an element enumeration")
    return [v for v in lattice.enumerate_elements() if v != lattice.bottom]


def satisfies_pre(program: Program, interp: Interpretation, env: dict, pre) -> bool:
    """Literal reading of the precondition semantics."""
    lattice = program.lattice
    if isinstance(pre, Query):
        have = interp.get(pre.pred, _sigma_args(env, pre.args))
        return lattice.leq(_sigma_value(program, env, pre.value), have)
    if isinstance(pre, NegQuery):
        if lattice.complement is None:
            raise UnsupportedInstanceError(
                f"negative query over lattice {lattice.kind!r} without complement")
        have = interp.get(pre.pred, _sigma_args(env, pre.args))
        return lattice.leq(_sigma_value(program, env, pre.value),
                           lattice.complement(have))
    if isinstance(pre, Apply):
        return lattice.leq(lattice.represent(_sigma_term(env, pre.term)), env[pre.yvar])
    if isinstance(pre, PreAnd):
        return all(satisfies_pre(program, interp, env, q) for q in pre.parts)
    if isinstance(pre, PreOr):
        return any(satisfies_pre(program, interp, env, q) for q in pre.parts)
    if isinstance(pre, ExistsX):
        return any(satisfies_pre(program, interp, {**env, pre.var: a}, pre.body)
                   for a in program.universe)
    if isinstance(pre, ExistsY):
        return any(satisfies_pre(program, interp, {**env, pre.yvar: l}, pre.body)
                   for l in _nonbottom_elements(program))
    raise TypeError(f"not a precondition: {pre!r}")


def satisfies_clause(program: Program, interp: Interpretation, env: dict, cl) -> bool:
    """Literal reading of the clause semantics."""
    lattice = program.lattice
    if isinstance(cl, Assert):
        have = interp.get(cl.pred, _sigma_args(env, cl.args))
        return lattice.leq(_sigma_value(program, env, cl.value), have)
    if isinstance(cl, TrueClause):
        return True
    if isinstance(cl, ClauseAnd):
        return all(satisfies_clause(program, interp, env, c) for c in cl.parts)
    if isinstance(cl, Imply):
        if not satisfies_pre(program, interp, env, cl.pre):
            return True
        return satisfies_clause(program, interp, env, cl.body)
    if isinstance(cl, ForallX):
        return all(satisfies_clause(program, interp, {**env, cl.var: a}, cl.body)
                   for a in program.universe)
    if isinstance(cl, ForallY):
        return all(satisfies_clause(program, interp, {**env, cl.yvar: l}, cl.body)
                   for l in _nonbottom_elements(program))
    raise TypeError(f"not a clause: {cl!r}")


def facts_interpretation(program: Program) -> Interpretation:
    interp = Interpretation(program.lattice, program.arities)
    for f in program.facts:
        interp.join_in(f.pred, f.atoms, f.value)
    return interp


def is_model(program: Program, interp: Interpretation) -> bool:
    """Satisfies every stratum and lies above the base facts."""
    base = facts_interpretation(program)
    for pred in program.arities:
        if not base.pred_leq(interp, pred):
            return False
    return all(satisfies_clause(program, interp, {}, cl) for cl in program.strata)


# --- naive fixpoint -----------------------------------------------------------

_MAX_ORACLE_LATTICE = 4096
_MAX_ORACLE_UNIVERSE = 64


def _guard_instance(program: Program) -> None:
    count = program.lattice.element_count
    if count is not None and count > _MAX_ORACLE_LATTICE:
        raise OracleSizeError(
            f"lattice has {count} elements (reference evaluator cap "
            f"{_MAX_ORACLE_LATTICE})")
    if len(program.universe) > _MAX_ORACLE_UNIVERSE:
        raise OracleSizeError(
            f"universe has {len(program.universe)} atoms (reference evaluator "
            f"cap {_MAX_ORACLE_UNIVERSE})")


def _collect_assertions(program: Program, interp: Interpretation, env: dict,
                        cl, out: list) -> None:
    if isinstance(cl, Assert):
        out.append((cl.pred, _sigma_args(env, cl.args),
                    _sigma_value(program, env, cl.value)))
    elif isinstance(cl, TrueClause):
        pass
    elif isinstance(cl, ClauseAnd):
        for c in cl.parts:
            _collect_assertions(program, interp, env, c, out)
    elif isinstance(cl, Imply):
        if satisfies_pre(program, interp, env, cl.pre):
            _collect_assertions(program, interp, env, cl.body, out)
    elif isinstance(cl, ForallX):
        for a in program.universe:
            _collect_assertions(program, interp, {**env, cl.var: a}, cl.body, out)
    elif isinstance(cl, ForallY):
        for l in _nonbottom_elements(program):
            _collect_assertions(program, interp, {**env, cl.yvar: l}, cl.body, out)
    else:
        raise TypeError(f"not a clause: {cl!r}")


def naive_fixpoint(program: Program) -> Interpretation:
    """Stratum-wise Kleene iteration to the least model above the facts."""
    _guard_instance(program)
    interp = facts_interpretation(program)
    for cl in program.strata:
        changed = True
        while changed:
            changed = False
            pending: list = []
            _collect_assertions(program, interp, {}, cl, pending)
            for pred, atoms, value in pending:
                if value != program.lattice.bottom:
                    changed |= interp.join_in(pred, atoms, value)
    return interp


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
    keys = set(m.support(pred)) | set(out.support(pred))
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
        if not all(a.pred_equal(b, p) for p in below):
            continue
        if not all(a.pred_leq(b, p) for p in at):
            continue
        if j == s or any(not a.pred_equal(b, p) for p in at):
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
    if isinstance(pre, PreAnd):
        return DAnd(tuple(map(_translate_pre, pre.parts)))
    if isinstance(pre, PreOr):
        return DOr(tuple(map(_translate_pre, pre.parts)))
    if isinstance(pre, ExistsX):
        return DExists(pre.var, _translate_pre(pre.body))
    if isinstance(pre, ExistsY):
        return DExists(pre.yvar, _translate_pre(pre.body))
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
    if isinstance(cl, ClauseAnd):
        return DCAnd(tuple(map(_translate_clause, cl.parts)))
    if isinstance(cl, Imply):
        return DImply(_translate_pre(cl.pre), _translate_clause(cl.body))
    if isinstance(cl, ForallX):
        return DForall(cl.var, _translate_clause(cl.body))
    if isinstance(cl, ForallY):
        return DForall(cl.yvar, _translate_clause(cl.body))
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
