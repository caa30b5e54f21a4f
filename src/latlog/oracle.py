"""Reference semantics used to cross-check the solver.

This module evaluates programs the slow, obviously-correct way: a literal
reading of the precondition semantics and a stratum-wise naive fixpoint,
which ``latlog compare`` runs against the engine.  The test suite's further
references (the clause semantics, model enumeration, the staged
greatest lower bound, the stratum-lexicographic order and the set-based
evaluator) live in ``tests/reference_semantics.py``.
"""

from __future__ import annotations

from typing import Optional

from .ast import (And, Apply, Assert, Const, Exists, FnApp, Forall, Imply,
                  LitConst, NegQuery, PreOr, Program, Query, Repr, TrueClause,
                  YVar, is_lattice_var)
from .errors import OracleSizeError, UnsupportedInstanceError
from .lattices import render_atom


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

    def leaves(self) -> dict:
        return {pred: dict(m) for pred, m in self._data.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, Interpretation) and self._data == other._data

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Interpretation({self._data!r})"


def dump_lines(program: Program, interp: Interpretation) -> list[str]:
    """Render an interpretation in the solver's dump format, same ordering."""
    order = {a: i for i, a in enumerate(program.universe)}
    leaves, lines = interp.leaves(), []
    for pred in sorted(program.arities):
        entries = sorted(leaves[pred].items(),
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


def _domain(program: Program, var: str):
    """What a bound variable ranges over: the universe, or the lattice's
    non-bottom elements."""
    if not is_lattice_var(var):
        return program.universe
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
    if isinstance(pre, And):
        return all(satisfies_pre(program, interp, env, q) for q in pre.parts)
    if isinstance(pre, PreOr):
        return any(satisfies_pre(program, interp, env, q) for q in pre.parts)
    if isinstance(pre, Exists):
        return any(satisfies_pre(program, interp, {**env, pre.var: a}, pre.body)
                   for a in _domain(program, pre.var))
    raise TypeError(f"not a precondition: {pre!r}")


def facts_interpretation(program: Program) -> Interpretation:
    interp = Interpretation(program.lattice, program.arities)
    for f in program.facts:
        interp.join_in(f.pred, f.atoms, f.value)
    return interp


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
    elif isinstance(cl, And):
        for c in cl.parts:
            _collect_assertions(program, interp, env, c, out)
    elif isinstance(cl, Imply):
        if satisfies_pre(program, interp, env, cl.pre):
            _collect_assertions(program, interp, env, cl.body, out)
    elif isinstance(cl, Forall):
        for a in _domain(program, cl.var):
            _collect_assertions(program, interp, {**env, cl.var: a}, cl.body, out)
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
