"""Seeded generation of small valid clause programs.

Used to cross-check the solver against the reference evaluators on many
instances.  Programs are powerset-lattice based, have one or two strata, and
are kept small enough that their full model set stays enumerable; invalid
draws are rejected through the static validators and retried deterministically.
"""

from __future__ import annotations

import random

from . import ast
from .errors import ValidationError
from .lattices import powerset_lattice, standard_registry

_ATOMS = ("a", "b", "c")
_MAX_JOINT_MODEL_SPACE = 512  # model space of all of a program's predicates
_MAX_ATTEMPTS = 50


def _chain(node_type, first, *rest):
    """The node the parser builds for ``first op rest...``: a first operand
    of the same type contributes its parts."""
    head = first.parts if isinstance(first, node_type) else (first,)
    return node_type(head + rest)


class _Gen:
    def __init__(self, rng: random.Random, set_fragment: bool):
        self.rng = rng
        self.set_fragment = set_fragment
        self.universe = _ATOMS[:rng.randint(1, 3)]
        self.lattice = powerset_lattice(self.universe)
        self.fresh = 0

    def build(self) -> ast.Program:
        rng = self.rng
        layout = rng.choice(
            ["single", "single", "two_strata", "base_plus_one", "pair_one_stratum"])
        if layout == "single":
            preds = {"P": self._pick_arity(())}
            plan = [("P",)]
            base = []
        elif layout == "two_strata":
            a1 = self._pick_arity(())
            preds = {"P": a1, "Q": self._pick_arity((a1,))}
            plan = [("P",), ("Q",)]
            base = []
        elif layout == "base_plus_one":
            a1 = self._pick_arity(())
            preds = {"B": a1, "P": self._pick_arity((a1,))}
            plan = [("P",)]
            base = ["B"]
        else:
            a1 = self._pick_arity(())
            preds = {"P": a1, "Q": self._pick_arity((a1,))}
            plan = [("P", "Q")]
            base = []
        self.preds = preds
        self.base = base
        ranks = {p: 0 for p in base}
        for i, asserted in enumerate(plan, 1):
            for p in asserted:
                ranks[p] = i
        self.ranks = ranks

        strata = tuple(self._gen_stratum(asserted, i)
                       for i, asserted in enumerate(plan, 1))
        facts = tuple(self._gen_facts(base))
        return ast.Program(
            lattice=self.lattice,
            registry=standard_registry(self.lattice),
            strata=strata,
            facts=facts,
            arities=dict(preds),
            universe=tuple(self.lattice.atoms),
        )

    def _pick_arity(self, existing) -> int:
        # keep the joint model space enumerable
        size = 2 ** len(self.universe)
        for _ in range(20):
            k = self.rng.choice((0, 1, 1, 1, 2))
            cost = 1
            for a in existing + (k,):
                cost *= size ** (len(self.universe) ** a)
                if cost > _MAX_JOINT_MODEL_SPACE:
                    break
            if cost <= _MAX_JOINT_MODEL_SPACE:
                return k
        return 0

    def _fresh_x(self) -> str:
        self.fresh += 1
        return f"x{self.fresh}"

    def _fresh_y(self) -> str:
        self.fresh += 1
        return f"'Y{self.fresh}"

    def _term(self, xs) -> ast.Term:
        if xs and self.rng.random() < 0.7:
            return ast.Var(self.rng.choice(xs))
        return ast.Const(self.rng.choice(self.universe))

    def _args(self, pred, xs) -> tuple:
        return tuple(self._term(xs) for _ in range(self.preds[pred]))

    def _subset(self) -> frozenset:
        return frozenset(a for a in self.universe if self.rng.random() < 0.5)

    def _value(self, xs, ys, allow_empty=True):
        roll = self.rng.random()
        if ys and roll < 0.4:
            return ast.YVar(self.rng.choice(ys))
        if roll < 0.7:
            return ast.Repr(self._term(xs))
        s = self._subset()
        if not allow_empty and not s:
            s = frozenset((self.rng.choice(self.universe),))
        return ast.LitConst(s)

    def _gen_stratum(self, asserted, i):
        parts = [self._gen_quantified(pred, i) for pred in asserted]
        return _chain(ast.And, *parts) if len(parts) > 1 else parts[0]

    def _gen_quantified(self, pred, i):
        xs = [self._fresh_x() for _ in range(self.rng.randint(0, 2))]
        ys = [self._fresh_y() for _ in range(self.rng.choice((0, 0, 1)))]
        body = self._gen_body(pred, i, xs, ys)
        for var in reversed(xs + ys):
            body = ast.Forall(var, body)
        return body

    def _gen_body(self, pred, i, xs, ys):
        roll = self.rng.random()
        head = ast.Assert(pred, self._args(pred, xs), self._value(xs, ys))
        if roll < 0.15:
            head = ast.And(
                (head, ast.Assert(pred, self._args(pred, xs), self._value(xs, ys))))
        elif roll < 0.2:
            head = ast.And((head, ast.TrueClause()))
        if self.rng.random() < 0.8:
            return ast.Imply(self._gen_pre(i, xs, ys, depth=2), head)
        return head

    def _gen_pre(self, i, xs, ys, depth):
        rng = self.rng
        lower = [p for p, r in self.ranks.items() if r < i]
        anyrank = [p for p, r in self.ranks.items() if r <= i]
        choices = ["query"]
        if lower:
            choices.append("neg")
        if ys and not self.set_fragment:
            choices.append("apply")
        if depth > 0:
            choices += ["and", "or", "existsx", "existsy"]
        kind = rng.choice(choices)
        if kind == "query":
            pred = rng.choice(anyrank)
            return ast.Query(pred, self._args(pred, xs),
                             self._value(xs, ys, allow_empty=False))
        if kind == "neg":
            pred = rng.choice(lower)
            return ast.NegQuery(pred, self._args(pred, xs),
                                self._value(xs, ys, allow_empty=False))
        if kind == "apply":
            return ast.Apply(rng.choice(ys), self._term(xs))
        if kind in ("and", "or"):
            return _chain(ast.And if kind == "and" else ast.PreOr,
                          self._gen_pre(i, xs, ys, depth - 1),
                          self._gen_pre(i, xs, ys, depth - 1))
        if kind == "existsx":
            x = self._fresh_x()
            return ast.Exists(x, self._gen_pre(i, xs + [x], ys, depth - 1))
        y = self._fresh_y()
        return ast.Exists(y, self._gen_pre(i, xs, ys + [y], depth - 1))

    def _gen_facts(self, base):
        for pred in base:
            arity = self.preds[pred]
            tuples = self._all_tuples(arity)
            self.rng.shuffle(tuples)
            for atoms in tuples[:self.rng.randint(0, len(tuples))]:
                value = self._subset()
                if value:
                    yield ast.Fact(pred, atoms, value)

    def _all_tuples(self, arity):
        tuples = [()]
        for _ in range(arity):
            tuples = [t + (a,) for t in tuples for a in self.universe]
        return tuples


def random_program(seed: int, *, set_fragment: bool = False) -> ast.Program:
    """Deterministically generate one validated program for the given seed."""
    for attempt in range(_MAX_ATTEMPTS):
        rng = random.Random(f"latlog:{seed}:{attempt}")
        gen = _Gen(rng, set_fragment)
        program = gen.build()
        try:
            ast.validate(program)
        except ValidationError:
            continue
        return program
    raise ValidationError(f"no valid instance found for seed {seed}")
